"""Every module-level import in the package is used by its module, and every
name a module exports is bound in it.

There is no lint step, so these tests are the check:
  * a name bound by an import at module level in src/hjlab/*.py (other than
    __init__.py, which re-exports, and `from __future__`) must be named again
    somewhere in the module, in code or in its __all__;
  * every entry of a module's __all__ must be bound at module level (by a
    def, a class, an assignment or an import).  A stale entry breaks
    `from module import *`, and since __all__ counts as a use it could
    otherwise hide an unused import;
  * every name __init__.py re-exports from a submodule must be in that
    submodule's __all__ (errors, which has none, is skipped), so a name a
    module keeps bound for internal use cannot leak into the public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hjlab"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict:
    """Name -> line of every name a module-level import binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> list:
    """The entries of the module's __all__, empty when it has none."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(exported_names(tree))


def bound_names(tree: ast.Module) -> set:
    """Every name a module-level statement binds."""
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return bound


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items()
        if name not in used
    )


def unbound_exports(source: str) -> list:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return sorted(name for name in exported_names(tree) if name not in bound)


def unlisted_reexports(init_source: str, module_all) -> list:
    """module.name for every name the package __init__ imports from a
    submodule that the submodule's __all__ (module_all(module)) does not
    list; submodules without an __all__ are skipped."""
    unlisted = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            listed = module_all(node.module)
            if listed:
                unlisted += [f"{node.module}.{a.name}" for a in node.names
                             if a.name not in listed]
    return sorted(unlisted)


def submodule_all(module: str) -> list:
    return exported_names(ast.parse((SRC / f"{module}.py").read_text()))


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from dataclasses import dataclass, field\n"
        "from .limits import Fn\n"
        "__all__ = ['Fn']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field (line 4)", "scipy (line 3)"]


def test_the_check_sees_stale_exports():
    source = (
        "from .limits import Fn\n"
        "__all__ = ['Fn', 'A', 'f', 'X', 'Y', 'scale_graph', 'gone']\n"
        "class A:\n"
        "    def gone(self):\n"
        "        scale_graph = 1\n"
        "def f():\n"
        "    pass\n"
        "X, Y = 1, 2\n"
    )
    assert unbound_exports(source) == ["gone", "scale_graph"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_exported_names_are_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_the_check_sees_reexports_missing_from_all():
    source = (
        "from .errors import HJLabError\n"
        "from .spaces import FiniteSpace, EnlargedSpaceSequence\n"
        "from .limits import Fn, _gather\n"
    )
    module_all = {"errors": [], "spaces": ["FiniteSpace"], "limits": ["Fn"]}.get
    assert unlisted_reexports(source, module_all) == [
        "limits._gather", "spaces.EnlargedSpaceSequence",
    ]


def test_package_reexports_are_in_their_modules_all():
    assert unlisted_reexports((SRC / "__init__.py").read_text(), submodule_all) == []
