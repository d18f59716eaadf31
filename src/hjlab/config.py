"""Declarative experiment configs: YAML loading, schema validation, builders.

A config is a mapping with a pinned schema_version, a name, an optional seed,
and one section per subcommand (resolvent / semigroup / converge / check).
CONFIG_SCHEMA, a JSON Schema (Draft 2020-12), is the one statement of what a
config may hold; validate_config reads it with the few keywords it uses (see
_KEYWORDS), so no schema library is loaded at startup.  Validation failures
and unresolvable references raise ConfigError, which the CLI maps to exit
code 2; everything downstream of a valid config is a suite result, never a
schema error.
"""

from __future__ import annotations

import numbers
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError
from .limits import Fn
from .operators import (
    Hamiltonian,
    centered_quadratic,
    linear_generator,
    random_rate_matrix,
    tilt_linear,
    upwind_quadratic,
    validate_rate_matrix,
)
from .probes import bump, random_bounded, trig_basis, trig_polynomial
from .spaces import FiniteSpace, SpaceSequence, _interval_grid, make_grid_sequence

__all__ = [
    "SCHEMA_VERSION",
    "CONFIG_SCHEMA",
    "load_config",
    "build_space",
    "build_sequence",
    "build_rate_matrix",
    "build_operator",
    "build_rate_operator",
    "build_drift",
    "build_probes",
]

SCHEMA_VERSION = 1

_SPACE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["chain", "grid"]},
        "size": {"type": "integer", "minimum": 2},
        "domain": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "resolution": {"type": "integer", "minimum": 2},
        "periodic": {"type": "boolean"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SEQUENCE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["grid_sequence"]},
        "domain": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "resolutions": {"type": "array", "items": {"type": "integer"}, "minItems": 3},
        "periodic": {"type": "boolean"},
        "q_widths": {"type": "array", "items": {"type": "number"}},
        "limit_resolution_factor": {"type": "integer", "minimum": 1},
        "n0": {"type": "integer", "minimum": 0},
    },
    "required": ["kind", "domain", "resolutions"],
    "additionalProperties": False,
}

_RATE_MATRIX = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["random", "cycle", "explicit"]},
        "size": {"type": "integer", "minimum": 2},
        "scale": {"type": "number", "exclusiveMinimum": 0},
        "rate": {"type": "number", "exclusiveMinimum": 0},
        "rows": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_DRIFT = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["const", "trig"]},
        "value": {"type": "number"},
        "cos": {"type": "array", "items": {"type": "number"}},
        "sin": {"type": "array", "items": {"type": "number"}},
        "period": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_OPERATOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["linear", "tilt", "upwind_quadratic", "centered_quadratic"]},
        "rate_matrix": _RATE_MATRIX,
        "probe_radius": {"type": "number", "exclusiveMinimum": 0},
        "drift": _DRIFT,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_PROBES = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["random", "trig_basis", "trig_list", "bump"]},
        "count": {"type": "integer", "minimum": 1},
        "bound": {"type": "number", "exclusiveMinimum": 0},
        "max_degree": {"type": "integer", "minimum": 0},
        "period": {"type": "number", "exclusiveMinimum": 0},
        "items": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "cos": {"type": "array", "items": {"type": "number"}},
                    "sin": {"type": "array", "items": {"type": "number"}},
                },
                "additionalProperties": False,
            },
        },
        "center": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "height": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_RESOLVENT = {
    "type": "object",
    "properties": {
        "space": _SPACE,
        "operator": _OPERATOR,
        "probes": _PROBES,
        "identity": {
            "type": "object",
            "properties": {
                "alpha": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "beta": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["alpha", "beta", "tol"],
            "additionalProperties": False,
        },
        "contractivity": {
            "type": "object",
            "properties": {
                "lambdas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["lambdas", "tol"],
            "additionalProperties": False,
        },
    },
    "required": ["space", "operator", "probes"],
    "additionalProperties": False,
}

_SEMIGROUP = {
    "type": "object",
    "properties": {
        "space": _SPACE,
        "operator": _OPERATOR,
        "initial": _PROBES,
        "t": {"type": "number", "exclusiveMinimum": 0},
        "n_steps": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
        "oracle": {"enum": ["logexp", "linear", "self"]},
        "tol_final": {"type": "number", "exclusiveMinimum": 0},
        "slope_range": {
            "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
        },
        "density": {
            "type": "object",
            "properties": {
                "max_k": {"type": "integer", "minimum": 1},
                "tol_final": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["max_k", "tol_final"],
            "additionalProperties": False,
        },
    },
    "required": ["space", "operator", "initial", "t", "n_steps", "oracle", "tol_final"],
    "additionalProperties": False,
}

_CONVERGE_GRID = {
    "type": "object",
    "properties": {
        "kind": {"const": "grid_experiment"},
        "sequence": _SEQUENCE,
        "scheme": {"enum": ["upwind_quadratic", "centered_quadratic"]},
        "limit_scheme": {"enum": ["upwind_quadratic", "centered_quadratic"]},
        "drift": _DRIFT,
        "probes": _PROBES,
        "lambdas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "tol_lim": {"type": "number", "exclusiveMinimum": 0},
        "envelope_tolerance": {
            "type": "object",
            "properties": {
                "factor": {"type": "number", "exclusiveMinimum": 0},
                "value": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "expectation": {"enum": ["converge", "separate"]},
        "viscosity_tol": {"type": "number", "exclusiveMinimum": 0},
        "equicontinuity_delta": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "sequence", "scheme", "drift", "probes", "lambdas",
                 "tol_lim", "envelope_tolerance", "expectation"],
    "additionalProperties": False,
}

_CONVERGE_SLOWFAST = {
    "type": "object",
    "properties": {
        "kind": {"const": "slowfast"},
        "slow_space": _SPACE,
        "slow_operator": _OPERATOR,
        "fast_rate_matrix": _RATE_MATRIX,
        "multipliers": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "couplings": {"type": "array", "items": {"type": "number"}, "minItems": 3},
        "lambda": {"type": "number", "exclusiveMinimum": 0},
        "h": _PROBES,
        "tol_deviation": {"type": "number", "exclusiveMinimum": 0},
        "min_decay_order": {"type": "number"},
    },
    "required": ["kind", "slow_space", "slow_operator", "fast_rate_matrix",
                 "couplings", "lambda", "h", "tol_deviation"],
    "additionalProperties": False,
}

_CHECK = {
    "type": "object",
    "properties": {
        "space": _SPACE,
        "operator": _OPERATOR,
        "probes": _PROBES,
        "hhat": {
            "type": "object",
            "properties": {
                "lambdas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "dissipativity_lambdas": {
                    "type": "array", "items": {"type": "number"}, "minItems": 1,
                },
                "dissipativity_tol": {"type": "number", "exclusiveMinimum": 0},
                "viscosity_tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["lambdas", "dissipativity_lambdas"],
            "additionalProperties": False,
        },
        "spike": {
            "type": "object",
            "properties": {
                "magnitude": {"type": "number", "exclusiveMinimum": 0},
                "expect_failure": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "optimizing_sequence": {
            "type": "object",
            "properties": {
                "points": {"type": "integer", "minimum": 10},
                "eps_halvings": {"type": "integer", "minimum": 2},
                "tol_f": {"type": "number", "exclusiveMinimum": 0},
                "tol_g": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["points", "eps_halvings"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "resolvent": _RESOLVENT,
        "semigroup": _SEMIGROUP,
        "converge": {"oneOf": [_CONVERGE_GRID, _CONVERGE_SLOWFAST]},
        "check": _CHECK,
    },
    "required": ["schema_version", "name"],
    "additionalProperties": False,
}


# libyaml's parser when PyYAML was built with it: the same dicts and the same
# YAMLError classes as the pure-Python SafeLoader, at a fraction of the time
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    errors = list(_violations(raw, CONFIG_SCHEMA, ()))
    if errors:
        # the one jsonschema's best_match names: the violation highest up in
        # the document says most about what is wrong; of siblings, the one
        # with the greatest path (paths differ first at keys of one mapping
        # or indices of one list, so they compare)
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config schema violation at {where}: {message}")
    return raw


# CONFIG_SCHEMA is read by the JSON Schema (Draft 2020-12) rules of the
# keywords it uses, one function per keyword in _KEYWORDS; any other keyword
# is a KeyError, and a test walks the schema for one.  Each function takes the
# instance, the keyword's value, the enclosing schema and the instance's path,
# and yields (path, message) per violation.  A keyword about objects, arrays,
# strings or numbers passes an instance of any other type.


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # True is neither a number nor an integer in JSON; 2.0 is an integer
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    ),
}


def _json_equal(a: Any, b: Any) -> bool:
    # for the scalars of enum and const; True == 1 in Python, not in JSON
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _rule(applies_to: str | None, fails, says: str):
    """A keyword that tests one instance of its type (of any type for None)."""
    def check(v, want, schema, path):
        if (applies_to is None or _TYPES[applies_to](v)) and fails(v, want):
            yield path, f"{v!r} {says.format(want)}"
    return check


def _properties(v, want, schema, path):
    if isinstance(v, dict):
        for name, sub in want.items():
            if name in v:
                yield from _violations(v[name], sub, (*path, name))


def _required(v, want, schema, path):
    if isinstance(v, dict):
        for name in want:
            if name not in v:
                yield path, f"{name!r} is a required property"


def _additional_properties(v, want, schema, path):
    # CONFIG_SCHEMA sets additionalProperties only ever to false
    if isinstance(v, dict):
        extra = sorted((k for k in v if k not in schema.get("properties", {})), key=str)
        if extra:
            yield path, f"additional properties are not allowed: {', '.join(map(repr, extra))}"


def _items(v, want, schema, path):
    if isinstance(v, list):
        for i, item in enumerate(v):
            yield from _violations(item, want, (*path, i))


def _one_of(v, want, schema, path):
    branches = [list(_violations(v, sub, path)) for sub in want]
    valid = branches.count([])
    if valid > 1:
        yield path, f"valid under {valid} of the oneOf schemas, not exactly one"
    elif not valid:
        # the branch that got furthest: the deepest shallowest violation,
        # then the fewest violations
        yield from min(branches, key=lambda errs: (-min(len(p) for p, _ in errs), len(errs)))


_KEYWORDS = {
    "type": _rule(None, lambda v, t: not _TYPES[t](v), "is not of type {!r}"),
    "enum": _rule(None, lambda v, e: not any(_json_equal(v, x) for x in e), "is not one of {!r}"),
    "const": _rule(None, lambda v, c: not _json_equal(v, c), "is not {!r}"),
    "minimum": _rule("number", lambda v, m: v < m, "is less than the minimum of {!r}"),
    "exclusiveMinimum": _rule("number", lambda v, m: v <= m,
                              "is less than or equal to the minimum of {!r}"),
    "minItems": _rule("array", lambda v, n: len(v) < n, "is too short (fewer than {} items)"),
    "maxItems": _rule("array", lambda v, n: len(v) > n, "is too long (more than {} items)"),
    "minLength": _rule("string", lambda v, n: len(v) < n,
                       "is too short (fewer than {} characters)"),
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "oneOf": _one_of,
}


def _violations(v: Any, schema: dict, path: tuple):
    for keyword, want in schema.items():
        yield from _KEYWORDS[keyword](v, want, schema, path)


def build_space(spec: dict) -> FiniteSpace:
    kind = spec["kind"]
    if kind == "chain":
        size = int(spec.get("size", 2))
        xs = np.arange(size, dtype=float)
        return FiniteSpace(coords=xs, name=f"chain{size}")
    if kind == "grid":
        a, b = (float(v) for v in spec.get("domain", [0.0, 1.0]))
        if b <= a:
            raise ConfigError("grid domain must be an increasing interval")
        res = int(spec.get("resolution", 64))
        xs = _interval_grid(a, b, res, bool(spec.get("periodic", True)))
        return FiniteSpace(coords=xs, name=f"grid{res}")
    raise ConfigError(f"unknown space kind: {kind}")


def build_sequence(spec: dict) -> SpaceSequence:
    try:
        return make_grid_sequence(
            domain=tuple(spec["domain"]),
            resolutions=spec["resolutions"],
            q_widths=spec.get("q_widths", (0.5, 1.0)),
            periodic=spec.get("periodic", True),
            limit_resolution_factor=spec.get("limit_resolution_factor", 10),
            n0=spec.get("n0"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad sequence declaration: {exc}") from exc


def build_rate_matrix(spec: dict, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    kind = spec["kind"]
    if kind == "random":
        n = int(spec.get("size") or size or 0)
        if n < 2:
            raise ConfigError("random rate matrix needs a size")
        return random_rate_matrix(rng, n, scale=float(spec.get("scale", 1.0)))
    if kind == "cycle":
        n = int(spec.get("size") or size or 0)
        if n < 2:
            raise ConfigError("cycle rate matrix needs a size")
        rate = float(spec.get("rate", 1.0))
        A = np.zeros((n, n))
        for i in range(n):
            A[i, (i + 1) % n] = rate
            A[i, i] = -rate
        return A
    if kind == "explicit":
        rows = spec.get("rows")
        if not rows:
            raise ConfigError("explicit rate matrix needs rows")
        try:
            return validate_rate_matrix(np.asarray(rows, dtype=float))
        except Exception as exc:
            raise ConfigError(f"bad explicit rate matrix: {exc}") from exc
    raise ConfigError(f"unknown rate matrix kind: {kind}")


def build_drift(spec: dict, space: FiniteSpace) -> np.ndarray:
    kind = spec["kind"]
    if kind == "const":
        return np.full(space.size, float(spec.get("value", 0.0)))
    if kind == "trig":
        fn = trig_polynomial(
            space, spec.get("cos", []), spec.get("sin", []),
            period=float(spec.get("period", 1.0)),
        )
        return fn.values
    raise ConfigError(f"unknown drift kind: {kind}")


def build_rate_operator(
    spec: dict, space: FiniteSpace, rng: np.random.Generator
) -> tuple[Hamiltonian, np.ndarray]:
    """A linear or tilt operator together with its rate matrix, which the
    semigroup oracles need."""
    kind = spec["kind"]
    mat_spec = spec.get("rate_matrix")
    if mat_spec is None:
        raise ConfigError(f"{kind} operator needs a rate_matrix")
    A = build_rate_matrix(mat_spec, rng, size=space.size)
    if A.shape[0] != space.size:
        raise ConfigError("rate matrix size does not match the space")
    if kind == "linear":
        return linear_generator(A, space), A
    return tilt_linear(A, space, probe_radius=float(spec.get("probe_radius", 1.0))), A


def build_operator(spec: dict, space: FiniteSpace, rng: np.random.Generator) -> Hamiltonian:
    kind = spec["kind"]
    if kind in ("linear", "tilt"):
        return build_rate_operator(spec, space, rng)[0]
    if kind in ("upwind_quadratic", "centered_quadratic"):
        drift_spec = spec.get("drift", {"kind": "const", "value": 0.0})
        b = build_drift(drift_spec, space)
        maker = upwind_quadratic if kind == "upwind_quadratic" else centered_quadratic
        try:
            return maker(space, b)
        except Exception as exc:
            raise ConfigError(f"cannot build {kind} on {space.name}: {exc}") from exc
    raise ConfigError(f"unknown operator kind: {kind}")


def build_probes(spec: dict, space: FiniteSpace, rng: np.random.Generator) -> list[Fn]:
    kind = spec["kind"]
    if kind == "random":
        count = int(spec.get("count", 1))
        bound = float(spec.get("bound", 1.0))
        return [random_bounded(space, rng, bound) for _ in range(count)]
    if kind == "trig_basis":
        return trig_basis(space, int(spec.get("max_degree", 2)),
                          period=float(spec.get("period", 1.0)))
    if kind == "trig_list":
        period = float(spec.get("period", 1.0))
        return [
            trig_polynomial(space, item.get("cos", []), item.get("sin", []), period=period)
            for item in spec["items"]
        ]
    if kind == "bump":
        return [bump(space, float(spec.get("center", 0.5)), float(spec.get("width", 0.1)),
                     float(spec.get("height", 1.0)))]
    raise ConfigError(f"unknown probe kind: {kind}")
