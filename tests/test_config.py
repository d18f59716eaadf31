"""Config loading, schema validation, and the declarative builders."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from hjlab import ConfigError, config
from hjlab.config import (
    CONFIG_SCHEMA,
    SCHEMA_VERSION,
    build_drift,
    build_operator,
    build_probes,
    build_rate_matrix,
    build_sequence,
    build_space,
    load_config,
    validate_config,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
RNG = lambda: np.random.default_rng(0)
# jsonschema is the reference the built-in checker must agree with
ORACLE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad_yaml = tmp_path / "broken.yaml"
    bad_yaml.write_text("name: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad_yaml)
    not_mapping = tmp_path / "list.yaml"
    not_mapping.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(not_mapping)


def test_schema_violations_name_their_location():
    with pytest.raises(ConfigError, match="<root>"):
        validate_config({"schema_version": SCHEMA_VERSION})
    with pytest.raises(ConfigError, match="schema_version"):
        validate_config({"schema_version": 99, "name": "x"})
    with pytest.raises(ConfigError, match="schema violation"):
        validate_config({"schema_version": SCHEMA_VERSION, "name": "x", "bogus": 1})
    with pytest.raises(ConfigError, match="resolvent"):
        validate_config(
            {
                "schema_version": SCHEMA_VERSION,
                "name": "x",
                "resolvent": {
                    "space": {"kind": "teapot"},
                    "operator": {"kind": "tilt"},
                    "probes": {"kind": "random"},
                },
            }
        )


def test_all_shipped_configs_validate():
    shipped = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(shipped) == 6
    for path in shipped:
        cfg = load_config(path)
        assert cfg["schema_version"] == SCHEMA_VERSION
        assert cfg["name"]


def test_libyaml_and_pure_python_loaders_agree_on_every_shipped_config(tmp_path):
    # load_config parses with libyaml's CSafeLoader when PyYAML has it
    loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
    assert config._YAML_LOADER is loaders[-1]
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text()
        parsed = [yaml.load(text, Loader=loader) for loader in loaders]
        assert all(p == parsed[0] for p in parsed)
        assert load_config(path) == parsed[0]
    for broken in ("name: [unclosed\n", "a: b: c\n", "key: 'open\n", "- a\nb: c\n"):
        raised = []
        for loader in loaders:
            with pytest.raises(yaml.YAMLError) as info:
                yaml.load(broken, Loader=loader)
            raised.append(type(info.value))
        assert len(set(raised)) == 1, (broken, raised)
        path = tmp_path / "broken.yaml"
        path.write_text(broken)
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)


def test_empty_suite_config_is_valid():
    assert validate_config({"schema_version": SCHEMA_VERSION, "name": "empty"})


def test_build_space_variants():
    s = build_space({"kind": "chain", "size": 5})
    assert s.size == 5
    assert np.array_equal(s.coords[:, 0], np.arange(5.0))
    g = build_space({"kind": "grid", "domain": [0.0, 2.0], "resolution": 8,
                     "periodic": True})
    assert g.size == 8
    assert g.coords[0, 0] == 0.0
    assert g.coords[-1, 0] == pytest.approx(2.0 - 0.25)  # periodic: no endpoint
    # the stencils are periodic, so a closed grid is refused with the config
    closed = yaml.safe_load((CONFIG_DIR / "check.yaml").read_text())
    closed["check"]["space"]["periodic"] = False
    with pytest.raises(ConfigError, match="check/space/periodic: False is not True"):
        validate_config(closed)
    with pytest.raises(ConfigError, match="increasing interval"):
        build_space({"kind": "grid", "domain": [1.0, 0.0]})
    with pytest.raises(ConfigError, match="unknown space kind"):
        build_space({"kind": "teapot"})


def test_build_sequence_wraps_value_errors():
    seq = build_sequence({"kind": "grid_sequence", "domain": [0.0, 1.0],
                          "resolutions": [8, 16, 32]})
    assert seq.n_members == 3
    assert seq.limit.size == 320
    with pytest.raises(ConfigError, match="bad sequence declaration"):
        build_sequence({"kind": "grid_sequence", "domain": [0.0, 1.0],
                        "resolutions": [8, 16]})


def test_build_rate_matrix_variants():
    A = build_rate_matrix({"kind": "cycle", "size": 4, "rate": 2.0}, RNG())
    assert np.allclose(np.diag(A), -2.0)
    assert A[3, 0] == 2.0 and A.sum() == 0.0
    R = build_rate_matrix({"kind": "random", "size": 6, "scale": 0.5}, RNG())
    assert R.shape == (6, 6)
    assert np.allclose(R.sum(axis=1), 0.0)
    rows = [[-1.0, 1.0], [0.5, -0.5]]
    assert np.allclose(
        build_rate_matrix({"kind": "explicit", "rows": rows}, RNG()), rows
    )
    # the ambient size stands in when the spec omits one
    assert build_rate_matrix({"kind": "random"}, RNG(), size=4).shape == (4, 4)
    with pytest.raises(ConfigError, match="needs a size"):
        build_rate_matrix({"kind": "random"}, RNG())
    with pytest.raises(ConfigError, match="needs rows"):
        build_rate_matrix({"kind": "explicit"}, RNG())
    with pytest.raises(ConfigError, match="bad explicit rate matrix"):
        build_rate_matrix({"kind": "explicit", "rows": [[1.0, 0.0], [0.0, 1.0]]}, RNG())
    with pytest.raises(ConfigError, match="unknown rate matrix kind"):
        build_rate_matrix({"kind": "magic"}, RNG())


def test_build_drift_variants():
    s = build_space({"kind": "grid", "resolution": 8})
    assert np.allclose(build_drift({"kind": "const", "value": -0.3}, s), -0.3)
    x = s.coords[:, 0]
    got = build_drift({"kind": "trig", "cos": [0.0, 0.5]}, s)
    assert np.allclose(got, 0.5 * np.cos(2.0 * np.pi * x))
    with pytest.raises(ConfigError, match="unknown drift kind"):
        build_drift({"kind": "teapot"}, s)


def test_build_operator_variants():
    s = build_space({"kind": "chain", "size": 4})
    g = build_space({"kind": "grid", "resolution": 16})
    lin = build_operator(
        {"kind": "linear", "rate_matrix": {"kind": "cycle"}}, s, RNG()
    )
    assert lin.space is s and lin.jacobian is not None
    tilt = build_operator(
        {"kind": "tilt", "rate_matrix": {"kind": "random"}, "probe_radius": 0.5},
        s, RNG(),
    )
    assert tilt.lipschitz_bound is not None
    up = build_operator(
        {"kind": "upwind_quadratic", "drift": {"kind": "trig", "sin": [0.4]}},
        g, RNG(),
    )
    assert up.custom_solver is not None  # Howard, the upwind scheme's solver
    cen = build_operator({"kind": "centered_quadratic"}, g, RNG())
    assert cen.custom_solver is None
    with pytest.raises(ConfigError, match="needs a rate_matrix"):
        build_operator({"kind": "linear"}, s, RNG())
    with pytest.raises(ConfigError, match="does not match"):
        build_operator(
            {"kind": "linear",
             "rate_matrix": {"kind": "explicit", "rows": [[-1.0, 1.0], [1.0, -1.0]]}},
            s, RNG(),
        )
    with pytest.raises(ConfigError, match="unknown operator kind"):
        build_operator({"kind": "teapot"}, s, RNG())


def test_build_probes_variants():
    s = build_space({"kind": "grid", "resolution": 12})
    rnd = build_probes({"kind": "random", "count": 3, "bound": 0.7}, s, RNG())
    assert len(rnd) == 3
    assert all(p.norm <= 0.7 for p in rnd)
    basis = build_probes({"kind": "trig_basis", "max_degree": 2}, s, RNG())
    assert len(basis) == 5
    listed = build_probes(
        {"kind": "trig_list", "items": [{"cos": [0.1]}, {"sin": [0.2]}]}, s, RNG()
    )
    assert len(listed) == 2
    b = build_probes(
        {"kind": "bump", "center": 0.5, "width": 0.2, "height": 2.0}, s, RNG()
    )
    assert len(b) == 1 and b[0].values.max() <= 2.0
    with pytest.raises(ConfigError, match="unknown probe kind"):
        build_probes({"kind": "teapot"}, s, RNG())


def test_schema_is_self_consistent():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


# --- the built-in checker against jsonschema ---------------------------------


def _subschemas(schema):
    """Every schema nested in schema, itself included."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", []):
        yield from _subschemas(sub)


def test_checker_implements_exactly_the_keywords_the_schema_uses_in_the_form_used():
    used = set().union(*map(set, _subschemas(CONFIG_SCHEMA)))
    assert used == set(config._KEYWORDS)
    for schema in _subschemas(CONFIG_SCHEMA):
        # the forms the checker reads: one type name, additionalProperties
        # false, scalar enum and const values
        assert schema.get("type", "object") in config._TYPES
        assert schema.get("additionalProperties", False) is False
        for value in [schema.get("const", 0), *schema.get("enum", [])]:
            assert isinstance(value, (str, int, float))


def _check(doc):
    """(valid, message) from validate_config."""
    try:
        validate_config(doc)
    except ConfigError as exc:
        return False, str(exc)
    return True, ""


def _oracle_location(doc):
    path = best_match(ORACLE.iter_errors(doc)).absolute_path
    return "/".join(str(p) for p in path) or "<root>"


@pytest.mark.parametrize(
    "schema, doc",
    [
        ({"type": "integer"}, True),  # a bool is not an integer
        ({"type": "number"}, False),  # nor a number
        ({"type": "integer"}, 2.0),  # 2.0 is an integer
        ({"type": "integer"}, 2.5),
        ({"const": 1}, True),  # true is not 1
        ({"const": 1}, 1.0),  # 1.0 is
        ({"enum": ["a", 0]}, False),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3),  # both fit
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2.5),  # one fits
        ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, None),  # none fits
        ({"type": "array", "minItems": 1, "maxItems": 1}, []),
        ({"minimum": 0, "exclusiveMinimum": 0, "minLength": 2}, "a"),  # type-bound keywords
        ({"type": "object", "required": ["a"], "additionalProperties": False}, {"b": 1}),
    ],
)
def test_keywords_follow_draft_2020_12_as_jsonschema_does(schema, doc):
    valid = not list(config._violations(doc, schema, ()))
    assert valid == jsonschema.Draft202012Validator(schema).is_valid(doc)


def _nodes(doc, schema, path=()):
    """(path, value, schema) for every value of the valid doc, with a oneOf
    resolved to the branch the value satisfies, taken together with the
    keywords beside the oneOf."""
    if "oneOf" in schema:
        branch = next(s for s in schema["oneOf"] if ORACLE.evolve(schema=s).is_valid(doc))
        schema = {k: v for k, v in schema.items() if k != "oneOf"} | branch
    yield path, doc, schema
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, schema["properties"][key], (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, schema["items"], (*path, i))


SHIPPED = {path.stem: load_config(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))}
NODES = {
    name: {path: (value, schema) for path, value, schema in _nodes(doc, CONFIG_SCHEMA)}
    for name, doc in SHIPPED.items()
}
# the two converge branches of the shipped configs, by kind
CONVERGE = {doc["converge"]["kind"]: doc["converge"] for doc in SHIPPED.values() if "converge" in doc}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


def _delete_required(data, value, schema):
    drop = data.draw(st.sampled_from([k for k in schema["required"] if k in value]))
    return {k: v for k, v in value.items() if k != drop}


def _add_unknown(data, value, schema):
    key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in schema["properties"]))
    return {**value, key: 0}


def _mix_converge_branches(data, value, schema):
    other = next(o for kind, o in CONVERGE.items() if kind != value["kind"])
    key = data.draw(st.sampled_from(sorted(other)))
    return {**value, key: copy.deepcopy(other[key])}


# name -> (does it apply to this (value, schema) node, the drawn new value)
MUTATIONS = {
    "delete a required key": (
        lambda v, s: isinstance(v, dict) and any(k in v for k in s.get("required", [])),
        _delete_required,
    ),
    "add an unknown key": (
        lambda v, s: isinstance(v, dict) and "additionalProperties" in s,
        _add_unknown,
    ),
    "a bool, a string or a fraction for an integer": (
        lambda v, s: s.get("type") == "integer",
        lambda data, v, s: data.draw(st.sampled_from([True, False, "3", str(v), 2.5, v + 0.5])),
    ),
    "an integer as a float": (
        lambda v, s: s.get("type") == "integer",
        lambda data, v, s: float(v),
    ),
    "any JSON value for a typed or constant one": (
        lambda v, s: "type" in s or "const" in s,
        lambda data, v, s: data.draw(JSON_VALUES),
    ),
    "below the minimum": (
        lambda v, s: "minimum" in s,
        lambda data, v, s: s["minimum"] - data.draw(st.sampled_from([1, 0.5, 1e-9])),
    ),
    "onto or below the exclusive minimum": (
        lambda v, s: "exclusiveMinimum" in s,
        lambda data, v, s: s["exclusiveMinimum"] - data.draw(st.sampled_from([0, 0.0, 1e-300, 1])),
    ),
    "too few items": (
        lambda v, s: "minItems" in s,
        lambda data, v, s: v[: data.draw(st.integers(0, s["minItems"] - 1))],
    ),
    "too many items": (
        lambda v, s: "maxItems" in s,
        lambda data, v, s: v + v[:1] * data.draw(st.integers(s["maxItems"] + 1 - len(v), 4)),
    ),
    "outside the enum": (
        lambda v, s: "enum" in s,
        lambda data, v, s: data.draw(st.text(max_size=20).filter(lambda t: t not in s["enum"])),
    ),
    "keys of the other converge branch": (
        lambda v, s: s.get("properties", {}).get("kind", {}).get("const") in CONVERGE,
        _mix_converge_branches,
    ),
}


def _mutate(data):
    """One shipped config with one node changed: (document, path of the node)."""
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    nodes = NODES[name]
    applies, change = MUTATIONS[data.draw(st.sampled_from(sorted(
        m for m, (applies, _) in MUTATIONS.items() if any(applies(*n) for n in nodes.values())
    )))]
    path = data.draw(st.sampled_from([p for p, n in nodes.items() if applies(*n)]))
    new = change(data, *nodes[path])
    if not path:
        return new, path
    doc = copy.deepcopy(SHIPPED[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc, path


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_checker_agrees_with_jsonschema_on_single_violations_of_shipped_configs(data):
    doc, path = _mutate(data)
    valid, message = _check(doc)
    assert valid == ORACLE.is_valid(doc)
    if not isinstance(doc, dict):
        assert message == "config must be a mapping"
    elif not valid and path[:1] != ("converge",):
        # inside converge's oneOf the two blame different branches
        assert message.startswith(f"config schema violation at {_oracle_location(doc)}: ")


def test_importing_the_package_loads_no_schema_library():
    code = (
        "import sys, hjlab; print('jsonschema' in sys.modules); "
        "import hjlab.cli; print('jsonschema' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]
