"""Config loading, schema validation, and the declarative builders."""

from pathlib import Path

import numpy as np
import pytest
import yaml

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

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
RNG = lambda: np.random.default_rng(0)


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
    closed = build_space({"kind": "grid", "domain": [0.0, 2.0], "resolution": 9,
                          "periodic": False})
    assert closed.coords[-1, 0] == pytest.approx(2.0)
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
    assert up.monotone
    cen = build_operator({"kind": "centered_quadratic"}, g, RNG())
    assert not cen.monotone
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
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
