"""Exit codes, report/table outputs, determinism, and seed plumbing."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hjlab.cli import main, run_command

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EMPTY = {"schema_version": 1, "name": "empty-suite"}

RESOLVENT_TINY = {
    "schema_version": 1,
    "name": "tiny-resolvent",
    "seed": 1,
    "resolvent": {
        "space": {"kind": "chain", "size": 6},
        "operator": {"kind": "tilt", "rate_matrix": {"kind": "cycle", "rate": 1.0}},
        "probes": {"kind": "random", "count": 3, "bound": 1.0},
        "identity": {"alpha": [0.5], "beta": [1.0], "tol": 1e-8},
        "contractivity": {"lambdas": [0.5], "tol": 1e-9},
    },
}


def write_cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_report(out):
    return json.loads((Path(out) / "report.json").read_text())


def test_empty_suite_exits_zero_for_every_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, EMPTY)
    for k, command in enumerate(("resolvent", "semigroup", "converge", "check")):
        out = str(tmp_path / f"out{k}")
        assert main([command, "--config", cfg, "--out", out]) == 0
        rep = read_report(out)
        assert rep["passed"] is True
        assert rep["cells"] == []
        assert rep["command"] == command


def test_resolvent_suite_writes_report_and_tables(tmp_path):
    cfg = write_cfg(tmp_path, RESOLVENT_TINY)
    out = str(tmp_path / "out")
    assert main(["resolvent", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["passed"] is True
    assert rep["seed"] == 1
    assert [c["name"] for c in rep["cells"]] == [
        "pseudo_resolvent_identity",
        "contractivity",
    ]
    identity = Path(out) / "tables" / "identity_residuals.csv"
    contractivity = Path(out) / "tables" / "contractivity.csv"
    assert identity.read_text().splitlines()[0] == "alpha,beta,h_index,residual"
    assert len(contractivity.read_text().splitlines()) == 1 + 3  # header + pairs


def test_failing_suite_exits_one(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "schema_version": 1,
            "name": "unreachable-tolerance",
            "seed": 1,
            "semigroup": {
                "space": {"kind": "chain", "size": 4},
                "operator": {"kind": "tilt", "rate_matrix": {"kind": "cycle"}},
                "initial": {"kind": "random", "count": 1, "bound": 0.5},
                "t": 0.5,
                "n_steps": [2, 4],
                "oracle": "logexp",
                "tol_final": 1e-15,
            },
        },
    )
    out = str(tmp_path / "out")
    assert main(["semigroup", "--config", cfg, "--out", out]) == 1
    rep = read_report(out)
    assert rep["passed"] is False
    cell = rep["cells"][0]
    assert cell["name"] == "iteration_vs_oracle"
    assert cell["details"]["final"] > 1e-15


def test_numeric_errors_inside_a_cell_become_cell_records(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, RESOLVENT_TINY)
    clean = str(tmp_path / "clean")
    assert main(["resolvent", "--config", cfg, "--out", clean]) == 0

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("hjlab.cli.check_pseudo_resolvent_identity", singular)
    out = str(tmp_path / "out")
    assert main(["resolvent", "--config", cfg, "--out", out]) == 1
    rep = read_report(out)
    assert rep["passed"] is False
    assert rep["cells"][0] == {
        "name": "pseudo_resolvent_identity",
        "passed": False,
        "error": "LinAlgError: Singular matrix",
    }
    assert rep["cells"][1] == read_report(clean)["cells"][1]
    assert rep["cells"][1]["passed"] is True


def test_schema_errors_exit_two_with_a_message(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert main(["check", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    unnamed = write_cfg(tmp_path, {"schema_version": 1})
    assert main(["check", "--config", unnamed, "--out", str(tmp_path / "o")]) == 2
    assert "schema violation" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, EMPTY, "ok.yaml")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_invalid_dynamics_are_suite_failures_not_schema_errors(tmp_path):
    # a negative lambda is schema-legal; it must surface as a failing cell
    bad = dict(RESOLVENT_TINY, name="negative-lambda")
    bad["resolvent"] = dict(RESOLVENT_TINY["resolvent"])
    bad["resolvent"]["contractivity"] = {"lambdas": [-1.0], "tol": 1e-9}
    cfg = write_cfg(tmp_path, bad)
    out = str(tmp_path / "out")
    assert main(["resolvent", "--config", cfg, "--out", out]) == 1
    rep = read_report(out)
    cell = {c["name"]: c for c in rep["cells"]}["contractivity"]
    assert cell["passed"] is False
    assert "PreconditionError" in cell["error"]


def test_seed_flag_overrides_the_config_seed(tmp_path):
    cfg = write_cfg(tmp_path, RESOLVENT_TINY)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["resolvent", "--config", cfg, "--out", out1]) == 0
    assert main(["resolvent", "--config", cfg, "--out", out2, "--seed", "7"]) == 0
    assert read_report(out1)["seed"] == 1
    assert read_report(out2)["seed"] == 7
    # different probe draws, hence different residual tables
    t1 = (Path(out1) / "tables" / "identity_residuals.csv").read_bytes()
    t2 = (Path(out2) / "tables" / "identity_residuals.csv").read_bytes()
    assert t1 != t2


def assert_identical_outputs(out1, out2):
    r1 = (Path(out1) / "report.json").read_bytes()
    r2 = (Path(out2) / "report.json").read_bytes()
    assert r1 == r2
    tables1 = sorted(p.name for p in (Path(out1) / "tables").glob("*.csv"))
    tables2 = sorted(p.name for p in (Path(out2) / "tables").glob("*.csv"))
    assert tables1 == tables2 and tables1
    for name in tables1:
        b1 = (Path(out1) / "tables" / name).read_bytes()
        b2 = (Path(out2) / "tables" / name).read_bytes()
        assert b1 == b2


def test_same_config_and_seed_give_byte_identical_outputs(tmp_path):
    cfg = write_cfg(tmp_path, RESOLVENT_TINY)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["resolvent", "--config", cfg, "--out", out1]) == 0
    assert main(["resolvent", "--config", cfg, "--out", out2]) == 0
    assert_identical_outputs(out1, out2)


def test_jobs_do_not_change_the_outputs(tmp_path):
    cfg = write_cfg(tmp_path, RESOLVENT_TINY)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["resolvent", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert main(["resolvent", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
    assert_identical_outputs(out1, out2)


def test_check_suite_cells_and_spike_witness(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "schema_version": 1,
            "name": "tiny-check",
            "seed": 3,
            "check": {
                "space": {"kind": "grid", "domain": [0.0, 1.0], "resolution": 32,
                          "periodic": True},
                "operator": {"kind": "upwind_quadratic",
                             "drift": {"kind": "trig", "sin": [0.4]}},
                "probes": {"kind": "random", "count": 3, "bound": 0.5},
                "hhat": {"lambdas": [0.5, 1.0], "dissipativity_lambdas": [0.5, 2.0]},
                "spike": {"magnitude": 0.5, "expect_failure": True},
                "optimizing_sequence": {"points": 200, "eps_halvings": 6},
            },
        },
    )
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    names = [c["name"] for c in rep["cells"]]
    assert names == [
        "hhat_dissipativity_viscosity",
        "spike_negative_fixture",
        "optimizing_sequence_fixture",
    ]
    by_name = {c["name"]: c for c in rep["cells"]}
    assert by_name["hhat_dissipativity_viscosity"]["details"]["n_pairs"] == 6
    assert by_name["hhat_dissipativity_viscosity"]["details"][
        "dissipativity_violations"] == 0
    spike = by_name["spike_negative_fixture"]["details"]
    assert spike["check_failed_as_expected"] is True
    assert spike["witness_matches_spike"] is True
    assert (Path(out) / "tables" / "optimizing_sequence.csv").exists()


def test_converge_grid_experiment_end_to_end(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "schema_version": 1,
            "name": "tiny-converge",
            "seed": 5,
            "converge": {
                "kind": "grid_experiment",
                "sequence": {"kind": "grid_sequence", "domain": [0.0, 1.0],
                             "resolutions": [8, 16, 32]},
                "scheme": "upwind_quadratic",
                "drift": {"kind": "trig", "sin": [0.3]},
                "probes": {"kind": "trig_list", "items": [{"cos": [0.0, 0.2]}]},
                "lambdas": [0.5],
                "tol_lim": 0.1,
                "envelope_tolerance": {"factor": 4.0},
                "expectation": "converge",
            },
        },
    )
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    cell = rep["cells"][0]
    assert cell["name"] == "barles_perthame"
    assert cell["details"]["max_separation"] <= 4.0 / 32
    table = Path(out) / "tables" / "envelope_separation.csv"
    assert table.read_text().splitlines()[0] == (
        "h_index,lam,level,separation,lim_worst_dev"
    )


def test_module_entrypoint_runs(tmp_path):
    cfg = write_cfg(tmp_path, EMPTY)
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "hjlab.cli", "resolvent", "--config", cfg,
         "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (Path(out) / "report.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shipped_resolvent_suite_passes_with_large_data(tmp_path):
    # probes in +-400: the identity's inner right-hand sides start Newton at a
    # finite but astronomically large residual, so it must retry from a
    # constant start instead of failing every continuation stage.  The
    # overflow at those failed starts is expected and rejected by the solver,
    # so it must not surface as a numpy RuntimeWarning either
    config = yaml.safe_load((CONFIGS / "resolvent.yaml").read_text())
    config["resolvent"]["probes"]["bound"] = 400
    out = str(tmp_path / "out")
    assert run_command("resolvent", config, out, jobs=1, seed=1234) == 0
    rep = read_report(out)
    assert [(c["name"], c["passed"]) for c in rep["cells"]] == [
        ("pseudo_resolvent_identity", True),
        ("contractivity", True),
    ]
