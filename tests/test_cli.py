"""Exit codes, report/table outputs, determinism, and seed plumbing."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import count_layout_builds, src_env
from hjlab import resolvent
from hjlab.cli import main, run_command
from oracles import newton_reference

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

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

    # an envelope tolerance is a factor or a value, never both
    both = yaml.safe_load((CONFIGS / "positive_control.yaml").read_text())
    both["converge"]["envelope_tolerance"] = {"factor": 4.0, "value": 0.1}
    cfg = write_cfg(tmp_path, both, "both.yaml")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "envelope_tolerance" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command, stem", [("resolvent", "resolvent"),
                                           ("converge", "positive_control")])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, command, stem):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / f"{stem}.yaml"), "--out", str(out),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--seed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_trig_list_probes_without_items_are_a_config_error(tmp_path, capsys):
    payload = yaml.safe_load((CONFIGS / "positive_control.yaml").read_text())
    del payload["converge"]["probes"]["items"]
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: trig_list probes need items\n"
    assert not out.exists()


def test_a_multiplier_per_fast_state_is_a_config_requirement(tmp_path, capsys):
    payload = yaml.safe_load((CONFIGS / "slowfast.yaml").read_text())
    payload["converge"]["multipliers"] = [0.5, 1.0]  # three fast states
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad slow-fast coupling:")
    assert "one multiplier per fast state" in err
    assert not out.exists()


def test_a_fast_chain_without_one_stationary_law_is_a_config_error(tmp_path, capsys):
    # the averaged limit needs the stationary law, and it is built with the
    # sequence, before any cell runs; a chain of three absorbing states has
    # one law per state
    payload = yaml.safe_load((CONFIGS / "slowfast.yaml").read_text())
    payload["converge"]["fast_rate_matrix"]["rows"] = [[0.0] * 3] * 3
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad slow-fast coupling: "
        "rate matrix has no clean stationary law (reducible?)\n"
    )
    assert not out.exists()


def test_a_slow_grid_too_small_for_the_compact_levels_is_a_config_error(tmp_path, capsys):
    # two slow points leave the central half of the slow grid empty
    payload = yaml.safe_load((CONFIGS / "slowfast.yaml").read_text())
    payload["converge"]["slow_space"]["resolution"] = 2
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: bad slow-fast product: empty compact member set\n"
    assert not out.exists()


@pytest.mark.parametrize("q_widths", [[], [0.5, 0.5]])
def test_empty_or_repeated_q_widths_are_a_config_error(tmp_path, capsys, q_widths):
    # an empty list left no compact level, and a repeated width named two
    # levels alike
    payload = yaml.safe_load((CONFIGS / "positive_control.yaml").read_text())
    payload["converge"]["sequence"]["q_widths"] = q_widths
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad sequence declaration: "
        "q_widths must be strictly increasing fractions in (0, 1]\n"
    )
    assert not out.exists()


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
    # the three cells of the shipped check suite share one family, whose
    # cache the graph cells fill from stacked solves at the same time
    cfg = str(CONFIGS / "check.yaml")
    out1, out2 = str(tmp_path / "check1"), str(tmp_path / "check3")
    assert main(["check", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert main(["check", "--config", cfg, "--out", out2, "--jobs", "3"]) == 0
    assert_identical_outputs(out1, out2)
    # the two cells of the shipped semigroup suite share one family too: the
    # density cell fills its cache while the other runs Crandall-Liggett steps
    cfg = str(CONFIGS / "semigroup.yaml")
    out1, out2 = str(tmp_path / "semigroup1"), str(tmp_path / "semigroup2")
    assert main(["semigroup", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert main(["semigroup", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
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


def test_a_compact_level_without_member_points_is_a_config_error(tmp_path, capsys):
    # no member grid (3, 5 and 7 points) has a point within 0.025 of 1/2.  A
    # level with member points always has limit points: each periodic member
    # grid is a subset of the limit grid, whose resolution is a multiple of
    # the finest member's
    cfg = write_cfg(
        tmp_path,
        {
            "schema_version": 1,
            "name": "empty-member-level",
            "converge": {
                "kind": "grid_experiment",
                "sequence": {"kind": "grid_sequence", "domain": [0.0, 1.0],
                             "resolutions": [3, 5, 7], "periodic": True,
                             "limit_resolution_factor": 2, "q_widths": [0.05]},
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
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad sequence declaration: empty compact member set\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, stem, space", [
    ("converge", "positive_control", "sequence"),
    ("converge", "slowfast", "slow_space"),
    ("check", "check", "space"),
])
def test_a_closed_grid_is_a_config_error(tmp_path, capsys, command, stem, space):
    # the upwind and centered stencils wrap around, so on a closed grid, whose
    # last point repeats the first, they would compute another operator
    payload = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text())
    payload[command][space]["periodic"] = False
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config schema violation at {command}/{space}/periodic: "
        "False is not True\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("strength", [0, -1.0])
def test_a_coupling_strength_that_is_not_positive_is_a_config_error(tmp_path, capsys, strength):
    # the slow-fast members are built before any cell runs, so a strength
    # the product Hamiltonian refuses is refused with the config
    payload = yaml.safe_load((CONFIGS / "slowfast.yaml").read_text())
    payload["converge"]["couplings"][3] = strength
    out = tmp_path / "out"
    assert main(["converge", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config schema violation at converge/couplings/3: {strength} "
        "is less than or equal to the minimum of 0\n"
    )
    assert not out.exists()


# the report float the benchmark gates per config (cell, details key), and
# the slow grid it runs slowfast.yaml on (its slowfast_product workload)
BENCH_FLOATS = {
    "positive_control": ("barles_perthame", "max_separation"),
    "negative_control": ("barles_perthame", "max_separation"),
    "slowfast": ("slowfast_averaging", "final_deviation"),
}
BENCH_SLOW_POINTS = 384


@pytest.mark.parametrize(
    "stem, code", [("positive_control", 0), ("negative_control", 1), ("slowfast", 0)]
)
def test_controls_reproduce_the_benchmark_separation(tmp_path, stem, code):
    # the benchmark gates these floats at 1e-8 against its recorded values;
    # the nearest-point tie rule of the tracked sequences reaches the
    # controls', and every Newton step of the product solves the slowfast one
    recorded = json.loads(BENCH_EXPECTED.read_text())["seed_free"]
    cfg = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text())
    if stem == "slowfast":
        cfg["converge"]["slow_space"]["resolution"] = BENCH_SLOW_POINTS
    out = str(tmp_path / "out")
    assert main(["converge", "--config", write_cfg(tmp_path, cfg), "--out", out]) == code
    cell_name, key = BENCH_FLOATS[stem]
    cell = {c["name"]: c for c in read_report(out)["cells"]}[cell_name]
    want = recorded[f"{stem}.{cell_name}.{key}"]
    assert abs(cell["details"][key] - want) <= 1e-8


@pytest.mark.parametrize("stem, code, layouts", [
    # Howard solves every problem: no Newton step, no layout
    ("positive_control", 0, {"_band": 0, "_csc": 0}),
    # one SuperLU layout per centered member
    ("negative_control", 1, {"_band": 0, "_csc": 5}),
    # one band, shared by the sweep members; the averaged limit is
    # Howard-solved
    ("slowfast", 0, {"_band": 1, "_csc": 0}),
])
def test_shipped_runs_build_newton_layouts_only_for_newton_steps(
    tmp_path, monkeypatch, stem, code, layouts
):
    builds = count_layout_builds(monkeypatch)
    out = str(tmp_path / "out")
    assert main(["converge", "--config", str(CONFIGS / f"{stem}.yaml"), "--out", out]) == code
    assert builds == layouts


@pytest.mark.parametrize("slow_points", [16, BENCH_SLOW_POINTS])
def test_slowfast_band_newton_writes_the_superlu_bytes(tmp_path, monkeypatch, slow_points):
    # the shipped grid and the benchmark's: the folded band LU rounds
    # differently from SuperLU, but not by enough to move a report byte
    cfg = yaml.safe_load((CONFIGS / "slowfast.yaml").read_text())
    cfg["converge"]["slow_space"]["resolution"] = slow_points
    path = write_cfg(tmp_path, cfg)
    band, superlu = str(tmp_path / "band"), str(tmp_path / "superlu")
    assert main(["converge", "--config", path, "--out", band]) == 0
    with monkeypatch.context() as m:
        m.setattr(resolvent, "_damped_newton", newton_reference.damped_newton)
        assert main(["converge", "--config", path, "--out", superlu]) == 0
    assert [p.name for p in (Path(band) / "tables").glob("*.csv")] == ["slowfast_oscillation.csv"]
    assert_identical_outputs(band, superlu)


# the seeded report floats the benchmark gates (1e-9 and 1e-8 absolute)
# against the values it recorded per seed
BENCH_SEEDED_FLOATS = {
    "resolvent": ("pseudo_resolvent_identity", "worst_residual", 1e-9),
    "semigroup": ("iteration_vs_oracle", "final", 1e-8),
}


@pytest.mark.parametrize("stem", sorted(BENCH_SEEDED_FLOATS))
def test_chain_suites_reproduce_the_benchmark_floats_at_seed_1(tmp_path, stem):
    # every Crandall-Liggett step of the semigroup suite reaches this float
    recorded = json.loads(BENCH_EXPECTED.read_text())["by_seed"]["1"]
    out = str(tmp_path / "out")
    config = str(CONFIGS / f"{stem}.yaml")
    assert main([stem, "--config", config, "--out", out, "--seed", "1"]) == 0
    cell_name, key, tol = BENCH_SEEDED_FLOATS[stem]
    cell = {c["name"]: c for c in read_report(out)["cells"]}[cell_name]
    assert abs(cell["details"][key] - recorded[f"{stem}.{cell_name}.{key}"]) <= tol


def test_module_entrypoint_runs(tmp_path):
    cfg = write_cfg(tmp_path, EMPTY)
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "hjlab.cli", "resolvent", "--config", cfg,
         "--out", out],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (Path(out) / "report.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shipped_resolvent_suite_passes_with_large_data(tmp_path):
    # probes in +-400: the identity's inner right-hand sides start Newton at a
    # finite but astronomically large residual, so it must retry from a
    # constant start, its one recovery, instead of failing.  The overflow at
    # those failed starts is expected and rejected by the solver, so it must
    # not surface as a numpy RuntimeWarning either
    config = yaml.safe_load((CONFIGS / "resolvent.yaml").read_text())
    config["resolvent"]["probes"]["bound"] = 400
    out = str(tmp_path / "out")
    assert run_command("resolvent", config, out, jobs=1, seed=1234) == 0
    rep = read_report(out)
    assert [(c["name"], c["passed"]) for c in rep["cells"]] == [
        ("pseudo_resolvent_identity", True),
        ("contractivity", True),
    ]
