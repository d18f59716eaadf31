"""Smoke test of the benchmark's span tracer (perfbench/tracer.py).

The tracer wraps hjlab functions by name from outside the package, so a
rename inside hjlab silently empties its per-layer metrics.  This runs one
tiny traced run in a fresh interpreter and checks that the metrics a run
feeds are still fed: the tracked sequences and Howard iterations of a grid
experiment, which solves each of its problems once, and the Crandall-Liggett steps of a semigroup suite, which no
longer pass through the patched solve_resolvent, and the Jacobians of a
slow-fast suite's Newton steps, one per Newton iteration.  A traced check
suite, whose graph solves go through the upwind scheme's custom solver in one
stack, must count their Howard iterations and report metrics that json.dumps
accepts.
"""

import json
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]

TINY_GRID = {
    "schema_version": 1,
    "name": "traced-tiny-grid",
    "seed": 3,
    "converge": {
        "kind": "grid_experiment",
        "sequence": {"kind": "grid_sequence", "domain": [0.0, 1.0],
                     "resolutions": [16, 32, 64]},
        "scheme": "upwind_quadratic",
        "drift": {"kind": "trig", "sin": [0.3]},
        "probes": {"kind": "trig_list", "items": [{"cos": [0.0, 0.2]}]},
        "lambdas": [0.5],
        "tol_lim": 0.1,
        "envelope_tolerance": {"factor": 4.0},
        "expectation": "converge",
    },
}

TINY_SEMIGROUP = {
    "schema_version": 1,
    "name": "traced-tiny-semigroup",
    "seed": 3,
    "semigroup": {
        "space": {"kind": "chain", "size": 4},
        "operator": {"kind": "tilt", "rate_matrix": {"kind": "random", "scale": 0.5},
                     "probe_radius": 1.0},
        "initial": {"kind": "random", "count": 1, "bound": 0.5},
        "t": 0.5,
        "n_steps": [4, 16],
        "oracle": "logexp",
        "tol_final": 0.1,
    },
}

TINY_CHECK = {
    "schema_version": 1,
    "name": "traced-tiny-check",
    "seed": 3,
    "check": {
        "space": {"kind": "grid", "domain": [0.0, 1.0], "resolution": 32,
                  "periodic": True},
        "operator": {"kind": "upwind_quadratic", "drift": {"kind": "trig", "sin": [0.4]}},
        "probes": {"kind": "random", "count": 3, "bound": 0.5},
        "hhat": {"lambdas": [0.5, 1.0], "dissipativity_lambdas": [0.5, 2.0]},
        "spike": {"magnitude": 0.5, "expect_failure": True},
    },
}

# the shipped slow-fast suite is already small: 16 slow x 3 fast states
SLOWFAST = yaml.safe_load((ROOT / "configs" / "slowfast.yaml").read_text())

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer
t = tracer.Tracer()
t.install()
from hjlab.cli import main
code = main([{command!r}, "--config", {cfg!r}, "--out", {out!r}, "--jobs", "1"])
print(json.dumps({{"exit": code, "metrics": t.layer_metrics()}}))
"""


def _traced_run(tmp_path, command, config):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"),
                           command=command, cfg=str(cfg), out=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    return result["metrics"]


def test_traced_grid_run_feeds_the_tracked_sequence_metric(tmp_path):
    metrics = _traced_run(tmp_path, "converge", TINY_GRID)
    assert metrics["spaces.tracked_sequences"] > 0
    # the tracer sums the iteration counts the custom solver returns
    policy_iterations = metrics["operators.policy_iterations"]
    assert isinstance(policy_iterations, int) and policy_iterations > 0
    # each problem is solved once and read once: 3 members and 1 limit
    # problem of the one probe at the one lambda, no cache hit
    assert metrics["resolvent.solve_calls"] == metrics["resolvent.method.custom"] == 4


def test_traced_check_run_reports_metrics_json_accepts(tmp_path):
    # _traced_run requires exit 0 and prints layer_metrics() through
    # json.dumps, which rejects numpy arrays and numpy integers
    metrics = _traced_run(tmp_path, "check", TINY_CHECK)
    assert isinstance(metrics["operators.policy_iterations"], int)
    # the Hhat solves are stacked, and the tracer sees them as custom solves:
    # one per distinct (lambda, h) pair of the cell, 2 lambdas x 3 probes
    assert metrics["operators.policy_iterations"] > 0
    assert metrics["resolvent.method.custom"] == 6
    assert metrics["resolvent.iterations"] == metrics["operators.policy_iterations"]


def test_traced_semigroup_run_counts_every_crandall_liggett_step(tmp_path):
    metrics = _traced_run(tmp_path, "semigroup", TINY_SEMIGROUP)
    assert metrics["semigroup.cl_steps"] == sum(TINY_SEMIGROUP["semigroup"]["n_steps"])


def test_traced_slowfast_run_sees_one_jacobian_per_newton_step(tmp_path):
    metrics = _traced_run(tmp_path, "converge", SLOWFAST)
    # The product's Newton steps factor a folded band (LAPACK gbsv), which
    # the tracer's linear-solve wrappers (spsolve, np.linalg.solve) do not
    # see, so the steps are counted from the iterations: every solve is
    # Newton on a product member or Howard on the averaged limit, and a
    # Newton iteration evaluates one Jacobian
    jacobians = metrics["operators.jacobian_calls"]
    newton_iterations = metrics["resolvent.iterations"] - metrics["operators.policy_iterations"]
    assert jacobians == newton_iterations > 0
