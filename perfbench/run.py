"""hjlab benchmark: time to verdict on the shipped experiment suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repeat of a workload is one fresh
process (perfbench/worker.py) that imports hjlab.cli from ./src and runs the
workload's configs through hjlab.cli.main with --jobs 1 and single-threaded
BLAS.  The run repeats the workload until --seconds are used up and prints
one line per metric, then, as its last line, one JSON object

    {"correct": bool, "attempted": cells, "failed": cells, "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repeats):
wall_s, setup_s, peak_rss_mb and cell_ok_ratio; the two times are scaled
to a reference host speed measured next to the work (worker.calibrate).
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics of the traced ones (perfbench/tracer.py), plus the tracing overhead.
Every repeat, traced or not, goes through the same correctness gate.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 2  # extra fresh processes per run that only import and load configs
MIN_REPEATS = 2  # with --trace 1: one untraced and one traced
# worker.calibrate() takes this long at the reference host speed (about its
# time in the faster phases of the 2-CPU host described in README.md)
REFERENCE_CALIBRATION_S = 0.1
# a repeat that started before the --seconds deadline is killed this many
# seconds after it, and counts as failed
GRACE_S = 100


@dataclass(frozen=True)
class Config:
    command: str
    stem: str  # configs/<stem>.yaml
    exit_code: int  # what hjlab.cli.main must return
    cells: dict  # cell name -> expected "passed"
    overrides: dict = field(default_factory=dict)  # dotted key -> value


WORKLOADS = {
    # the paper's headline experiment: envelope controls on refining grids;
    # dominated by cold Howard solves on the 10240-point limit grid
    "grid_controls": [
        Config("converge", "positive_control", 0, {"barles_perthame": True}),
        Config("converge", "negative_control", 1, {"barles_perthame": False}),
    ],
    # many small solves on tilted chains (fixed point, Newton, cache), plus
    # viscosity/dissipativity checks; never reaches limits or convergence
    "chain_suites": [
        Config("resolvent", "resolvent", 0,
               {"pseudo_resolvent_identity": True, "contractivity": True}),
        Config("semigroup", "semigroup", 0,
               {"iteration_vs_oracle": True, "zero_operator_density": True}),
        Config("check", "check", 0,
               {"hhat_dissipativity_viscosity": True, "spike_negative_fixture": True,
                "optimizing_sequence_fixture": True}),
    ],
    # the two-scale side at 384 x 3 product states: dense Jacobian assembly
    # and dense Newton solves
    "slowfast_product": [
        Config("converge", "slowfast", 0, {"slowfast_averaging": True},
               {"converge.slow_space.resolution": 384}),
    ],
}

# configs whose generated inputs depend on the seed (random probes and rate
# matrices); every other config ignores it, so its floats are seed-free
SEEDED = {"resolvent", "semigroup", "check"}

# report floats compared with the values recorded in expected.json:
# config stem -> [(cell, details key, absolute tolerance)]
FLOATS = {
    "positive_control": [("barles_perthame", "max_separation", 1e-8)],
    "negative_control": [("barles_perthame", "max_separation", 1e-8)],
    "resolvent": [("pseudo_resolvent_identity", "worst_residual", 1e-9)],
    "semigroup": [("iteration_vs_oracle", "final", 1e-8)],
    "slowfast": [("slowfast_averaging", "final_deviation", 1e-8)],
}


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {', '.join(undeclared)}")
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}


def write_inputs(workload: str, root: Path, out: Path) -> list[Path]:
    """Input YAML per config: a copy of the shipped config, or the stated
    overrides applied to it."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in WORKLOADS[workload]:
        src = root / "configs" / f"{cfg.stem}.yaml"
        dst = out / f"{cfg.stem}.yaml"
        if cfg.overrides:
            doc = yaml.safe_load(src.read_text())
            for dotted, value in cfg.overrides.items():
                *parents, leaf = dotted.split(".")
                node = doc
                for key in parents:
                    node = node[key]
                node[leaf] = value
            dst.write_text(yaml.safe_dump(doc, sort_keys=False))
        else:
            shutil.copyfile(src, dst)
        paths.append(dst)
    return paths


def float_key(stem: str, cell: str, key: str) -> str:
    return f"{stem}.{cell}.{key}"


def recorded_float(expected: dict, stem: str, cell: str, key: str, seed: int):
    """Value recorded at the benchmark's commit, or None for a seed-dependent
    config whose seed was not recorded."""
    name = float_key(stem, cell, key)
    if stem in SEEDED:
        return expected["by_seed"].get(str(seed), {}).get(name)
    return expected["seed_free"][name]


def check_repeat(workload: str, result, out_dirs: list[Path], seed: int, expected: dict,
                 digests: dict, problems: list[str]) -> tuple[int, int]:
    """Correctness gate for one repeat: exit codes, cell verdicts, errors,
    recorded floats, the negative control's separation, and report digests
    equal across repeats.  Returns (cells attempted, cells failed)."""
    attempted = failed = 0
    for i, cfg in enumerate(WORKLOADS[workload]):
        bad: dict[str, str] = {}
        attempted += len(cfg.cells)
        report_path = out_dirs[i] / "report.json"
        if result is None:
            bad = {c: "worker failed" for c in cfg.cells}
        elif result["exit_codes"][i] != cfg.exit_code:
            bad = {c: f"exit code {result['exit_codes'][i]}, expected {cfg.exit_code}"
                   for c in cfg.cells}
        elif not report_path.exists():
            bad = {c: "no report.json" for c in cfg.cells}
        else:
            raw = report_path.read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if digests.setdefault(cfg.stem, digest) != digest:
                bad = {c: "report.json differs from the first repeat" for c in cfg.cells}
            cells = {c["name"]: c for c in json.loads(raw)["cells"]}
            for name in set(cells) - set(cfg.cells):
                attempted += 1
                bad[name] = "unexpected cell"
            for name, want in cfg.cells.items():
                cell = cells.get(name)
                if cell is None:
                    bad.setdefault(name, "missing cell")
                elif "error" in cell:
                    bad.setdefault(name, f"error: {cell['error']}")
                elif cell["passed"] != want:
                    bad.setdefault(name, f"passed={cell['passed']}, expected {want}")
                else:
                    why = check_floats(cfg.stem, cell, seed, expected)
                    if why:
                        bad.setdefault(name, why)
        for name, why in sorted(bad.items()):
            problems.append(f"{workload}: {cfg.stem}/{name}: {why}")
        failed += len(bad)
    return attempted, failed


def check_floats(stem: str, cell: dict, seed: int, expected: dict) -> str:
    details = cell.get("details", {})
    for cell_name, key, tol in FLOATS.get(stem, ()):
        if cell_name != cell["name"]:
            continue
        got = _number(details.get(key))
        want = recorded_float(expected, stem, cell_name, key, seed)
        if want is not None and not abs(got - want) <= tol:
            return f"{key} = {details.get(key)!r}, recorded {want!r} (tolerance {tol:g})"
    if stem == "negative_control":
        sep, tol = details.get("max_separation"), details.get("envelope_tolerance")
        if not _number(sep) > _number(tol):
            return f"max_separation {sep!r} does not exceed envelope_tolerance {tol!r}"
    return ""


def _number(value) -> float:
    """A report float; anything else (missing, or "nan"/"inf" as the report
    spells non-finite values) reads as nan and fails every comparison."""
    return float(value) if isinstance(value, (int, float)) else float("nan")


class Runner:
    """Starts worker processes for one workload and waits for each."""

    def __init__(self, root: Path, workload: str, seed: int, hard_deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = write_inputs(workload, root, self.work / "inputs")
        self.env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("PYTHONPATH", None)
        self.count = 0
        self.hard_deadline = hard_deadline

    def run(self, mode: str):
        """mode is 'setup', 'plain' or 'trace'.  Returns (result or None,
        output dirs, seconds the process took)."""
        self.count += 1
        rdir = self.work / f"r{self.count:03d}-{mode}"
        rdir.mkdir(parents=True)
        out_dirs = [rdir / cfg.stem for cfg in WORKLOADS[self.workload]]
        plan = {"src": str(self.root / "src"), "seed": self.seed,
                "configs": [[cfg.command, str(p), str(o)] for cfg, p, o
                            in zip(WORKLOADS[self.workload], self.inputs, out_dirs)]}
        (rdir / "plan.json").write_text(json.dumps(plan))
        flags = {"setup": ["--setup-only"], "plain": [], "trace": ["--trace"]}[mode]
        cmd = [sys.executable, str(WORKER), str(rdir / "plan.json"),
               str(rdir / "result.json"), *flags]
        start = time.perf_counter()
        # own process group, so that killing it also ends a calibration child
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(
                timeout=max(1.0, self.hard_deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            err = b"worker killed: it ran past the run's time limit\n"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        took = time.perf_counter() - start
        if proc.returncode != 0 or not (rdir / "result.json").exists():
            sys.stderr.write(err.decode(errors="replace")[-2000:])
            return None, out_dirs, took
        return json.loads((rdir / "result.json").read_text()), out_dirs, took


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit so the running worker is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    missing = [p for p in ("src/hjlab/cli.py", "configs") if not (root / p).exists()]
    if missing:
        print(f"not an hjlab checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    units = declared_units()
    deadline = time.perf_counter() + args.seconds
    runner = Runner(root, args.workload, args.seed, deadline + GRACE_S)

    # the first import in a fresh checkout compiles bytecode; users pay that once
    if not (root / "src" / "hjlab" / "__pycache__").exists():
        runner.run("setup")

    problems: list[str] = []
    digests: dict = {}
    attempted = failed = 0
    setup, plain, traced, took = [], [], [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            res, _, _ = runner.run("setup")
            if res is not None:
                setup.append(res)
    modes = ["plain", "trace"] if args.trace else ["plain"]
    while True:
        mode = modes[len(took) % len(modes)]
        res, out_dirs, secs = runner.run(mode)
        took.append(secs)
        a, f = check_repeat(args.workload, res, out_dirs, args.seed, expected, digests,
                            problems)
        attempted, failed = attempted + a, failed + f
        if res is not None and mode == "trace":
            traced.append(res)
        elif res is not None:
            plain.append(res)
            setup.append(res)
        if len(took) >= MIN_REPEATS and time.perf_counter() + statistics.median(took) > deadline:
            break

    unrecorded = (any(cfg.stem in SEEDED for cfg in WORKLOADS[args.workload])
                  and str(args.seed) not in expected["by_seed"])
    for line in problems:
        print("MISMATCH", line)
    if unrecorded:
        print(f"note: seed {args.seed} has no recorded floats for the seeded configs; "
              "only verdicts, errors and digests were checked")
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)

    def median_of(key, results):
        return statistics.median(r[key] for r in results) if results else 0.0

    print(f"{args.workload} seed={args.seed} repeats={len(plain)} traced={len(traced)} "
          f"cells={attempted} failed={failed}")
    calibration = [c for r in setup for c in r["calibration_s"]]  # probes and repeats
    raw = {"wall_s": [r["wall_s"] for r in plain], "setup_s": [r["setup_s"] for r in setup],
           "calibration_s": calibration}
    for key, values in raw.items():
        print(f"  raw {key}", " ".join(f"{v:.3f}" for v in values))
    if args.trace:
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.wall_s"] = median_of("wall_s", traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_of("wall_s", plain)
        metrics = with_units(metrics, units)
    else:
        # run medians at the reference speed.  Single calibration samples flip
        # between a fast and a slow host state, so their mean (the share of
        # time spent in each) measures the host's speed over the run.
        speed = REFERENCE_CALIBRATION_S / statistics.fmean(calibration) if calibration else 0.0
        values = {
            "wall_s": median_of("wall_s", plain) * speed,
            "setup_s": median_of("setup_s", setup) * speed,
            "peak_rss_mb": median_of("peak_rss_mb", plain),
            "cell_ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        metrics = with_units(values, units)
        print(f"  cell_fail_ratio {failed / attempted if attempted else 1.0:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
