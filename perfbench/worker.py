"""One benchmark repeat in a fresh process.

Imports hjlab.cli, then runs each config of a workload through
hjlab.cli.main with --jobs 1, and writes one JSON result:

    import_s     time of `import hjlab.cli`
    setup_s      import_s plus the time spent in hjlab.config.load_config
                 (YAML + schema) for every config of the workload
    wall_s       summed time of the main() calls, first config load to the
                 last report/table written
    calibration_s
                 calibrate() after the import and after each config
    exit_codes   main()'s return value per config
    peak_rss_mb  peak resident set of this process

With --setup-only it stops after the imports and config loads.  With
--trace it installs the span tracer after the import, skips calibration,
and adds the per-layer metrics (and writes the spans next to the result).

Usage: python3 perfbench/worker.py PLAN.json RESULT.json [--setup-only | --trace]
where PLAN.json is {"src": dir, "seed": n, "configs": [[command, yaml, out_dir], ...]}.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
from time import perf_counter

def calibrate() -> float:
    """Seconds for a fixed mix of the work hjlab does, timed in a forked
    child pinned to the CPU this process last ran on.

    The shared host's speed drifts by up to 1.8x in phases lasting minutes,
    which moves every timing of a run together; run.py scales its timings by
    these samples (see README.md).  The kernel uses no hjlab code, so a
    change to hjlab cannot move it, and it runs in a child so that its
    allocations leave this process's heap and peak resident set untouched.
    The worker has no threads to lose in the fork: BLAS is single-threaded.
    """
    cpu = ctypes.CDLL(None).sched_getcpu()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpu})
            os.write(write_fd, repr(_kernel()).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        seconds = fh.read()
    os.waitpid(pid, 0)
    return float(seconds)


def _kernel() -> float:
    """Sparse LU solves of a 10240-point periodic tridiagonal system (the
    size of the grid limit space), interpreted Python arithmetic and small
    dense solves."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 10240
    idx = np.arange(n)
    rows = np.concatenate([idx] * 3)
    cols = np.concatenate([idx, (idx + 1) % n, (idx - 1) % n])
    data = np.concatenate([np.full(n, 3.0), -np.ones(n), -np.ones(n)])
    dense = np.eye(300) * 4.0 + 0.01
    start = perf_counter()
    for _ in range(8):
        spla.spsolve(sp.csc_matrix((data, (rows, cols)), shape=(n, n)), np.ones(n))
    x = 0
    for i in range(300000):
        x += i * i
    for _ in range(10):
        np.linalg.solve(dense, np.ones(300))
    return perf_counter() - start


def main(argv: list[str]) -> int:
    plan_path, result_path, *flags = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)

    t0 = perf_counter()
    import hjlab.cli
    import_s = perf_counter() - t0
    if not os.path.abspath(hjlab.__file__).startswith(src + os.sep):
        print(f"hjlab was imported from {hjlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    load_times: list[float] = []
    load_config = hjlab.config.load_config

    def timed_load_config(path):
        start = perf_counter()
        try:
            return load_config(path)
        finally:
            load_times.append(perf_counter() - start)

    hjlab.config.load_config = timed_load_config

    trace = "--trace" in flags
    result: dict = {"import_s": import_s}
    # calibration is skipped under the tracer, which wraps the solvers it uses
    calibration = [] if trace else [calibrate()]
    if "--setup-only" in flags:
        for _, path, _ in plan["configs"]:
            hjlab.config.load_config(path)
    else:
        tracer = None
        if trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        walls, codes = [], []
        for command, path, out_dir in plan["configs"]:
            start = perf_counter()
            codes.append(hjlab.cli.main([command, "--config", path, "--out", out_dir,
                                         "--jobs", "1", "--seed", str(plan["seed"])]))
            walls.append(perf_counter() - start)
            if not trace:
                calibration.append(calibrate())
        result["wall_s"] = sum(walls)
        result["exit_codes"] = codes
        if trace:
            layers = tracer.layer_metrics()
            layers["config.import_s"] = import_s
            result["layers"] = layers
            tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.json"))
    result["setup_s"] = import_s + sum(load_times)
    result["calibration_s"] = calibration
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
