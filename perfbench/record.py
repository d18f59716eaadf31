"""Record the report floats that perfbench/run.py compares against.

    python3 perfbench/record.py

Run from the repository root.  Runs every config once in this process
(seed-free configs with the config seed, seeded ones for each seed in
SEEDS plus each config's own seed) and rewrites
perfbench/expected.json.  Seeds on which a cell's verdict differs from the
expected one are listed under "verdict_flips"; the benchmark fails on them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import EXPECTED, FLOATS, SEEDED, WORK_DIR, WORKLOADS, float_key, write_inputs

SEEDS = range(128)

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import hjlab.cli
    import yaml

    work = root / WORK_DIR / "record"
    shutil.rmtree(work, ignore_errors=True)
    seed_free, by_seed, flips = {}, {}, {}
    for workload, configs in WORKLOADS.items():
        inputs = write_inputs(workload, root, work / workload)
        for cfg, path in zip(configs, inputs):
            own = int(yaml.safe_load(path.read_text())["seed"])
            seeds = sorted({own, *SEEDS}) if cfg.stem in SEEDED else [own]
            for seed in seeds:
                out = work / "out" / cfg.stem / str(seed)
                hjlab.cli.main([cfg.command, "--config", str(path), "--out", str(out),
                                "--jobs", "1", "--seed", str(seed)])
                cells = {c["name"]: c for c in
                         json.loads((out / "report.json").read_text())["cells"]}
                for name, want in cfg.cells.items():
                    if cells[name]["passed"] != want or "error" in cells[name]:
                        flips.setdefault(str(seed), []).append(f"{cfg.stem}/{name}")
                for cell, key, _ in FLOATS.get(cfg.stem, ()):
                    value = cells[cell]["details"][key]
                    if cfg.stem in SEEDED:
                        by_seed.setdefault(str(seed), {})[float_key(cfg.stem, cell, key)] = value
                    else:
                        seed_free[float_key(cfg.stem, cell, key)] = value
    shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(
        {"seed_free": seed_free,
         "by_seed": dict(sorted(by_seed.items(), key=lambda kv: int(kv[0]))),
         "verdict_flips": flips}, indent=1) + "\n")
    print(f"recorded {len(seed_free)} seed-free floats and {len(by_seed)} seeds; "
          f"verdict flips: {flips or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
