"""Deterministic serialization of experiment results.

Reports must be byte-identical across runs with the same config and seed, so
everything here avoids nondeterministic content: keys are sorted, floats go
through Python's shortest round-trip repr, sets and dict iteration never leak
ordering, and no timestamps or durations enter the payload.  The package
records no timing at all; measure it from outside (perfbench/ does).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["jsonable", "write_report", "write_table"]


def jsonable(obj: Any) -> Any:
    """Recursively convert results into JSON-serializable structures.

    numpy scalars/arrays become Python numbers/lists; non-finite floats
    become the strings "inf", "-inf", "nan" (strict JSON has no encoding
    for them); dataclasses become sorted dicts of their public fields.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue
            out[f.name] = jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if callable(obj):
        return getattr(obj, "__name__", "<callable>")
    return str(obj)


def write_report(out_dir: str | Path, payload: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return path


def _cell(v: Any) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_table(
    out_dir: str | Path, name: str, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> Path:
    tables = Path(out_dir) / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    path = tables / f"{name}.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(header))
        for row in rows:
            w.writerow([_cell(v) for v in row])
    return path
