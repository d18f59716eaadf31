"""The package's earlier target-major LIM / envelope core.

_gather stacked member values as an (n_targets, n_members) array, and
_lim_verdict, _envelope and the one-sided sequence records reduced along its
short member axis.  The package stacks them member-major, (n_members,
n_targets), and reduces over axis 0, along contiguous rows.  Max and min
introduce no rounding, so both must give the same results, byte for byte
(signed zeros included).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from hjlab.limits import ConvergenceVerdict, ExtFn, Fn, FnSequence


def _gather(fs: FnSequence, idx: np.ndarray) -> np.ndarray:
    """f_n(z_n) along every tracked sequence: rows of idx, one column per member."""
    return np.stack([f.values[idx[:, n]] for n, f in enumerate(fs.members)], axis=1)


def _lim_verdict(
    fs: FnSequence,
    f: Fn,
    tol: float,
    n0: int,
    tracked: Callable[..., np.ndarray],
    limit_sets: Sequence[np.ndarray],
) -> ConvergenceVerdict:
    """LIM f_n = f along the tracked(q) index matrices, whose rows converge to
    the points limit_sets[qi] of the space f lives on."""
    per_level: dict = {}
    passed = True
    notes: list[str] = []
    for qi, q in enumerate(fs.spaces.compacts.labels):
        limit_idx = limit_sets[qi]
        dev = np.abs(_gather(fs, tracked(q)) - f.values[limit_idx][:, None])
        worst_per_seq = dev[:, n0:].max(axis=1)
        i_worst = int(np.argmax(worst_per_seq))
        worst = float(worst_per_seq[i_worst])
        per_member = dev.max(axis=0)
        level_ok = worst <= tol
        passed = passed and level_ok
        if per_member.size - n0 >= 2 and per_member[-1] > per_member[n0] + tol:
            notes.append(f"level {q}: deviations grow along the tail")
        per_level[q] = {
            "worst_dev": worst,
            "witness_limit_index": int(limit_idx[i_worst]),
            "per_member_dev": per_member,
            "passed": level_ok,
        }
    return ConvergenceVerdict(
        passed=passed,
        tol=tol,
        n0=n0,
        uniform_bound=fs.norm,
        per_level=per_level,
        notes=tuple(notes),
    )


def _envelope(fs: FnSequence, n0: int | None, upper: bool) -> ExtFn:
    n0 = fs.spaces.n0 if n0 is None else n0
    out = np.full(fs.spaces.limit.size, -np.inf if upper else np.inf)
    for qi, q in enumerate(fs.spaces.compacts.labels):
        tail = _gather(fs, fs.spaces.tracked(q))[:, n0:]
        if upper:
            np.maximum.at(out, fs.spaces.compacts.limit_sets[qi], tail.max(axis=1))
        else:
            np.minimum.at(out, fs.spaces.compacts.limit_sets[qi], tail.min(axis=1))
    return ExtFn(fs.spaces.limit, out)


def sequence_records(ens, f_seq, g_seq, f_lim, g_lim, tol, n0, sub):
    """The tracked-sequence records and verdict of _check_ex_one_sided."""
    records = []
    seq_ok = True
    for qi, q in enumerate(ens.base.compacts.labels):
        idx = ens.tracked_enlarged(q)
        y = ens.enlarged_limit_sets[qi]
        fv = _gather(f_seq, idx)[:, n0:]
        gv = _gather(g_seq, idx)[:, n0:]
        gated = np.abs(fv - f_lim.values[ens.gamma[y]][:, None]).max(axis=1) <= tol
        if sub:
            margin = g_lim.values[y] + tol - gv.max(axis=1)
        else:
            margin = gv.min(axis=1) - (g_lim.values[y] - tol)
        passed = ~gated | (margin >= 0.0)
        seq_ok = seq_ok and bool(passed.all())
        for yi, g, ok, m in zip(y.tolist(), gated.tolist(), passed.tolist(), margin.tolist()):
            records.append({"q": q, "y": yi, "gated": g, "passed": ok, "margin": m if g else None})
    return tuple(records), seq_ok
