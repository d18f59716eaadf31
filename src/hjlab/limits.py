"""Bounded functions on finite spaces and graph limits along converging spaces.

A function sequence {f_n} converges to f (written LIM f_n = f) when the norms
stay bounded and f_n(x_n) -> f(x) along every tracked convergent sequence
x_n in K_n^q, for every compact level q.  Tracked sequences are the
nearest-point liftings of the limit points, one row of the sequence's index
matrix each; tolerances apply from the sequence's burn-in index
SpaceSequence.n0 on.

The one-sided envelopes LIMSUP and LIMINF replace the limit along each
tracked sequence by the tail maximum or minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .spaces import FiniteSpace, SpaceSequence

__all__ = [
    "Fn",
    "ExtFn",
    "FnSequence",
    "ConvergenceVerdict",
    "check_LIM",
    "compute_LIMSUP",
    "compute_LIMINF",
    "lift_to_members",
]


@dataclass(frozen=True)
class Fn:
    """A bounded real function on a finite space (finite values only)."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.space.size:
            raise ValueError("values must match the space size")
        if not np.all(np.isfinite(v)):
            raise ValueError("Fn values must be finite; use ExtFn for extended values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.abs(self.values).max())

    def as_ext(self) -> "ExtFn":
        return ExtFn(self.space, self.values)


@dataclass(frozen=True)
class ExtFn:
    """An extended-real function; +inf and -inf are allowed, NaN is not."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.space.size:
            raise ValueError("values must match the space size")
        if np.any(np.isnan(v)):
            raise ValueError("ExtFn values must not be NaN")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def bounded_above(self) -> bool:
        return bool(self.values.max() < np.inf)

    @property
    def bounded_below(self) -> bool:
        return bool(self.values.min() > -np.inf)


@dataclass(frozen=True)
class FnSequence:
    """One member function per member space of a converging space sequence."""

    spaces: SpaceSequence
    members: tuple

    def __post_init__(self) -> None:
        if len(self.members) != self.spaces.n_members:
            raise ValueError("need one member function per member space")
        for f, sp in zip(self.members, self.spaces.members):
            if f.space != sp:
                raise ValueError("member function on the wrong space")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def norm(self) -> float:
        return max(f.norm for f in self.members)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Pass/fail verdict of a LIM-type check, with per-level diagnostics."""

    passed: bool
    tol: float
    n0: int
    uniform_bound: float
    per_level: dict
    notes: tuple = ()


def _gather(fs: FnSequence, idx: np.ndarray, n0: int = 0) -> np.ndarray:
    """f_n(z_n) along every tracked sequence for the members n >= n0,
    member-major: row n - n0 holds member n's values at column n of the index
    matrix idx, one entry per row of idx.  Reductions over members run over
    axis 0, along contiguous rows."""
    return np.stack([fs.members[n].values[idx[:, n]] for n in range(n0, len(fs.members))])


def _lim_verdict(
    fs: FnSequence,
    f: Fn,
    tol: float,
    tracked: Callable[..., np.ndarray],
    limit_sets: Sequence[np.ndarray],
) -> ConvergenceVerdict:
    """LIM f_n = f along the tracked(q) index matrices, whose rows converge to
    the points limit_sets[qi] of the space f lives on."""
    n0 = fs.spaces.n0
    per_level: dict = {}
    passed = True
    notes: list[str] = []
    for qi, q in enumerate(fs.spaces.compacts.labels):
        limit_idx = limit_sets[qi]
        dev = np.abs(_gather(fs, tracked(q)) - f.values[limit_idx])
        worst_per_seq = dev[n0:].max(axis=0)
        i_worst = int(np.argmax(worst_per_seq))
        worst = float(worst_per_seq[i_worst])
        per_member = dev.max(axis=1)
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


def check_LIM(fs: FnSequence, f: Fn, tol: float) -> ConvergenceVerdict:
    """Verdict on LIM f_n = f at the given tolerance, from the sequence's
    burn-in index on."""
    return _lim_verdict(fs, f, tol, fs.spaces.tracked, fs.spaces.compacts.limit_sets)


def _envelope(fs: FnSequence, upper: bool) -> ExtFn:
    out = np.full(fs.spaces.limit.size, -np.inf if upper else np.inf)
    for qi, q in enumerate(fs.spaces.compacts.labels):
        tail = _gather(fs, fs.spaces.tracked(q), fs.spaces.n0)
        if upper:
            np.maximum.at(out, fs.spaces.compacts.limit_sets[qi], tail.max(axis=0))
        else:
            np.minimum.at(out, fs.spaces.compacts.limit_sets[qi], tail.min(axis=0))
    return ExtFn(fs.spaces.limit, out)


def compute_LIMSUP(fs: FnSequence) -> ExtFn:
    """Upper envelope: tail max of f_n (from the burn-in index on) along every
    tracked sequence, sup over levels.  Limit points not reached by any
    tracked sequence come back as -inf."""
    return _envelope(fs, upper=True)


def compute_LIMINF(fs: FnSequence) -> ExtFn:
    """Lower envelope, mirror of compute_LIMSUP; unreached points are +inf."""
    return _envelope(fs, upper=False)


def _envelope_excess(upper: ExtFn, lower: ExtFn, f: Fn, seq: SpaceSequence) -> list[tuple]:
    """Per compact level q: (q, over, under), the largest amounts by which
    LIMSUP exceeds f and f exceeds LIMINF on the limit points some tracked
    sequence reaches (-inf when none is reached)."""
    out = []
    for qi, q in enumerate(seq.compacts.labels):
        idx = seq.compacts.limit_sets[qi]
        touched = np.isfinite(upper.values[idx])
        over = (upper.values[idx] - f.values[idx])[touched]
        under = (f.values[idx] - lower.values[idx])[touched]
        out.append((q, over.max(initial=-np.inf), under.max(initial=-np.inf)))
    return out


def lift_to_members(f: Fn, seq: SpaceSequence) -> FnSequence:
    """Pull a limit function back to every member space through the embeddings:
    each member point takes the value of f at the nearest limit point.  The
    sup norms never grow, and the lifted sequence converges back to f."""
    if f.space != seq.limit:
        raise PreconditionError("function must live on the limit space")
    return FnSequence(seq, tuple(
        Fn(m, f.values[nearest]) for m, nearest in zip(seq.members, seq.lifting())
    ))

