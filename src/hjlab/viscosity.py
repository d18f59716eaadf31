"""Viscosity sub- and supersolution checks phrased through optimizing sequences.

A candidate u is a subsolution of f - lambda * H f = h against a dagger
graph when, for every pair (f, g) with sup(u - f) finite, some sequence y_n
satisfies u(gamma(y_n)) - f(gamma(y_n)) -> sup(u - f) together with
limsup u(gamma(y_n)) - lambda * g(y_n) - h(gamma(y_n)) <= 0.  On a finite
space an optimizing sequence is eventually a maximizer, so the check
enumerates all tied maximizers (through the enlarged space when the graph
has one) and requires the inequality at one of them.  Supersolutions mirror
everything with minimizers and the opposite inequality.

The optimizing-sequence construction itself is exposed: given (f, g) with
sup f <= sup(f - eps g) < infinity for every eps in a decreasing grid, the
points x_eps maximizing f - eps g satisfy the defining inequality chain with
slack eps^2 for free, f(x_eps) approaches sup f, and the tail of g(x_eps)
stays below zero.  This holds even when inf g = -infinity, which is the
point of the shipped logarithmic fixture.

Extended values follow fixed conventions: points where u - f is minus
infinity never enter the argmax; a (+inf) - (+inf) collision is a hard
error; pairs whose gap is infinite are skipped, as the definition only
quantifies over pairs with a finite gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .limits import ExtFn, Fn
from .operators import OperatorGraph, _ext_scale

__all__ = [
    "ViscosityReport",
    "OptimizingSequenceReport",
    "ComparisonReport",
    "IdentificationReport",
    "check_subsolution",
    "check_supersolution",
    "find_optimizing_sequence",
    "check_comparison",
    "perturb_subsolution",
    "identification_bound",
]

# the tail of an optimizing sequence: the last third of the eps grid, where
# eps is smallest
TAIL_FRACTION = 1.0 / 3.0


def _ext_values(u) -> np.ndarray:
    return u.values if isinstance(u, (Fn, ExtFn)) else np.asarray(u, dtype=float)


def _ext_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b with extended conventions; same-signed infinities collide hard."""
    both_pos = (a == np.inf) & (b == np.inf)
    both_neg = (a == -np.inf) & (b == -np.inf)
    if both_pos.any() or both_neg.any():
        raise PreconditionError("ill-defined difference of equal infinities")
    with np.errstate(invalid="ignore"):
        out = a - b
    return out


@dataclass(frozen=True)
class ViscosityReport:
    kind: str
    passed: bool
    tol: float
    lam: float
    per_pair: tuple
    notes: tuple = ()

    def failing_pairs(self) -> tuple:
        return tuple(p for p in self.per_pair if not p["passed"] and not p["skipped"])


def _check_solution(u, G, h: Fn, lam: float, tol: float, tie_tol: float, sub: bool):
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    uv = _ext_values(u)
    hv = _ext_values(h)
    if sub and uv.max() == np.inf:
        raise PreconditionError("subsolution candidates must be bounded above")
    if not sub and uv.min() == -np.inf:
        raise PreconditionError("supersolution candidates must be bounded below")
    gamma = G.gamma
    n_pairs = len(G.pairs)
    F = np.array([f.values for f, _ in G.pairs], dtype=float).reshape(
        n_pairs, G.space.size)
    Gv = np.array([g.values for _, g in G.pairs], dtype=float).reshape(n_pairs, gamma.size)
    sign = 1.0 if sub else -1.0
    # maximize sign * (u - f), one row per pair: covers sub (maximizers) and
    # super (minimizers); the gap is taken on the base space, the ties on the
    # enlarged one through gamma
    diff_x = sign * _ext_diff(uv, F)
    gaps = diff_x.max(axis=1)
    diff_y = diff_x[:, gamma]
    finite = np.isfinite(gaps)
    ties = (diff_y >= (gaps - tie_tol)[:, None]) & finite[:, None]
    # u - h - lam * g, compared only at the ties of pairs with a finite gap
    with np.errstate(invalid="ignore"):
        uh = uv[gamma] - hv[gamma]
    lg = _ext_scale(lam, Gv)
    clash = ((uh == np.inf) & (lg == np.inf)) | ((uh == -np.inf) & (lg == -np.inf))
    if (clash & ties).any():
        raise PreconditionError("ill-defined difference of equal infinities")
    with np.errstate(invalid="ignore"):
        vals = uh - lg
    # subsolution wants min over ties <= tol; supersolution wants max >= -tol.
    # A row whose ties are all +-inf would pick a non-tie from the masked
    # array, where the unmasked search picks the first tie.
    fill = np.inf if sub else -np.inf
    masked = np.where(ties, vals, fill)
    best = np.argmin(masked, axis=1) if sub else np.argmax(masked, axis=1)
    rows = np.arange(n_pairs)
    best = np.where(masked[rows, best] == fill, ties.argmax(axis=1), best)
    slacks = vals[rows, best]
    n_ties = ties.sum(axis=1)

    per_pair = []
    notes: list[str] = []
    all_ok = True
    for k in range(n_pairs):
        gap = float(gaps[k])
        record = {"pair": k, "skipped": False, "passed": True, "gap": sign * gap,
                  "slack": None, "witness_y": None, "witness_x": None, "n_ties": 0}
        if gap == np.inf:
            # the definition only quantifies over pairs with a finite gap
            record["skipped"] = True
        elif gap == -np.inf:
            notes.append(f"pair {k}: degenerate gap (u - f identically infinite); vacuous pass")
        elif n_ties[k] == 0:
            record["passed"] = False
            record["slack"] = np.inf
            notes.append(f"pair {k}: optimum not reachable through the enlarged space")
            all_ok = False
        else:
            slack = float(slacks[k])
            ok = slack <= tol if sub else slack >= -tol
            y = int(best[k])
            record.update(slack=slack, n_ties=int(n_ties[k]), witness_y=y,
                          witness_x=int(gamma[y]), passed=ok)
            all_ok = all_ok and ok
        per_pair.append(record)
    return ViscosityReport(
        kind="subsolution" if sub else "supersolution",
        passed=all_ok, tol=tol, lam=lam, per_pair=tuple(per_pair), notes=tuple(notes),
    )


def check_subsolution(
    u, G, h: Fn, lam: float, tol: float = 1e-9, tie_tol: float = 1e-12
) -> ViscosityReport:
    """Subsolution check of u for f - lam * Hf = h against a dagger graph."""
    return _check_solution(u, G, h, lam, tol, tie_tol, sub=True)


def check_supersolution(
    u, G, h: Fn, lam: float, tol: float = 1e-9, tie_tol: float = 1e-12
) -> ViscosityReport:
    """Supersolution check of u against a ddagger graph (minimizers, >= -tol)."""
    return _check_solution(u, G, h, lam, tol, tie_tol, sub=False)


@dataclass(frozen=True)
class OptimizingSequenceReport:
    indices: np.ndarray
    eps_grid: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray
    sup_f: float
    construction_margins: np.ndarray
    f_gap_final: float
    g_tail_max: float
    passed: bool


def find_optimizing_sequence(
    f, g, eps_grid: Sequence[float], tol_f: float = 1e-3, tol_g: float = 1e-3
) -> OptimizingSequenceReport:
    """Construct x_eps maximizing f - eps * g along a decreasing eps grid.

    Preconditions (checked per eps, failures name the offending eps):
    sup f <= sup(f - eps g) < infinity.  The construction inequality
    f(x_eps) - eps g(x_eps) + eps^2 >= sup(f - eps g) then holds with margin
    eps^2, and the conclusions measured are f(x_eps) -> sup f and a
    nonpositive tail for g(x_eps); inf g may be -infinity throughout.
    """
    fv, gv = _ext_values(f), _ext_values(g)
    eps_grid = np.asarray([float(e) for e in eps_grid])
    if eps_grid.size == 0 or np.any(eps_grid <= 0) or np.any(np.diff(eps_grid) >= 0):
        raise PreconditionError("eps grid must be positive and strictly decreasing")
    sup_f = float(fv.max())
    if sup_f == np.inf:
        raise PreconditionError("sup f must be finite")
    idx, fvals, gvals, margins = [], [], [], []
    for eps in eps_grid:
        with np.errstate(invalid="ignore"):
            d = fv - eps * gv
        d[np.isnan(d)] = -np.inf  # (-inf) - eps*(-inf): dominated, never optimal
        s_eps = float(d.max())
        if s_eps == np.inf:
            raise PreconditionError(f"sup(f - eps g) is infinite at eps={eps}")
        if sup_f > s_eps + 1e-12:
            raise PreconditionError(f"sup f exceeds sup(f - eps g) at eps={eps}")
        x = int(np.argmax(d))
        idx.append(x)
        fvals.append(float(fv[x]))
        gvals.append(float(gv[x]))
        margins.append(float(fvals[-1] - eps * gvals[-1] + eps * eps - s_eps))
    fvals = np.array(fvals)
    gvals = np.array(gvals)
    tail_start = int(len(eps_grid) * (1.0 - TAIL_FRACTION))
    g_tail_max = float(gvals[tail_start:].max())
    f_gap_final = float(abs(sup_f - fvals[-1]))
    return OptimizingSequenceReport(
        indices=np.array(idx, dtype=int),
        eps_grid=eps_grid,
        f_values=fvals,
        g_values=gvals,
        sup_f=sup_f,
        construction_margins=np.array(margins),
        f_gap_final=f_gap_final,
        g_tail_max=g_tail_max,
        passed=(f_gap_final <= tol_f and g_tail_max <= tol_g),
    )


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    tol: float
    lhs: float
    rhs: float
    excess: float


def check_comparison(u, v, h1: Fn, h2: Fn, tol: float = 1e-9) -> ComparisonReport:
    """sup(u - v) <= sup(h1 - h2) for a subsolution u and supersolution v."""
    uv, vv = _ext_values(u), _ext_values(v)
    lhs = float(_ext_diff(uv, vv).max())
    rhs = float((h1.values - h2.values).max())
    return ComparisonReport(
        passed=lhs <= rhs + tol, tol=tol, lhs=lhs, rhs=rhs, excess=lhs - rhs
    )


def perturb_subsolution(u: Fn, h: Fn, lam: float, eps: float) -> Fn:
    """Right-hand side for the eps-equation solved by the same subsolution:
    a subsolution of f - lam * Hf = h is one of f - eps * Hf = h' with
    h' = u - (eps/lam)(u - h), for 0 < eps <= lam."""
    if not (0 < eps <= lam):
        raise PreconditionError("need 0 < eps <= lam")
    return Fn(u.space, u.values - (eps / lam) * (u.values - h.values))


@dataclass(frozen=True)
class IdentificationReport:
    precondition_ok: bool
    bound_holds: bool | None
    max_excess: float | None
    viscosity: ViscosityReport


def identification_bound(
    f0: Fn, g0: Fn, candidate, eps: float, tol: float = 1e-9, direction: str = "sub"
) -> IdentificationReport:
    """If the candidate is a viscosity subsolution of f - eps*Hf = f0 - eps*g0
    against the single-pair graph {(f0, g0)}, it lies below f0 (mirrored for
    supersolutions).  A failed viscosity check is reported as a precondition
    failure, with the bound left unevaluated."""
    rhs = Fn(f0.space, f0.values - eps * g0.values)
    if direction == "sub":
        G = OperatorGraph(space=f0.space, pairs=((f0, g0),), kind="dagger")
        rep = check_subsolution(candidate, G, rhs, eps, tol=tol)
        excess = float((_ext_values(candidate) - f0.values).max())
    elif direction == "super":
        G = OperatorGraph(space=f0.space, pairs=((f0, g0),), kind="ddagger")
        rep = check_supersolution(candidate, G, rhs, eps, tol=tol)
        excess = float((f0.values - _ext_values(candidate)).max())
    else:
        raise PreconditionError("direction must be 'sub' or 'super'")
    if not rep.passed:
        return IdentificationReport(
            precondition_ok=False, bound_holds=None, max_excess=None, viscosity=rep
        )
    return IdentificationReport(
        precondition_ok=True, bound_holds=excess <= tol, max_excess=excess, viscosity=rep
    )
