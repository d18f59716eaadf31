"""Nonlinear resolvent solves and the algebra they are supposed to satisfy.

For a Hamiltonian H and lambda > 0 the resolvent R(lambda)h is the solution
f of f - lambda * H f = h.  The solve path follows from H and lambda alone:

  * a custom solver, when H carries one (Howard iteration for kinked schemes);
  * otherwise the plain fixed point f <- h + lambda * H f whenever a Lipschitz
    bound L is known and lambda * L < 0.9 (the Crandall-Liggett regime of many
    small steps), handing over to Newton from its last iterate if it stalls
    or its residual turns non-finite;
  * otherwise Newton with backtracking line search on the residual, using the
    Hamiltonian's Jacobian (dense, or CSR on the pattern H.jacobian_pattern
    declares, which gives I - lambda * J one CSC pattern per solve, see
    _NewtonPattern).  When Newton fails from the start it was given, it
    retries once from the constant mean(h): large data can overflow H at
    f0 = h (exp in a tilt), and a constant start keeps every difference
    f_j - f_i at zero, where such an H is finite.

A custom or Newton step that fails at the full lambda falls back to one
lambda continuation (the same for both), which walks lambda up from
lambda / 16 with warm starts.  Residual tolerance is 1e-10 in the sup norm by
default.  solve_resolvent caches solutions per (lambda, h) so repeated sweeps
are cheap; a hit returns the stored entry, diagnostics included.
ResolventFamily.solve_all solves a list of (lambda, h) pairs through the same
cache, and first solves the pairs not yet cached in one call of the
Hamiltonian's stacked solver when it declares one and the path rule takes the
custom solver.  The steps of an iteration (crandall_liggett) never repeat a
right-hand side, so they bypass the cache: on the fixed-point path they run
_fixed_point_step directly (the path follows from H and lambda, which a run
does not change), otherwise the uncached _solve.  The algebraic checks:

  * pseudo-resolvent identity
        R(beta) h = R(alpha)[ R(beta) h - (alpha/beta)(R(beta) h - h) ]
    for alpha < beta;
  * contractivity in the two one-sided forms
        sup R(l)h1 - R(l)h2 <= sup h1 - h2,
        inf R(l)h1 - R(l)h2 >= inf h1 - h2;
  * the local strict equi-continuity estimate over a compact chain: find the
    smallest level q_hat with
        sup_{K_n^q} (R_n(l)h1 - R_n(l)h2)
            <= delta * sup_{X_n} (h1 - h2) + sup_{K_n^q_hat} (h1 - h2).

build_Hhat turns solved pairs into the graph {(R(l)h, (R(l)h - h)/l)}; every
pair satisfies f - l * g = h exactly by construction, so the graph encodes
both the range condition and (via check_dissipative) dissipativity.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import PreconditionError, SolverError
from .limits import Fn
from .operators import Hamiltonian, OperatorGraph, _compressed_pattern
from .spaces import SpaceSequence

__all__ = [
    "SolveDiagnostics",
    "ResolventFamily",
    "solve_resolvent",
    "check_pseudo_resolvent_identity",
    "check_contractive",
    "estimate_equicontinuity",
    "build_Hhat",
    "IdentityReport",
    "ContractivityReport",
    "EquiContinuityReport",
]

MAX_ITER_FIXED_POINT = 20000
MAX_ITER_NEWTON = 200
# additive slack of the equi-continuity bound, so that a bound met up to
# rounding still fits
EQUICONTINUITY_SLACK = 1e-9


@dataclass(frozen=True)
class SolveDiagnostics:
    lam: float
    method: str
    iterations: int
    residual: float
    from_cache: bool = False


def _hash_values(v: np.ndarray) -> str:
    return hashlib.sha256(v.tobytes()).hexdigest()


@dataclass
class ResolventFamily:
    """R(lambda) for one Hamiltonian, with a solve cache."""

    hamiltonian: Hamiltonian
    tol_residual: float = 1e-10
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def solve(self, lam: float, h: Fn) -> Fn:
        f, _ = solve_resolvent(self, lam, h)
        return f

    def solve_all(self, problems: Sequence[tuple[float, Fn]]) -> list[Fn]:
        """R(lam) h for every (lam, h) in problems, in order, through the cache.

        When the Hamiltonian declares a stacked solver and, as _solve requires
        for the custom path, a custom solver, the problems not yet cached are
        first solved in one stacked call and stored under solve_resolvent's
        keys, with the diagnostics of a custom solve.  Every problem then goes
        through solve_resolvent, which finds those cached.  Otherwise, or when
        the stacked call raises, each problem is solved there one at a time,
        so errors read as they do for single solves."""
        stacked = self.hamiltonian.stacked_solver
        if stacked is not None and self.hamiltonian.custom_solver is not None:
            keys = [_cache_key(self, lam, h) for lam, h in problems]
            with self._lock:
                misses = {
                    key: h for key, (_, h) in zip(keys, problems) if key not in self._cache
                }
            if misses:
                self._store_stacked(stacked, misses)
        return [solve_resolvent(self, lam, h)[0] for lam, h in problems]

    def _store_stacked(self, stacked, misses: dict) -> None:
        lams = np.array([lam for lam, _ in misses])
        hs = np.array([h.values for h in misses.values()])
        try:
            f, iterations, residuals = stacked(lams, hs, hs, self.tol_residual)
        except (SolverError, ValueError):
            return  # solve_resolvent solves them one at a time
        with self._lock:
            for i, key in enumerate(misses):
                diag = SolveDiagnostics(
                    lam=key[0], method="custom", iterations=int(iterations[i]),
                    residual=float(residuals[i]), from_cache=True,
                )
                self._cache[key] = (Fn(self.space, f[i]), diag)

    @property
    def space(self):
        return self.hamiltonian.space


def _residual(H: Hamiltonian, lam: float, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    return f - lam * H.apply_values(f) - h


def _newton(
    H: Hamiltonian, lam: float, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float]:
    """Damped Newton from f0, retried once from the constant mean(h)."""
    if H.jacobian is None:
        raise PreconditionError(
            f"newton needs a Jacobian, and Hamiltonian {H.name or '<unnamed>'} has none"
        )
    try:
        return _damped_newton(H, lam, h, f0, tol)
    except SolverError as exc:
        spent = exc.iterations
    try:
        f, its, res = _damped_newton(H, lam, h, np.full_like(f0, h.mean()), tol)
    except SolverError as exc:
        exc.iterations += spent
        raise
    return f, spent + its, res


@dataclass(frozen=True)
class _NewtonPattern:
    """The CSC pattern of I - lam * J for a CSR Jacobian J on a declared
    pattern (indptr, indices), each entry stored once: the union of J's
    stored entries and the diagonal, with the slot of every stored entry of J
    and of every diagonal entry.

    newton_matrix equals sp.eye(n, format="csc") - lam * J.tocsc() in data,
    indices and indptr: a slot holds 0 - lam * J_ij, plus 1 on the diagonal,
    and 1 + (0 - x) == 1 - x in IEEE arithmetic; exact zeros are dropped, as
    sparse subtraction drops them.  The same matrix means the same SuperLU
    ordering and the same Newton step, bit for bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    jac_slot: np.ndarray
    diag_slot: np.ndarray

    @classmethod
    def of(cls, jacobian_pattern: tuple) -> "_NewtonPattern":
        jac_indptr, jac_indices = jacobian_pattern
        n = jac_indptr.shape[0] - 1
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(jac_indptr))
        diag = np.arange(n, dtype=np.int64)
        # columns as the major index: the CSC pattern
        indptr, indices, slot = _compressed_pattern(
            np.concatenate((jac_indices, diag)), np.concatenate((rows, diag)), n
        )
        return cls(
            indptr=indptr,
            indices=indices,
            jac_slot=slot[: rows.shape[0]],
            diag_slot=slot[rows.shape[0]:],
        )

    def newton_matrix(self, J, lam: float) -> sp.csc_matrix:
        data = np.zeros(self.indices.shape[0])
        data[self.jac_slot] = 0.0 - lam * J.data
        data[self.diag_slot] += 1.0
        indices, indptr = self.indices, self.indptr
        kept = data != 0.0
        if not kept.all():
            data, indices = data[kept], indices[kept]
            indptr = np.concatenate(([0], np.cumsum(kept)))[indptr].astype(np.intc)
        return sp.csc_matrix((data, indices, indptr), shape=J.shape)


# A start outside H's domain (exp overflow in a tilt) gives inf/nan; the start
# check and the line-search test reject those values, so numpy's warnings about
# them are noise.
@np.errstate(over="ignore", invalid="ignore")
def _damped_newton(
    H: Hamiltonian, lam: float, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float]:
    f = f0.copy()
    g = _residual(H, lam, f, h)
    res = float(np.abs(g).max())
    if not np.isfinite(res):
        raise SolverError(f"newton start residual is not finite (lam={lam})")
    if H.jacobian_pattern is None:
        eye = np.eye(f.shape[0])
    else:
        pattern = _NewtonPattern.of(H.jacobian_pattern)
    for it in range(1, MAX_ITER_NEWTON + 1):
        if res <= tol:
            return f, it - 1, res
        J_H = H.jacobian(f)
        if H.jacobian_pattern is None:
            step = np.linalg.solve(eye - lam * np.asarray(J_H), -g)
        else:
            step = spla.spsolve(pattern.newton_matrix(J_H, lam), -g)
        t = 1.0
        while t >= 2.0**-30:
            f_try = f + t * step
            g_try = _residual(H, lam, f_try, h)
            res_try = float(np.abs(g_try).max())
            if res_try < (1.0 - 1e-4 * t) * res:
                f, g, res = f_try, g_try, res_try
                break
            t *= 0.5
        else:
            raise SolverError(
                f"newton line search stalled at residual {res:.3g} (lam={lam})",
                iterations=it,
            )
    if res <= tol:
        return f, MAX_ITER_NEWTON, res
    raise SolverError(
        f"newton did not converge: residual {res:.3g} after {MAX_ITER_NEWTON} iterations",
        iterations=MAX_ITER_NEWTON,
    )


def _continuation(
    step, lam: float, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float]:
    """Homotopy fallback for cold starts outside the solver's basin: walk lam
    up from a small value, warm-starting each stage with the previous solution.
    Tracks one deterministic solution branch.  step has the custom-solver
    signature (lam, h, f0, tol) -> (f, iterations, residual)."""
    f = f0.copy()
    total = 0
    res = np.inf
    for frac in (1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0):
        try:
            f, its, res = step(frac * lam, h, f, tol)
        except SolverError as exc:
            raise SolverError(
                f"lambda continuation stalled at {frac} * lam: {exc}",
                iterations=total + exc.iterations,
            ) from exc
        total += its
    return f, total, res


def _fixed_point(
    H: Hamiltonian,
    lam: float,
    h: np.ndarray,
    f0: np.ndarray,
    tol: float,
    lam_Hf0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, bool, np.ndarray]:
    """f <- h + lam * H f from f0; returns (f, iterations, residual, converged,
    lam * H f).  lam_Hf0, when the caller has it, is lam * H f0 (a
    Crandall-Liggett step's start is the previous step's result, whose
    lam * H f that step computed for its residual); neither f0 nor lam_Hf0 is
    written to.  H overflowing (exp in a tilt) makes the residual non-finite,
    which ends the iteration at once; callers run it inside
    np.errstate(over="ignore", invalid="ignore"), because numpy's warnings
    about those values are noise, as in _damped_newton."""
    # lam * H f_k serves both iterate k's residual and the update to iterate k + 1
    lam_Hf = lam * H.apply_values(f0) if lam_Hf0 is None else lam_Hf0
    res_prev = np.inf
    stall = 0
    for it in range(1, MAX_ITER_FIXED_POINT + 1):
        f = h + lam_Hf
        lam_Hf = lam * H.apply_values(f)
        # |f - lam_Hf - h| in one scratch array; maximum.reduce is what .max() calls
        r = f - lam_Hf
        r -= h
        np.abs(r, out=r)
        res = float(np.maximum.reduce(r))
        if res <= tol:
            return f, it, res, True, lam_Hf
        if not res < np.inf:
            # nan or inf: H overflowed, and a nan residual would read as progress
            return f, it, res, False, lam_Hf
        stall = stall + 1 if res > 0.999 * res_prev else 0
        res_prev = res
        if stall >= 50:
            return f, it, res, False, lam_Hf  # hand over to newton
    return f, MAX_ITER_FIXED_POINT, res, False, lam_Hf


def _takes_fixed_point(H: Hamiltonian, lam: float) -> bool:
    """The path rule's first branch: the plain fixed point, when H has no
    custom solver and lam * L < 0.9 for a known Lipschitz bound L."""
    L = H.lipschitz_bound
    return H.custom_solver is None and L is not None and lam * L < 0.9


def _fixed_point_step(
    H: Hamiltonian, lam: float, h: np.ndarray, tol: float, lam_Hh: np.ndarray | None = None
) -> tuple[np.ndarray, int, float, str, np.ndarray | None]:
    """Solve f - lam * H f = h on the fixed-point path: the fixed point from h,
    handing over to Newton from its last iterate when it does not converge.
    lam_Hh, when given, is lam * H h.  Returns (f, iterations, residual,
    method, lam * H f), the last None after a handover.  Run it inside
    np.errstate(over="ignore", invalid="ignore") (see _fixed_point)."""
    f, iterations, res, ok, lam_Hf = _fixed_point(H, lam, h, h, tol, lam_Hh)
    if ok:
        return f, iterations, res, "fixed_point", lam_Hf
    f, its, res = _newton(H, lam, h, f, tol)
    return f, iterations + its, res, "fixed_point+newton", None


def _solve(
    H: Hamiltonian, lam: float, h: np.ndarray, tol: float
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve f - lam * H f = h to tol, uncached; the path follows from H and
    lam alone (see the module docstring)."""
    if _takes_fixed_point(H, lam):
        with np.errstate(over="ignore", invalid="ignore"):
            f, iterations, res, used, _ = _fixed_point_step(H, lam, h, tol)
    else:
        f0 = h.astype(float)
        if H.custom_solver is not None:
            step, used = H.custom_solver, "custom"
        else:
            step, used = partial(_newton, H), "newton"
        try:
            f, iterations, res = step(lam, h, f0, tol)
        except SolverError as exc:
            f, iterations, res = _continuation(step, lam, h, f0, tol)
            iterations += exc.iterations
            used += "+continuation"
    return f, SolveDiagnostics(lam=float(lam), method=used, iterations=iterations, residual=res)


def _cache_key(family: ResolventFamily, lam: float, h: Fn) -> tuple:
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    if h.space != family.space:
        raise PreconditionError("right-hand side lives on the wrong space")
    return (float(lam), _hash_values(h.values))


def solve_resolvent(
    family: ResolventFamily, lam: float, h: Fn
) -> tuple[Fn, SolveDiagnostics]:
    """Solve f - lam * H f = h to the family's residual tolerance; returns the
    solution with the diagnostics of this call (from_cache on a cache hit)."""
    key = _cache_key(family, lam, h)
    with family._lock:
        hit = family._cache.get(key)
    if hit is not None:
        return hit

    H = family.hamiltonian
    f, diag = _solve(H, lam, h.values, family.tol_residual)
    out = Fn(H.space, f)
    with family._lock:
        # a hit returns the entry as stored: its diagnostics say from_cache
        family._cache[key] = (out, replace(diag, from_cache=True))
    return out, diag


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    tol: float
    worst_residual: float
    cases: tuple


def check_pseudo_resolvent_identity(
    family: ResolventFamily,
    alpha_beta: Sequence[tuple],
    hs: Sequence[Fn],
    tol: float,
) -> IdentityReport:
    """Residuals of R(beta)h = R(alpha)[R(beta)h - (alpha/beta)(R(beta)h - h)]."""
    cases = []
    worst = 0.0
    for alpha, beta in alpha_beta:
        if not (0 < alpha < beta):
            raise PreconditionError("need 0 < alpha < beta")
        for k, h in enumerate(hs):
            rb = family.solve(beta, h)
            inner = Fn(h.space, rb.values - (alpha / beta) * (rb.values - h.values))
            lhs = family.solve(alpha, inner)
            res = float(np.abs(lhs.values - rb.values).max())
            worst = max(worst, res)
            cases.append({"alpha": float(alpha), "beta": float(beta), "h_index": k, "residual": res})
    return IdentityReport(passed=worst <= tol, tol=tol, worst_residual=worst, cases=tuple(cases))


@dataclass(frozen=True)
class ContractivityReport:
    passed: bool
    tol: float
    worst_excess: float
    cases: tuple


def check_contractive(
    family: ResolventFamily,
    lambdas: Sequence[float],
    probe_pairs: Sequence[tuple],
    tol: float = 1e-9,
) -> ContractivityReport:
    """Both one-sided bounds: sup of differences does not grow, inf does not shrink."""
    cases = []
    worst = 0.0
    for lam in lambdas:
        for k, (h1, h2) in enumerate(probe_pairs):
            r1, r2 = family.solve(lam, h1), family.solve(lam, h2)
            d_out = r1.values - r2.values
            d_in = h1.values - h2.values
            sup_excess = float(d_out.max() - d_in.max())
            inf_excess = float(d_in.min() - d_out.min())
            excess = max(sup_excess, inf_excess)
            worst = max(worst, excess)
            cases.append({"lam": float(lam), "pair": k, "sup_excess": sup_excess,
                          "inf_excess": inf_excess})
    return ContractivityReport(passed=worst <= tol, tol=tol, worst_excess=worst, cases=tuple(cases))


@dataclass(frozen=True)
class EquiContinuityReport:
    ok: bool
    q: object
    q_hat: object
    delta: float
    worst_margin: float
    details: tuple


def estimate_equicontinuity(
    families: Sequence[ResolventFamily],
    seq: SpaceSequence,
    q,
    delta: float,
    lambdas: Sequence[float],
    probe_pairs: Sequence[tuple],
) -> EquiContinuityReport:
    """Fit the smallest level q_hat such that, uniformly over members, probe
    pairs, and the lambda grid,

        sup_{K_n^q}(R_n(l)h1 - R_n(l)h2)
            <= delta * sup_{X_n}(h1 - h2) + sup_{K_n^q_hat}(h1 - h2) + slack,

    slack = EQUICONTINUITY_SLACK.  probe_pairs are pairs of FnSequence over
    seq.  Fit failure is reported (ok=False, q_hat=None), not raised.
    """
    qi = seq.compacts.level(q)
    n_mem = seq.n_members
    sup_on_K: list[list[float]] = []  # [case][n]
    sup_global: list[list[float]] = []
    sup_on_level: dict = {lab: [] for lab in seq.compacts.labels}
    for h1s, h2s in probe_pairs:
        for lam in lambdas:
            row_K, row_glob = [], []
            rows_level = {lab: [] for lab in seq.compacts.labels}
            for n in range(n_mem):
                h1, h2 = h1s.members[n], h2s.members[n]
                r1 = families[n].solve(lam, h1)
                r2 = families[n].solve(lam, h2)
                diff_out = r1.values - r2.values
                diff_in = h1.values - h2.values
                row_K.append(float(diff_out[seq.compacts.member_sets[qi][n]].max()))
                row_glob.append(float(diff_in.max()))
                for li, lab in enumerate(seq.compacts.labels):
                    rows_level[lab].append(
                        float(diff_in[seq.compacts.member_sets[li][n]].max())
                    )
            sup_on_K.append(row_K)
            sup_global.append(row_glob)
            for lab in seq.compacts.labels:
                sup_on_level[lab].append(rows_level[lab])

    chosen, worst = None, np.inf
    details = []
    for li, lab in enumerate(seq.compacts.labels):
        margins = []
        for c in range(len(sup_on_K)):
            for n in range(n_mem):
                bound = delta * sup_global[c][n] + sup_on_level[lab][c][n] + EQUICONTINUITY_SLACK
                margins.append(bound - sup_on_K[c][n])
        m = float(min(margins))
        details.append({"q_hat": lab, "worst_margin": m, "ok": m >= 0.0})
        if m >= 0.0 and chosen is None:
            chosen, worst = lab, m
    return EquiContinuityReport(
        ok=chosen is not None, q=q, q_hat=chosen, delta=delta,
        worst_margin=(worst if chosen is not None else float(min(d["worst_margin"] for d in details))),
        details=tuple(details),
    )


def build_Hhat(
    family: ResolventFamily,
    lambdas: Sequence[float],
    hs: Sequence[Fn],
    kind: str = "dagger",
) -> tuple[OperatorGraph, tuple]:
    """The solution-generated graph {(R(l)h, (R(l)h - h)/l)}.

    Second components are computed from the solved first components, so
    f - l * g = h holds to machine precision for the generating (l, h);
    the generating metadata is returned alongside the graph.  The solves go
    through family.solve_all, so a Hamiltonian with a stacked solver solves
    every pair not yet cached in one call.
    """
    if any(lam <= 0 for lam in lambdas):
        raise PreconditionError("lambda must be positive")
    problems = [(lam, h) for lam in lambdas for h in hs]
    pairs = [
        (f, Fn(f.space, (f.values - h.values) / lam))
        for f, (lam, h) in zip(family.solve_all(problems), problems)
    ]
    meta = [
        {"lam": float(lam), "h_index": k, "h": h} for lam in lambdas for k, h in enumerate(hs)
    ]
    return OperatorGraph(space=family.space, pairs=tuple(pairs), kind=kind), tuple(meta)
