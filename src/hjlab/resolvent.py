"""Nonlinear resolvent solves and the algebra they are supposed to satisfy.

For a Hamiltonian H and lambda > 0 the resolvent R(lambda)h is the solution
f of f - lambda * H f = h.  The solve path follows from H and lambda alone:

  * a custom solver, when H carries one (Howard iteration for kinked schemes);
  * otherwise the plain fixed point f <- h + lambda * H f whenever a Lipschitz
    bound L is known and lambda * L < 0.9 (the Crandall-Liggett regime of many
    small steps), handing over to Newton from its last iterate if it stalls;
  * otherwise Newton with backtracking line search on the residual, using the
    Hamiltonian's Jacobian (sparse or dense).  When Newton fails from the
    start it was given, it retries once from the constant mean(h): large data
    can overflow H at f0 = h (exp in a tilt), and a constant start keeps every
    difference f_j - f_i at zero, where such an H is finite.

A custom or Newton step that fails at the full lambda falls back to one
lambda continuation (the same for both), which walks lambda up from
lambda / 16 with warm starts.  Residual tolerance is 1e-10 in the sup norm by
default; solutions are cached per (lambda, h) so repeated sweeps are cheap.
The algebraic checks:

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
from .limits import Fn, FnSequence
from .operators import Hamiltonian, OperatorGraph
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
    for it in range(1, MAX_ITER_NEWTON + 1):
        if res <= tol:
            return f, it - 1, res
        J_H = H.jacobian(f)
        if sp.issparse(J_H):
            A = sp.eye(f.shape[0], format="csc") - lam * J_H.tocsc()
            step = spla.spsolve(A, -g)
        else:
            A = np.eye(f.shape[0]) - lam * np.asarray(J_H)
            step = np.linalg.solve(A, -g)
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
    H: Hamiltonian, lam: float, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float, bool]:
    f = f0.copy()
    res_prev = np.inf
    stall = 0
    for it in range(1, MAX_ITER_FIXED_POINT + 1):
        f = h + lam * H.apply_values(f)
        res = float(np.abs(_residual(H, lam, f, h)).max())
        if res <= tol:
            return f, it, res, True
        stall = stall + 1 if res > 0.999 * res_prev else 0
        res_prev = res
        if stall >= 50:
            return f, it, res, False  # hand over to newton
    return f, MAX_ITER_FIXED_POINT, res, False


def solve_resolvent(
    family: ResolventFamily, lam: float, h: Fn
) -> tuple[Fn, SolveDiagnostics]:
    """Solve f - lam * H f = h to the family's residual tolerance; returns the
    solution with the diagnostics of this call (from_cache on a cache hit)."""
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    H = family.hamiltonian
    if h.space != H.space:
        raise PreconditionError("right-hand side lives on the wrong space")
    key = (float(lam), _hash_values(h.values))
    with family._lock:
        if key in family._cache:
            f, diag = family._cache[key]
            return f, replace(diag, from_cache=True)

    f0 = h.values.astype(float)
    tol = family.tol_residual
    L = H.lipschitz_bound
    if H.custom_solver is None and L is not None and lam * L < 0.9:
        f, iterations, res, ok = _fixed_point(H, lam, h.values, f0, tol)
        used = "fixed_point"
        if not ok:
            f, its, res = _newton(H, lam, h.values, f, tol)
            iterations += its
            used = "fixed_point+newton"
    else:
        if H.custom_solver is not None:
            step, used = H.custom_solver, "custom"
        else:
            step, used = partial(_newton, H), "newton"
        try:
            f, iterations, res = step(lam, h.values, f0, tol)
        except SolverError as exc:
            f, iterations, res = _continuation(step, lam, h.values, f0, tol)
            iterations += exc.iterations
            used += "+continuation"

    out = Fn(H.space, f)
    diag = SolveDiagnostics(lam=float(lam), method=used, iterations=iterations, residual=res)
    with family._lock:
        family._cache[key] = (out, diag)
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
    slack: float = 1e-9,
) -> EquiContinuityReport:
    """Fit the smallest level q_hat such that, uniformly over members, probe
    pairs, and the lambda grid,

        sup_{K_n^q}(R_n(l)h1 - R_n(l)h2)
            <= delta * sup_{X_n}(h1 - h2) + sup_{K_n^q_hat}(h1 - h2) + slack.

    probe_pairs are pairs of FnSequence over seq.  Fit failure is reported
    (ok=False, q_hat=None), not raised.
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
                bound = delta * sup_global[c][n] + sup_on_level[lab][c][n] + slack
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
    the generating metadata is returned alongside the graph.
    """
    pairs = []
    meta = []
    for lam in lambdas:
        if lam <= 0:
            raise PreconditionError("lambda must be positive")
        for k, h in enumerate(hs):
            f = family.solve(lam, h)
            g = Fn(f.space, (f.values - h.values) / lam)
            pairs.append((f, g))
            meta.append({"lam": float(lam), "h_index": k, "h": h})
    return OperatorGraph(space=family.space, pairs=tuple(pairs), kind=kind), tuple(meta)
