"""Semigroups from iterated resolvents, and the oracles that pin them down.

The approximation V(t) f ~ R(t/n)^n f converges (for dissipative operators
satisfying the range condition) as n grows; the iteration here reports
per-step solver health and supports three styles of verification:

  * an exact oracle for exponentially tilted generators,
        log( exp(tA) exp(f) )   componentwise,
    valid because the tilted flow linearizes under exp; the matrix
    exponential is evaluated by scaling-and-squaring at 1e-12 class
    accuracy;
  * self-consistency in n (successive doublings shrink, with a fitted
    log-log rate);
  * the zero-operator density check: R(lambda)h returns to h as lambda
    drops, monotonically for contractive families, which is the resolvent
    form of "the domain is dense".

Everything here works on one space.  The experiment across a converging
sequence of spaces, semigroup_convergence_experiment, reads an
OperatorSequence and lives in convergence beside the resolvent experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import PreconditionError
from .limits import ConvergenceVerdict, Fn
from .operators import validate_rate_matrix
from .resolvent import ResolventFamily, _fixed_point_step, _solve, _stack, _takes_fixed_point

__all__ = [
    "SemigroupApprox",
    "TrendReport",
    "crandall_liggett",
    "logexp_oracle",
    "linear_semigroup_oracle",
    "convergence_in_n",
    "fit_loglog_slope",
    "density_check_zero_operator",
]


@dataclass(frozen=True)
class SemigroupApprox:
    t: float
    n_steps: int
    lam: float
    result: Fn
    total_iterations: int
    worst_residual: float
    methods: tuple


def crandall_liggett(family: ResolventFamily, t: float, n_steps: int, f: Fn) -> SemigroupApprox:
    """n_steps-fold composition of R(t / n_steps) applied to f.

    The steps are not cached: no step repeats a right-hand side, so they work
    on raw value arrays and leave the family's cache as it was.  lam = t /
    n_steps is the same for every step, so the solver path (which follows
    from H and lam alone) is chosen once per run.  On the fixed-point path
    every step runs inside one np.errstate context, with no per-step
    diagnostics: each starts from the previous step's result, whose lam * H f
    that step computed for its last residual, so it does not apply H to the
    same values again, and a step that does not converge hands over to
    Newton as a single solve does.  On every other path each step is one
    uncached solve.  Every step reaches the residual tolerance (or raises),
    which implies finite values, so only the result is wrapped as an Fn."""
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    if n_steps <= 0:
        raise PreconditionError("need at least one step")
    if f.space != family.space:
        raise PreconditionError("initial condition lives on the wrong space")
    if t == 0.0:
        return SemigroupApprox(
            t=0.0, n_steps=n_steps, lam=0.0, result=Fn(f.space, f.values.copy()),
            total_iterations=0, worst_residual=0.0, methods=(),
        )
    lam = t / n_steps
    H, tol = family.hamiltonian, family.tol_residual
    cur = f.values
    total = 0
    worst = 0.0
    methods = set()
    if _takes_fixed_point(H, lam):
        lam_Hcur = None  # lam * H cur, when the last step computed it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_steps):
                cur, its, res, method, lam_Hcur = _fixed_point_step(H, lam, cur, tol, lam_Hcur)
                total += its
                worst = max(worst, res)
                methods.add(method)
    else:
        for _ in range(n_steps):
            cur, d = _solve(H, lam, cur, tol)
            total += d.iterations
            worst = max(worst, d.residual)
            methods.add(d.method)
    return SemigroupApprox(
        t=float(t), n_steps=n_steps, lam=lam, result=Fn(f.space, cur),
        total_iterations=total, worst_residual=worst, methods=tuple(sorted(methods)),
    )


def logexp_oracle(A: np.ndarray, t: float, f: np.ndarray) -> np.ndarray:
    """Componentwise log(exp(tA) exp(f)), shifted by max(f) against overflow.

    This is the exact flow of the exponentially tilted generator: writing
    u(t) = log(exp(tA) exp(f)) gives du/dt = exp(-u) A exp(u)."""
    A = validate_rate_matrix(A)
    f = np.asarray(f, dtype=float)
    shift = f.max()
    w = expm(t * A) @ np.exp(f - shift)
    if w.min() <= 0:
        raise PreconditionError("oracle overflowed/underflowed: nonpositive intermediate")
    return np.log(w) + shift


def linear_semigroup_oracle(A: np.ndarray, t: float, f: np.ndarray) -> np.ndarray:
    A = validate_rate_matrix(A)
    return expm(t * A) @ np.asarray(f, dtype=float)


def fit_loglog_slope(ns: Sequence[float], errs: Sequence[float]) -> float:
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0])


@dataclass(frozen=True)
class TrendReport:
    passed: bool
    n_list: tuple
    deviations: tuple
    mode: str  # "oracle" or "self"
    slope: float
    final: float
    tol: float | None
    notes: tuple = ()


def convergence_in_n(
    family: ResolventFamily,
    t: float,
    f: Fn,
    n_list: Sequence[int],
    oracle_values: np.ndarray | None = None,
    tol: float | None = None,
) -> TrendReport:
    """Errors of the iterated resolvent along n_list, against the oracle when
    given, otherwise against successive approximations (self mode)."""
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise PreconditionError("n_list must be strictly increasing")
    approx = [crandall_liggett(family, t, n, f).result.values for n in n_list]
    notes = []
    if oracle_values is not None:
        devs = [float(np.abs(a - oracle_values).max()) for a in approx]
        ns = n_list
        mode = "oracle"
    else:
        devs = [float(np.abs(b - a).max()) for a, b in zip(approx[:-1], approx[1:])]
        ns = n_list[1:]
        mode = "self"
    # a rise of at most 1e-12 is solver noise, not growth
    grew = [b > a + 1e-12 for a, b in zip(devs[:-1], devs[1:])]
    if any(grew):
        notes.append("deviations are not monotone along n_list")
    slope = fit_loglog_slope(ns, devs)
    final = devs[-1]
    passed = (not any(grew)) and (tol is None or final <= tol)
    return TrendReport(
        passed=passed, n_list=tuple(n_list), deviations=tuple(devs), mode=mode,
        slope=slope, final=final, tol=tol, notes=tuple(notes),
    )


def density_check_zero_operator(
    family: ResolventFamily,
    h: Fn,
    lambda_seq: Sequence[float],
    tol: float,
) -> ConvergenceVerdict:
    """Deviations ||R(lambda)h - h|| along a decreasing lambda sequence, from
    one solve_all stack.

    Passes when the deviations are non-increasing (up to solver-level slack)
    and the final one is below tol.
    """
    lam_seq = [float(l) for l in lambda_seq]
    if any(l <= 0 for l in lam_seq) or any(b >= a for a, b in zip(lam_seq[:-1], lam_seq[1:])):
        raise PreconditionError("lambda_seq must be positive and strictly decreasing")
    r = _stack(family.solve_all([(lam, h) for lam in lam_seq]), family.space)
    devs = np.abs(r - h.values).max(axis=1).tolist()
    non_increasing = all(b <= a + 1e-11 for a, b in zip(devs[:-1], devs[1:]))
    final_ok = devs[-1] <= tol
    notes = []
    if not non_increasing:
        notes.append("deviations increased along lambda_seq")
    passed = non_increasing and final_ok
    per_level = {
        "all": {
            "worst_dev": devs[-1],
            "deviations": tuple(devs),
            "lambda_seq": tuple(lam_seq),
            "passed": passed,
        }
    }
    return ConvergenceVerdict(
        passed=passed, tol=tol, n0=0, uniform_bound=h.norm,
        per_level=per_level, notes=tuple(notes),
    )
