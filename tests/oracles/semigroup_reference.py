"""The package's earlier Crandall-Liggett loop with its solve and fixed point.

Each step solved from scratch: the fixed point applied H to a copy of the
step's right-hand side, although the step before had applied H to the same
values for its last residual.  The package hands that lam * H f from one
step to the next; both must give the same result, iteration counts,
residuals and methods, bit for bit.  Newton runs the reference damped step
(with the retry from the constant mean(h) that the package's _newton adds).
A custom solver takes stacks, and runs on a stack of one through the
package's _one_row adapter.
"""

import numpy as np

from hjlab.errors import SolverError
from hjlab.resolvent import _one_row

from oracles.newton_reference import damped_newton

MAX_ITER_FIXED_POINT = 20000


def newton(H, lam, h, f0, tol):
    try:
        return damped_newton(H, lam, h, f0, tol)
    except SolverError as exc:
        spent = exc.iterations
    try:
        f, its, res = damped_newton(H, lam, h, np.full_like(f0, h.mean()), tol)
    except SolverError as exc:
        exc.iterations += spent
        raise
    return f, spent + its, res


def fixed_point(H, lam, h, f0, tol):
    # lam * H f_k serves both iterate k's residual and the update to iterate k + 1
    f = f0.copy()
    lam_Hf = lam * H.apply_values(f)
    res_prev = np.inf
    stall = 0
    for it in range(1, MAX_ITER_FIXED_POINT + 1):
        f = h + lam_Hf
        lam_Hf = lam * H.apply_values(f)
        res = float(np.abs(f - lam_Hf - h).max())
        if res <= tol:
            return f, it, res, True
        stall = stall + 1 if res > 0.999 * res_prev else 0
        res_prev = res
        if stall >= 50:
            return f, it, res, False  # hand over to newton
    return f, MAX_ITER_FIXED_POINT, res, False


def solve(H, lam, h, tol):
    """(f, method, iterations, residual)."""
    f0 = h.astype(float)
    L = H.lipschitz_bound
    if H.custom_solver is None and L is not None and lam * L < 0.9:
        f, iterations, res, ok = fixed_point(H, lam, h, f0, tol)
        used = "fixed_point"
        if not ok:
            f, its, res = newton(H, lam, h, f, tol)
            iterations += its
            used = "fixed_point+newton"
    else:
        if H.custom_solver is not None:
            f, iterations, res = _one_row(H.custom_solver, lam, h, f0, tol)
            used = "custom"
        else:
            f, iterations, res = newton(H, lam, h, f0, tol)
            used = "newton"
    return f, used, iterations, res


def crandall_liggett(H, tol, t, n_steps, f):
    """(result values, total iterations, worst residual, sorted methods) of
    n_steps steps of R(t / n_steps) from the values f."""
    lam = t / n_steps
    cur = f
    total = 0
    worst = 0.0
    methods = set()
    for _ in range(n_steps):
        cur, used, its, res = solve(H, lam, cur, tol)
        total += its
        worst = max(worst, res)
        methods.add(used)
    return cur, total, worst, tuple(sorted(methods))
