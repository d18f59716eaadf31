"""The package's earlier damped Newton step and fixed-point iteration.

damped_newton assembles each sparse Newton matrix as
sp.eye(n, format="csc") - lam * J.tocsc(), J the sparse matrix of the entry
values a patterned Jacobian returns at its declared rows and cols, and solves
it with SuperLU (spsolve).  The package's JacobianPattern.newton_step does the
same for a pattern without a fold (the centered scheme), writing I - lam * J
straight onto the CSC layout it derives at its first step (newton_matrix), and
must give the same iterates, bit for bit.  For a pattern with a fold (the
upwind scheme and slow-fast products over it) it factors a folded band with
LAPACK gbsv, which rounds differently: its iterates must take the same number
of steps and stay within rounding of these.  fixed_point scaled H f_k by lam twice per
iterate; the package scales it once, and must give the same iterates, bit
for bit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hjlab.errors import SolverError
from oracles.jacobian_reference import on_pattern

MAX_ITER_FIXED_POINT = 20000
MAX_ITER_NEWTON = 200


def _residual(H, lam, f, h):
    return f - lam * H.apply_values(f) - h


@np.errstate(over="ignore", invalid="ignore")
def damped_newton(H, lam, h, f0, tol):
    f = f0.copy()
    g = _residual(H, lam, f, h)
    res = float(np.abs(g).max())
    if not np.isfinite(res):
        raise SolverError(f"newton start residual is not finite (lam={lam})")
    for it in range(1, MAX_ITER_NEWTON + 1):
        if res <= tol:
            return f, it - 1, res
        J_H = H.jacobian(f)
        if H.jacobian_pattern is not None:
            J_H = on_pattern(H.jacobian_pattern, J_H)
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


def fixed_point(H, lam, h, f0, tol):
    # H f_k serves both iterate k's residual and the update to iterate k + 1
    f = f0.copy()
    Hf = H.apply_values(f)
    res_prev = np.inf
    stall = 0
    for it in range(1, MAX_ITER_FIXED_POINT + 1):
        f = h + lam * Hf
        Hf = H.apply_values(f)
        res = float(np.abs(f - lam * Hf - h).max())
        if res <= tol:
            return f, it, res, True
        stall = stall + 1 if res > 0.999 * res_prev else 0
        res_prev = res
        if stall >= 50:
            return f, it, res, False  # hand over to newton
    return f, MAX_ITER_FIXED_POINT, res, False
