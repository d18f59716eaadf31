"""Dense reference for Howard iteration on the periodic upwind quadratic scheme.

Mirrors the package's policy_solve step for step: the same Godunov value and
control improvement, written cell by cell, and the frozen-control linear
system assembled explicitly as a dense periodic matrix and solved with
np.linalg.solve.  The package solves that system with a banded cyclic
tridiagonal method instead; both must take the same number of iterations and
agree to rounding.

banded_policy_step keeps the package's earlier cyclic tridiagonal step, which
went through scipy's solve_banded; the step that calls LAPACK gtsv directly
must equal it bit for bit.

_howard keeps the package's one-problem Howard solve from before it solved
stacks of problems, with its _value_and_control and _policy_step; every row of
a stacked solve must give its solution, iteration count and residual bit for
bit.
"""

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from hjlab.errors import SolverError


def _diffs(v, i, dx):
    n = len(v)
    return (v[i] - v[i - 1]) / dx, (v[(i + 1) % n] - v[i]) / dx


def _symbol(p, bi):
    return p * p - bi * p


def scheme(v, b, dx):
    """max(H(min(p_minus, b/2)), H(max(p_plus, b/2))) per cell."""
    out = np.empty(len(v))
    for i in range(len(v)):
        pm, pp = _diffs(v, i, dx)
        th = 0.5 * b[i]
        out[i] = max(_symbol(min(pm, th), b[i]), _symbol(max(pp, th), b[i]))
    return out


def improve(v, b, dx):
    """The maximising control a per cell: forward (a >= 0) or backward (a <= 0)."""
    a = np.empty(len(v))
    for i in range(len(v)):
        pm, pp = _diffs(v, i, dx)
        th = 0.5 * b[i]
        val_fwd = _symbol(max(pp, th), b[i])
        val_bwd = _symbol(min(pm, th), b[i])
        a[i] = max(2.0 * pp - b[i], 0.0) if val_fwd >= val_bwd else min(2.0 * pm - b[i], 0.0)
    return a


def frozen_matrix(a, lam, dx):
    """I - lam * (upwinded a * f'), periodic: the Howard step's system matrix."""
    n = len(a)
    M = np.zeros((n, n))
    for i in range(n):
        ap, an = max(a[i], 0.0), min(a[i], 0.0)
        M[i, i] += 1.0 + lam * (ap - an) / dx
        M[i, (i + 1) % n] += -lam * ap / dx
        M[i, (i - 1) % n] += lam * an / dx
    return M


def policy_solve(b, dx, lam, h, f0, tol):
    """(f, iterations, residual), or None when the iteration budget runs out."""
    f = np.array(f0, dtype=float)
    sweeps = max(500, len(f) // 8)
    for it in range(sweeps + 1):
        res = float(np.abs(f - lam * scheme(f, b, dx) - h).max())
        if res <= tol:
            return f, it, res
        if it == sweeps:
            return None
        a = improve(f, b, dx)
        f = np.linalg.solve(frozen_matrix(a, lam, dx), h - 0.25 * lam * (a + b) ** 2)


def banded_policy_step(b, dx, a, lam, h):
    # The frozen system is tridiagonal plus the two periodic corners
    # sup[n-1] at (n-1, 0) and sub[0] at (0, n-1).  Write it as a banded
    # matrix T plus the rank-one term u v^T, u = gamma e_0 + sup[n-1] e_{n-1},
    # v = e_0 + (sub[0] / gamma) e_{n-1}, and apply Sherman-Morrison.  With
    # gamma = -diag[0] the corners only grow T's diagonal, so T stays
    # strictly diagonally dominant (cyclic tridiagonal solve, Numerical
    # Recipes 2.7).
    n = a.shape[0]
    a_pos = np.maximum(a, 0.0)
    a_neg = np.minimum(a, 0.0)
    diag = 1.0 + lam * (a_pos - a_neg) / dx
    sup = -lam * a_pos / dx
    sub = lam * a_neg / dx
    gamma = -diag[0]
    ratio = sub[0] / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[1, 0] -= gamma
    ab[1, -1] -= sup[-1] * ratio
    ab[2, :-1] = sub[1:]
    rhs = np.zeros((n, 2))
    rhs[:, 0] = h - 0.25 * lam * (a + b) ** 2
    rhs[0, 1] = gamma
    rhs[-1, 1] = sup[-1]
    y, z = solve_banded(
        (1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False
    ).T
    return y - ((y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1])) * z


# The one-problem Howard solve, verbatim, with the helpers it calls.

CASCADE_MIN_POINTS = 256


def _prev(v: np.ndarray) -> np.ndarray:
    # v[i - 1] at every i, periodically; cheaper per call than a general roll
    return np.concatenate((v[-1:], v[:-1]))


def _next(v: np.ndarray) -> np.ndarray:
    # v[i + 1] at every i, periodically
    return np.concatenate((v[1:], v[:1]))


def _upwind_diffs(dx: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_minus = (v - _prev(v)) / dx
    p_plus = (_next(v) - v) / dx
    return p_minus, p_plus


def _hval(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * p - b * p


def _value_and_control(b: np.ndarray, dx: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scheme value at v (as _upwind_value) and the improved control, from
    one evaluation of the upwind differences and the two branches."""
    p_minus, p_plus = _upwind_diffs(dx, v)
    theta = 0.5 * b
    val_bwd = _hval(b, np.minimum(p_minus, theta))
    val_fwd = _hval(b, np.maximum(p_plus, theta))
    a = np.where(
        val_fwd >= val_bwd,
        np.maximum(2.0 * p_plus - b, 0.0),
        np.minimum(2.0 * p_minus - b, 0.0),
    )
    return np.maximum(val_bwd, val_fwd), a


def _policy_step(
    b: np.ndarray, dx: float, a: np.ndarray, lam: float, h: np.ndarray
) -> np.ndarray:
    # The frozen system is tridiagonal plus the two periodic corners
    # sup[n-1] at (n-1, 0) and sub[0] at (0, n-1).  Write it as a banded
    # matrix T plus the rank-one term u v^T, u = gamma e_0 + sup[n-1] e_{n-1},
    # v = e_0 + (sub[0] / gamma) e_{n-1}, and apply Sherman-Morrison.  With
    # gamma = -diag[0] the corners only grow T's diagonal, so T stays
    # strictly diagonally dominant (cyclic tridiagonal solve, Numerical
    # Recipes 2.7).
    n = a.shape[0]
    a_pos = np.maximum(a, 0.0)
    a_neg = np.minimum(a, 0.0)
    diag = 1.0 + lam * (a_pos - a_neg) / dx
    sup = -lam * a_pos / dx
    sub = lam * a_neg / dx
    gamma = -diag[0]
    ratio = sub[0] / gamma
    rhs = np.zeros((n, 2), order="F")
    rhs[:, 0] = h - 0.25 * lam * (a + b) ** 2
    rhs[0, 1] = gamma
    rhs[-1, 1] = sup[-1]
    diag[0] -= gamma
    diag[-1] -= sup[-1] * ratio
    # LAPACK gtsv overwrites its three diagonals and the right-hand sides
    *_, x, info = dgtsv(sub[1:], diag, sup[:-1], rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    y, z = x.T
    return y - ((y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1])) * z


def _howard(
    b: np.ndarray, dx: float, lam: float, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float]:
    """Solve f - lam * Hf = h for the upwind scheme with drift b on a periodic
    grid of spacing dx: Howard iteration on the control form, which improves
    the control per cell and then solves the resulting linear transport system
    exactly.  Convergence is judged on the true scheme residual.

    A cold start can need about one step per cell the information has to
    cross, so the iteration is a cascade (cascadic multigrid, Bornemann &
    Deuflhard 1996): an even grid of at least CASCADE_MIN_POINTS points first solves the
    same scheme on the half grid (drift b[::2], spacing 2 dx, data h[::2],
    start f0[::2]), recursively, and starts from that solution interpolated
    linearly and periodically.  Howard converges from any start for this
    monotone scheme (Bokanowski, Maroso & Zidani 2009), so the start changes
    the work, not the solution reached.  The returned iteration count is the
    sum of Howard steps over all levels; a SolverError carries that sum too.
    """
    f = f0.copy()
    done = 0
    n = f.shape[0]
    if n % 2 == 0 and n >= CASCADE_MIN_POINTS:
        fc, done, _ = _howard(b[::2], 2.0 * dx, lam, h[::2], f0[::2], tol)
        f[::2] = fc
        f[1::2] = 0.5 * (fc + _next(fc))
    sweeps = max(500, n // 8)  # per level, enough for a cold start
    for it in range(sweeps + 1):
        value, a = _value_and_control(b, dx, f)
        res = float(np.abs(f - lam * value - h).max())
        if res <= tol:
            return f, done + it, res
        if it < sweeps:
            f = _policy_step(b, dx, a, lam, h)
    raise SolverError(
        f"policy iteration did not converge: residual {res:.3g}", iterations=done + sweeps
    )


