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
"""

import numpy as np
from scipy.linalg import solve_banded


def _diffs(v, i, dx):
    n = len(v)
    return (v[i] - v[i - 1]) / dx, (v[(i + 1) % n] - v[i]) / dx


def _hval(p, bi):
    return p * p - bi * p


def scheme(v, b, dx):
    """max(H(min(p_minus, b/2)), H(max(p_plus, b/2))) per cell."""
    out = np.empty(len(v))
    for i in range(len(v)):
        pm, pp = _diffs(v, i, dx)
        th = 0.5 * b[i]
        out[i] = max(_hval(min(pm, th), b[i]), _hval(max(pp, th), b[i]))
    return out


def improve(v, b, dx):
    """The maximising control a per cell: forward (a >= 0) or backward (a <= 0)."""
    a = np.empty(len(v))
    for i in range(len(v)):
        pm, pp = _diffs(v, i, dx)
        th = 0.5 * b[i]
        val_fwd = _hval(max(pp, th), b[i])
        val_bwd = _hval(min(pm, th), b[i])
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
