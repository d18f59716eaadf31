"""Dense reference for Howard iteration on the periodic upwind quadratic scheme.

Mirrors the package's policy_solve step for step: the same Godunov value and
control improvement, written cell by cell, and the frozen-control linear
system assembled explicitly as a dense periodic matrix and solved with
np.linalg.solve.  The package solves that system with a banded cyclic
tridiagonal method instead; both must take the same number of iterations and
agree to rounding.
"""

import numpy as np


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
