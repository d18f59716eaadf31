"""Reference assemblies of the sparse Jacobians of the grid schemes and the
slow-fast product.

Each Jacobian is assembled per call the straightforward way: the upwind and
centered schemes from freshly built COO index arrays, the product as
n * kron(I, A_fast) plus one kron(J_z, m_z e_z e_z^T) per fast state z.  The
package declares its entries once per Hamiltonian (a JacobianPattern of rows
and cols) and returns only their values, repeated entries summed (on_pattern
makes them a CSC matrix); the two must give the same Newton matrix
I - lam * J, entry for entry.
"""

import numpy as np
import scipy.sparse as sp


def _upwind_diffs(dx, v):
    p_minus = (v - np.roll(v, 1)) / dx
    p_plus = (np.roll(v, -1) - v) / dx
    return p_minus, p_plus


def _hval(b, p):
    return p * p - b * p


def upwind(b, dx, v):
    """Jacobian of the periodic upwind quadratic scheme with drift b."""
    theta = 0.5 * b
    p_minus, p_plus = _upwind_diffs(dx, v)
    u = np.minimum(p_minus, theta)
    w = np.maximum(p_plus, theta)
    take_minus = _hval(b, u) >= _hval(b, w)
    du = (2.0 * u - b) * (p_minus < theta) / dx
    dw = (2.0 * w - b) * (p_plus > theta) / dx
    n = v.shape[0]
    diag = np.where(take_minus, du, -dw)
    sub = np.where(take_minus, -du, 0.0)
    sup = np.where(take_minus, 0.0, dw)
    rows = np.concatenate([np.arange(n)] * 3)
    cols = np.concatenate([np.arange(n), (np.arange(n) - 1) % n, (np.arange(n) + 1) % n])
    data = np.concatenate([diag, sub, sup])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def centered(b, dx, v):
    """Jacobian of the periodic centered quadratic scheme with drift b."""
    pc = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
    slope = (2.0 * pc - b) / (2.0 * dx)
    n = v.shape[0]
    rows = np.concatenate([np.arange(n)] * 2)
    cols = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
    data = np.concatenate([slope, -slope])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def slowfast(jac_slow, A_fast, multipliers, n, v):
    """Jacobian of m_z * H_slow(f(., z))(x) + n * (A_fast f(x, .))(z) at v,
    with state (x, z) at x * n_fast + z."""
    n_fast = A_fast.shape[0]
    n_slow = v.shape[0] // n_fast
    V = v.reshape(n_slow, n_fast)
    J = n * sp.kron(sp.eye(n_slow), A_fast)
    for z in range(n_fast):
        picker = np.zeros((n_fast, n_fast))
        picker[z, z] = multipliers[z]
        J = J + sp.kron(jac_slow(V[:, z]), picker)
    return J.tocsr()


def on_pattern(pattern, values):
    """The CSC matrix of a package Jacobian: its entry values at the declared
    rows and cols, repeated entries summed."""
    n = pattern.n
    return sp.csc_matrix((values, (pattern.rows, pattern.cols)), shape=(n, n))


def newton_matrix(J, lam):
    """I - lam * J in canonical CSC, as the damped Newton step factors it."""
    return sp.eye(J.shape[0], format="csc") - lam * J.tocsc()
