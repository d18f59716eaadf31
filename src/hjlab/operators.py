"""Shipped Hamiltonians, multivalued operator graphs, dissipativity.

Operators come in two shapes.  A Hamiltonian is single valued: a map on
value vectors with an optional Jacobian (used by the Newton path of the
resolvent solver) and an optional global Lipschitz bound (used by the
damped fixed-point path).  An OperatorGraph is a finite list of pairs
(f, g), the one graph type: f lives on the base space, g on an enlarged
space that the index map gamma sends into the base space; without an
enlargement g lives on the base space and gamma is the identity.  Graphs
tagged "dagger" test subsolutions and require first components bounded
below and second components bounded above; graphs tagged "ddagger" mirror
this for supersolutions.

Scaling a second component by c >= 0 (_ext_scale, as the viscosity checks
form lambda * g) follows the extended convention c * (+inf) = +inf and
c * (-inf) = -inf even at c = 0, so an infinite g keeps its sign at
lambda = 0.

The shipped constructions:

  linear_generator   Hf = A f for a rate matrix A (off-diagonal >= 0, zero
                     row sums).
  tilt_linear        Hf = exp(-f) * A exp(f), rowwise; invariant under
                     adding constants, vanishes on f = 0, and equals the
                     time derivative at zero of log(exp(tA) exp(f)).
  upwind_quadratic   monotone (degenerate elliptic) Godunov-type scheme for
                     Hf(x) = -V'(x) f'(x) + f'(x)^2 on a periodic grid,
                     first-order consistent.
  centered_quadratic the non-monotone centered variant of the same symbol,
                     shipped as the negative control.
  slowfast_hamiltonian
                     H_n f(x,z) = m_z * H_slow(f(., z))(x)
                                  + n * (A_fast f(x, .))(z)
                     on the member space of a product sequence
                     (make_product_sequence); growing n drives averaging of
                     the slow part by the fast chain's stationary law.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv

from .errors import PreconditionError, SolverError, StructuralError
from .limits import ExtFn, Fn
from .spaces import FiniteSpace, SpaceSequence

__all__ = [
    "Hamiltonian",
    "OperatorGraph",
    "SlowFastCoupling",
    "DissipativityReport",
    "check_dissipative",
    "check_degenerate_elliptic",
    "graph_from_hamiltonian",
    "linear_generator",
    "tilt_linear",
    "upwind_quadratic",
    "centered_quadratic",
    "slowfast_hamiltonian",
    "averaged_slowfast_hamiltonian",
    "validate_rate_matrix",
    "random_rate_matrix",
    "stationary_distribution",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Single-valued operator on value vectors over a fixed finite space.

    jacobian, when set, maps values v to the Jacobian of apply_values at v:
    a dense ndarray when jacobian_pattern is None, and otherwise a CSR matrix
    on the declared pattern jacobian_pattern = (indptr, indices), which
    stores each entry once (sorted, unique column indices per row, explicit
    zeros allowed) and is the same at every v; only the values change with v.
    The damped Newton step relies on this: it computes the CSC pattern of
    I - lam * J once per solve and then only writes J.data into it.  Only the
    constructors in this module declare a pattern.

    custom_solver, when set, inverts f - lam * Hf = h better than generic
    Newton can (signature: (lam, h, f0, tol) -> (f, iters, res) with iters an
    int and res a float, raising SolverError when it does not reach tol from
    f0); schemes with max-type kinks supply policy iteration through it.

    stacked_solver, when set, is custom_solver for a stack of k problems at
    once: (lam, h, f0, tol) with lam of shape (k,) and h, f0 of shape (k, n)
    -> (f, iters, res) of shapes (k, n), (k,), (k,), where row i equals
    custom_solver(lam[i], h[i], f0[i], tol) bit for bit, and raising
    SolverError when a row does not reach tol.  It pays the per-solve overhead
    once per stack (ResolventFamily.solve_all).  Like jacobian_pattern it is
    declared by the constructor.  It is used only while custom_solver is set,
    the same rule by which a single solve takes the custom path: a copy with
    custom_solver=None takes the fixed point or Newton for every solve, and a
    copy that swaps in another custom_solver must replace stacked_solver
    too.  The upwind scheme declares its Howard iteration (_howard) here and
    its one-row case as custom_solver.
    """

    space: FiniteSpace
    apply_values: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object] | None = None
    lipschitz_bound: float | None = None
    name: str = ""
    custom_solver: Callable | None = None
    jacobian_pattern: tuple | None = field(default=None, repr=False, compare=False)
    stacked_solver: Callable | None = field(default=None, repr=False, compare=False)

    def __call__(self, f: Fn) -> Fn:
        if f.space != self.space:
            raise PreconditionError("function lives on the wrong space")
        return Fn(self.space, self.apply_values(f.values))


def scale_hamiltonian(c: float, H: Hamiltonian) -> Hamiltonian:
    if c < 0:
        raise PreconditionError("scaling constant must be nonnegative")
    jac = None
    if H.jacobian is not None:
        jac = lambda v: c * H.jacobian(v)
    solver = stacked = None
    if H.custom_solver is not None and c > 0:
        # f - lam * (cH) f = h is f - (lam c) H f = h
        solver = lambda lam, h, f0, tol: H.custom_solver(c * lam, h, f0, tol)
    if H.stacked_solver is not None and c > 0:
        stacked = lambda lam, h, f0, tol: H.stacked_solver(c * lam, h, f0, tol)
    return Hamiltonian(
        space=H.space,
        apply_values=lambda v: c * H.apply_values(v),
        jacobian=jac,
        lipschitz_bound=None if H.lipschitz_bound is None else c * H.lipschitz_bound,
        name=f"{c}*{H.name}" if H.name else "",
        custom_solver=solver,
        jacobian_pattern=H.jacobian_pattern,
        stacked_solver=stacked,
    )


@dataclass(frozen=True)
class OperatorGraph:
    """A finite multivalued operator: pairs (f, g), f on the base space and g
    on the enlarged space, which gamma maps down to the base.

    Without an enlargement (enlarged_space and gamma omitted) g lives on the
    base space too and gamma is the identity.  Viscosity checks compose
    candidate solutions with gamma before comparing against f.
    """

    space: FiniteSpace
    pairs: tuple
    kind: str = "dagger"
    enlarged_space: FiniteSpace | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dagger", "ddagger"):
            raise ValueError("kind must be 'dagger' or 'ddagger'")
        enlarged = self.space if self.enlarged_space is None else self.enlarged_space
        if self.gamma is None:
            gamma = np.arange(enlarged.size)
        else:
            gamma = np.array(self.gamma, dtype=int)
        if gamma.shape != (enlarged.size,):
            raise ValueError("gamma must map every enlarged point")
        if np.any((gamma < 0) | (gamma >= self.space.size)):
            raise ValueError("gamma must map into the base space")
        gamma.flags.writeable = False
        pairs = tuple(
            (f.as_ext() if isinstance(f, Fn) else f, g.as_ext() if isinstance(g, Fn) else g)
            for f, g in self.pairs
        )
        for f, g in pairs:
            if f.space != self.space or g.space != enlarged:
                raise ValueError("graph pair on the wrong spaces")
            if self.kind == "dagger":
                if not f.bounded_below:
                    raise ValueError("dagger first components must be bounded below")
                if not g.bounded_above:
                    raise ValueError("dagger second components must be bounded above")
            else:
                if not f.bounded_above:
                    raise ValueError("ddagger first components must be bounded above")
                if not g.bounded_below:
                    raise ValueError("ddagger second components must be bounded below")
        object.__setattr__(self, "enlarged_space", enlarged)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "pairs", pairs)


def _ext_scale(c: float, values: np.ndarray) -> np.ndarray:
    # c * (+-inf) = +-inf for every c >= 0, including c = 0
    with np.errstate(invalid="ignore"):
        out = c * values
    inf_mask = np.isinf(values)
    out[inf_mask] = values[inf_mask]
    return out


def graph_from_hamiltonian(H: Hamiltonian, probes: Sequence[Fn], kind: str = "dagger"):
    """The graph {(phi, H phi)} over a finite probe family."""
    return OperatorGraph(
        space=H.space, pairs=tuple((p, H(p)) for p in probes), kind=kind
    )


@dataclass(frozen=True)
class DissipativityReport:
    passed: bool
    checked: int
    violations: tuple

    def worst_margin(self) -> float:
        if not self.violations:
            return 0.0
        return max(v["deficit"] for v in self.violations)


def check_dissipative(
    pairs: Sequence[tuple], lambdas: Sequence[float], tol: float = 1e-9
) -> DissipativityReport:
    """Check ||f1 - lam*g1 - (f2 - lam*g2)|| >= ||f1 - f2|| - tol over all
    unordered pair combinations (self-pairs included) and all lambdas."""
    fns = []
    for f, g in pairs:
        fv = f.values if isinstance(f, (Fn, ExtFn)) else np.asarray(f, dtype=float)
        gv = g.values if isinstance(g, (Fn, ExtFn)) else np.asarray(g, dtype=float)
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise PreconditionError("dissipativity check needs finite pairs")
        fns.append((fv, gv))
    if not fns:
        return DissipativityReport(passed=True, checked=0, violations=())
    if any(lam <= 0 for lam in lambdas):
        raise PreconditionError("lambdas must be positive")
    F = np.array([fv for fv, _ in fns])
    G = np.array([gv for _, gv in fns])
    lams = np.array([float(lam) for lam in lambdas])
    # f - lam * g for every pair (axis 0) and lambda (axis 1)
    R = F[:, None, :] - lams[:, None] * G[:, None, :]
    violations = []
    checked = 0
    # pair i against every j >= i at once: lhs[j - i, l] for lambdas[l]
    for i in range(len(fns)):
        rhs = np.abs(F[i] - F[i:]).max(axis=1)
        lhs = np.abs(R[i] - R[i:]).max(axis=2)
        checked += lhs.size
        for dj, li in np.argwhere(lhs < (rhs - tol)[:, None]):
            r, l = float(rhs[dj]), float(lhs[dj, li])
            violations.append({"i": i, "j": i + int(dj), "lam": float(lambdas[li]),
                               "lhs": l, "rhs": r, "deficit": r - l})
    return DissipativityReport(passed=not violations, checked=checked, violations=tuple(violations))


def check_degenerate_elliptic(
    H: Hamiltonian, rng: np.random.Generator, trials: int = 50, scale: float = 1.0
) -> DissipativityReport:
    """Probe the comparison-compatible monotonicity of H: for f <= g touching
    at x0, the residual map f -> f - H f must not rank them the wrong way,
    i.e. Hf(x0) <= Hg(x0).  Randomized probe pairs; violations reported."""
    n = H.space.size
    violations = []
    for t in range(trials):
        g = scale * rng.standard_normal(n)
        gap = np.abs(rng.standard_normal(n)) * scale
        x0 = int(rng.integers(n))
        gap[x0] = 0.0
        f = g - gap
        hf, hg = H.apply_values(f), H.apply_values(g)
        if hf[x0] > hg[x0] + 1e-10:
            violations.append(
                {"trial": t, "x0": x0, "Hf": float(hf[x0]), "Hg": float(hg[x0]),
                 "deficit": float(hf[x0] - hg[x0])}
            )
    return DissipativityReport(passed=not violations, checked=trials, violations=tuple(violations))


def validate_rate_matrix(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise PreconditionError("rate matrix must be square")
    off = A - np.diag(np.diag(A))
    if off.min() < -tol:
        raise PreconditionError("rate matrix has negative off-diagonal entries")
    if np.abs(A.sum(axis=1)).max() > tol:
        raise PreconditionError("rate matrix rows must sum to zero")
    return A


def random_rate_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    A = scale * rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def stationary_distribution(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Unique stationary law of an irreducible rate matrix: pi A = 0, sum pi = 1."""
    A = validate_rate_matrix(A)
    n = A.shape[0]
    M = A.T.copy()
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(M, b)
    if pi.min() < -1e-9 or np.abs(A.T @ pi).max() > 100 * tol * max(1.0, np.abs(A).max()):
        raise StructuralError("rate matrix has no clean stationary law (reducible?)")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


# ---------------------------------------------------------------------------
# shipped Hamiltonians


def linear_generator(A: np.ndarray, space: FiniteSpace, name: str = "linear") -> Hamiltonian:
    A = validate_rate_matrix(A)
    if A.shape[0] != space.size:
        raise PreconditionError("rate matrix size must match the space")
    return Hamiltonian(
        space=space,
        apply_values=lambda v: A @ v,
        jacobian=lambda v: A,
        lipschitz_bound=float(np.abs(A).sum(axis=1).max()),
        name=name,
    )


def tilt_linear(
    A: np.ndarray, space: FiniteSpace, probe_radius: float = 1.0, name: str = "tilt"
) -> Hamiltonian:
    """Exponential tilt of a rate matrix: Hf(i) = sum_j A_ij exp(f_j - f_i).

    Invariant under adding constants to f and zero at f = 0.  The Lipschitz
    bound is valid on the ball of radius probe_radius: differences f_j - f_i
    stay within 2 * probe_radius there.
    """
    A = validate_rate_matrix(A)
    if A.shape[0] != space.size:
        raise PreconditionError("rate matrix size must match the space")

    n = A.shape[0]

    def terms(v: np.ndarray) -> np.ndarray:
        # A_ij exp(v_j - v_i) in one fresh n x n array, never in v or A
        E = np.subtract(v[None, :], v[:, None], dtype=float)
        np.exp(E, out=E)
        np.multiply(A, E, out=E)
        return E

    def apply(v: np.ndarray) -> np.ndarray:
        # add.reduce is the reduction .sum(axis=1) calls
        return np.add.reduce(terms(v), axis=1)

    def jac(v: np.ndarray) -> np.ndarray:
        J = terms(v)
        diag = J.reshape(-1)[:: n + 1]
        diag[:] = 0.0
        np.negative(np.add.reduce(J, axis=1), out=diag)
        return J

    L = 2.0 * float(np.abs(np.diag(A)).max()) * float(np.exp(2.0 * probe_radius))
    return Hamiltonian(
        space=space, apply_values=apply, jacobian=jac,
        lipschitz_bound=L, name=name,
    )


def _grid_spacing(space: FiniteSpace) -> float:
    xs = space.coords[:, 0]
    dx = np.diff(xs)
    if dx.size == 0 or np.abs(dx - dx[0]).max() > 1e-9 * max(1.0, np.abs(dx[0])):
        raise PreconditionError("grid Hamiltonians need a uniform 1-d grid")
    return float(dx[0])


def _compressed_pattern(
    major: np.ndarray, minor: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compressed pattern of an n x n matrix with entries at (major[k],
    minor[k]): (indptr, indices, slot), where indptr (int32) delimits each
    major line, indices (int32) lists its minor indices sorted and unique,
    and entry k sits at position slot[k] of indices (duplicates share one).
    With rows as major this is the CSR pattern; with columns as major the
    CSC pattern, which is the CSR pattern of the transpose."""
    keys, slot = np.unique(major.astype(np.int64) * n + minor, return_inverse=True)
    indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(np.int32)
    return indptr, (keys % n).astype(np.int32), slot


def _csr_assembler(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[tuple, Callable]:
    """One-pass assembly of n x n matrices with entries at (rows[k], cols[k]).

    Returns the pattern (indptr, indices) of the canonical CSR matrix, each
    entry once, and the function that takes one value per entry, in the order
    of rows and cols, and returns the CSR matrix on that pattern, duplicates
    summed.  The pattern and the scatter into it are computed here, once.
    """
    indptr, indices, slot = _compressed_pattern(rows, cols, n)
    indices.flags.writeable = indptr.flags.writeable = False

    def assemble(data: np.ndarray) -> sp.csr_matrix:
        values = np.bincount(slot, weights=data, minlength=indices.shape[0])
        # fresh index arrays: a caller may prune the returned matrix in place
        return sp.csr_matrix((values, indices.copy(), indptr.copy()), shape=(n, n))

    return (indptr, indices), assemble


def _periodic_stencil(n: int, offsets: tuple[int, ...]) -> tuple[tuple, Callable]:
    """Pattern and assembly (as _csr_assembler) of the n x n periodic stencil
    matrix whose row i has entries at columns (i + k) mod n for k in offsets,
    from the values stencil by stencil (n per offset, in the order of
    offsets); on small grids two offsets can meet, and their values are
    summed."""
    rows = np.tile(np.arange(n), len(offsets))
    return _csr_assembler(rows, (rows + np.repeat(offsets, n)) % n, n)


# Grids with at least this many points (and an even count) first solve the
# same scheme on the half grid and start Howard from its interpolation.
CASCADE_MIN_POINTS = 256


def _prev(v: np.ndarray) -> np.ndarray:
    # v[i - 1] at every i along the last axis, periodically; cheaper per call
    # than a general roll
    return np.concatenate((v[..., -1:], v[..., :-1]), axis=-1)


def _next(v: np.ndarray) -> np.ndarray:
    # v[i + 1] at every i along the last axis, periodically
    return np.concatenate((v[..., 1:], v[..., :1]), axis=-1)


def _upwind_diffs(dx: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_minus = (v - _prev(v)) / dx
    p_plus = (_next(v) - v) / dx
    return p_minus, p_plus


def _hval(b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * p - b * p


def _upwind_value(b: np.ndarray, dx: float, v: np.ndarray) -> np.ndarray:
    p_minus, p_plus = _upwind_diffs(dx, v)
    theta = 0.5 * b
    return np.maximum(_hval(b, np.minimum(p_minus, theta)), _hval(b, np.maximum(p_plus, theta)))


def upwind_quadratic(
    space: FiniteSpace, drift: np.ndarray, name: str = "upwind_quadratic"
) -> Hamiltonian:
    """Monotone Godunov-type scheme for Hf(x) = -b(x) f'(x) + f'(x)^2, periodic.

    With H(x, p) = p^2 - b(x) p and theta = b/2 its minimizer, the numerical
    value is max(H(min(p_minus, theta)), H(max(p_plus, theta))).  This choice
    is nonincreasing in the backward difference and nondecreasing in the
    forward one, which is the orientation that makes the implicit equation
    f - lambda * Hf = h comparison-compatible (check_degenerate_elliptic).
    Its resolvent is solved by Howard iteration (_howard), declared as the
    stacked solver; the custom solver is its one-row case.
    """
    dx = _grid_spacing(space)
    b = np.asarray(drift, dtype=float).reshape(-1)
    if b.shape[0] != space.size:
        raise PreconditionError("drift must have one value per grid point")
    theta = 0.5 * b
    pattern, assemble = _periodic_stencil(b.shape[0], (0, -1, 1))
    howard = partial(_howard, b, dx)

    def jac(v: np.ndarray) -> sp.csr_matrix:
        p_minus, p_plus = _upwind_diffs(dx, v)
        u = np.minimum(p_minus, theta)
        w = np.maximum(p_plus, theta)
        take_minus = _hval(b, u) >= _hval(b, w)
        du = (2.0 * u - b) * (p_minus < theta) / dx
        dw = (2.0 * w - b) * (p_plus > theta) / dx
        diag = np.where(take_minus, du, -dw)
        sub = np.where(take_minus, -du, 0.0)
        sup = np.where(take_minus, 0.0, dw)
        return assemble(np.concatenate([diag, sub, sup]))

    return Hamiltonian(
        space=space, apply_values=partial(_upwind_value, b, dx), jacobian=jac,
        lipschitz_bound=None, name=name,
        custom_solver=partial(_one_row, howard), jacobian_pattern=pattern,
        stacked_solver=howard,
    )


# Control form: p^2 - b p = max_a (a p - (a + b)^2 / 4), and the Godunov value
# is exactly this max with a p upwinded by sign(a).  Howard iteration in the
# control variable makes every frozen system linear with an M-matrix, so it has
# a unique root and the iterates increase monotonically to the solution; no
# spurious branches, unlike Newton on the kinked scheme.  The frozen matrix is
# periodic tridiagonal, so each step is an O(n) banded solve with a rank-one
# correction for the wrap-around corners.
def _value_and_control(
    b: np.ndarray, theta: np.ndarray, dx: float, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scheme value at v (as _upwind_value) and the improved control, from
    one evaluation of the upwind differences and the two branches.  v is one
    value vector or a stack of them, one per row, and b and theta = b / 2
    have its shape."""
    p_minus = (v - _prev(v)) / dx
    p_plus = _next(p_minus)  # p_plus[i] = p_minus[i + 1] = (v[i + 1] - v[i]) / dx
    val_bwd = _hval(b, np.minimum(p_minus, theta))
    val_fwd = _hval(b, np.maximum(p_plus, theta))
    # p + p is 2 p exactly, and numpy adds two arrays faster than it scales one
    a = np.where(
        val_fwd >= val_bwd,
        np.maximum(p_plus + p_plus - b, 0.0),
        np.minimum(p_minus + p_minus - b, 0.0),
    )
    return np.maximum(val_bwd, val_fwd), a


def _policy_step(
    b: np.ndarray, dx: float, a: np.ndarray, lam, h: np.ndarray
) -> np.ndarray:
    """The next Howard iterate for the control a at lam with data h: of one
    problem when a and h have shape (n,) and lam is a scalar, and of a stack
    when they have shape (k, n) and lam is a (k, 1) column or a scalar, row i
    solving the frozen system of a[i] at lam[i] with data h[i].  b broadcasts
    against a."""
    # The frozen system is tridiagonal plus the two periodic corners
    # sup[n-1] at (n-1, 0) and sub[0] at (0, n-1).  Write it as a banded
    # matrix T plus the rank-one term u v^T, u = gamma e_0 + sup[n-1] e_{n-1},
    # v = e_0 + (sub[0] / gamma) e_{n-1}, and apply Sherman-Morrison.  With
    # gamma = -diag[0] the corners only grow T's diagonal, so T stays
    # strictly diagonally dominant (cyclic tridiagonal solve, Numerical
    # Recipes 2.7).
    # every row's first and last entries: scalars for one problem, columns
    # for a stack
    first, last = (0, -1) if a.ndim == 1 else (np.s_[:, :1], np.s_[:, -1:])
    a_pos = np.maximum(a, 0.0)
    a_neg = np.minimum(a, 0.0)
    sup = -lam * a_pos / dx
    sub = lam * a_neg / dx
    # 1 + lam * |a| / dx: in every cell one of sup and sub is zero and the
    # other is -lam * |a| / dx, exactly
    diag = 1.0 - (sup + sub)
    gamma = -diag[first]
    ratio = sub[first] / gamma
    # the right-hand sides y and z of every row, as the two columns of one
    # Fortran-ordered (k * n, 2) array
    rhs = np.zeros((2,) + a.shape)
    y, z = rhs[0], rhs[1]
    np.subtract(h, 0.25 * lam * (a + b) ** 2, out=y)
    z[first] = gamma
    z[last] = sup[last]
    diag[first] -= gamma
    diag[last] -= sup[last] * ratio
    # The rows' systems are the blocks of one block-diagonal system, whose
    # entries between blocks are exact zeros.  Partial pivoting never swaps
    # across a zero subdiagonal entry, the factorization of every block is
    # that of its own solve, and the elimination and back substitution across
    # a block boundary add or subtract exact zeros.  x - (-0.0) turns a -0.0
    # into +0.0, so the only bits this can change are the signs of exact zeros.
    sub[first] = 0.0
    sup[last] = 0.0
    # LAPACK gtsv overwrites its three diagonals and the right-hand sides
    *_, x, info = dgtsv(
        sub.reshape(-1)[1:], diag.reshape(-1), sup.reshape(-1)[:-1],
        rhs.reshape(2, -1).T, 1, 1, 1, 1,
    )
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    f, z = x.T.reshape(rhs.shape)
    c = (f[first] + ratio * f[last]) / (1.0 + z[first] + ratio * z[last])
    # f = y - c z, in place
    z *= c
    f -= z
    if f.ndim == 2 and f.shape[0] > 1:
        # a nonzero entry of f is the same from either zero sign in y or z, but
        # an exact zero may carry the other sign than its row's own solve
        # gives: such a row is solved again alone
        b = np.broadcast_to(b, f.shape)
        lam = np.broadcast_to(lam, (f.shape[0], 1))
        for i in np.flatnonzero((f == 0.0).any(axis=1)):
            f[i] = _policy_step(b[i], dx, a[i], lam[i, 0], h[i])
    return f


def _howard(
    b: np.ndarray, dx: float, lam: np.ndarray, h: np.ndarray, f0: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve f - lam * Hf = h for the upwind scheme with drift b on a periodic
    grid of spacing dx, for a stack of k problems: lam has shape (k,), h and the
    starts f0 have shape (k, n), and row i is the problem (lam[i], h[i]) from
    f0[i].  Returns the solutions (k, n), the iteration counts (k,) and the
    residuals (k,).  Howard iteration on the control form improves the
    control per cell and then solves the resulting linear transport system
    exactly; convergence is judged on the true scheme residual, row by row.
    A row that has converged drops out: later steps evaluate the scheme,
    improve the control and solve the frozen systems (one gtsv call, see
    _policy_step) only for the rows still iterating.  Every row gets the bits,
    iteration count and residual of its own one-row solve.

    A cold start can need about one step per cell the information has to
    cross, so the iteration is a cascade (cascadic multigrid, Bornemann &
    Deuflhard 1996): an even grid of at least CASCADE_MIN_POINTS points first
    solves the same stack on the half grid (drift b[::2], spacing 2 dx, data
    h[:, ::2], starts f0[:, ::2]), recursively, and starts from those solutions
    interpolated linearly and periodically.  Howard converges from any start
    for this monotone scheme (Bokanowski, Maroso & Zidani 2009), so the start
    changes the work, not the solution reached.  A row's iteration count is
    the sum of its Howard steps over all levels.  When a row does not reach
    tol within the step budget, the SolverError names the first such row's
    residual and carries its count.
    """
    k, n = h.shape
    f = f0.copy()
    iterations = np.zeros(k, dtype=int)
    if n % 2 == 0 and n >= CASCADE_MIN_POINTS:
        fc, iterations, _ = _howard(b[::2], 2.0 * dx, lam, h[:, ::2], f0[:, ::2], tol)
        f[:, ::2] = fc
        f[:, 1::2] = 0.5 * (fc + _next(fc))
    sweeps = max(500, n // 8)  # per level, enough for a cold start
    # The rows still iterating, with their iterates, data, lambdas, drifts
    # and half drifts.  One problem iterates on 1-D arrays with a scalar
    # lambda, and a stack on (k, n) arrays with the drift repeated per row:
    # numpy spends less per operation on 1-D arrays and scalars than on
    # (1, n) arrays, and less on operands of one shape than on broadcast ones.
    rows = np.arange(k)
    if k == 1:
        f_it, h_it, lam_it, b_it = f[0], h[0], float(lam[0]), np.ascontiguousarray(b)
    else:
        f_it, h_it, lam_it, b_it = f, h, lam[:, None], np.tile(b, (k, 1))
    theta_it = 0.5 * b_it
    residuals = np.empty(k)
    for it in range(sweeps + 1):
        value, a = _value_and_control(b_it, theta_it, dx, f_it)
        # the residual of every row, as an array also for one problem;
        # maximum.reduce is what .max() calls
        res = np.maximum.reduce(np.abs(f_it - lam_it * value - h_it).reshape(-1, n), axis=1)
        # Python compares a short list faster than numpy a small array
        ok = [r <= tol for r in res.tolist()]
        converged = ok.count(True)
        if converged == k:  # every row at once: f_it holds them all
            iterations += it
            return f_it.reshape(k, n), iterations, res
        if converged:
            ok = np.array(ok)
            done = rows[ok]
            f[done] = f_it[ok]
            iterations[done] += it
            residuals[done] = res[ok]
            if converged == rows.shape[0]:
                return f, iterations, residuals
            left = ~ok
            rows, f_it, h_it, lam_it = rows[left], f_it[left], h_it[left], lam_it[left]
            a, res = a[left], res[left]
            b_it, theta_it = b_it[: rows.shape[0]], theta_it[: rows.shape[0]]
        if it < sweeps:
            f_it = _policy_step(b_it, dx, a, lam_it, h_it)
    raise SolverError(
        f"policy iteration did not converge: residual {res[0]:.3g}",
        iterations=int(iterations[rows[0]]) + sweeps,
    )


def _one_row(stacked: Callable, lam: float, h: np.ndarray, f0: np.ndarray, tol: float):
    """The custom-solver protocol (lam, h, f0, tol) -> (f, iterations,
    residual) as the one-row case of a stacked solver."""
    f, iterations, residuals = stacked(np.array([lam], dtype=float), h[None], f0[None], tol)
    return f[0], int(iterations[0]), float(residuals[0])


def centered_quadratic(
    space: FiniteSpace, drift: np.ndarray, name: str = "centered_quadratic"
) -> Hamiltonian:
    """Centered-difference variant of the quadratic Hamiltonian: consistent but
    not monotone; shipped as the negative control for limit experiments."""
    dx = _grid_spacing(space)
    b = np.asarray(drift, dtype=float).reshape(-1)
    if b.shape[0] != space.size:
        raise PreconditionError("drift must have one value per grid point")

    def apply(v: np.ndarray) -> np.ndarray:
        pc = (_next(v) - _prev(v)) / (2.0 * dx)
        return pc * pc - b * pc

    pattern, assemble = _periodic_stencil(b.shape[0], (1, -1))

    def jac(v: np.ndarray) -> sp.csr_matrix:
        pc = (_next(v) - _prev(v)) / (2.0 * dx)
        slope = (2.0 * pc - b) / (2.0 * dx)
        return assemble(np.concatenate([slope, -slope]))

    return Hamiltonian(
        space=space, apply_values=apply, jacobian=jac,
        lipschitz_bound=None, name=name, jacobian_pattern=pattern,
    )


@dataclass(frozen=True)
class SlowFastCoupling:
    """Parameters of the two-scale Hamiltonian.

    The slow part is one base operator scaled per fast state by multipliers
    m_z >= 0 (all ones reduces to a fast-independent slow part); the fast
    part is a fixed irreducible rate matrix whose strength grows with the
    coupling index.
    """

    slow: Hamiltonian
    fast_rate_matrix: np.ndarray
    multipliers: tuple = ()

    def __post_init__(self) -> None:
        A = validate_rate_matrix(self.fast_rate_matrix)
        object.__setattr__(self, "fast_rate_matrix", A)
        m = self.multipliers or tuple(1.0 for _ in range(A.shape[0]))
        m = tuple(float(x) for x in m)
        if len(m) != A.shape[0]:
            raise PreconditionError("need one multiplier per fast state")
        if any(x < 0 for x in m):
            raise PreconditionError("multipliers must be nonnegative")
        object.__setattr__(self, "multipliers", m)

    @property
    def n_fast(self) -> int:
        return self.fast_rate_matrix.shape[0]


def slowfast_hamiltonian(
    product: SpaceSequence, n: float, coupling: SlowFastCoupling
) -> Hamiltonian:
    """Two-scale operator on the product space at coupling strength n:
    H_n f(x,z) = m_z * H_slow(f(., z))(x) + n * (A_fast f(x, .))(z)."""
    if n <= 0:
        raise PreconditionError("coupling strength must be positive")
    slow = coupling.slow
    n_slow = slow.space.size
    n_fast = coupling.n_fast
    # bind the member space: that is where lifted right-hand sides live
    prod_space = product.members[0]
    if prod_space.size != n_slow * n_fast:
        raise PreconditionError("product space does not match the coupling sizes")
    A_fast = coupling.fast_rate_matrix
    m = np.asarray(coupling.multipliers)

    def apply(v: np.ndarray) -> np.ndarray:
        V = v.reshape(n_slow, n_fast)
        out = np.empty_like(V)
        for z in range(n_fast):
            out[:, z] = m[z] * slow.apply_values(V[:, z])
        out += n * (V @ A_fast.T)
        return out.reshape(-1)

    jac_slow = slow.jacobian
    pattern = jac = None
    if jac_slow is not None:
        # state (x, z) sits at x * n_fast + z: the fast chain n * kron(I, A_fast)
        # is fixed, and fast state z's slow Jacobian J_z lands on the rows and
        # columns x * n_fast + z, scaled by m_z
        zi, zj = np.nonzero(A_fast)
        block_start = np.arange(n_slow)[:, None] * n_fast
        rows, cols = [(block_start + zi).ravel()], [(block_start + zj).ravel()]
        fast_data = np.tile(n * A_fast[zi, zj], n_slow)
        coupled = [z for z in range(n_fast) if m[z] != 0.0]  # m_z = 0: no slow block
        if slow.jacobian_pattern is None:  # dense: every entry, row-major
            r, c = np.divmod(np.arange(n_slow * n_slow), n_slow)
            slow_values = lambda J: np.asarray(J).ravel()
        else:
            indptr, c = slow.jacobian_pattern
            r = np.repeat(np.arange(n_slow), np.diff(indptr))
            slow_values = lambda J: J.data
        for z in coupled:
            rows.append(r * n_fast + z)
            cols.append(c * n_fast + z)
        # a slow pattern that stores each entry once gives no product entry
        # more than two contributions (a fast and a slow diagonal), so the
        # scatter sums exactly what a COO -> CSR sum would
        pattern, assemble = _csr_assembler(
            np.concatenate(rows), np.concatenate(cols), n_slow * n_fast
        )

        def jac(v: np.ndarray) -> sp.csr_matrix:
            V = v.reshape(n_slow, n_fast)
            data = [fast_data] + [m[z] * slow_values(jac_slow(V[:, z])) for z in coupled]
            return assemble(np.concatenate(data))

    L = None
    if slow.lipschitz_bound is not None:
        L = float(m.max()) * slow.lipschitz_bound + 2.0 * n * float(np.abs(np.diag(A_fast)).max())
    return Hamiltonian(
        space=prod_space,
        apply_values=apply,
        jacobian=jac,
        lipschitz_bound=L,
        name=f"slowfast(n={n})",
        jacobian_pattern=pattern,
    )


def averaged_slowfast_hamiltonian(coupling: SlowFastCoupling) -> Hamiltonian:
    """Limit of the two-scale family: the slow operator scaled by the
    stationary-distribution average of the multipliers."""
    pi = stationary_distribution(coupling.fast_rate_matrix)
    c_bar = float(pi @ np.asarray(coupling.multipliers))
    return replace(scale_hamiltonian(c_bar, coupling.slow), name="slowfast_averaged")
