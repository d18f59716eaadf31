"""Shipped Hamiltonians, multivalued operator graphs, scaling, dissipativity.

Operators come in two shapes.  A Hamiltonian is single valued: a map on
value vectors with an optional Jacobian (used by the Newton path of the
resolvent solver) and an optional global Lipschitz bound (used by the
damped fixed-point path).  An OperatorGraph is a finite list of pairs
(f, g); graphs tagged "dagger" test subsolutions and require first
components bounded below and second components bounded above, graphs
tagged "ddagger" mirror this for supersolutions.

Scaling a graph by c >= 0 multiplies second components only, with the
extended convention that c * (+inf) = +inf and c * (-inf) = -inf even at
c = 0.  The zero scaling therefore keeps the graph's shape while flattening
every finite value, which is what makes constant-coefficient equations
degenerate gracefully.

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
                     on a product space; growing n drives averaging of the
                     slow part by the fast chain's stationary law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .errors import PreconditionError, SolverError, StructuralError
from .limits import ExtFn, Fn
from .spaces import EnlargedSpaceSequence, FiniteSpace

__all__ = [
    "Hamiltonian",
    "OperatorGraph",
    "EnlargedOperatorGraph",
    "SlowFastCoupling",
    "DissipativityReport",
    "scale_graph",
    "scale_hamiltonian",
    "check_dissipative",
    "check_degenerate_elliptic",
    "graph_from_hamiltonian",
    "graph_contains",
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

    custom_solver, when set, inverts f - lam * Hf = h better than generic
    Newton can (signature: (lam, h, f0, tol) -> (f, iters, res), raising
    SolverError when it does not reach tol from f0); schemes with max-type
    kinks supply policy iteration through it.
    """

    space: FiniteSpace
    apply_values: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object] | None = None
    lipschitz_bound: float | None = None
    monotone: bool = False
    name: str = ""
    custom_solver: Callable | None = None

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
    solver = None
    if H.custom_solver is not None and c > 0:
        # f - lam * (cH) f = h is f - (lam c) H f = h
        solver = lambda lam, h, f0, tol: H.custom_solver(c * lam, h, f0, tol)
    return Hamiltonian(
        space=H.space,
        apply_values=lambda v: c * H.apply_values(v),
        jacobian=jac,
        lipschitz_bound=None if H.lipschitz_bound is None else c * H.lipschitz_bound,
        monotone=H.monotone,
        name=f"{c}*{H.name}" if H.name else "",
        custom_solver=solver,
    )


def _validate_graph_pairs(pairs, kind: str) -> None:
    if kind not in ("dagger", "ddagger"):
        raise ValueError("kind must be 'dagger' or 'ddagger'")
    for f, g in pairs:
        if kind == "dagger":
            if not f.bounded_below:
                raise ValueError("dagger first components must be bounded below")
            if not g.bounded_above:
                raise ValueError("dagger second components must be bounded above")
        else:
            if not f.bounded_above:
                raise ValueError("ddagger first components must be bounded above")
            if not g.bounded_below:
                raise ValueError("ddagger second components must be bounded below")


@dataclass(frozen=True)
class OperatorGraph:
    """A finite multivalued operator: pairs (f, g) over one space."""

    space: FiniteSpace
    pairs: tuple
    kind: str = "dagger"

    def __post_init__(self) -> None:
        pairs = tuple(
            (f.as_ext() if isinstance(f, Fn) else f, g.as_ext() if isinstance(g, Fn) else g)
            for f, g in self.pairs
        )
        for f, g in pairs:
            if f.space != self.space or g.space != self.space:
                raise ValueError("graph pair on the wrong space")
        _validate_graph_pairs(pairs, self.kind)
        object.__setattr__(self, "pairs", pairs)

    @property
    def gamma(self) -> np.ndarray:
        # plain graphs: the enlargement is trivial
        return np.arange(self.space.size)

    @property
    def base_space(self) -> FiniteSpace:
        return self.space

    @property
    def enlarged_space(self) -> FiniteSpace:
        return self.space


@dataclass(frozen=True)
class EnlargedOperatorGraph:
    """Pairs (f, g) with f on the base limit space and g on the enlarged one.

    gamma maps enlarged points down to base points; viscosity checks compose
    candidate solutions with gamma before comparing against f.
    """

    base_space: FiniteSpace
    enlarged_space: FiniteSpace
    gamma: np.ndarray
    pairs: tuple
    kind: str = "dagger"

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=int)
        if gamma.shape != (self.enlarged_space.size,):
            raise ValueError("gamma must map every enlarged point")
        object.__setattr__(self, "gamma", gamma)
        pairs = tuple(
            (f.as_ext() if isinstance(f, Fn) else f, g.as_ext() if isinstance(g, Fn) else g)
            for f, g in self.pairs
        )
        for f, g in pairs:
            if f.space != self.base_space or g.space != self.enlarged_space:
                raise ValueError("graph pair on the wrong spaces")
        _validate_graph_pairs(pairs, self.kind)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_product(
        cls, seq: EnlargedSpaceSequence, pairs, kind: str = "dagger"
    ) -> "EnlargedOperatorGraph":
        return cls(
            base_space=seq.base.limit,
            enlarged_space=seq.enlarged_limit,
            gamma=seq.gamma,
            pairs=pairs,
            kind=kind,
        )


def _ext_scale(c: float, values: np.ndarray) -> np.ndarray:
    # c * (+-inf) = +-inf for every c >= 0, including c = 0
    with np.errstate(invalid="ignore"):
        out = c * values
    inf_mask = np.isinf(values)
    out[inf_mask] = values[inf_mask]
    return out


def scale_graph(c: float, G):
    """Scale the second components of a graph by c >= 0, infinities preserved."""
    if c < 0:
        raise PreconditionError("scaling constant must be nonnegative")
    new_pairs = tuple(
        (f, ExtFn(g.space, _ext_scale(float(c), g.values.copy()))) for f, g in G.pairs
    )
    if isinstance(G, EnlargedOperatorGraph):
        return EnlargedOperatorGraph(
            base_space=G.base_space,
            enlarged_space=G.enlarged_space,
            gamma=G.gamma,
            pairs=new_pairs,
            kind=G.kind,
        )
    return OperatorGraph(space=G.space, pairs=new_pairs, kind=G.kind)


def graph_from_hamiltonian(H: Hamiltonian, probes: Sequence[Fn], kind: str = "dagger"):
    """The graph {(phi, H phi)} over a finite probe family."""
    return OperatorGraph(
        space=H.space, pairs=tuple((p, H(p)) for p in probes), kind=kind
    )


def graph_contains(G, f: Fn, g: Fn, tol: float = 1e-9) -> bool:
    fv, gv = np.asarray(f.values), np.asarray(g.values)
    for fi, gi in G.pairs:
        if (
            np.all(np.isfinite(fi.values))
            and np.all(np.isfinite(gi.values))
            and np.abs(fi.values - fv).max() <= tol
            and np.abs(gi.values - gv).max() <= tol
        ):
            return True
    return False


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
    violations = []
    checked = 0
    for i in range(len(fns)):
        f1, g1 = fns[i]
        for j in range(i, len(fns)):
            f2, g2 = fns[j]
            rhs = float(np.abs(f1 - f2).max())
            for lam in lambdas:
                if lam <= 0:
                    raise PreconditionError("lambdas must be positive")
                lhs = float(np.abs((f1 - lam * g1) - (f2 - lam * g2)).max())
                checked += 1
                if lhs < rhs - tol:
                    violations.append(
                        {"i": i, "j": j, "lam": float(lam), "lhs": lhs, "rhs": rhs,
                         "deficit": rhs - lhs}
                    )
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
        monotone=True,
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

    def apply(v: np.ndarray) -> np.ndarray:
        E = np.exp(v[None, :] - v[:, None])
        return (A * E).sum(axis=1)

    def jac(v: np.ndarray) -> np.ndarray:
        E = np.exp(v[None, :] - v[:, None])
        J = A * E
        np.fill_diagonal(J, 0.0)
        np.fill_diagonal(J, -J.sum(axis=1))
        return J

    L = 2.0 * float(np.abs(np.diag(A)).max()) * float(np.exp(2.0 * probe_radius))
    return Hamiltonian(
        space=space, apply_values=apply, jacobian=jac,
        lipschitz_bound=L, monotone=True, name=name,
    )


def _grid_spacing(space: FiniteSpace) -> float:
    xs = space.coords[:, 0]
    dx = np.diff(xs)
    if dx.size == 0 or np.abs(dx - dx[0]).max() > 1e-9 * max(1.0, np.abs(dx[0])):
        raise PreconditionError("grid Hamiltonians need a uniform 1-d grid")
    return float(dx[0])


# Grids with at least this many points (and an even count) first solve the
# same scheme on the half grid and start Howard from its interpolation.
CASCADE_MIN_POINTS = 256


def _upwind_diffs(dx: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_minus = (v - np.roll(v, 1)) / dx
    p_plus = (np.roll(v, -1) - v) / dx
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
    Its resolvent is solved by Howard iteration (_howard).
    """
    dx = _grid_spacing(space)
    b = np.asarray(drift, dtype=float).reshape(-1)
    if b.shape[0] != space.size:
        raise PreconditionError("drift must have one value per grid point")
    theta = 0.5 * b

    def jac(v: np.ndarray) -> sp.csr_matrix:
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

    return Hamiltonian(
        space=space, apply_values=partial(_upwind_value, b, dx), jacobian=jac,
        lipschitz_bound=None, monotone=True, name=name,
        custom_solver=partial(_howard, b, dx),
    )


# Control form: p^2 - b p = max_a (a p - (a + b)^2 / 4), and the Godunov value
# is exactly this max with a p upwinded by sign(a).  Howard iteration in the
# control variable makes every frozen system linear with an M-matrix, so it has
# a unique root and the iterates increase monotonically to the solution; no
# spurious branches, unlike Newton on the kinked scheme.  The frozen matrix is
# periodic tridiagonal, so each step is an O(n) banded solve with a rank-one
# correction for the wrap-around corners.
def _improve(b: np.ndarray, dx: float, v: np.ndarray) -> np.ndarray:
    p_minus, p_plus = _upwind_diffs(dx, v)
    a_fwd = np.maximum(2.0 * p_plus - b, 0.0)
    a_bwd = np.minimum(2.0 * p_minus - b, 0.0)
    val_fwd = _hval(b, np.maximum(p_plus, 0.5 * b))
    val_bwd = _hval(b, np.minimum(p_minus, 0.5 * b))
    return np.where(val_fwd >= val_bwd, a_fwd, a_bwd)


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
        f[1::2] = 0.5 * (fc + np.roll(fc, -1))
    sweeps = max(500, n // 8)  # per level, enough for a cold start
    for it in range(sweeps + 1):
        res = float(np.abs(f - lam * _upwind_value(b, dx, f) - h).max())
        if res <= tol:
            return f, done + it, res
        if it < sweeps:
            f = _policy_step(b, dx, _improve(b, dx, f), lam, h)
    raise SolverError(
        f"policy iteration did not converge: residual {res:.3g}", iterations=done + sweeps
    )


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
        pc = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
        return pc * pc - b * pc

    def jac(v: np.ndarray) -> sp.csr_matrix:
        pc = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
        slope = (2.0 * pc - b) / (2.0 * dx)
        n = v.shape[0]
        rows = np.concatenate([np.arange(n)] * 2)
        cols = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
        data = np.concatenate([slope, -slope])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    return Hamiltonian(
        space=space, apply_values=apply, jacobian=jac,
        lipschitz_bound=None, monotone=False, name=name,
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
    product: EnlargedSpaceSequence, n: float, coupling: SlowFastCoupling
) -> Hamiltonian:
    """Two-scale operator on the product space at coupling strength n:
    H_n f(x,z) = m_z * H_slow(f(., z))(x) + n * (A_fast f(x, .))(z)."""
    if n <= 0:
        raise PreconditionError("coupling strength must be positive")
    slow = coupling.slow
    n_slow = slow.space.size
    n_fast = coupling.n_fast
    # bind the member space: that is where lifted right-hand sides live
    prod_space = product.base.members[0]
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

    def jac(v: np.ndarray) -> sp.csr_matrix:
        # state (x, z) sits at x * n_fast + z, so fast-state z's slow block is
        # kron(J_z, m_z e_z e_z^T) and the fast chain is kron(I, A_fast)
        V = v.reshape(n_slow, n_fast)
        J = n * sp.kron(sp.eye(n_slow), A_fast)
        for z in range(n_fast):
            picker = np.zeros((n_fast, n_fast))
            picker[z, z] = m[z]
            J = J + sp.kron(jac_slow(V[:, z]), picker)
        return J.tocsr()

    L = None
    if slow.lipschitz_bound is not None:
        L = float(m.max()) * slow.lipschitz_bound + 2.0 * n * float(np.abs(np.diag(A_fast)).max())
    return Hamiltonian(
        space=prod_space,
        apply_values=apply,
        jacobian=jac if jac_slow is not None else None,
        lipschitz_bound=L,
        monotone=slow.monotone,
        name=f"slowfast(n={n})",
    )


def averaged_slowfast_hamiltonian(coupling: SlowFastCoupling) -> Hamiltonian:
    """Limit of the two-scale family: the slow operator scaled by the
    stationary-distribution average of the multipliers."""
    pi = stationary_distribution(coupling.fast_rate_matrix)
    c_bar = float(pi @ np.asarray(coupling.multipliers))
    return replace(scale_hamiltonian(c_bar, coupling.slow), name="slowfast_averaged")
