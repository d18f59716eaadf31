"""Shipped Hamiltonians, operator graphs, and their structural checks."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain, unit_grid
from oracles import dissipativity_reference, howard_reference, jacobian_reference
from hjlab import (
    ExtFn,
    FiniteSpace,
    Fn,
    OperatorGraph,
    PreconditionError,
    ResolventFamily,
    SolverError,
    SlowFastCoupling,
    averaged_slowfast_hamiltonian,
    centered_quadratic,
    check_degenerate_elliptic,
    check_dissipative,
    graph_from_hamiltonian,
    linear_generator,
    make_product_sequence,
    random_rate_matrix,
    slowfast_hamiltonian,
    solve_resolvent,
    stationary_distribution,
    tilt_linear,
    trig_polynomial,
    upwind_quadratic,
)
from hjlab import operators
from hjlab.operators import (
    _next,
    _policy_step,
    _prev,
    scale_hamiltonian,
    validate_rate_matrix,
)
from hjlab.resolvent import _NewtonPattern, _solve


def fd_jacobian(apply_values, v, eps=1e-7):
    n = v.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        J[:, j] = (apply_values(v + e) - apply_values(v - e)) / (2.0 * eps)
    return J


def cycle_matrix(n, rate=1.0):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = rate
        A[i, i] = -rate
    return A


# --- rate matrices ---------------------------------------------------------


def test_rate_matrix_validation_rejects_malformed_input():
    with pytest.raises(PreconditionError, match="square"):
        validate_rate_matrix(np.zeros((2, 3)))
    with pytest.raises(PreconditionError, match="off-diagonal"):
        validate_rate_matrix(np.array([[1.0, -1.0], [1.0, -1.0]]))
    with pytest.raises(PreconditionError, match="sum to zero"):
        validate_rate_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]))


def test_random_rate_matrix_is_valid_with_positive_stationary_law():
    rng = np.random.default_rng(11)
    A = random_rate_matrix(rng, 7, scale=2.0)
    validate_rate_matrix(A)
    pi = stationary_distribution(A)
    assert pi.min() > 0
    assert np.isclose(pi.sum(), 1.0)
    assert np.abs(A.T @ pi).max() < 1e-10


def test_symmetric_cycle_has_uniform_stationary_law():
    pi = stationary_distribution(cycle_matrix(3))
    assert np.allclose(pi, 1.0 / 3)


# --- linear and tilted generators ------------------------------------------


def test_linear_generator_is_matrix_action():
    s = chain(5)
    rng = np.random.default_rng(1)
    A = random_rate_matrix(rng, 5)
    H = linear_generator(A, s)
    v = rng.standard_normal(5)
    assert np.allclose(H.apply_values(v), A @ v)
    assert np.array_equal(H.jacobian(v), A)
    assert H.jacobian_pattern is None  # dense
    with pytest.raises(PreconditionError):
        H(Fn(chain(5), np.zeros(5)))  # same shape, different space


def test_tilt_vanishes_on_constants_and_ignores_shifts():
    s = chain(6)
    A = random_rate_matrix(np.random.default_rng(2), 6)
    H = tilt_linear(A, s)
    assert np.abs(H.apply_values(np.full(6, 3.7))).max() < 1e-12
    v = np.random.default_rng(3).uniform(-1, 1, 6)
    assert np.allclose(H.apply_values(v), H.apply_values(v + 2.0))


def test_tilt_jacobian_matches_finite_differences():
    s = chain(6)
    A = random_rate_matrix(np.random.default_rng(4), 6)
    H = tilt_linear(A, s)
    v = np.random.default_rng(5).uniform(-1, 1, 6)
    assert np.abs(H.jacobian(v) - fd_jacobian(H.apply_values, v)).max() < 1e-6
    assert H.jacobian_pattern is None  # dense


def earlier_tilt_apply(A, v):
    E = np.exp(v[None, :] - v[:, None])
    return (A * E).sum(axis=1)


def earlier_tilt_jac(A, v):
    E = np.exp(v[None, :] - v[:, None])
    J = A * E
    np.fill_diagonal(J, 0.0)
    np.fill_diagonal(J, -J.sum(axis=1))
    return J


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.floats(0.0, 1.0),
    spread=st.sampled_from([0.0, 1.0, 30.0, 400.0, 2000.0]),
)
@example(n=1, seed=0, zero_rows=0.0, spread=1.0)
@example(n=8, seed=1, zero_rows=0.5, spread=2000.0)
@settings(max_examples=150, deadline=None)
@np.errstate(over="ignore", invalid="ignore")
def test_tilt_kernels_equal_the_earlier_expressions_bit_for_bit(n, seed, zero_rows, spread):
    # spreads past ~710 overflow exp to inf, and a zero rate times inf is nan:
    # the kernels must reproduce those values too, and write into no input
    rng = np.random.default_rng(seed)
    A = random_rate_matrix(rng, n)
    A[rng.uniform(size=n) < zero_rows] = 0.0
    v = rng.uniform(-spread, spread, n)
    A_before, v_before = A.copy(), v.copy()
    H = tilt_linear(A, chain(n))
    assert np.array_equal(H.apply_values(v), earlier_tilt_apply(A, v), equal_nan=True)
    J1, J2 = H.jacobian(v), H.jacobian(v)
    want = earlier_tilt_jac(A, v)
    assert np.array_equal(J1, want, equal_nan=True)
    assert np.array_equal(J2, want, equal_nan=True)
    assert not np.shares_memory(J1, J2)
    assert not np.shares_memory(J1, A) and not np.shares_memory(J1, v)
    assert np.array_equal(A, A_before) and np.array_equal(v, v_before)


def test_tilt_reduces_to_linear_at_small_amplitude():
    # Hf = A e^{f-f_i} ~ A (1 + f - f_i) = Af + O(|f|^2) since rows sum to 0
    s = chain(5)
    A = random_rate_matrix(np.random.default_rng(6), 5)
    H = tilt_linear(A, s)
    v = 1e-5 * np.random.default_rng(7).standard_normal(5)
    assert np.abs(H.apply_values(v) - A @ v).max() < 1e-8


# --- grid schemes -----------------------------------------------------------


def drift_sin(space, amp):
    return amp * np.sin(2.0 * np.pi * space.coords[:, 0])


def test_upwind_vanishes_on_constants():
    s = unit_grid(32)
    H = upwind_quadratic(s, drift_sin(s, 0.5))
    assert np.abs(H.apply_values(np.full(32, 1.3))).max() == 0.0


def test_upwind_consistency_is_first_order_on_smooth_data():
    # exact H(x, f'(x)) with f = 0.1 sin(2 pi x), b = 0.4 cos(2 pi x)
    errs = []
    for n in (128, 256, 512):
        s = unit_grid(n)
        x = s.coords[:, 0]
        b = 0.4 * np.cos(2.0 * np.pi * x)
        H = upwind_quadratic(s, b)
        f = 0.1 * np.sin(2.0 * np.pi * x)
        p = 0.2 * np.pi * np.cos(2.0 * np.pi * x)
        exact = p * p - b * p
        errs.append(np.abs(H.apply_values(f) - exact).max())
    assert errs[2] < errs[1] < errs[0]
    # halving dx roughly halves the error
    assert 1.5 < errs[0] / errs[1] < 2.5
    assert 1.5 < errs[1] / errs[2] < 2.5
    assert errs[2] < 5.0 / 512


def test_upwind_equals_the_control_form_maximum():
    # p^2 - b p = max_a (a p - (a+b)^2/4) with a p upwinded by sign(a);
    # brute-force the max over a dense control grid as an independent oracle
    s = unit_grid(16)
    rng = np.random.default_rng(8)
    b = rng.uniform(-1, 1, 16)
    H = upwind_quadratic(s, b)
    v = rng.uniform(-1, 1, 16)
    dx = 1.0 / 16
    p_minus = (v - np.roll(v, 1)) / dx
    p_plus = (np.roll(v, -1) - v) / dx
    # optimal controls reach 2|p| + |b|, and |p| can hit 2/dx for these data
    a_grid = np.linspace(-70.0, 70.0, 140001)
    got = H.apply_values(v)
    for i in range(16):
        p_of_a = np.where(a_grid >= 0, p_plus[i], p_minus[i])
        brute = np.max(a_grid * p_of_a - 0.25 * (a_grid + b[i]) ** 2)
        assert abs(got[i] - brute) < 1e-5


def howard_case(kind, n, amp, seed):
    """Drift and data whose first Howard control is mixed in sign, all >= 0,
    all <= 0, or mostly zero."""
    x = np.arange(n) / n
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return amp * np.sin(2.0 * np.pi * (x + rng.uniform())), rng.uniform(-1, 1, n)
    smooth = 0.05 * np.sin(2.0 * np.pi * (x + rng.uniform()))
    if kind == "nonnegative":
        return np.full(n, -1.0 - amp), smooth
    if kind == "nonpositive":
        return np.full(n, 1.0 + amp), smooth
    # zero drift on piecewise-constant data: the control vanishes on flat runs
    cuts = np.sort(rng.integers(0, n, 2))
    return np.zeros(n), np.where((np.arange(n) >= cuts[0]) & (np.arange(n) < cuts[1]), 0.5, -0.5)


@given(
    st.sampled_from(["mixed", "nonnegative", "nonpositive", "zeros"]),
    st.integers(2, 64),
    st.floats(0.0, 2.0),
    st.floats(0.01, 10.0),
    st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_howard_solver_matches_the_dense_reference(kind, n, amp, lam, seed):
    s = unit_grid(n)
    dx = 1.0 / n
    b, h = howard_case(kind, n, amp, seed)
    a0 = howard_reference.improve(h, b, dx)
    if kind == "nonnegative":
        assert (a0 >= 0).all()
    elif kind == "nonpositive":
        assert (a0 <= 0).all()
    elif kind == "zeros":
        assert (a0 == 0).sum() >= n - 2
    want = howard_reference.policy_solve(b, dx, lam, h, h, 1e-10)
    assert want is not None
    f, iters, res = upwind_quadratic(s, b).custom_solver(lam, h, h, 1e-10)
    assert iters == want[1]
    assert res <= 1e-10
    assert np.abs(f - want[0]).max() <= 1e-10


@given(
    st.sampled_from(["mixed", "nonnegative", "nonpositive", "zeros"]),
    st.integers(128, 600),
    st.floats(0.0, 2.0),
    st.floats(0.01, 10.0),
    st.integers(0, 2**16),
)
@example("mixed", 512, 1.0, 1.0, 0)  # two half-grid levels, 512 -> 256 -> 128
@settings(max_examples=10, deadline=None)
def test_cascaded_howard_solver_matches_the_dense_reference(kind, n, amp, lam, seed):
    # even n >= 256 starts Howard from the half-grid solution, so the iteration
    # counts differ from the cold reference; the solution reached may not
    b, h = howard_case(kind, n, amp, seed)
    want = howard_reference.policy_solve(b, 1.0 / n, lam, h, h, 1e-10)
    assert want is not None
    f, _, res = upwind_quadratic(unit_grid(n), b).custom_solver(lam, h, h, 1e-10)
    assert res <= 1e-10
    assert np.abs(f - want[0]).max() <= 1e-10


@given(
    st.sampled_from(["mixed", "nonnegative", "nonpositive", "sparse"]),
    st.integers(3, 300),
    st.sampled_from([1e-6, 0.25, 1.0, 10.0, 1e4]),
    st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_policy_step_equals_the_banded_reference_bit_for_bit(kind, n, lam, seed):
    rng = np.random.default_rng(seed)
    dx = 1.0 / n
    b = rng.uniform(-2.0, 2.0, n)
    h = rng.uniform(-1.0, 1.0, n)
    a = rng.uniform(-3.0, 3.0, n)
    if kind == "nonnegative":
        a = np.abs(a)
    elif kind == "nonpositive":
        a = -np.abs(a)
    elif kind == "sparse":
        a[rng.random(n) < 0.7] = 0.0
    want = howard_reference.banded_policy_step(b, dx, a, lam, h)
    assert np.array_equal(_policy_step(b, dx, a, lam, h), want)


def stacked_howard_case(kind, k, n, seed):
    """Drift, a stack of k data rows and a lambda per row: smooth data, data
    on a coarse lattice of levels (equal neighbours and exact ties between
    the two branches of the scheme), or zero drift on data from {0, -0, 1/2,
    -1/2} (exact zeros of both signs in the iterates)."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    lam = rng.choice([0.01, 0.2, 1.0, 4.0], k)
    if kind == "smooth":
        b = rng.uniform(0.0, 2.0) * np.sin(2.0 * np.pi * (x + rng.uniform()))
        phase = rng.uniform(size=(k, 1))
        return b, 0.3 * np.cos(2.0 * np.pi * (x + phase)) + rng.uniform(-0.1, 0.1, (k, n)), lam
    if kind == "ties":
        b = np.round(4.0 * np.sin(2.0 * np.pi * x)) / 4.0
        b[rng.random(n) < 0.3] = 0.0
        return b, np.round(rng.uniform(-2.0, 2.0, (k, n))) / 4.0, lam
    return np.zeros(n), rng.choice([0.0, -0.0, 0.5, -0.5], (k, n)), lam


@given(
    st.sampled_from(["smooth", "ties", "zeros"]),
    st.integers(1, 8),
    st.sampled_from([2, 3, 16, 33, 128, 255, 256, 300, 512]),
    st.integers(0, 2**16),
)
@example("smooth", 4, 512, 0)  # two half-grid levels, 512 -> 256 -> 128
@example("zeros", 4, 3, 1)  # a zero of either sign at a block boundary
@settings(max_examples=60, deadline=None)
def test_stacked_howard_rows_equal_the_one_problem_solve_bitwise(kind, k, n, seed):
    # howard_reference._howard is the one-problem solve from before stacking;
    # every row of a stack, whose rows converge after different numbers of
    # steps and drop out, must give its bits, iteration count and residual
    b, h, lam = stacked_howard_case(kind, k, n, seed)
    H = upwind_quadratic(unit_grid(n), b)
    want = [howard_reference._howard(b, 1.0 / n, lam[i], h[i], h[i], 1e-10) for i in range(k)]
    f, iterations, residuals = H.stacked_solver(lam, h, h, 1e-10)
    assert f.shape == h.shape and iterations.shape == residuals.shape == (k,)
    for i, (f_i, its, res) in enumerate(want):
        assert f[i].tobytes() == f_i.tobytes()
        assert iterations[i] == its and residuals[i] == res
    f_1, its_1, res_1 = H.custom_solver(lam[0], h[0], h[0], 1e-10)
    assert type(its_1) is int and type(res_1) is float
    assert (f_1.tobytes(), its_1, res_1) == (want[0][0].tobytes(), want[0][1], want[0][2])


def test_stacked_howard_raises_what_the_one_problem_solve_raised():
    # no residual reaches tol = 0 but that of the zero solution: the stack
    # runs out of steps and names its first unconverged row, as that row
    # alone would
    s = unit_grid(24)
    b = 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0])
    h = np.stack([np.zeros(24), 0.3 * np.cos(2.0 * np.pi * s.coords[:, 0]), np.ones(24)])
    lam = np.array([1.0, 0.5, 2.0])
    with pytest.raises(SolverError) as want:
        howard_reference._howard(b, 1.0 / 24, lam[1], h[1], h[1], 0.0)
    with pytest.raises(SolverError) as got:
        upwind_quadratic(s, b).stacked_solver(lam, h, h, 0.0)
    assert str(got.value) == str(want.value)
    assert got.value.iterations == want.value.iterations == 500


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_periodic_neighbours_equal_a_roll_by_one(n):
    v = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(_prev(v), np.roll(v, 1))
    assert np.array_equal(_next(v), np.roll(v, -1))


def test_policy_step_raises_what_the_banded_solve_raised():
    # lam < 0 zeroes the middle pivot of this frozen system: gtsv info > 0
    b, a, h = np.zeros(3), np.array([0.0, 1.0, 0.0]), np.zeros(3)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        howard_reference.banded_policy_step(b, 1.0, a, -1.0, h)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _policy_step(b, 1.0, a, -1.0, h)


def test_policy_step_reports_an_illegal_gtsv_argument(monkeypatch):
    # the f2py wrapper validates shapes itself, so info < 0 needs a stand-in
    def bad_gtsv(dl, d, du, rhs, *overwrite):
        return dl, d, du, rhs, -4

    monkeypatch.setattr(operators, "dgtsv", bad_gtsv)
    with pytest.raises(ValueError, match="illegal value in 4-th argument"):
        _policy_step(np.zeros(3), 1.0, np.ones(3), 1.0, np.zeros(3))


def test_cascade_cuts_the_iterations_of_the_negative_control_limit_solve():
    # the limit problem of configs/negative_control.yaml; a cold Howard start
    # from h takes 387 iterations on this grid
    s = unit_grid(10240)
    b = trig_polynomial(s, [], [0.75]).values
    h = trig_polynomial(s, [0.0, 0.0, 0.2]).values
    H = upwind_quadratic(s, b)
    f, iters, _ = H.custom_solver(0.25, h, h, 1e-10)
    assert np.abs(f - 0.25 * H.apply_values(f) - h).max() <= 1e-10
    assert iters <= 60


def test_upwind_jacobian_matches_finite_differences_off_ties():
    s = unit_grid(24)
    H = upwind_quadratic(s, drift_sin(s, 0.3))
    v = 0.1 * np.sin(2.0 * np.pi * s.coords[:, 0] + 0.37)
    J = H.jacobian(v).toarray()
    assert np.abs(J - fd_jacobian(H.apply_values, v)).max() < 1e-6


def test_centered_jacobian_matches_finite_differences():
    s = unit_grid(24)
    H = centered_quadratic(s, drift_sin(s, 0.3))
    v = 0.1 * np.sin(2.0 * np.pi * s.coords[:, 0] + 0.37)
    J = H.jacobian(v).toarray()
    assert np.abs(J - fd_jacobian(H.apply_values, v)).max() < 1e-6


def assert_on_declared_pattern(J, H):
    assert sp.issparse(J) and J.format == "csr"
    indptr, indices = H.jacobian_pattern
    assert np.array_equal(J.indptr, indptr) and np.array_equal(J.indices, indices)


def assert_same_newton_matrix(J, J_ref, lam):
    # the damped Newton step factors I - lam * J, written into its CSC
    # pattern; the same canonical CSC as the reference's sparse subtraction
    # means the same SuperLU ordering and the same step, bit for bit
    want = jacobian_reference.newton_matrix(J_ref, lam)
    for got in (jacobian_reference.newton_matrix(J, lam),
                _NewtonPattern.of((J.indptr, J.indices)).newton_matrix(J, lam)):
        assert got.format == "csc" and got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def tie_case(n, seed, tie_share):
    """Values (with flat runs) and a drift that puts theta = b/2 exactly on
    the backward or forward difference at about tie_share of the points."""
    rng = np.random.default_rng(seed)
    s = unit_grid(n)
    dx = float(np.diff(s.coords[:, 0])[0])
    v = rng.uniform(-1.0, 1.0, n)
    v[rng.random(n) < tie_share] = 0.25
    b = rng.uniform(-2.0, 2.0, n)
    p_minus = (v - np.roll(v, 1)) / dx
    p_plus = (np.roll(v, -1) - v) / dx
    tie = rng.random(n) < tie_share
    backward = rng.random(n) < 0.5
    b[tie & backward] = 2.0 * p_minus[tie & backward]
    b[tie & ~backward] = 2.0 * p_plus[tie & ~backward]
    return s, dx, v, b


@pytest.mark.parametrize("scheme", ["upwind", "centered"])
@given(st.integers(2, 64), st.floats(0.0, 1.0), st.floats(0.01, 10.0), st.integers(0, 2**16))
@example(2, 1.0, 1.0, 0)
@settings(max_examples=60, deadline=None)
def test_grid_jacobians_give_the_reference_newton_matrix(scheme, n, tie_share, lam, seed):
    s, dx, v, b = tie_case(n, seed, tie_share)
    build = upwind_quadratic if scheme == "upwind" else centered_quadratic
    H = build(s, b)
    J = H.jacobian(v)
    assert_on_declared_pattern(J, H)
    J_ref = getattr(jacobian_reference, scheme)(b, dx, v)
    assert np.array_equal(J.toarray(), J_ref.toarray())
    assert_same_newton_matrix(J, J_ref, lam)


def test_grid_schemes_require_uniform_grids_and_matching_drift():
    bad = np.array([0.0, 0.1, 0.5])
    s = unit_grid(8)
    from hjlab import FiniteSpace

    nonuniform = FiniteSpace(coords=bad)
    with pytest.raises(PreconditionError, match="uniform"):
        upwind_quadratic(nonuniform, np.zeros(3))
    with pytest.raises(PreconditionError, match="drift"):
        upwind_quadratic(s, np.zeros(5))


def test_degenerate_ellipticity_separates_the_two_schemes():
    s = unit_grid(64)
    b = drift_sin(s, 0.75)
    up = check_degenerate_elliptic(upwind_quadratic(s, b), np.random.default_rng(9))
    assert up.passed
    cen = check_degenerate_elliptic(centered_quadratic(s, b), np.random.default_rng(9))
    assert not cen.passed
    assert cen.worst_margin() > 0


@given(st.floats(0.0, 1.0), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_upwind_monotonicity_property(amp, seed):
    # f <= g touching at x0 must give Hf(x0) <= Hg(x0)
    s = unit_grid(16)
    H = upwind_quadratic(s, drift_sin(s, amp))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(16)
    gap = np.abs(rng.standard_normal(16))
    x0 = int(rng.integers(16))
    gap[x0] = 0.0
    f = g - gap
    assert H.apply_values(f)[x0] <= H.apply_values(g)[x0] + 1e-10


# --- scaling ----------------------------------------------------------------


def test_scale_hamiltonian_scales_values_and_keeps_the_solver_exact():
    s = unit_grid(32)
    H = upwind_quadratic(s, drift_sin(s, 0.5))
    H2 = scale_hamiltonian(2.0, H)
    v = 0.1 * np.cos(2.0 * np.pi * s.coords[:, 0])
    assert np.allclose(H2.apply_values(v), 2.0 * H.apply_values(v))
    # solving f - lam (2H) f = h must agree with f - (2 lam) H f = h
    h = 0.2 * np.cos(2.0 * np.pi * s.coords[:, 0])
    f_a, _, _ = H2.custom_solver(0.5, h, np.zeros(32), 1e-11)
    f_b, _, _ = H.custom_solver(1.0, h, np.zeros(32), 1e-11)
    assert np.abs(f_a - f_b).max() < 1e-9


def test_scale_hamiltonian_zero_drops_the_solver():
    s = unit_grid(8)
    H = upwind_quadratic(s, np.zeros(8))
    H0 = scale_hamiltonian(0.0, H)
    assert H0.custom_solver is None
    assert np.abs(H0.apply_values(np.random.default_rng(0).uniform(-1, 1, 8))).max() == 0.0
    with pytest.raises(PreconditionError):
        scale_hamiltonian(-1.0, H)


# --- operator graphs --------------------------------------------------------


def test_graph_from_hamiltonian_stores_probe_images():
    s = unit_grid(16)
    H = upwind_quadratic(s, np.zeros(16))
    probes = [trig_polynomial(s, [0.0, 0.2]), trig_polynomial(s, [0.1])]
    G = graph_from_hamiltonian(H, probes)
    assert len(G.pairs) == 2
    f0, g0 = G.pairs[0]
    assert np.allclose(f0.values, probes[0].values)
    assert np.allclose(g0.values, H.apply_values(probes[0].values))


def test_dagger_graphs_enforce_one_sided_boundedness():
    s = unit_grid(4)
    ok_f = Fn(s, np.zeros(4))
    unbounded_below = ExtFn(s, np.array([0.0, -np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError, match="bounded below"):
        OperatorGraph(space=s, pairs=((unbounded_below, ok_f),), kind="dagger")
    # the same pair is fine on the ddagger side
    OperatorGraph(space=s, pairs=((unbounded_below, ok_f),), kind="ddagger")
    with pytest.raises(ValueError, match="kind"):
        OperatorGraph(space=s, pairs=(), kind="diamond")


def test_graph_enlargement_defaults_to_the_identity_and_gamma_maps_into_the_base():
    base = chain(3)
    G = OperatorGraph(space=base, pairs=())
    assert G.enlarged_space is base
    assert np.array_equal(G.gamma, np.arange(3))
    assert not G.gamma.flags.writeable
    enlarged = chain(4, name="enlarged4")
    G = OperatorGraph(space=base, pairs=(), enlarged_space=enlarged, gamma=[0, 0, 1, 2])
    assert G.gamma.tolist() == [0, 0, 1, 2]
    # a negative entry would index the base from its end, and an entry of 3
    # lies past it
    for gamma in ([0, 1, 2, -1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="into the base space"):
            OperatorGraph(space=base, pairs=(), enlarged_space=enlarged, gamma=gamma)
    with pytest.raises(ValueError, match="every enlarged point"):
        OperatorGraph(space=base, pairs=(), enlarged_space=enlarged, gamma=[0, 1, 2])
    # an enlargement without gamma gets the identity, which needs equal sizes
    with pytest.raises(ValueError, match="into the base space"):
        OperatorGraph(space=base, pairs=(), enlarged_space=enlarged)
    g = Fn(enlarged, np.zeros(4))
    with pytest.raises(ValueError, match="wrong spaces"):
        OperatorGraph(space=base, pairs=((Fn(base, np.zeros(3)), g),))


# --- dissipativity -----------------------------------------------------------


def test_tilt_graph_is_dissipative_across_lambdas():
    s = chain(6)
    rng = np.random.default_rng(0)
    H = tilt_linear(random_rate_matrix(rng, 6), s)
    pairs = [(f, H(f)) for f in (Fn(s, rng.uniform(-1, 1, 6)) for _ in range(8))]
    rep = check_dissipative(pairs, [0.1, 1.0, 10.0])
    assert rep.passed
    # unordered pairs including self-pairs, times three lambdas
    assert rep.checked == 8 * 9 // 2 * 3
    assert rep.worst_margin() == 0.0


def test_check_dissipative_reports_a_fabricated_violation():
    s = chain(2)
    f1, g1 = Fn(s, np.array([1.0, -1.0])), Fn(s, np.array([1.0, -1.0]))
    f2, g2 = Fn(s, np.zeros(2)), Fn(s, np.zeros(2))
    rep = check_dissipative([(f1, g1), (f2, g2)], [0.5])
    assert not rep.passed
    assert rep.worst_margin() == pytest.approx(0.5)
    v = rep.violations[0]
    assert (v["i"], v["j"], v["lam"]) == (0, 1, 0.5)


@given(
    st.integers(0, 5), st.integers(1, 6),
    st.lists(st.sampled_from([0.1, 0.5, 1.0, 10.0]), max_size=3),
    st.sampled_from([0.0, 1e-9, 0.1]), st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_check_dissipative_matches_the_pairwise_reference(n_pairs, n, lambdas, tol, seed):
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal(n), rng.choice([0.01, 1.0, 10.0]) * rng.standard_normal(n))
             for _ in range(n_pairs)]
    if n_pairs > 1:  # a near copy of pair 0 with an unrelated g: violations
        pairs[1] = (pairs[0][0] + 0.3, rng.standard_normal(n))
    got = check_dissipative(pairs, lambdas, tol)
    ref = dissipativity_reference.check_dissipative(pairs, lambdas, tol)
    assert (got.passed, got.checked) == (ref.passed, ref.checked)
    assert repr(got.violations) == repr(ref.violations)


def test_check_dissipative_rejects_bad_inputs():
    s = chain(2)
    f = Fn(s, np.zeros(2))
    with pytest.raises(PreconditionError, match="positive"):
        check_dissipative([(f, f)], [0.0])
    bad = ExtFn(s, np.array([0.0, np.inf]))
    with pytest.raises(PreconditionError, match="finite"):
        check_dissipative([(bad, f)], [1.0])


# --- slow-fast coupling ------------------------------------------------------


def slowfast_fixture():
    slow_space = unit_grid(8, "slow")
    from hjlab import FiniteSpace

    fast = FiniteSpace(coords=np.arange(3.0), name="fast")
    slow = upwind_quadratic(slow_space, drift_sin(slow_space, 0.4))
    A_fast = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    coupling = SlowFastCoupling(
        slow=slow, fast_rate_matrix=A_fast, multipliers=(0.5, 1.0, 1.5)
    )
    product = make_product_sequence(slow_space, fast, n_members=3)
    return product, coupling


def test_slowfast_apply_has_the_two_scale_block_structure():
    product, coupling = slowfast_fixture()
    H = slowfast_hamiltonian(product, 4.0, coupling)
    rng = np.random.default_rng(10)
    v = rng.uniform(-1, 1, 24)
    V = v.reshape(8, 3)
    expected = np.empty_like(V)
    for z in range(3):
        expected[:, z] = coupling.multipliers[z] * coupling.slow.apply_values(V[:, z])
    expected += 4.0 * V @ coupling.fast_rate_matrix.T
    assert np.allclose(H.apply_values(v), expected.reshape(-1))
    assert np.abs(H.jacobian(v) - fd_jacobian(H.apply_values, v)).max() < 1e-5


def test_slowfast_jacobian_is_sparse_and_matches_the_dense_block_assembly():
    product, coupling = slowfast_fixture()
    n = 4.0
    H = slowfast_hamiltonian(product, n, coupling)
    v = np.random.default_rng(13).uniform(-1, 1, 24)
    J = H.jacobian(v)
    assert sp.issparse(J) and J.format == "csr"
    # dense reference: the fast chain on 3x3 diagonal blocks, plus each fast
    # state's slow Jacobian scattered onto the states (x, z), x = 0..7
    want = n * np.kron(np.eye(8), coupling.fast_rate_matrix)
    V = v.reshape(8, 3)
    for z, m_z in enumerate(coupling.multipliers):
        idx = np.arange(8) * 3 + z
        want[np.ix_(idx, idx)] += m_z * coupling.slow.jacobian(V[:, z]).toarray()
    assert np.array_equal(J.toarray(), want)


@pytest.mark.parametrize("dense_slow", [linear_generator, tilt_linear])
def test_slowfast_jacobian_over_a_dense_slow_jacobian_is_csr(dense_slow):
    product, coupling = slowfast_fixture()
    # a slow operator whose Jacobian is a dense ndarray, with a zero entry
    A_slow = random_rate_matrix(np.random.default_rng(14), 8)
    A_slow[0, 0] += A_slow[0, 2]
    A_slow[0, 2] = 0.0
    coupling = replace(coupling, slow=dense_slow(A_slow, coupling.slow.space))
    n = 4.0
    H = slowfast_hamiltonian(product, n, coupling)
    v = np.random.default_rng(13).uniform(-1, 1, 24)
    J = H.jacobian(v)
    assert_on_declared_pattern(J, H)
    want = n * np.kron(np.eye(8), coupling.fast_rate_matrix)
    V = v.reshape(8, 3)
    for z, m_z in enumerate(coupling.multipliers):
        J_z = coupling.slow.jacobian(V[:, z])
        assert isinstance(J_z, np.ndarray)
        idx = np.arange(8) * 3 + z
        want[np.ix_(idx, idx)] += m_z * J_z
    assert np.array_equal(J.toarray(), want)
    # the dense blocks are stored whole, so entries that vanish at some v
    # (exp underflow in the tilt) keep the pattern fixed
    with np.errstate(over="ignore", invalid="ignore"):
        J_far = H.jacobian(np.linspace(0.0, 2000.0, 24))
    assert_on_declared_pattern(J_far, H)


@given(
    st.integers(2, 4),
    st.integers(3, 24),  # the product sequence's compact levels need 3 slow points
    st.integers(0, 3),
    st.floats(0.5, 64.0),
    st.floats(0.01, 10.0),
    st.booleans(),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_slowfast_jacobian_gives_the_reference_newton_matrix(
    n_fast, n_slow, zero_at, n, lam, cycle, seed
):
    # a rate matrix with zero off-diagonal entries (a cycle) or without,
    # and one fast state decoupled from the slow part by m_z = 0
    rng = np.random.default_rng(seed)
    s, dx, v_slow, b = tie_case(n_slow, seed, 0.3)
    A_fast = cycle_matrix(n_fast, 1.5) if cycle else random_rate_matrix(rng, n_fast)
    m = rng.uniform(0.1, 2.0, n_fast)
    m[zero_at % n_fast] = 0.0
    coupling = SlowFastCoupling(
        slow=upwind_quadratic(s, b), fast_rate_matrix=A_fast, multipliers=tuple(m)
    )
    fast = FiniteSpace(coords=np.arange(float(n_fast)), name="fast")
    H = slowfast_hamiltonian(make_product_sequence(s, fast, n_members=3), n, coupling)
    v = np.repeat(v_slow, n_fast) + rng.uniform(-0.1, 0.1, n_slow * n_fast)
    J = H.jacobian(v)
    assert_on_declared_pattern(J, H)
    J_ref = jacobian_reference.slowfast(
        partial(jacobian_reference.upwind, b, dx), A_fast, coupling.multipliers, n, v
    )
    assert np.array_equal(J.toarray(), J_ref.toarray())
    assert_same_newton_matrix(J, J_ref, lam)


def product_hamiltonian(slow, n_fast, n, seed):
    rng = np.random.default_rng(seed)
    fast = FiniteSpace(coords=np.arange(float(n_fast)), name="fast")
    coupling = SlowFastCoupling(
        slow=slow, fast_rate_matrix=random_rate_matrix(rng, n_fast),
        multipliers=tuple(rng.uniform(0.1, 2.0, n_fast)),
    )
    return slowfast_hamiltonian(make_product_sequence(slow.space, fast, n_members=3), n, coupling)


def jacobian_case(kind, n_slow, seed):
    """A Jacobian of the given kind at random values: a grid scheme's, or a
    slow-fast product's over an upwind (sparse) or tilted (dense) slow part."""
    s, dx, v, b = tie_case(n_slow, seed, 0.3)
    if kind in ("upwind", "centered"):
        build = upwind_quadratic if kind == "upwind" else centered_quadratic
        return build(s, b).jacobian(v)
    if kind == "product":
        slow = upwind_quadratic(s, b)
    else:
        slow = tilt_linear(random_rate_matrix(np.random.default_rng(seed), n_slow), s)
    H = product_hamiltonian(slow, 3, 4.0, seed)
    return H.jacobian(np.repeat(v, 3) + np.random.default_rng(seed).uniform(-0.1, 0.1, 3 * n_slow))


@pytest.mark.parametrize("kind", ["upwind", "centered", "product", "dense_product"])
@given(
    st.integers(3, 24),
    st.one_of(st.floats(0.01, 10.0), st.integers(-6, 6).map(lambda k: 2.0**k)),
    st.floats(0.0, 0.5),
    st.integers(0, 2**16),
)
@example(8, 0.25, 0.3, 0)
@settings(max_examples=40, deadline=None)
def test_newton_matrix_is_the_reference_subtraction(kind, n_slow, lam, zero_share, seed):
    rng = np.random.default_rng(seed)
    J = jacobian_case(kind, n_slow, seed)
    pattern = _NewtonPattern.of((J.indptr, J.indices))
    # explicit zeros, and a stored diagonal J_ii = 1 / lam, so 1 - lam * J_ii
    # is 0 exactly when lam is a power of two: the reference's sparse
    # subtraction drops both kinds of zero from I - lam * J
    J2 = J.copy()
    J2.data = rng.uniform(-3.0, 3.0, J.nnz)
    J2.data[rng.random(J.nnz) < zero_share] = 0.0
    diag = np.flatnonzero(J2.indices == np.repeat(np.arange(J.shape[0]), np.diff(J.indptr)))
    if diag.size:
        J2.data[rng.choice(diag)] = 1.0 / lam
    for M in (J, J2):
        got = pattern.newton_matrix(M, lam)
        want = jacobian_reference.newton_matrix(M, lam)
        assert got.format == "csc" and got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_newton_matrix_drops_an_exact_zero_diagonal():
    J = sp.csr_matrix(np.array([[4.0, 0.0, 1.0], [0.0, 0.5, 0.0], [2.0, 0.0, 0.0]]))
    J.data[J.data == 1.0] = 0.0  # an explicit zero off the diagonal
    A = _NewtonPattern.of((J.indptr, J.indices)).newton_matrix(J, 0.25)
    # 1 - 0.25 * 4 == 0 at (0, 0) and the explicit zero at (0, 2) are dropped;
    # (2, 2), where J stores nothing, gets the bare diagonal 1
    assert A.nnz == 3
    assert np.array_equal(A.toarray(), [[0.0, 0.0, 0.0], [0.0, 0.875, 0.0], [-0.5, 0.0, 1.0]])


def test_slowfast_newton_solve_matches_the_reference_jacobian_bit_for_bit():
    slow_space = unit_grid(64, "slow")
    b = drift_sin(slow_space, 0.4)
    fast = FiniteSpace(coords=np.arange(3.0), name="fast")
    A_fast = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    coupling = SlowFastCoupling(
        slow=upwind_quadratic(slow_space, b), fast_rate_matrix=A_fast,
        multipliers=(0.5, 1.0, 1.5),
    )
    n = 8.0
    H = slowfast_hamiltonian(make_product_sequence(slow_space, fast, n_members=3), n, coupling)
    dx = float(np.diff(slow_space.coords[:, 0])[0])
    jac_ref = partial(
        jacobian_reference.slowfast, partial(jacobian_reference.upwind, b, dx),
        A_fast, coupling.multipliers, n,
    )
    # the reference Jacobian's values, written onto the declared pattern
    indptr, indices = H.jacobian_pattern
    rows = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))

    def on_pattern(v):
        data = np.asarray(jac_ref(v)[rows, indices]).ravel()
        return sp.csr_matrix((data, indices, indptr), shape=(v.shape[0], v.shape[0]))

    H_ref = replace(H, jacobian=on_pattern)
    h = np.repeat(0.3 * np.cos(2.0 * np.pi * slow_space.coords[:, 0]), 3)
    f, diag = _solve(H, 1.0, h, 1e-10)
    f_ref, diag_ref = _solve(H_ref, 1.0, h, 1e-10)
    assert diag.method == diag_ref.method == "newton"
    assert diag.iterations == diag_ref.iterations > 0
    assert np.array_equal(f, f_ref)


def test_slowfast_rejects_nonpositive_coupling_and_bad_multipliers():
    product, coupling = slowfast_fixture()
    with pytest.raises(PreconditionError):
        slowfast_hamiltonian(product, 0.0, coupling)
    with pytest.raises(PreconditionError, match="multiplier"):
        SlowFastCoupling(
            slow=coupling.slow,
            fast_rate_matrix=coupling.fast_rate_matrix,
            multipliers=(1.0, 1.0),
        )


def test_averaged_slowfast_scales_by_the_stationary_average():
    product, coupling = slowfast_fixture()
    H_bar = averaged_slowfast_hamiltonian(coupling)
    pi = stationary_distribution(coupling.fast_rate_matrix)
    c_bar = float(pi @ np.array(coupling.multipliers))
    v = np.random.default_rng(12).uniform(-1, 1, 8)
    assert np.allclose(H_bar.apply_values(v), c_bar * coupling.slow.apply_values(v))
    assert H_bar.space is coupling.slow.space
    assert H_bar.name == "slowfast_averaged"
    # and so does its declared Jacobian pattern
    assert H_bar.jacobian_pattern is coupling.slow.jacobian_pattern
    # the slow operator's Howard solver survives the averaging
    assert H_bar.custom_solver is not None
    h = Fn(H_bar.space, 0.3 * v)
    f_howard, diag = solve_resolvent(ResolventFamily(hamiltonian=H_bar), 1.0, h)
    f_newton = ResolventFamily(hamiltonian=replace(H_bar, custom_solver=None)).solve(1.0, h)
    assert diag.method == "custom"
    assert np.abs(f_howard.values - f_newton.values).max() < 1e-10
