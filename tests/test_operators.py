"""Shipped Hamiltonians, operator graphs, and their structural checks."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain, unit_grid
from oracles import howard_reference
from hjlab import (
    ExtFn,
    Fn,
    OperatorGraph,
    PreconditionError,
    ResolventFamily,
    SlowFastCoupling,
    averaged_slowfast_hamiltonian,
    centered_quadratic,
    check_degenerate_elliptic,
    check_dissipative,
    graph_from_hamiltonian,
    linear_generator,
    make_product_sequence,
    random_rate_matrix,
    scale_graph,
    scale_hamiltonian,
    slowfast_hamiltonian,
    solve_resolvent,
    stationary_distribution,
    tilt_linear,
    trig_polynomial,
    upwind_quadratic,
)
from hjlab.operators import validate_rate_matrix


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
    assert H.monotone
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
    assert H.monotone


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
    assert not H.monotone
    J = H.jacobian(v).toarray()
    assert np.abs(J - fd_jacobian(H.apply_values, v)).max() < 1e-6


def test_grid_schemes_require_uniform_grids_and_matching_drift():
    bad = np.array([0.0, 0.1, 0.5])
    s = unit_grid(8)
    from hjlab import FiniteSpace

    nonuniform = FiniteSpace(points=(0, 1, 2), coords=bad)
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


def test_scale_graph_preserves_infinities_at_zero():
    s = unit_grid(4)
    f = Fn(s, np.zeros(4))
    g = ExtFn(s, np.array([1.0, np.inf, 2.0, 0.0]))
    G = OperatorGraph(space=s, pairs=((f, g),), kind="ddagger")
    G0 = scale_graph(0.0, G)
    scaled = G0.pairs[0][1].values
    assert scaled[1] == np.inf
    assert np.all(scaled[[0, 2, 3]] == 0.0)
    with pytest.raises(PreconditionError):
        scale_graph(-0.5, G)


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

    fast = FiniteSpace(points=(0, 1, 2), coords=np.arange(3.0), name="fast")
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
    # the slow operator's Howard solver survives the averaging
    assert H_bar.custom_solver is not None
    h = Fn(H_bar.space, 0.3 * v)
    f_howard, diag = solve_resolvent(ResolventFamily(hamiltonian=H_bar), 1.0, h)
    f_newton = ResolventFamily(hamiltonian=replace(H_bar, custom_solver=None)).solve(1.0, h)
    assert diag.method == "custom"
    assert np.abs(f_howard.values - f_newton.values).max() < 1e-10
