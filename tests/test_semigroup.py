"""Iterated-resolvent semigroups against exact flows, trend fits, and the
zero-operator density check."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import chain, unit_grid
from oracles import semigroup_reference
from hjlab import (
    Fn,
    OperatorSequence,
    PreconditionError,
    ResolventFamily,
    convergence_in_n,
    crandall_liggett,
    density_check_zero_operator,
    fit_loglog_slope,
    linear_generator,
    linear_semigroup_oracle,
    logexp_oracle,
    lift_to_members,
    make_grid_sequence,
    random_rate_matrix,
    semigroup_convergence_experiment,
    solve_resolvent,
    tilt_linear,
    trig_polynomial,
    upwind_quadratic,
)

# frozen by tests/oracles/two_state_flow.py (independent scipy computation);
# rerun that script to regenerate
TWO_STATE_A = np.array([[-0.6, 0.6], [0.4, -0.4]])
TWO_STATE_F0 = np.array([0.3, -0.2])
TWO_STATE_U_STAR = np.array([0.13838415, -0.04811358])
TWO_STATE_ERRS = {
    16: 3.271981455557e-03,
    64: 8.353961921494e-04,
    256: 2.099620214072e-04,
}


def two_state_family():
    s = chain(2)
    return ResolventFamily(hamiltonian=tilt_linear(TWO_STATE_A, s)), s


def test_two_state_iteration_matches_the_frozen_flow_oracle():
    family, s = two_state_family()
    u_star = logexp_oracle(TWO_STATE_A, 1.0, TWO_STATE_F0)
    assert np.abs(u_star - TWO_STATE_U_STAR).max() <= 1e-8
    errs = {}
    for n, frozen in TWO_STATE_ERRS.items():
        approx = crandall_liggett(family, 1.0, n, Fn(s, TWO_STATE_F0))
        errs[n] = float(np.abs(approx.result.values - u_star).max())
        assert errs[n] == pytest.approx(frozen, abs=1e-9)
        assert approx.lam == pytest.approx(1.0 / n)
        assert approx.worst_residual <= family.tol_residual
    # one extra halving of the step size per quadrupling of n: first order
    assert 3.5 <= errs[16] / errs[64] <= 4.5
    assert 3.5 <= errs[64] / errs[256] <= 4.5
    assert errs[256] <= 2.2e-4


def test_logexp_oracle_is_a_semigroup_and_shift_equivariant():
    rng = np.random.default_rng(11)
    A = random_rate_matrix(rng, 5)
    f = rng.uniform(-1, 1, 5)
    for s in (0.3, 0.7, 1.1):
        for t in (0.3, 0.7, 1.1):
            direct = logexp_oracle(A, s + t, f)
            composed = logexp_oracle(A, s, logexp_oracle(A, t, f))
            assert np.abs(direct - composed).max() <= 1e-9
    shifted = logexp_oracle(A, 0.7, f + 3.0)
    assert np.abs(shifted - (logexp_oracle(A, 0.7, f) + 3.0)).max() <= 1e-9


def test_logexp_oracle_rejects_an_underflowed_intermediate():
    # a reducible chain concentrates all expm weight on the underflowed state
    A = np.array([[0.0, 0.0], [1.0, -1.0]])
    with pytest.raises(PreconditionError, match="nonpositive intermediate"):
        logexp_oracle(A, 1.0, np.array([-800.0, 0.0]))


def test_linear_semigroup_oracle_matches_the_matrix_exponential():
    from scipy.linalg import expm

    rng = np.random.default_rng(12)
    A = random_rate_matrix(rng, 4)
    f = rng.uniform(-1, 1, 4)
    assert np.allclose(linear_semigroup_oracle(A, 0.8, f), expm(0.8 * A) @ f)
    with pytest.raises(PreconditionError):
        linear_semigroup_oracle(np.ones((2, 2)), 1.0, np.zeros(2))


def test_crandall_liggett_preconditions_and_zero_time():
    family, s = two_state_family()
    f = Fn(s, TWO_STATE_F0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        crandall_liggett(family, -1.0, 4, f)
    with pytest.raises(PreconditionError, match="at least one step"):
        crandall_liggett(family, 1.0, 0, f)
    with pytest.raises(PreconditionError, match="wrong space"):
        crandall_liggett(family, 1.0, 4, Fn(chain(2), TWO_STATE_F0))
    frozen = crandall_liggett(family, 0.0, 4, f)
    assert frozen.result is not f
    assert np.array_equal(frozen.result.values, f.values)
    assert frozen.total_iterations == 0 and frozen.methods == ()


@pytest.mark.parametrize("path", ["fixed_point", "custom", "newton"])
def test_crandall_liggett_steps_bypass_the_solve_cache(path):
    if path == "custom":
        s = unit_grid(32)
        H = upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0]))
        t, n = 0.5, 4
    else:
        s = chain(6)
        H = tilt_linear(random_rate_matrix(np.random.default_rng(5), 6), s)
        # L is about 49: lam * L below 0.9 takes the fixed point, above it Newton
        t, n = (0.5, 64) if path == "fixed_point" else (1.0, 2)
    f = Fn(s, 0.3 * np.cos(2.0 * np.pi * np.arange(s.size) / s.size))
    family = ResolventFamily(hamiltonian=H)
    approx = crandall_liggett(family, t, n, f)
    assert approx.methods == (path,)
    assert family._cache == {}
    composed, stepper = f, ResolventFamily(hamiltonian=H)
    for _ in range(n):
        composed, _ = solve_resolvent(stepper, t / n, composed)
    assert np.array_equal(approx.result.values, composed.values)


def carry_case(path):
    """(H, t, n_steps, initial values) reaching one solve path per step."""
    if path == "custom":
        s = unit_grid(32)
        H = upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0]))
        return H, 0.5, 4, 0.3 * np.cos(2.0 * np.pi * s.coords[:, 0])
    s = chain(10)
    A = random_rate_matrix(np.random.default_rng(0), 10)
    f = np.random.default_rng(1).uniform(-1.0, 1.0, 10)
    if path == "linear":
        # L is about 14: lam = 1/64 iterates the fixed point
        return linear_generator(A, s), 1.0, 64, f
    H = tilt_linear(A, s)
    if path == "stall":
        # a Lipschitz bound far below the truth sends every step to the fixed
        # point; where lam * H is expansive near the data, the fixed point
        # stalls and hands over to Newton, and later steps converge by it again
        return replace(H, lipschitz_bound=1e-3), 1.0, 14, f
    # L is about 103: lam * L below 0.9 takes the fixed point, above it Newton
    return H, 1.0, (128 if path == "fixed_point" else 4), f


@pytest.mark.parametrize(
    "path, methods",
    [
        ("fixed_point", ("fixed_point",)),
        ("stall", ("fixed_point", "fixed_point+newton")),
        ("newton", ("newton",)),
        ("custom", ("custom",)),
        ("linear", ("fixed_point",)),
    ],
)
def test_crandall_liggett_equals_the_earlier_loop_bit_for_bit(path, methods):
    # each step hands its lam * H f to the next; the earlier loop applied H to
    # the same values again at the start of every step
    H, t, n, f = carry_case(path)
    family = ResolventFamily(hamiltonian=H)
    approx = crandall_liggett(family, t, n, Fn(H.space, f))
    want, total, worst, want_methods = semigroup_reference.crandall_liggett(
        H, family.tol_residual, t, n, f
    )
    assert approx.methods == want_methods == methods
    assert approx.total_iterations == total > n
    assert approx.worst_residual == worst
    assert np.array_equal(approx.result.values, want)


@pytest.mark.parametrize("path", ["fixed_point", "linear"])
def test_fixed_point_steps_apply_H_once_per_iteration_plus_once(path):
    # one application for the first step's start; every later step starts
    # from the lam * H f its predecessor computed for its last residual
    H, t, n, f = carry_case(path)
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return H.apply_values(v)

    family = ResolventFamily(hamiltonian=replace(H, apply_values=counted))
    approx = crandall_liggett(family, t, n, Fn(H.space, f))
    assert approx.methods == ("fixed_point",)
    assert calls == approx.total_iterations + 1


def test_fixed_point_runs_hide_the_overflow_they_hand_over_to_newton():
    # the run's steps share one np.errstate: an exp overflow at a step's start
    # hands it over to Newton without a numpy warning, as in a single solve
    H, _, _, _ = carry_case("stall")
    f = np.random.default_rng(1).uniform(-50.0, 50.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx = crandall_liggett(ResolventFamily(hamiltonian=H), 0.4, 2, Fn(H.space, f))
    assert "fixed_point+newton" in approx.methods
    # the steps as single solves
    composed, stepper, total = Fn(H.space, f), ResolventFamily(hamiltonian=H), 0
    for _ in range(2):
        composed, diag = solve_resolvent(stepper, 0.2, composed)
        total += diag.iterations
    assert approx.total_iterations == total
    assert np.array_equal(approx.result.values, composed.values)


def test_convergence_in_n_oracle_and_self_modes():
    family, s = two_state_family()
    f = Fn(s, TWO_STATE_F0)
    u_star = logexp_oracle(TWO_STATE_A, 1.0, TWO_STATE_F0)
    rep = convergence_in_n(family, 1.0, f, [16, 64, 256], oracle_values=u_star, tol=3e-4)
    assert rep.passed and rep.mode == "oracle"
    assert rep.final == pytest.approx(TWO_STATE_ERRS[256], abs=1e-9)
    assert -1.3 <= rep.slope <= -0.7
    assert rep.notes == ()

    rep_self = convergence_in_n(family, 1.0, f, [16, 64, 256])
    assert rep_self.mode == "self"
    assert len(rep_self.deviations) == 2
    assert rep_self.passed

    # a repeated count would compare an approximation with itself in self
    # mode and pass on a deviation of exactly 0
    for n_list in ([64, 16], [4, 4], [4, 16, 16]):
        with pytest.raises(PreconditionError, match="strictly increasing"):
            convergence_in_n(family, 1.0, f, n_list)


def test_convergence_in_n_flags_non_monotone_deviations():
    family, s = two_state_family()
    f = Fn(s, TWO_STATE_F0)
    # pinning the oracle to an intermediate approximation forces the
    # deviations through zero and back up
    mid = crandall_liggett(family, 1.0, 64, f).result.values
    rep = convergence_in_n(family, 1.0, f, [16, 64, 256], oracle_values=mid)
    assert not rep.passed
    assert any("not monotone" in n for n in rep.notes)


def test_fit_loglog_slope_recovers_a_power_law():
    ns = np.array([8.0, 16.0, 32.0, 64.0])
    assert fit_loglog_slope(ns, 3.0 * ns**-1.25) == pytest.approx(-1.25, abs=1e-12)
    assert np.isnan(fit_loglog_slope([8, 16], [0.1, 0.0]))


def density_family(n=8, seed=13):
    s = chain(n)
    A = random_rate_matrix(np.random.default_rng(seed), n, scale=0.5)
    family = ResolventFamily(hamiltonian=tilt_linear(A, s))
    h = Fn(s, 0.3 * np.cos(2.0 * np.pi * np.arange(n) / n))
    return family, h


def test_zero_operator_density_shrinks_with_lambda():
    family, h = density_family()
    lam_seq = [2.0**-k for k in range(7)]
    verdict = density_check_zero_operator(family, h, lam_seq, tol=0.1)
    assert verdict.passed
    devs = verdict.per_level["all"]["deviations"]
    assert all(b <= a + 1e-11 for a, b in zip(devs[:-1], devs[1:]))
    assert devs[-1] <= 0.1
    assert verdict.uniform_bound == pytest.approx(h.norm)
    assert verdict.notes == ()


def test_zero_operator_density_rejects_bad_lambda_grids():
    family, h = density_family()
    with pytest.raises(PreconditionError, match="strictly decreasing"):
        density_check_zero_operator(family, h, [1.0, 1.0], tol=0.1)
    with pytest.raises(PreconditionError, match="positive"):
        density_check_zero_operator(family, h, [1.0, -0.5], tol=0.1)


def upwind_op_seq(seq, amp):
    """Upwind members and limit with drift amp * sin 2 pi x."""
    def upwind(space):
        return upwind_quadratic(space, amp * np.sin(2.0 * np.pi * space.coords[:, 0]))

    return OperatorSequence(seq, tuple(upwind(m) for m in seq.members), upwind(seq.limit))


def test_semigroup_values_converge_across_a_grid_sequence():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64])
    f_limit = trig_polynomial(seq.limit, [0.0, 0.2])
    rep = semigroup_convergence_experiment(
        upwind_op_seq(seq, 0.3), t=0.5, f_limit=f_limit, tol=0.05
    )
    assert rep.passed
    assert rep.verdict.passed
    assert len(rep.member_steps) == 3
    assert rep.limit_steps >= 16
    assert rep.notes == ()


def test_semigroup_experiment_fails_when_a_member_never_settles():
    # a strong drift on coarse members needs more than n_cap = 16 steps; the
    # limit and the converged values still agree, so only settling can fail
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64], n0=1)
    rep = semigroup_convergence_experiment(
        upwind_op_seq(seq, 3.0), t=0.5,
        f_limit=trig_polynomial(seq.limit, [0.0, 0.2]), tol=0.05, n_cap=16,
    )
    assert rep.verdict.passed
    assert not rep.passed
    assert "member 0: step doubling hit the cap before settling" in rep.notes
