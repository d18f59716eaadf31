"""Extended limits of operator sequences, envelope experiments on grid
refinements, and slow-fast averaging."""

import numpy as np
import pytest

from conftest import unit_grid
from oracles import limit_reference
from hjlab import (
    FiniteSpace,
    Fn,
    FnSequence,
    OperatorSequence,
    PreconditionError,
    ResolventFamily,
    SlowFastCoupling,
    StructuralError,
    barles_perthame_envelopes,
    centered_quadratic,
    check_ex_lim,
    check_ex_sublim,
    check_ex_superlim,
    graph_from_hamiltonian,
    lift_to_members,
    make_grid_sequence,
    make_product_sequence,
    resolvent_convergence_experiment,
    slowfast_resolvent_experiment,
    trig_polynomial,
    upwind_quadratic,
)


def drift(space, amp):
    return amp * np.sin(2.0 * np.pi * space.coords[:, 0])


def grid_fixture(scheme, resolutions, amp):
    seq = make_grid_sequence((0.0, 1.0), resolutions)
    members = tuple(scheme(m, drift(m, amp)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, amp))
    return seq, members, limit


def test_operator_sequence_needs_one_member_per_space():
    seq, members, limit = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    with pytest.raises(ValueError, match="one member operator per member space"):
        OperatorSequence(spaces=seq, members=members[:2])


def test_ex_lim_accepts_consistent_witnesses():
    seq, members, limit = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    op_seq = OperatorSequence(
        spaces=seq, members=members, limit_hamiltonian=limit
    )
    f_lim = trig_polynomial(seq.limit, [0.0, 0.2])
    g_lim = limit(f_lim)
    f_seq = lift_to_members(f_lim, seq)
    # the coarsest member carries ~0.7 of scheme consistency error; burn it in
    rep = check_ex_lim(op_seq, (f_lim, g_lim), f_seq, None, tol=0.5, n0=1)
    assert rep.passed
    assert rep.f_verdict.passed and rep.g_verdict.passed
    # explicit member images pass the membership gate
    g_seq = FnSequence(seq, tuple(H(f) for H, f in zip(members, f_seq.members)))
    assert check_ex_lim(op_seq, (f_lim, g_lim), f_seq, g_seq, tol=0.5, n0=1).passed


def test_ex_lim_rejects_pairs_outside_the_member_operator():
    seq, members, limit = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    op_seq = OperatorSequence(
        spaces=seq, members=members, limit_hamiltonian=limit
    )
    f_lim = trig_polynomial(seq.limit, [0.0, 0.2])
    f_seq = lift_to_members(f_lim, seq)
    images = [H(f) for H, f in zip(members, f_seq.members)]
    corrupted = images[1].values.copy()
    corrupted[0] += 1e-3
    g_seq = FnSequence(
        seq, (images[0], Fn(images[1].space, corrupted), images[2])
    )
    with pytest.raises(StructuralError, match="witness pair 1 is not in the member"):
        check_ex_lim(op_seq, (f_lim, limit(f_lim)), f_seq, g_seq, tol=0.5)


def test_one_sided_extended_limits_hold_for_the_upwind_refinement():
    seq, members, limit = grid_fixture(upwind_quadratic, [32, 64, 128], 0.5)
    op_seq = OperatorSequence(
        spaces=seq, members=members, limit_hamiltonian=limit
    )
    phi = trig_polynomial(seq.limit, [0.0, 0.3])
    psi = limit(phi)
    f_seq = lift_to_members(phi, seq)
    sub = check_ex_sublim(op_seq, (phi, psi), f_seq, tol=1.0)
    assert sub.passed and sub.kind == "sub"
    assert len(sub.truncation) == 5
    assert all(t["passed"] for t in sub.truncation)
    assert np.isfinite(sub.g_bound)
    gated = [r for r in sub.sequence_records if r["gated"]]
    assert gated and all(r["margin"] >= 0.0 for r in gated)

    sup = check_ex_superlim(op_seq, (phi, psi), f_seq, tol=1.0)
    assert sup.passed and sup.kind == "super"
    assert sup.g_bound <= sub.g_bound



def test_one_sided_records_match_the_per_sequence_reference():
    # grids as in the limits reference test: nearest points are unique
    seq = make_grid_sequence(
        (0.0, 1.0), [5, 15, 45], q_widths=(0.4, 0.7), limit_resolution_factor=3, n0=1
    )
    members = tuple(upwind_quadratic(m, drift(m, 0.5)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, 0.5))
    op_seq = OperatorSequence(spaces=seq, members=members)
    phi = trig_polynomial(seq.limit, [0.0, 0.3], [0.2])
    psi = limit(phi)
    f_seq = lift_to_members(phi, seq)
    f_values = [f.values.tolist() for f in f_seq.members]
    g_values = [H(f).values.tolist() for H, f in zip(members, f_seq.members)]
    tol = 0.05
    for sub, check in ((True, check_ex_sublim), (False, check_ex_superlim)):
        bundle = check(op_seq, (phi, psi), f_seq, tol=tol)
        ref = limit_reference.one_sided_records(
            seq, f_values, g_values, phi.values.tolist(), psi.values.tolist(),
            tol, 1, sub,
        )
        assert bundle.sequence_records == tuple(ref)
        # the fixture reaches every branch: ungated, passing and failing rows
        assert {(r["gated"], r["passed"]) for r in ref} == {
            (False, True), (True, True), (True, False)
        }


def test_envelope_preconditions_reject_biased_data():
    seq, members, _ = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    families = [ResolventFamily(hamiltonian=H) for H in members]
    h = trig_polynomial(seq.limit, [0.0, 0.2])
    over = lift_to_members(Fn(seq.limit, h.values + 0.2), seq)
    with pytest.raises(PreconditionError, match="LIMSUP of the data exceeds"):
        barles_perthame_envelopes(families, over, 0.25, h, pre_tol=0.05)
    under = lift_to_members(Fn(seq.limit, h.values - 0.2), seq)
    with pytest.raises(PreconditionError, match="undershoots"):
        barles_perthame_envelopes(families, under, 0.25, h, pre_tol=0.05)


def test_envelopes_collapse_under_grid_refinement():
    seq, members, _ = grid_fixture(upwind_quadratic, [32, 64, 128], 0.5)
    families = [ResolventFamily(hamiltonian=H) for H in members]
    h = trig_polynomial(seq.limit, [0.0, 0.2])
    rep = barles_perthame_envelopes(families, lift_to_members(h, seq), 0.25, h, 0.05)
    # bound calibrated by tests/oracles/envelope_fixtures.py
    assert rep.max_separation <= 0.021
    assert set(rep.separation_per_level) == set(seq.compacts.labels)
    assert len(rep.solutions.members) == 3
    assert all(s >= 0.0 for s in rep.separation_per_level.values())


def positive_op_seq():
    seq, members, limit = grid_fixture(upwind_quadratic, [32, 64, 128], 0.5)
    graph_probes = [
        trig_polynomial(seq.limit, [0.0, 0.3]),
        trig_polynomial(seq.limit, [0.0], [0.2]),
    ]
    return seq, OperatorSequence(
        spaces=seq,
        members=members,
        limit_hamiltonian=limit,
        limit_dagger=graph_from_hamiltonian(limit, graph_probes, kind="dagger"),
        limit_ddagger=graph_from_hamiltonian(limit, graph_probes, kind="ddagger"),
    )


def test_upwind_refinement_passes_the_full_convergence_chain():
    # all bounds calibrated by tests/oracles/envelope_fixtures.py
    seq, op_seq = positive_op_seq()
    D = [
        trig_polynomial(seq.limit, [0.0, 0.2]),
        trig_polynomial(seq.limit, [0.1], [0.15]),
    ]
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25, 1.0), tol_lim=0.05, tol_envelope=4.0 / 128,
        tol_witness=1.0,
    )
    assert rep.passed and rep.expectation == "converge"
    assert all(r["passed"] and r["norm_preserved"] for r in rep.lifting)
    assert len(rep.witness_bundles) == 4
    assert all(b["passed"] for b in rep.witness_bundles)
    assert all(
        v["sub_passed"] and v["super_passed"] for v in rep.member_viscosity
    )
    assert len(rep.envelope_cases) == 4
    for case in rep.envelope_cases:
        assert case["envelopes_coincide"]
        assert case["max_separation"] <= 0.021
        assert case["lim_passed"]
        assert case["lim_worst_dev"] <= 0.022
    assert rep.equicontinuity.ok
    assert rep.equicontinuity.q_hat in seq.compacts.labels
    assert rep.limit_identity.passed
    assert rep.limit_identity.worst_residual <= 1e-8
    assert rep.notes == ()


def test_centered_scheme_separates_the_envelopes():
    seq, members, limit = grid_fixture(centered_quadratic, [64, 128, 256], 0.75)
    graph_probes = [trig_polynomial(seq.limit, [0.0, 0.3])]
    op_seq = OperatorSequence(
        spaces=seq,
        members=members,
        limit_hamiltonian=limit,
        limit_dagger=graph_from_hamiltonian(limit, graph_probes, kind="dagger"),
        limit_ddagger=graph_from_hamiltonian(limit, graph_probes, kind="ddagger"),
    )
    D = [trig_polynomial(seq.limit, [0.0, 0.0, 0.2])]
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25,), tol_lim=0.05, tol_envelope=4.0 / 256,
        expectation="separate",
    )
    assert rep.passed and rep.expectation == "separate"
    # calibrated: the non-monotone scheme splits the envelopes wide open
    assert rep.envelope_cases[0]["max_separation"] >= 0.5
    assert any("separation detected" in n for n in rep.notes)
    # and its solutions are not viscosity solutions of their own equations
    fails = [
        v for v in rep.member_viscosity if not (v["sub_passed"] and v["super_passed"])
    ]
    assert len(rep.member_viscosity) == 3
    assert len(fails) == 3


def test_experiment_rejects_unknown_expectations():
    seq, members, _ = grid_fixture(upwind_quadratic, [4, 8, 16], 0.0)
    op_seq = OperatorSequence(spaces=seq, members=members)
    with pytest.raises(PreconditionError, match="expectation"):
        resolvent_convergence_experiment(
            op_seq, [], lambdas=[], tol_lim=0.1, tol_envelope=0.1,
            expectation="sideways",
        )


def slowfast_fixture(n_members):
    slow_space = unit_grid(16, "slow")
    fast = FiniteSpace(coords=np.arange(3.0), name="fast")
    slow = upwind_quadratic(slow_space, drift(slow_space, 0.4))
    A_fast = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    coupling = SlowFastCoupling(
        slow=slow, fast_rate_matrix=A_fast, multipliers=(0.5, 1.0, 1.5)
    )
    product = make_product_sequence(slow_space, fast, n_members=n_members)
    h = trig_polynomial(slow_space, [0.0, 0.3])
    return product, coupling, h


def test_slowfast_oscillation_decays_and_averages():
    product, coupling, h = slowfast_fixture(7)
    rep = slowfast_resolvent_experiment(
        product, coupling, couplings=[1, 2, 4, 8, 16, 32, 64], lam=1.0,
        h_slow=h, tol_deviation=5e-2,
    )
    assert rep.passed
    assert rep.decay_order >= 0.8
    assert rep.final_deviation <= 5e-2
    assert len(rep.oscillations) == 7
    # oscillation in the fast coordinate dies as the coupling strengthens
    assert rep.oscillations[-1] < 0.1 * rep.oscillations[0]
    assert rep.notes == ()


def test_slowfast_requires_one_coupling_per_member():
    product, coupling, h = slowfast_fixture(3)
    with pytest.raises(PreconditionError, match="one coupling strength per member"):
        slowfast_resolvent_experiment(
            product, coupling, couplings=[1, 2], lam=1.0, h_slow=h,
            tol_deviation=5e-2,
        )
