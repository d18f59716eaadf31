"""Extended limits of operator sequences, envelope experiments on grid
refinements, and slow-fast averaging."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import per_level_counts, reduce_records, unit_grid
from oracles import limit_reference
from hjlab import (
    FiniteSpace,
    Fn,
    FnSequence,
    Hamiltonian,
    OperatorSequence,
    PreconditionError,
    ResolventFamily,
    SlowFastCoupling,
    averaged_slowfast_hamiltonian,
    barles_perthame_envelopes,
    centered_quadratic,
    check_LIM,
    check_ex_lim,
    check_ex_sublim,
    check_ex_superlim,
    graph_from_hamiltonian,
    lift_to_members,
    make_grid_sequence,
    make_product_sequence,
    random_rate_matrix,
    resolvent_convergence_experiment,
    slowfast_hamiltonian,
    slowfast_resolvent_experiment,
    trig_polynomial,
    upwind_quadratic,
)
from hjlab import convergence, resolvent


def drift(space, amp):
    return amp * np.sin(2.0 * np.pi * space.coords[:, 0])


def grid_fixture(scheme, resolutions, amp):
    seq = make_grid_sequence((0.0, 1.0), resolutions)
    members = tuple(scheme(m, drift(m, amp)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, amp))
    return seq, members, limit


def images(members, f_seq):
    """The member images H_n f_n that pair with f_seq into witnesses."""
    return FnSequence(f_seq.spaces, tuple(H(f) for H, f in zip(members, f_seq.members)))


def test_operator_sequence_needs_one_member_per_space():
    seq, members, limit = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    with pytest.raises(ValueError, match="one member operator per member space"):
        OperatorSequence(spaces=seq, members=members[:2])


def test_ex_lim_accepts_consistent_witnesses():
    seq, members, limit = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    f_lim = trig_polynomial(seq.limit, [0.0, 0.2])
    g_lim = limit(f_lim)
    f_seq = lift_to_members(f_lim, seq)
    g_seq = images(members, f_seq)
    # the coarsest member carries ~0.7 of scheme consistency error: it fails
    # from n0 = 0 and passes once the sequence burns it in
    assert not check_ex_lim((f_lim, g_lim), f_seq, g_seq, tol=0.5).passed
    late = replace(seq, n0=1)
    rep = check_ex_lim(
        (f_lim, g_lim), FnSequence(late, f_seq.members), FnSequence(late, g_seq.members), tol=0.5
    )
    assert rep.passed
    assert rep.f_verdict.passed and rep.g_verdict.passed
    assert rep.f_verdict.n0 == rep.g_verdict.n0 == 1


def test_one_sided_extended_limits_hold_for_the_upwind_refinement():
    seq, members, limit = grid_fixture(upwind_quadratic, [32, 64, 128], 0.5)
    phi = trig_polynomial(seq.limit, [0.0, 0.3])
    psi = limit(phi)
    f_seq = lift_to_members(phi, seq)
    g_seq = images(members, f_seq)
    sub = check_ex_sublim((phi, psi), f_seq, g_seq, tol=1.0)
    assert sub.passed and sub.kind == "sub"
    assert len(sub.truncation) == 5
    assert all(t["passed"] for t in sub.truncation)
    assert np.isfinite(sub.g_bound)
    gated = [lv for lv in sub.per_level.values() if lv["gated"]]
    assert gated and all(lv["worst_margin"] >= 0.0 and lv["failed"] == 0 for lv in gated)
    assert all((lv["per_member_margin"] >= 0.0).all() for lv in gated)

    sup = check_ex_superlim((phi, psi), f_seq, g_seq, tol=1.0)
    assert sup.passed and sup.kind == "super"
    assert sup.g_bound <= sub.g_bound



def test_one_sided_records_match_the_per_sequence_reference():
    # grids as in the limits reference test: nearest points are unique
    seq = make_grid_sequence(
        (0.0, 1.0), [5, 15, 45], q_widths=(0.4, 0.7), limit_resolution_factor=3, n0=1
    )
    members = tuple(upwind_quadratic(m, drift(m, 0.5)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, 0.5))
    phi = trig_polynomial(seq.limit, [0.0, 0.3], [0.2])
    psi = limit(phi)
    f_seq = lift_to_members(phi, seq)
    g_seq = images(members, f_seq)
    f_values = [f.values.tolist() for f in f_seq.members]
    g_values = [g.values.tolist() for g in g_seq.members]
    tol = 0.05
    for sub, check in ((True, check_ex_sublim), (False, check_ex_superlim)):
        bundle = check((phi, psi), f_seq, g_seq, tol=tol)
        ref = limit_reference.one_sided_records(
            seq, f_values, g_values, phi.values.tolist(), psi.values.tolist(),
            tol, 1, sub,
        )
        assert per_level_counts(bundle.per_level) == reduce_records(ref)
        # the fixture reaches every branch: ungated, passing and failing rows
        assert {(r["gated"], r["passed"]) for r in ref} == {
            (False, True), (True, True), (True, False)
        }


def test_truncation_matches_check_LIM_on_truncated_copies():
    seq = make_grid_sequence(
        (0.0, 1.0), [5, 15, 45], q_widths=(0.4, 0.7), limit_resolution_factor=3, n0=1
    )
    members = tuple(upwind_quadratic(m, drift(m, 0.5)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, 0.5))
    phi = trig_polynomial(seq.limit, [0.0, 0.3], [0.2])
    f_seq = lift_to_members(phi, seq)
    g_seq = images(members, f_seq)
    for sub, check, clip in (
        (True, check_ex_sublim, np.minimum), (False, check_ex_superlim, np.maximum)
    ):
        bundle = check((phi, limit(phi)), f_seq, g_seq, tol=0.05)
        outcomes = set()
        for t in bundle.truncation:
            copies = FnSequence(
                seq, tuple(Fn(f.space, clip(f.values, t["c"])) for f in f_seq.members)
            )
            v = check_LIM(copies, Fn(seq.limit, clip(phi.values, t["c"])), 0.05)
            worst = max(r["worst_dev"] for r in v.per_level.values())
            assert (t["passed"], t["worst_dev"]) == (v.passed, worst)
            outcomes.add(v.passed)
        # the fixture reaches both verdicts
        assert outcomes == {True, False}
        assert "truncated limits failed" in bundle.notes


def solved(members, h_seq, lam):
    """The solution sequence R_n(lam) h_n of the member operators."""
    return FnSequence(h_seq.spaces, tuple(
        ResolventFamily(hamiltonian=H).solve(lam, h) for H, h in zip(members, h_seq.members)
    ))


def test_envelope_preconditions_reject_biased_data():
    seq, members, _ = grid_fixture(upwind_quadratic, [16, 32, 64], 0.3)
    h = trig_polynomial(seq.limit, [0.0, 0.2])
    over = lift_to_members(Fn(seq.limit, h.values + 0.2), seq)
    with pytest.raises(PreconditionError, match="LIMSUP of the data exceeds"):
        barles_perthame_envelopes(solved(members, over, 0.25), over, h, pre_tol=0.05)
    under = lift_to_members(Fn(seq.limit, h.values - 0.2), seq)
    with pytest.raises(PreconditionError, match="undershoots"):
        barles_perthame_envelopes(solved(members, under, 0.25), under, h, pre_tol=0.05)


def test_envelopes_collapse_under_grid_refinement():
    seq, members, _ = grid_fixture(upwind_quadratic, [32, 64, 128], 0.5)
    h = trig_polynomial(seq.limit, [0.0, 0.2])
    h_seq = lift_to_members(h, seq)
    rep = barles_perthame_envelopes(solved(members, h_seq, 0.25), h_seq, h, 0.05)
    # bound calibrated by tests/oracles/envelope_fixtures.py
    assert rep.max_separation <= 0.021
    assert set(rep.separation_per_level) == set(seq.compacts.labels)
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


def test_the_experiment_solves_each_family_once(monkeypatch):
    # one solve_all call per member family and one for the limit family,
    # each a Howard stack, and one test graph per member, which every
    # problem's subsolution check reads
    calls = {"solve_all": 0}
    graphs = []
    solve_all, check_sub = ResolventFamily.solve_all, convergence.check_subsolution

    def counted_solve_all(self, problems):
        calls["solve_all"] += 1
        return solve_all(self, problems)

    def recorded_check_sub(u, graph, *args, **kwargs):
        graphs.append(graph)
        return check_sub(u, graph, *args, **kwargs)

    def one_row(*args, **kwargs):
        raise AssertionError("a problem was solved outside its family's stack")

    monkeypatch.setattr(ResolventFamily, "solve_all", counted_solve_all)
    monkeypatch.setattr(convergence, "check_subsolution", recorded_check_sub)
    monkeypatch.setattr(resolvent, "_solve", one_row)
    seq, op_seq = positive_op_seq()
    D = [trig_polynomial(seq.limit, [0.0, 0.2]), trig_polynomial(seq.limit, [0.1], [0.15])]
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25,), tol_lim=0.05, tol_envelope=4.0 / 128,
    )
    assert rep.passed
    assert calls == {"solve_all": seq.n_members + 1}
    assert len(graphs) == len(D) * seq.n_members
    assert len({id(g) for g in graphs}) == seq.n_members


@pytest.mark.parametrize("tol_witness", [None, 1.0])
def test_the_experiment_forms_each_witness_pair_once(monkeypatch, tol_witness):
    # the dagger and ddagger graphs share their two first components, so the
    # witness checks and the member test graphs read one witness pair
    # (phi_n, H_n phi_n) per component: 2 x 3 member applications, with or
    # without the checks (forming the pairs per check took 18 with them)
    seq, op_seq = positive_op_seq()
    applied = []
    call = Hamiltonian.__call__

    def counted_call(self, f):
        if any(self is H for H in op_seq.members):
            applied.append(f)
        return call(self, f)

    monkeypatch.setattr(Hamiltonian, "__call__", counted_call)
    D = [trig_polynomial(seq.limit, [0.0, 0.2]), trig_polynomial(seq.limit, [0.1], [0.15])]
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25,), tol_lim=0.05, tol_envelope=4.0 / 128,
        tol_witness=tol_witness,
    )
    assert rep.passed
    assert len(rep.witness_bundles) == (0 if tol_witness is None else 4)
    assert len(applied) == 2 * seq.n_members


def test_experiment_rejects_unknown_expectations(monkeypatch):
    # before any lift or solve
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment started work")

    monkeypatch.setattr(convergence, "lift_to_members", no_work)
    monkeypatch.setattr(resolvent, "_solve", no_work)
    seq, op_seq = positive_op_seq()
    D = [trig_polynomial(seq.limit, [0.0, 0.2])]
    with pytest.raises(PreconditionError, match="expectation"):
        resolvent_convergence_experiment(
            op_seq, D, lambdas=(0.25,), tol_lim=0.05, tol_envelope=4.0 / 128,
            tol_witness=1.0, expectation="sideways",
        )


def slowfast_op_seq(slow, A_fast, multipliers, couplings):
    """The slow-fast sequence over the slow Hamiltonian: one product member
    per coupling strength, with the averaged Hamiltonian as the limit."""
    coupling = SlowFastCoupling(slow=slow, fast_rate_matrix=A_fast, multipliers=multipliers)
    fast = FiniteSpace(coords=np.arange(float(A_fast.shape[0])), name="fast")
    product = make_product_sequence(slow.space, fast, n_members=len(couplings))
    members = tuple(slowfast_hamiltonian(product, n, coupling) for n in couplings)
    return OperatorSequence(product, members, averaged_slowfast_hamiltonian(coupling))


def slowfast_fixture(couplings):
    slow_space = unit_grid(16, "slow")
    slow = upwind_quadratic(slow_space, drift(slow_space, 0.4))
    A_fast = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]])
    op_seq = slowfast_op_seq(slow, A_fast, (0.5, 1.0, 1.5), couplings)
    h = trig_polynomial(slow_space, [0.0, 0.3])
    return op_seq, h


def test_slowfast_oscillation_decays_and_averages():
    couplings = [1, 2, 4, 8, 16, 32, 64]
    op_seq, h = slowfast_fixture(couplings)
    rep = slowfast_resolvent_experiment(
        op_seq, couplings=couplings, lam=1.0, h=h, tol_deviation=5e-2,
    )
    assert rep.passed
    assert rep.decay_order >= 0.8
    assert rep.final_deviation <= 5e-2
    assert len(rep.oscillations) == 7
    # oscillation in the fast coordinate dies as the coupling strengthens
    assert rep.oscillations[-1] < 0.1 * rep.oscillations[0]
    assert rep.notes == ()


def test_slowfast_requires_one_coupling_per_member():
    op_seq, h = slowfast_fixture([1, 2, 4])
    with pytest.raises(PreconditionError, match="one coupling strength per member"):
        slowfast_resolvent_experiment(
            op_seq, couplings=[1, 2], lam=1.0, h=h,
            tol_deviation=5e-2,
        )


@pytest.mark.parametrize("n_slow, n_fast, seed", [(16, 1, 0), (16, 2, 1), (24, 3, 2)])
def test_slowfast_fibre_readings_equal_the_reshape_formulas(n_slow, n_fast, seed):
    # the oscillation max_x (max_z V - min_z V) and the deviation
    # max |V - ubar[:, None]| of V = u.reshape(n_slow, n_fast), read from
    # one-problem solves, bit for bit; one fast state has multiplier 0 when
    # there are several
    rng = np.random.default_rng(seed)
    slow_space = unit_grid(n_slow, "slow")
    slow = upwind_quadratic(slow_space, drift(slow_space, 0.4))
    m = rng.uniform(0.5, 1.5, n_fast)
    if n_fast > 1:
        m[seed % n_fast] = 0.0
    couplings = [1.0, 2.0, 4.0]
    op_seq = slowfast_op_seq(slow, random_rate_matrix(rng, n_fast), tuple(m), couplings)
    h = trig_polynomial(slow_space, [0.1, 0.3, -0.2])
    rep = slowfast_resolvent_experiment(op_seq, couplings, lam=0.5, h=h, tol_deviation=1.0)
    h_n = lift_to_members(h, op_seq.spaces).members
    oscs = []
    for H, h_k in zip(op_seq.members, h_n):
        V = ResolventFamily(hamiltonian=H).solve(0.5, h_k).values.reshape(n_slow, n_fast)
        oscs.append(float((V.max(axis=1) - V.min(axis=1)).max()))
    u_bar = ResolventFamily(hamiltonian=op_seq.limit_hamiltonian).solve(0.5, h)
    assert rep.oscillations == tuple(oscs)
    assert rep.final_deviation == float(np.abs(V - u_bar.values[:, None]).max())


def test_slowfast_experiment_refuses_members_that_are_not_enlarged_points():
    # a grid sequence's members are coarser than its (trivially enlarged)
    # limit grid, so they have no fibres over it
    seq, op_seq = positive_op_seq()
    with pytest.raises(PreconditionError, match="points of the enlarged limit"):
        slowfast_resolvent_experiment(
            op_seq, couplings=[1.0] * seq.n_members, lam=1.0,
            h=trig_polynomial(seq.limit, [0.0, 0.2]), tol_deviation=1.0,
        )
