"""Sub/supersolution checks on hand-computed fixtures, optimizing sequences,
and the comparison / perturbation / identification lemmas around them."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain
from oracles import viscosity_reference
from hjlab import (
    ExtFn,
    Fn,
    OperatorGraph,
    PreconditionError,
    ResolventFamily,
    build_Hhat,
    check_comparison,
    check_subsolution,
    check_supersolution,
    find_optimizing_sequence,
    identification_bound,
    perturb_subsolution,
    random_rate_matrix,
    tilt_linear,
)
from hjlab.viscosity import _check_solution

S3 = chain(3)
H0 = Fn(S3, np.zeros(3))


def dagger(f, g, space=S3):
    return OperatorGraph(
        space=space, pairs=((Fn(space, f), Fn(space, g)),), kind="dagger"
    )


def test_subsolution_on_a_worked_example():
    # u - f = [0.5, -0.8, -2.0]: unique maximizer x=0, and there
    # u - lam*g - h = 0.5 - 1.0 = -0.5
    G = dagger([0.0, 1.0, 2.0], [1.0, 0.0, -1.0])
    u = Fn(S3, [0.5, 0.2, 0.0])
    rep = check_subsolution(u, G, H0, lam=1.0)
    assert rep.passed and rep.kind == "subsolution"
    p = rep.per_pair[0]
    assert p["witness_x"] == 0 and p["n_ties"] == 1
    assert p["gap"] == pytest.approx(0.5)
    assert p["slack"] == pytest.approx(-0.5)
    assert rep.failing_pairs() == ()

    # shrinking g at the maximizer flips the sign of the slack
    bad = check_subsolution(u, dagger([0.0, 1.0, 2.0], [0.2, 0.0, -1.0]), H0, 1.0)
    assert not bad.passed
    assert bad.failing_pairs()[0]["slack"] == pytest.approx(0.3)
    assert bad.failing_pairs()[0]["witness_x"] == 0


def test_supersolution_mirrors_with_minimizers():
    # u - f = [-0.5, 0.8, 2.0]: unique minimizer x=0, slack 0.5 >= 0
    G = OperatorGraph(
        space=S3,
        pairs=((Fn(S3, [0.0, -1.0, -2.0]), Fn(S3, [-1.0, 0.0, 1.0])),),
        kind="ddagger",
    )
    u = Fn(S3, [-0.5, -0.2, 0.0])
    rep = check_supersolution(u, G, H0, lam=1.0)
    assert rep.passed and rep.kind == "supersolution"
    p = rep.per_pair[0]
    assert p["witness_x"] == 0
    assert p["gap"] == pytest.approx(-0.5)
    assert p["slack"] == pytest.approx(0.5)

    G2 = OperatorGraph(
        space=S3,
        pairs=((Fn(S3, [0.0, -1.0, -2.0]), Fn(S3, [0.6, 0.0, 1.0])),),
        kind="ddagger",
    )
    assert not check_supersolution(u, G2, H0, lam=1.0).passed


def test_one_good_tied_maximizer_suffices():
    # ties at x=0 and x=1; the inequality only holds at x=0
    u = Fn(S3, [1.0, 1.0, 0.0])
    f = [0.0, 0.0, 1.0]
    rep = check_subsolution(u, dagger(f, [5.0, -1.0, 0.0]), H0, lam=1.0)
    assert rep.passed
    assert rep.per_pair[0]["n_ties"] == 2
    assert rep.per_pair[0]["witness_x"] == 0
    assert rep.per_pair[0]["slack"] == pytest.approx(1.0 - 5.0)
    # no tie works: both slacks positive
    assert not check_subsolution(u, dagger(f, [-1.0, -2.0, 0.0]), H0, 1.0).passed


def test_tie_tolerance_admits_near_maximizers():
    u = Fn(S3, [1.0, 1.0 - 1e-13, 0.0])
    G = dagger([0.0, 0.0, 1.0], [-1.0, 5.0, 0.0])
    # within the default tie_tol the near-tie at x=1 rescues the check
    assert check_subsolution(u, G, H0, lam=1.0).passed
    strict = check_subsolution(u, G, H0, lam=1.0, tie_tol=0.0)
    assert not strict.passed
    assert strict.per_pair[0]["n_ties"] == 1


def test_extended_value_conventions():
    u = Fn(S3, [0.5, 0.2, 0.0])
    # infinite gap (only reachable with a lopsided graph): pair is skipped
    G_skip = OperatorGraph(
        space=S3,
        pairs=((ExtFn(S3, [-np.inf, 0.0, 0.0]), Fn(S3, np.zeros(3))),),
        kind="ddagger",
    )
    rep = check_subsolution(u, G_skip, H0, lam=1.0)
    assert rep.passed
    assert rep.per_pair[0]["skipped"]
    # u - f identically -inf: vacuous pass with a note
    G_vac = OperatorGraph(
        space=S3,
        pairs=((ExtFn(S3, [np.inf] * 3), Fn(S3, np.zeros(3))),),
        kind="dagger",
    )
    rep = check_subsolution(u, G_vac, H0, lam=1.0)
    assert rep.passed and not rep.per_pair[0]["skipped"]
    assert any("vacuous" in n for n in rep.notes)
    # equal infinities never cancel
    u_inf = np.array([-np.inf, 0.2, 0.0])
    with pytest.raises(PreconditionError, match="equal infinities"):
        check_subsolution(u_inf, G_skip, H0, lam=1.0)


def test_candidate_and_lambda_preconditions():
    G = dagger([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(PreconditionError, match="bounded above"):
        check_subsolution(np.array([np.inf, 0.0, 0.0]), G, H0, lam=1.0)
    G2 = OperatorGraph(space=S3, pairs=G.pairs, kind="ddagger")
    with pytest.raises(PreconditionError, match="bounded below"):
        check_supersolution(np.array([-np.inf, 0.0, 0.0]), G2, H0, lam=1.0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        check_subsolution(Fn(S3, np.zeros(3)), G, H0, lam=-1.0)


def test_zero_lambda_keeps_infinities_in_g():
    # at lam=0 a g = -inf at the maximizer still poisons the inequality,
    # because 0 * (-inf) stays -inf instead of vanishing
    u = Fn(S3, [-0.5, -1.0, -2.0])
    G = dagger([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert check_subsolution(u, G, H0, lam=0.0).passed
    G_inf = OperatorGraph(
        space=S3,
        pairs=((Fn(S3, [0.0, 1.0, 2.0]), ExtFn(S3, [-np.inf, 0.0, 0.0])),),
        kind="dagger",
    )
    rep = check_subsolution(u, G_inf, H0, lam=0.0)
    assert not rep.passed
    assert rep.per_pair[0]["slack"] == np.inf


def test_enlarged_graphs_route_witnesses_through_gamma():
    base = chain(2)
    enlarged = chain(4)
    gamma = np.array([0, 0, 1, 1])
    u = Fn(base, [0.3, 0.0])
    h = Fn(base, np.zeros(2))
    f = Fn(base, [0.0, 1.0])

    def enlarged_graph(gvals, gm=gamma):
        return OperatorGraph(
            space=base, enlarged_space=enlarged, gamma=gm,
            pairs=((f, Fn(enlarged, gvals)),), kind="dagger",
        )

    # base maximizer x=0 lifts to ties y in {0, 1}; only y=0 satisfies
    rep = check_subsolution(u, enlarged_graph([0.5, -0.3, 0.2, 0.1]), h, lam=1.0)
    assert rep.passed
    assert rep.per_pair[0]["n_ties"] == 2
    assert rep.per_pair[0]["witness_y"] == 0
    assert rep.per_pair[0]["witness_x"] == 0
    # both lifted ties fail
    rep = check_subsolution(u, enlarged_graph([0.1, 0.2, 0.9, 0.9]), h, lam=1.0)
    assert not rep.passed
    assert rep.per_pair[0]["witness_y"] == 1
    # gamma that never reaches the maximizer: flagged, not silently passed
    rep = check_subsolution(
        u, enlarged_graph([0.5, 0.5, 0.5, 0.5], gm=np.ones(4, dtype=int)), h, 1.0
    )
    assert not rep.passed
    assert rep.per_pair[0]["slack"] == np.inf
    assert any("not reachable" in n for n in rep.notes)


def test_spiked_solution_fails_with_the_spike_as_witness():
    n, lam, j = 6, 0.5, 3
    s = chain(n)
    rng = np.random.default_rng(7)
    family = ResolventFamily(hamiltonian=tilt_linear(random_rate_matrix(rng, n), s))
    h = Fn(s, rng.uniform(-0.5, 0.5, n))
    G, _ = build_Hhat(family, [lam], [h])
    u = family.solve(lam, h)
    assert check_subsolution(u, G, h, lam, tol=1e-8).passed
    spiked = u.values.copy()
    spiked[j] += 0.5
    rep = check_subsolution(Fn(s, spiked), G, h, lam, tol=1e-8)
    assert not rep.passed
    bad = rep.failing_pairs()[0]
    assert bad["witness_x"] == j
    assert bad["slack"] == pytest.approx(0.5, abs=1e-9)


def test_optimizing_sequence_without_an_interior_floor():
    # g is unbounded below near 0 yet the sequence still optimizes f
    xs = np.arange(1, 1001) / 1000.0
    f = -((xs - 0.3) ** 2)
    g = np.log(xs)
    rep = find_optimizing_sequence(f, g, 0.5 ** np.arange(10), tol_f=1e-2, tol_g=1e-2)
    assert rep.passed
    assert rep.sup_f == pytest.approx(0.0)
    assert rep.f_gap_final <= 1e-2
    assert rep.g_tail_max <= 1e-2
    # maximizers of f - eps*g attain the shifted sup exactly on a finite set,
    # so the construction margin is eps^2 on the nose
    assert np.allclose(rep.construction_margins, rep.eps_grid**2)
    # large eps parks the maximizer at the log singularity; shrinking eps
    # releases it toward the maximizer of f
    assert rep.indices[0] == 0
    assert abs(xs[rep.indices[-1]] - 0.3) <= 0.02


def test_optimizing_sequence_dominates_nan_collisions():
    f = np.array([-np.inf, 0.0, -0.1])
    g = np.array([-np.inf, -0.5, 0.0])
    rep = find_optimizing_sequence(f, g, [0.5, 0.25], tol_f=1e-9, tol_g=1.0)
    # (-inf) - eps*(-inf) is treated as -inf, never optimal
    assert 0 not in rep.indices
    assert np.all(rep.indices == 1)


def test_optimizing_sequence_preconditions():
    f = np.array([0.0, -1.0])
    g = np.array([0.0, 0.0])
    with pytest.raises(PreconditionError, match="strictly decreasing"):
        find_optimizing_sequence(f, g, [0.1, 0.1])
    with pytest.raises(PreconditionError, match="positive"):
        find_optimizing_sequence(f, g, [0.1, -0.05])
    with pytest.raises(PreconditionError, match="sup f must be finite"):
        find_optimizing_sequence(np.array([np.inf, 0.0]), g, [0.1])
    with pytest.raises(PreconditionError, match="infinite at eps"):
        find_optimizing_sequence(f, np.array([0.0, -np.inf]), [0.1])
    with pytest.raises(PreconditionError, match="exceeds"):
        find_optimizing_sequence(np.array([0.0, 1.0]), np.array([0.0, 5.0]), [0.5])


def test_comparison_bound():
    u = np.array([0.5, 0.0, -np.inf])
    v = np.array([0.0, 0.2, 0.0])
    h1 = Fn(S3, [0.6, 0.0, 0.0])
    h2 = Fn(S3, np.zeros(3))
    rep = check_comparison(u, v, h1, h2)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(0.6)
    assert rep.excess == pytest.approx(-0.1)
    assert not check_comparison(u, v, Fn(S3, [0.3, 0.0, 0.0]), h2).passed


def test_perturbation_keeps_the_subsolution_property():
    n, lam, eps = 5, 1.0, 0.4
    s = chain(n)
    rng = np.random.default_rng(8)
    family = ResolventFamily(hamiltonian=tilt_linear(random_rate_matrix(rng, n), s))
    h = Fn(s, rng.uniform(-0.5, 0.5, n))
    u = family.solve(lam, h)
    G, _ = build_Hhat(family, [lam], [h])
    h_eps = perturb_subsolution(u, h, lam, eps)
    assert np.allclose(h_eps.values, u.values - (eps / lam) * (u.values - h.values))
    assert check_subsolution(u, G, h_eps, eps, tol=1e-9).passed
    # eps = lam returns the original equation
    assert np.allclose(perturb_subsolution(u, h, lam, lam).values, h.values)
    for bad in (0.0, lam + 0.1):
        with pytest.raises(PreconditionError, match="0 < eps <= lam"):
            perturb_subsolution(u, h, lam, bad)


def test_identification_bound_both_directions():
    s = chain(2)
    f0 = Fn(s, [1.0, 0.0])
    g0 = Fn(s, [0.5, -0.5])
    below = Fn(s, f0.values - 0.1)
    rep = identification_bound(f0, g0, below, eps=0.5, direction="sub")
    assert rep.precondition_ok and rep.bound_holds
    assert rep.max_excess == pytest.approx(-0.1)
    above = Fn(s, f0.values + 0.1)
    rep = identification_bound(f0, g0, above, eps=0.5, direction="super")
    assert rep.precondition_ok and rep.bound_holds
    assert rep.max_excess == pytest.approx(-0.1)
    # a candidate that is not a subsolution: precondition failure, no bound
    rep = identification_bound(f0, g0, above, eps=0.5, direction="sub")
    assert not rep.precondition_ok
    assert rep.bound_holds is None and rep.max_excess is None
    assert not rep.viscosity.passed
    with pytest.raises(PreconditionError, match="direction"):
        identification_bound(f0, g0, below, eps=0.5, direction="sideways")


# values drawn from a small set so that exact ties, ties within tie_tol and
# infinite gaps all occur
_VALUES = [-1.0, -0.5, 0.0, 1e-13, 0.5, 1.0]
_INF = [np.inf, -np.inf]


def _ext(space, draw, n, allowed_inf):
    vals = draw(st.lists(st.sampled_from(_VALUES + allowed_inf), min_size=n, max_size=n))
    return ExtFn(space, vals)


@st.composite
def viscosity_case(draw):
    n = draw(st.integers(1, 5))
    base = chain(n)
    kind = draw(st.sampled_from(["dagger", "ddagger"]))
    f_inf, g_inf = ([np.inf], [-np.inf]) if kind == "dagger" else ([-np.inf], [np.inf])
    if draw(st.booleans()):
        m = draw(st.integers(1, 7))
        enlarged = chain(m, name=f"enlarged{m}")
        # gamma need not be onto: some optima are unreachable
        gamma = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        pairs = tuple((_ext(base, draw, n, f_inf), _ext(enlarged, draw, m, g_inf))
                      for _ in range(draw(st.integers(0, 4))))
        G = OperatorGraph(space=base, enlarged_space=enlarged,
                          gamma=np.array(gamma), pairs=pairs, kind=kind)
    else:
        pairs = tuple((_ext(base, draw, n, f_inf), _ext(base, draw, n, g_inf))
                      for _ in range(draw(st.integers(0, 4))))
        G = OperatorGraph(space=base, pairs=pairs, kind=kind)
    u = draw(st.sampled_from([Fn, ExtFn, "array"]))
    u_vals = draw(st.lists(st.sampled_from(_VALUES + (_INF if u != Fn else [])),
                           min_size=n, max_size=n))
    u = np.array(u_vals) if u == "array" else u(base, u_vals)
    h = _ext(base, draw, n, _INF) if draw(st.booleans()) else Fn(
        base, draw(st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n)))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    tie_tol = draw(st.sampled_from([0.0, 1e-12, 0.6]))
    return u, G, h, lam, tol, tie_tol, draw(st.booleans())


def _outcome(check, case):
    try:
        rep = check(*case)
    except PreconditionError as exc:
        return ("raised", str(exc))
    # repr is exact for floats, tells -0.0 from 0.0, and shows numpy scalars
    return (rep.kind, rep.passed, repr(rep.per_pair), rep.notes)


def _all_inf_slack(sub):
    # lam = 0 keeps g's infinities, so both ties (x = 1, 2) have an infinite
    # slack; x = 0 is not a tie but comes first
    u = Fn(S3, [-1.0, 0.0, 0.0] if sub else [1.0, 0.0, 0.0])
    inf = -np.inf if sub else np.inf
    G = OperatorGraph(space=S3, pairs=((Fn(S3, np.zeros(3)), ExtFn(S3, [0.0, inf, inf])),),
                      kind="dagger" if sub else "ddagger")
    return u, G, H0, 0.0, 1e-9, 1e-12, sub


@given(case=viscosity_case())
@example(case=_all_inf_slack(True))
@example(case=_all_inf_slack(False))
@settings(max_examples=400, deadline=None)
def test_vectorised_check_matches_the_per_pair_reference(case):
    ref = _outcome(viscosity_reference.check_solution, case)
    got = _outcome(_check_solution, case)
    assert got == ref
    u, G, *rest = case
    if G.enlarged_space is G.space:
        # a plain graph checks as the same graph with its identity
        # enlargement spelled out
        G_id = OperatorGraph(space=G.space, pairs=G.pairs, kind=G.kind,
                             enlarged_space=G.space, gamma=np.arange(G.space.size))
        assert _outcome(_check_solution, (u, G_id, *rest)) == got
