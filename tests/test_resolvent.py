"""Resolvent solves against oracles, family identities, and the Hhat graph."""

import importlib.util
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import banded_product, chain, unit_grid
from hjlab import (
    Fn,
    FnSequence,
    Hamiltonian,
    PreconditionError,
    ResolventFamily,
    SolverError,
    build_Hhat,
    check_contractive,
    check_pseudo_resolvent_identity,
    estimate_equicontinuity,
    lift_to_members,
    linear_generator,
    make_grid_sequence,
    random_rate_matrix,
    solve_resolvent,
    tilt_linear,
    trig_polynomial,
    upwind_quadratic,
)
from hjlab import centered_quadratic, resolvent
from oracles import equicontinuity_reference, newton_reference


def exact_stack_solver(A):
    """A custom solver for H f = A f: every row of the stack solved exactly,
    in one iteration."""
    n = A.shape[0]

    def solve(lam, h, f0, tol):
        f = np.array([np.linalg.solve(np.eye(n) - lam_i * A, h_i) for lam_i, h_i in zip(lam, h)])
        return f, len(lam), np.zeros(len(lam)), np.ones(len(lam), dtype=int)

    return solve


def tilted_family(n=10, seed=0):
    s = chain(n)
    A = random_rate_matrix(np.random.default_rng(seed), n)
    return ResolventFamily(hamiltonian=tilt_linear(A, s)), s


def test_linear_resolvent_matches_the_dense_solve():
    rng = np.random.default_rng(42)
    for trial in range(5):
        n = int(rng.integers(3, 21))
        s = chain(n)
        A = random_rate_matrix(rng, n)
        family = ResolventFamily(hamiltonian=linear_generator(A, s))
        lam = float(rng.uniform(0.05, 2.0))
        h = Fn(s, rng.uniform(-1, 1, n))
        got = family.solve(lam, h)
        oracle = np.linalg.solve(np.eye(n) - lam * A, h.values)
        assert np.abs(got.values - oracle).max() < 1e-9


def test_constant_rhs_is_a_fixed_point_of_the_upwind_resolvent():
    s = unit_grid(64)
    H = upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0]))
    family = ResolventFamily(hamiltonian=H)
    c = Fn(s, np.full(64, 0.7))
    got, diag = solve_resolvent(family, 1.0, c)
    assert np.abs(got.values - 0.7).max() < 1e-10
    assert diag.method == "custom"


def test_solves_are_cached_by_lambda_and_rhs():
    family, s = tilted_family()
    h = Fn(s, np.random.default_rng(1).uniform(-1, 1, 10))
    first, diag = solve_resolvent(family, 0.5, h)
    assert not diag.from_cache
    second, diag = solve_resolvent(family, 0.5, h)
    assert diag.from_cache
    assert second is first
    # a different rhs misses the cache
    _, diag = solve_resolvent(family, 0.5, Fn(s, h.values * 0.99))
    assert not diag.from_cache


def test_method_auto_picks_fixed_point_inside_the_contraction_regime():
    family, s = tilted_family()
    L = family.hamiltonian.lipschitz_bound
    h = Fn(s, 0.3 * np.ones(10))
    _, diag = solve_resolvent(family, 0.5 / L, h)
    assert diag.method.startswith("fixed_point")
    _, diag = solve_resolvent(family, 10.0 / L, Fn(s, 0.3 * np.ones(10)))
    assert diag.method.startswith("newton")


def test_fixed_point_applies_H_once_per_iteration():
    tilted, s = tilted_family()
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return tilted.hamiltonian.apply_values(v)

    H = replace(tilted.hamiltonian, apply_values=counted)
    h = Fn(s, np.random.default_rng(2).uniform(-1, 1, 10))
    _, diag = solve_resolvent(ResolventFamily(hamiltonian=H), 0.5 / H.lipschitz_bound, h)
    assert diag.method == "fixed_point" and diag.iterations > 1
    # H f_k serves iterate k's residual and the update to f_{k+1}
    assert calls == diag.iterations + 1


def test_fixed_point_equals_the_earlier_iteration_bit_for_bit():
    tilted, s = tilted_family()
    H = tilted.hamiltonian
    h = np.random.default_rng(3).uniform(-1, 1, 10)
    for lam in (0.1 / H.lipschitz_bound, 0.8 / H.lipschitz_bound):
        got = resolvent._fixed_point(H, lam, h, h, 1e-12)
        want = newton_reference.fixed_point(H, lam, h, h, 1e-12)
        assert got[1:4] == want[1:] and got[1] > 1
        assert np.array_equal(got[0], want[0])
        # the fifth value is lam * H of the returned iterate
        assert np.array_equal(got[4], lam * H.apply_values(got[0]))


def test_centered_newton_solve_equals_the_earlier_step_bit_for_bit():
    # the negative control's finest member: sparse Newton on 1024 points
    s = unit_grid(1024)
    H = centered_quadratic(s, trig_polynomial(s, [], [0.75]).values)
    h = trig_polynomial(s, [0.0, 0.0, 0.2]).values
    f, its, res = resolvent._damped_newton(H, 0.25, h, h, 1e-10)
    f_ref, its_ref, res_ref = newton_reference.damped_newton(H, 0.25, h, h, 1e-10)
    assert its == its_ref > 1 and res == res_ref
    assert np.array_equal(f, f_ref)


@pytest.mark.parametrize("n_slow", [3, 4, 5, 16, 384])
@pytest.mark.parametrize("n_fast", [1, 2, 3])
def test_banded_newton_solve_follows_the_superlu_step(n_slow, n_fast):
    # the folded band LU and SuperLU round differently, but on the slow-fast
    # product their Newton iterates stay within an ulp of each other
    H, h = banded_product(n_slow, n_fast, n_slow + n_fast)
    f, its, res = resolvent._damped_newton(H, 1.0, h, h, 1e-10)
    f_ref, its_ref, res_ref = newton_reference.damped_newton(H, 1.0, h, h, 1e-10)
    assert its == its_ref > 0 and res <= 1e-10
    assert np.abs(f - f_ref).max() <= 1e-15


def test_solve_rejects_bad_lambda_and_wrong_space():
    family, s = tilted_family()
    h = Fn(s, np.zeros(10))
    with pytest.raises(PreconditionError, match="positive"):
        family.solve(0.0, h)
    with pytest.raises(PreconditionError, match="space"):
        family.solve(1.0, Fn(chain(10), np.zeros(10)))


def test_newton_residuals_meet_the_family_tolerance():
    tilted, s = tilted_family()
    # without a Lipschitz bound every solve takes the Newton path
    H = replace(tilted.hamiltonian, lipschitz_bound=None)
    family = ResolventFamily(hamiltonian=H, tol_residual=1e-12)
    rng = np.random.default_rng(2)
    for lam in (0.1, 1.0, 5.0):
        h = Fn(s, rng.uniform(-1, 1, 10))
        f = family.solve(lam, h)
        res = np.abs(f.values - lam * H.apply_values(f.values) - h.values).max()
        assert res <= 1e-12


def test_newton_restarts_when_large_data_overflow_the_start():
    # sup-norm 400 data: differences up to 800 overflow exp at the start f0 = h
    n = 50
    s = chain(n)
    A = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
    H = tilt_linear(A, s)
    h = Fn(s, np.random.default_rng(0).uniform(-400.0, 400.0, n))
    for lam in (0.1, 1.0, 10.0):
        f, diag = solve_resolvent(ResolventFamily(hamiltonian=H), lam, h)
        assert diag.method == "newton"
        res = np.abs(f.values - lam * H.apply_values(f.values) - h.values).max()
        assert res <= 1e-10


def test_fixed_point_hands_over_to_newton_at_the_first_non_finite_residual():
    # a Lipschitz bound far below the true one keeps large data on the fixed
    # point, whose exp overflows; a nan residual must not read as progress
    # and run the iteration to its cap before Newton takes over; the overflow
    # is caught, so numpy's warnings about it are noise and must not show
    tilted, s = tilted_family()
    H = replace(tilted.hamiltonian, lipschitz_bound=1e-3)
    rng = np.random.default_rng(1)
    for bound in (5.0, 20.0, 50.0):
        h = rng.uniform(-bound, bound, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, diag = resolvent._solve(H, 0.2, h, 1e-10)
        assert diag.method == "fixed_point+newton"
        assert diag.iterations < 50
        assert np.abs(f - 0.2 * H.apply_values(f) - h).max() <= 1e-10


def test_newton_without_a_jacobian_is_a_precondition_error():
    s = chain(4)
    H = Hamiltonian(space=s, apply_values=lambda v: -v, name="no_jacobian")
    with pytest.raises(PreconditionError, match="Jacobian"):
        ResolventFamily(hamiltonian=H).solve(1.0, Fn(s, np.ones(4)))


def _tracer_methods() -> dict:
    # the benchmark's tracer maps SolveDiagnostics.method to a metric name;
    # a label it does not know is silently dropped from its counts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.METHODS


# labels the benchmark's tracer counts that no solve path gives: their
# counters can only read 0 until the benchmark drops them
CONTINUATION_LABELS = {"custom+continuation", "newton+continuation"}


def test_every_solve_path_has_a_label_the_benchmark_tracer_counts():
    n = 6
    s = chain(n)
    A = np.roll(np.eye(n), 1, axis=1) - np.eye(n)  # cycle generator
    h = Fn(s, np.linspace(-0.5, 0.5, n))
    tilt = tilt_linear(A, s)

    def linear(**kw):
        return Hamiltonian(space=s, apply_values=lambda v: A @ v, jacobian=lambda v: A, **kw)

    cases = [
        ("custom", linear(custom_solver=exact_stack_solver(A)), 1.0),
        ("fixed_point", tilt, 0.5 / tilt.lipschitz_bound),
        ("newton", replace(tilt, lipschitz_bound=None), 1.0),
        # a bound far below the truth (||2A|| = 4) lets the fixed point
        # diverge until it stalls and hands over to Newton
        ("fixed_point+newton", linear(lipschitz_bound=1e-3), 2.0),
    ]
    seen = []
    for label, H, lam in cases:
        f, diag = solve_resolvent(ResolventFamily(hamiltonian=H), lam, h)
        assert diag.method == label
        assert np.abs(f.values - lam * H.apply_values(f.values) - h.values).max() <= 1e-10
        seen.append(diag.method)

    tracer_methods = set(_tracer_methods())
    assert CONTINUATION_LABELS <= tracer_methods
    assert sorted(seen) == sorted(tracer_methods - CONTINUATION_LABELS)


def test_iterations_of_failed_attempts_are_counted(monkeypatch):
    # a step that fails after k iterations and then succeeds must report them
    n, k = 6, 37
    s = chain(n)
    A = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
    h = Fn(s, np.linspace(-0.5, 0.5, n))

    def fail_once(solve):
        calls = []

        def wrapped(*args):
            calls.append(args)
            if len(calls) == 1:
                raise SolverError("simulated basin miss", iterations=k)
            return solve(*args)

        return wrapped

    H = Hamiltonian(space=s, apply_values=lambda v: A @ v, jacobian=lambda v: A)
    _, clean = solve_resolvent(ResolventFamily(hamiltonian=H), 1.0, h)
    monkeypatch.setattr(resolvent, "_damped_newton", fail_once(resolvent._damped_newton))
    _, diag = solve_resolvent(ResolventFamily(hamiltonian=H), 1.0, h)
    assert diag.method == "newton"
    assert diag.iterations >= clean.iterations + k


def test_pseudo_resolvent_identity_holds_for_the_tilted_chain():
    family, s = tilted_family()
    rng = np.random.default_rng(3)
    hs = [Fn(s, rng.uniform(-1, 1, 10)) for _ in range(3)]
    rep = check_pseudo_resolvent_identity(
        family, [(0.1, 1.0), (0.5, 2.0)], hs, tol=1e-8
    )
    assert rep.passed
    assert rep.worst_residual <= 1e-8
    assert len(rep.cases) == 6
    with pytest.raises(PreconditionError, match="0 < alpha < beta"):
        check_pseudo_resolvent_identity(family, [(1.0, 0.5)], hs, tol=1e-8)


def test_tilted_resolvent_is_contractive():
    family, s = tilted_family()
    rng = np.random.default_rng(4)
    pairs = [
        (Fn(s, rng.uniform(-1, 1, 10)), Fn(s, rng.uniform(-1, 1, 10)))
        for _ in range(5)
    ]
    rep = check_contractive(family, [0.1, 1.0, 10.0], pairs, tol=1e-9)
    assert rep.passed
    assert rep.worst_excess <= 1e-9
    assert len(rep.cases) == 15
    # contractivity in the sup norm follows from the one-sided bounds
    for (h1, h2), case in zip(pairs * 3, rep.cases):
        r1, r2 = family.solve(case["lam"], h1), family.solve(case["lam"], h2)
        assert (
            np.abs(r1.values - r2.values).max()
            <= np.abs(h1.values - h2.values).max() + 1e-9
        )


def test_a_failing_custom_solver_raises_its_own_error():
    # the custom path has no fallback: the solver's SolverError surfaces,
    # with its iteration count, after one call
    s = chain(4)
    calls = []

    def failing(lam, h, f0, tol):
        calls.append(lam.tolist())
        raise SolverError("outside the basin", iterations=23)

    A = random_rate_matrix(np.random.default_rng(5), 4)
    H = Hamiltonian(space=s, apply_values=lambda v: A @ v, custom_solver=failing)
    family = ResolventFamily(hamiltonian=H)
    h = Fn(s, np.array([0.4, -0.2, 0.1, 0.0]))
    with pytest.raises(SolverError, match="outside the basin") as err:
        solve_resolvent(family, 1.0, h)
    assert err.value.iterations == 23
    assert calls == [[1.0]]
    assert not family._cache


def test_build_Hhat_pairs_satisfy_the_generating_equation():
    family, s = tilted_family()
    rng = np.random.default_rng(6)
    hs = [Fn(s, rng.uniform(-1, 1, 10)) for _ in range(2)]
    G, meta = build_Hhat(family, [0.5, 2.0], hs)
    assert G.kind == "dagger"
    assert len(G.pairs) == len(meta) == 4
    for (f, g), m in zip(G.pairs, meta):
        residual = f.values - m["lam"] * g.values - m["h"].values
        assert np.abs(residual).max() < 1e-12
    with pytest.raises(PreconditionError):
        build_Hhat(family, [-1.0], hs)


def upwind_problems(n=48, seed=8):
    s = unit_grid(n)
    H = upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0]))
    rng = np.random.default_rng(seed)
    hs = [Fn(s, rng.uniform(-0.5, 0.5, n)) for _ in range(3)]
    return H, [(lam, h) for lam in (0.2, 1.0, 5.0) for h in hs]


def test_solve_all_caches_what_single_solves_would():
    H, problems = upwind_problems()
    calls = []

    def counted(lam, h, f0, tol):
        calls.append(lam.tolist())
        return H.custom_solver(lam, h, f0, tol)

    family = ResolventFamily(hamiltonian=replace(H, custom_solver=counted))
    solve_resolvent(family, *problems[4])
    # a single solve is a stack of one; in the stack, a repeated pair is
    # solved once, and a cached one not again
    got = family.solve_all(problems + [problems[0]])
    assert calls == [[problems[4][0]], [lam for i, (lam, _) in enumerate(problems) if i != 4]]
    single = ResolventFamily(hamiltonian=H)
    want = [solve_resolvent(single, lam, h) for lam, h in problems]
    for f, (f_ref, _) in zip(got, want + want[:1]):
        assert f.values.tobytes() == f_ref.values.tobytes()
    # stored under the same keys, with the diagnostics of the single solves
    assert family._cache.keys() == single._cache.keys()
    for key, (_, diag) in family._cache.items():
        assert diag == single._cache[key][1]
        assert diag.method == "custom" and diag.from_cache


def test_a_stacked_row_counts_as_a_solve_on_its_first_read(monkeypatch):
    # solve_all stores a stack's rows as solves, not as hits: the first read
    # of each reports its custom solve and iterations, every later read is a
    # hit, so the iterations reported sum to the stack's own count
    H, problems = upwind_problems()
    totals = []

    def counted(lam, h, f0, tol):
        out = H.custom_solver(lam, h, f0, tol)
        totals.append(out[1])
        return out

    family = ResolventFamily(hamiltonian=replace(H, custom_solver=counted))
    reads = []
    real_solve = resolvent.solve_resolvent

    def recorded(*args):
        out = real_solve(*args)
        reads.append(out[1])
        return out

    monkeypatch.setattr(resolvent, "solve_resolvent", recorded)
    family.solve_all(problems + problems[:2])
    assert [d.from_cache for d in reads] == [False] * len(problems) + [True, True]
    assert all(d.method == "custom" for d in reads)
    assert sum(d.iterations for d in reads if not d.from_cache) == totals[0] > 0
    assert all(real_solve(family, lam, h)[1].from_cache for lam, h in problems)


def test_threads_reading_a_stacked_row_count_one_solve():
    H, problems = upwind_problems()
    family = ResolventFamily(hamiltonian=H)
    lam, h = problems[0]
    misses = {resolvent._cache_key(family, lam, h): h}
    family._store_stacked(H.custom_solver, misses)
    with ThreadPoolExecutor(max_workers=4) as pool:
        diags = list(pool.map(lambda _: solve_resolvent(family, lam, h)[1], range(16)))
    assert sum(not d.from_cache for d in diags) == 1
    # a stack another thread solved meanwhile does not store the row again
    family._store_stacked(H.custom_solver, misses)
    assert solve_resolvent(family, lam, h)[1].from_cache


def test_a_stack_that_raises_surfaces_its_error_and_caches_no_row():
    H, problems = upwind_problems()

    def unlucky(lam, h, f0, tol):
        # a stack fails, a single solve does not
        if len(lam) > 1:
            raise SolverError("simulated stack failure", iterations=3)
        return H.custom_solver(lam, h, f0, tol)

    family = ResolventFamily(hamiltonian=replace(H, custom_solver=unlucky))
    solve_resolvent(family, *problems[0])
    with pytest.raises(SolverError, match="simulated stack failure") as err:
        family.solve_all(problems)
    assert err.value.iterations == 3
    lams = sorted({lam for lam, _ in problems})
    hs = [h for lam, h in problems if lam == lams[0]]
    with pytest.raises(SolverError, match="simulated stack failure"):
        build_Hhat(family, lams, hs)
    # only the single solve is cached
    assert list(family._cache) == [resolvent._cache_key(family, *problems[0])]
    # without a custom solver, errors read as those of single solves
    tilted, s = tilted_family()
    h = Fn(s, np.zeros(10))
    with pytest.raises(PreconditionError, match="positive"):
        tilted.solve_all([(0.5, h), (0.0, h)])
    with pytest.raises(PreconditionError, match="space"):
        ResolventFamily(hamiltonian=H).solve_all([(0.5, h)])


def test_a_copy_with_another_custom_solver_builds_Hhat_by_it():
    # the custom solver is the one declared solver: a copy that swaps in
    # another solves the stack by it, not by the scheme's own Howard iteration
    s = unit_grid(32)
    H = upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0]))
    calls = []

    def counted(lam, h, f0, tol):
        calls.append(lam.tolist())
        return H.custom_solver(lam, h, f0, tol)

    rng = np.random.default_rng(9)
    hs = [Fn(s, rng.uniform(-0.5, 0.5, 32)) for _ in range(2)]
    family = ResolventFamily(hamiltonian=replace(H, custom_solver=counted))
    G, meta = build_Hhat(family, [0.5, 1.0], hs)
    assert calls == [[0.5, 0.5, 1.0, 1.0]]
    assert all(diag.method == "custom" for _, diag in family._cache.values())
    single = ResolventFamily(hamiltonian=H)
    for (f, _), m in zip(G.pairs, meta):
        assert f.values.tobytes() == single.solve(m["lam"], m["h"]).values.tobytes()


def test_a_copy_without_custom_solver_builds_Hhat_by_newton():
    # the stacked solver follows the custom path: a copy that drops
    # custom_solver solves by Newton in a stack as it does one at a time
    s = unit_grid(32)
    H = replace(upwind_quadratic(s, 0.5 * np.sin(2.0 * np.pi * s.coords[:, 0])),
                custom_solver=None)
    rng = np.random.default_rng(9)
    hs = [Fn(s, rng.uniform(-0.5, 0.5, 32)) for _ in range(2)]
    family = ResolventFamily(hamiltonian=H)
    G, meta = build_Hhat(family, [0.5, 1.0], hs)
    assert len(family._cache) == len(G.pairs) == 4
    assert all(diag.method == "newton" for _, diag in family._cache.values())
    single = ResolventFamily(hamiltonian=H)
    for (f, _), m in zip(G.pairs, meta):
        f_ref, diag = solve_resolvent(single, m["lam"], m["h"])
        assert diag.method == "newton"
        assert f.values.tobytes() == f_ref.values.tobytes()


def test_equicontinuity_fit_finds_a_level_for_upwind_resolvents():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64])
    families = []
    for m in seq.members:
        b = 0.5 * np.sin(2.0 * np.pi * m.coords[:, 0])
        families.append(ResolventFamily(hamiltonian=upwind_quadratic(m, b)))
    h1 = lift_to_members(trig_polynomial(seq.limit, [0.0, 0.2]), seq)
    h2 = lift_to_members(trig_polynomial(seq.limit, [0.1], [0.15]), seq)

    def solved(hs, lam):
        return FnSequence(seq, tuple(f.solve(lam, h) for f, h in zip(families, hs.members)))

    cases = [(h1, h2, solved(h1, lam), solved(h2, lam)) for lam in (0.25, 1.0)]
    rep = estimate_equicontinuity(seq, q=0.5, delta=0.5, cases=cases)
    assert rep.ok
    assert rep.q_hat in seq.compacts.labels
    assert rep.worst_margin >= 0.0
    # the margin array gives the reports of the earlier loop version, on
    # the first level, a later one, and no level at all
    q_hats = set()
    for delta in (0.5, 0.05, 0.0, -5.0):
        rep = estimate_equicontinuity(seq, 0.5, delta, cases)
        assert rep == equicontinuity_reference.estimate_equicontinuity(seq, 0.5, delta, cases)
        q_hats.add(rep.q_hat)
    assert q_hats == set(seq.compacts.labels) | {None}
