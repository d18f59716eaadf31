"""Resolvent solves against oracles, family identities, and the Hhat graph."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import chain, unit_grid
from hjlab import (
    Fn,
    Hamiltonian,
    PreconditionError,
    ResolventFamily,
    SolverError,
    build_Hhat,
    check_contractive,
    check_pseudo_resolvent_identity,
    estimate_equicontinuity,
    graph_contains,
    lift_to_members,
    linear_generator,
    make_grid_sequence,
    random_rate_matrix,
    solve_resolvent,
    tilt_linear,
    trig_polynomial,
    upwind_quadratic,
)
from hjlab import resolvent
from hjlab.resolvent import _continuation


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


def test_every_solve_path_has_a_label_the_benchmark_tracer_counts(monkeypatch):
    n = 6
    s = chain(n)
    A = np.roll(np.eye(n), 1, axis=1) - np.eye(n)  # cycle generator
    h = Fn(s, np.linspace(-0.5, 0.5, n))
    tilt = tilt_linear(A, s)
    calls = []

    def exact(lam, hv, f0, tol):
        return np.linalg.solve(np.eye(n) - lam * A, hv), 1, 0.0

    def fussy(lam, hv, f0, tol):
        calls.append(lam)
        if len(calls) == 1:
            raise SolverError("outside the basin")
        return exact(lam, hv, f0, tol)

    def linear(**kw):
        return Hamiltonian(space=s, apply_values=lambda v: A @ v, jacobian=lambda v: A, **kw)

    cases = [
        ("custom", linear(custom_solver=exact), 1.0),
        ("custom+continuation", linear(custom_solver=fussy), 1.0),
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

    real_newton = resolvent._newton
    failed = []

    def newton_failing_once_at_full_lam(H, lam, hv, f0, tol):
        if lam == 1.0 and not failed:
            failed.append(lam)
            raise SolverError("simulated basin miss")
        return real_newton(H, lam, hv, f0, tol)

    monkeypatch.setattr(resolvent, "_newton", newton_failing_once_at_full_lam)
    H = replace(tilt, lipschitz_bound=None)
    f, diag = solve_resolvent(ResolventFamily(hamiltonian=H), 1.0, h)
    assert diag.method == "newton+continuation"
    assert np.abs(f.values - H.apply_values(f.values) - h.values).max() <= 1e-10
    seen.append(diag.method)

    assert sorted(seen) == sorted(_tracer_methods())



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

    def exact(lam, hv, f0, tol):
        return np.linalg.solve(np.eye(n) - lam * A, hv), 1, 0.0

    H = Hamiltonian(space=s, apply_values=lambda v: A @ v, jacobian=lambda v: A,
                    custom_solver=fail_once(exact))
    _, diag = solve_resolvent(ResolventFamily(hamiltonian=H), 1.0, h)
    assert diag.method == "custom+continuation"
    assert diag.iterations == k + 5  # one per continuation stage

    H = replace(H, custom_solver=None)
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


def test_continuation_walks_into_a_narrow_basin():
    # a solver that only accepts warm starts forces the homotopy path; the
    # largest warm-start gap along the schedule is lam / 2, so 0.6 admits
    # every staged step while rejecting the cold start at distance 1
    target = lambda lam: np.full(3, lam)

    def step(lam, h, f0, tol):
        if np.abs(f0 - target(lam)).max() > 0.6:
            raise SolverError("cold start")
        return target(lam), 1, 0.0

    with pytest.raises(SolverError):
        step(1.0, None, np.zeros(3), 1e-10)
    f, its, res = _continuation(step, 1.0, None, np.zeros(3), 1e-10)
    assert np.allclose(f, 1.0)
    assert its == 5

    def never(lam, h, f0, tol):
        raise SolverError("no basin")

    with pytest.raises(SolverError, match="continuation stalled"):
        _continuation(never, 1.0, None, np.zeros(3), 1e-10)


def test_custom_solver_falls_back_to_continuation():
    s = chain(4)
    A = random_rate_matrix(np.random.default_rng(5), 4)
    calls = []

    def fussy(lam, h, f0, tol):
        # simulate a basin miss on the initial full-strength attempt only
        calls.append(lam)
        if len(calls) == 1:
            raise SolverError("outside the basin")
        f = np.linalg.solve(np.eye(4) - lam * A, h)
        return f, 1, 0.0

    H = Hamiltonian(space=s, apply_values=lambda v: A @ v, custom_solver=fussy)
    family = ResolventFamily(hamiltonian=H)
    h = Fn(s, np.array([0.4, -0.2, 0.1, 0.0]))
    got, diag = solve_resolvent(family, 1.0, h)
    assert diag.method == "custom+continuation"
    assert np.allclose(got.values, np.linalg.solve(np.eye(4) - A, h.values))
    # the failed direct call plus the five staged continuation calls
    assert calls == [1.0] + [1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0]


def test_build_Hhat_pairs_satisfy_the_generating_equation():
    family, s = tilted_family()
    rng = np.random.default_rng(6)
    hs = [Fn(s, rng.uniform(-1, 1, 10)) for _ in range(2)]
    G, meta = build_Hhat(family, [0.5, 2.0], hs, kind="dagger")
    assert G.kind == "dagger"
    assert len(G.pairs) == len(meta) == 4
    for (f, g), m in zip(G.pairs, meta):
        residual = f.values - m["lam"] * g.values - m["h"].values
        assert np.abs(residual).max() < 1e-12
        assert graph_contains(G, f, g)
    with pytest.raises(PreconditionError):
        build_Hhat(family, [-1.0], hs)


def test_equicontinuity_fit_finds_a_level_for_upwind_resolvents():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64])
    families = []
    for m in seq.members:
        b = 0.5 * np.sin(2.0 * np.pi * m.coords[:, 0])
        families.append(ResolventFamily(hamiltonian=upwind_quadratic(m, b)))
    h1 = lift_to_members(trig_polynomial(seq.limit, [0.0, 0.2]), seq)
    h2 = lift_to_members(trig_polynomial(seq.limit, [0.1], [0.15]), seq)
    rep = estimate_equicontinuity(
        families, seq, q=0.5, delta=0.5, lambdas=[0.25, 1.0], probe_pairs=[(h1, h2)]
    )
    assert rep.ok
    assert rep.q_hat in seq.compacts.labels
    assert rep.worst_margin >= 0.0
