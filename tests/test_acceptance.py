"""End-to-end acceptance suite.

One test per committed criterion, each printing a single verdict line of the
form "[acceptance] criterion N: PASS/FAIL (detail)" before asserting, so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Shipped
configs under configs/ are exercised both in-process and through the module
entry point.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import chain, src_env, unit_grid
from hjlab import (
    Fn,
    ResolventFamily,
    build_Hhat,
    check_dissipative,
    check_pseudo_resolvent_identity,
    check_subsolution,
    check_supersolution,
    crandall_liggett,
    density_check_zero_operator,
    find_optimizing_sequence,
    fit_loglog_slope,
    linear_generator,
    logexp_oracle,
    random_bounded,
    random_rate_matrix,
    tilt_linear,
)
from hjlab.cli import SEED_TAG_OPERATOR, SEED_TAG_PROBES, _rng, run_command
from hjlab.config import build_operator, build_probes, build_rate_matrix, build_space, load_config

PKG_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = PKG_ROOT / "configs"


def verdict(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    return ok


def cycle(n: int, rate: float = 1.0) -> np.ndarray:
    return build_rate_matrix({"kind": "cycle", "size": n, "rate": rate},
                             np.random.default_rng(0))


def test_criterion_01_pseudo_resolvent_identity_on_the_tilted_chain():
    s = chain(50)
    family = ResolventFamily(hamiltonian=tilt_linear(cycle(50), s))
    rng = np.random.default_rng(101)
    hs = [random_bounded(s, rng, 1.0) for _ in range(20)]
    ab = [(a, b) for a in (0.1, 0.5) for b in (1.0, 2.0)]
    t0 = time.perf_counter()
    rep = check_pseudo_resolvent_identity(family, ab, hs, tol=1e-8)
    dt = time.perf_counter() - t0
    ok = rep.passed and dt <= 10.0
    assert verdict(
        1, ok,
        f"worst residual {rep.worst_residual:.3e} over {len(rep.cases)} cases, {dt:.2f}s"
    )


def test_criterion_02_linear_resolvents_match_dense_solves():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 21))
        s = chain(n)
        A = random_rate_matrix(rng, n)
        family = ResolventFamily(hamiltonian=linear_generator(A, s))
        for _ in range(10):
            lam = float(rng.uniform(0.05, 2.0))
            h = rng.uniform(-1, 1, n)
            got = family.solve(lam, Fn(s, h)).values
            dense = np.linalg.solve(np.eye(n) - lam * A, h)
            worst = max(worst, float(np.abs(got - dense).max()))
    ok = worst <= 1e-9
    assert verdict(2, ok, f"worst deviation {worst:.3e} over 100 solves")


def test_criterion_03_iteration_error_against_the_logexp_oracle():
    s = chain(10)
    A = cycle(10)
    family = ResolventFamily(hamiltonian=tilt_linear(A, s))
    f0 = random_bounded(s, np.random.default_rng(103), 1.0)
    u_star = logexp_oracle(A, 1.0, f0.values)
    t0 = time.perf_counter()
    ns = [16, 64, 256, 1024, 4096]
    errs = [
        float(np.abs(crandall_liggett(family, 1.0, n, f0).result.values - u_star).max())
        for n in ns
    ]
    dt = time.perf_counter() - t0
    slope = fit_loglog_slope(ns, errs)
    ok = errs[-1] <= 1e-3 and -1.3 <= slope <= -0.7 and dt <= 60.0
    assert verdict(
        3, ok, f"err(4096)={errs[-1]:.3e}, slope={slope:.3f}, {dt:.2f}s"
    )


def test_criterion_04_oracle_semigroup_property():
    A = cycle(10)
    f = random_bounded(chain(10), np.random.default_rng(104), 1.0).values
    worst = 0.0
    for s in (0.25, 0.5, 1.0):
        for t in (0.25, 0.5, 1.0):
            direct = logexp_oracle(A, s + t, f)
            composed = logexp_oracle(A, s, logexp_oracle(A, t, f))
            worst = max(worst, float(np.abs(direct - composed).max()))
    ok = worst <= 1e-9
    assert verdict(4, ok, f"worst composition gap {worst:.3e} on the 3x3 grid")


@pytest.fixture(scope="module")
def hhat_fixture():
    """The solution-generated graph of the shipped check suite: 10 probes
    times 4 lambdas gives 40 pairs on a 128-point upwind space."""
    cfg = load_config(CONFIG_DIR / "check.yaml")
    seed = int(cfg["seed"])
    section = cfg["check"]
    space = build_space(section["space"])
    H = build_operator(section["operator"], space, _rng(seed, SEED_TAG_OPERATOR))
    probes = build_probes(section["probes"], space, _rng(seed, SEED_TAG_PROBES))
    family = ResolventFamily(hamiltonian=H)
    lams = [float(l) for l in section["hhat"]["lambdas"]]
    G, meta = build_Hhat(family, lams, probes)
    return space, G, replace(G, kind="ddagger"), meta


def test_criterion_05_every_generated_pair_is_a_viscosity_solution(hhat_fixture):
    space, G, G_dd, meta = hhat_fixture
    all_ok = True
    worst_sub = -np.inf
    worst_sup = np.inf
    for k, (f, _) in enumerate(G.pairs):
        u = Fn(space, f.values)
        sub = check_subsolution(u, G, meta[k]["h"], meta[k]["lam"], tol=1e-8)
        sup = check_supersolution(u, G_dd, meta[k]["h"], meta[k]["lam"], tol=1e-8)
        all_ok = all_ok and sub.passed and sup.passed
        worst_sub = max(worst_sub, max(p["slack"] for p in sub.per_pair))
        worst_sup = min(worst_sup, min(p["slack"] for p in sup.per_pair))
    # the spiked copy must fail, and must name the spike as its witness
    i_spike = space.size // 3
    spiked = G.pairs[0][0].values.copy()
    spiked[i_spike] += 0.5
    rep = check_subsolution(Fn(space, spiked), G, meta[0]["h"], meta[0]["lam"], tol=1e-8)
    spike_ok = (not rep.passed) and any(
        p["witness_x"] == i_spike for p in rep.failing_pairs()
    )
    ok = all_ok and spike_ok
    assert verdict(
        5, ok,
        f"{len(G.pairs)} pairs sub+super at 1e-8 (slacks {worst_sub:.2e}/{worst_sup:.2e}), "
        f"spike witness at {i_spike}: {spike_ok}"
    )


def test_criterion_06_logarithmic_optimizing_sequence():
    points = 10**4
    xs = (1.0 + np.arange(points)) / points
    logx = np.log(xs)
    eps_grid = [2.0 ** (-k) for k in range(11)]
    rep = find_optimizing_sequence(logx, logx, eps_grid, tol_f=1e-3, tol_g=1e-3)
    ok = (
        rep.passed
        and rep.sup_f == 0.0
        and rep.f_gap_final <= 1e-3
        and rep.g_tail_max <= 1e-3
    )
    assert verdict(
        6, ok,
        f"sup f={rep.sup_f}, f gap {rep.f_gap_final:.2e}, g tail {rep.g_tail_max:.2e} "
        f"with inf g={logx.min():.2f}"
    )


def test_criterion_07_envelope_controls_on_refining_grids(tmp_path):
    t0 = time.perf_counter()
    pos_cfg = load_config(CONFIG_DIR / "positive_control.yaml")
    rc_pos = run_command(
        "converge", pos_cfg, str(tmp_path / "pos"), jobs=1, seed=int(pos_cfg["seed"])
    )
    neg_cfg = load_config(CONFIG_DIR / "negative_control.yaml")
    rc_neg = run_command(
        "converge", neg_cfg, str(tmp_path / "neg"), jobs=1, seed=int(neg_cfg["seed"])
    )
    dt = time.perf_counter() - t0

    pos = json.loads((tmp_path / "pos" / "report.json").read_text())
    cell = pos["cells"][0]
    tol_env = cell["details"]["envelope_tolerance"]
    rows = (tmp_path / "pos" / "tables" / "envelope_separation.csv").read_text().splitlines()[1:]
    seps = [float(r.split(",")[3]) for r in rows]
    lim_devs = [float(r.split(",")[4]) for r in rows]
    pos_ok = (
        rc_pos == 0
        and cell["passed"]
        and all(s <= tol_env for s in seps)
        and all(d <= tol_env for d in lim_devs)
        and cell["details"]["member_viscosity_failures"] == 0
    )

    neg = json.loads((tmp_path / "neg" / "report.json").read_text())
    neg_cell = neg["cells"][0]
    neg_ok = (
        rc_neg == 1
        and not neg_cell["passed"]
        and neg_cell["details"]["max_separation"] > neg_cell["details"]["envelope_tolerance"]
    )
    ok = pos_ok and neg_ok and dt <= 300.0
    assert verdict(
        7, ok,
        f"positive: rc={rc_pos}, max sep {cell['details']['max_separation']:.2e} <= {tol_env:.2e} "
        f"on all levels; negative: rc={rc_neg}, sep {neg_cell['details']['max_separation']:.2f}; "
        f"{dt:.1f}s"
    )


def test_criterion_08_slowfast_averaging(tmp_path):
    cfg = load_config(CONFIG_DIR / "slowfast.yaml")
    rc = run_command("converge", cfg, str(tmp_path), jobs=1, seed=int(cfg["seed"]))
    rep = json.loads((tmp_path / "report.json").read_text())
    details = rep["cells"][0]["details"]
    ok = (
        rc == 0
        and details["decay_order"] >= 0.8
        and details["final_deviation"] <= 5e-2
    )
    assert verdict(
        8, ok,
        f"decay order {details['decay_order']:.3f}, "
        f"deviation at strongest coupling {details['final_deviation']:.2e}"
    )


def test_criterion_09_zero_operator_density_for_both_operator_classes():
    s = chain(10)
    A = cycle(10)
    h = random_bounded(s, np.random.default_rng(109), 0.5)
    lam_seq = [2.0 ** (-k) for k in range(11)]
    results = {}
    for name, H in (("linear", linear_generator(A, s)), ("tilt", tilt_linear(A, s))):
        image_norm = float(np.abs(H.apply_values(h.values)).max())
        assert h.norm <= 1.0 and image_norm <= 5.0  # the bound the estimate needs
        fam = ResolventFamily(hamiltonian=H)
        v = density_check_zero_operator(fam, h, lam_seq, tol=1e-2)
        results[name] = (v.passed, v.per_level["all"]["deviations"][-1])
    ok = all(p for p, _ in results.values())
    assert verdict(
        9, ok,
        "final deviations "
        + ", ".join(f"{k}={d:.2e}" for k, (_, d) in results.items())
        + " at lambda 2^-10, both non-increasing"
    )


def test_criterion_10_dissipativity_of_the_generated_graph(hhat_fixture):
    _, G, _, _ = hhat_fixture
    assert len(G.pairs) == 40
    diss = check_dissipative(G.pairs, [0.1, 1.0, 10.0], tol=1e-9)
    ok = diss.passed and len(diss.violations) == 0
    assert verdict(
        10, ok,
        f"{diss.checked} pair-of-pairs checks, {len(diss.violations)} violations, "
        f"worst deficit {diss.worst_margin():.2e}"
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = str(CONFIG_DIR / "positive_control.yaml")
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "hjlab.cli", "converge", "--config", cfg,
             "--out", out],
            capture_output=True, text=True, cwd=PKG_ROOT, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
    r1 = (Path(outs[0]) / "report.json").read_bytes()
    r2 = (Path(outs[1]) / "report.json").read_bytes()
    tables1 = sorted((Path(outs[0]) / "tables").glob("*.csv"))
    tables2 = sorted((Path(outs[1]) / "tables").glob("*.csv"))
    same_tables = [t1.name for t1 in tables1] == [t2.name for t2 in tables2] and all(
        t1.read_bytes() == t2.read_bytes() for t1, t2 in zip(tables1, tables2)
    )
    ok = r1 == r2 and bool(tables1) and same_tables
    assert verdict(
        11, ok,
        f"report.json identical: {r1 == r2}; {len(tables1)} tables identical: {same_tables}"
    )
