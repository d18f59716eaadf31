"""Config-driven experiment runner.

Four subcommands expose the pipelines: resolvent (solve/identity/
contractivity suites), semigroup (iteration vs oracle, density check),
converge (envelope experiments over space sequences, slow-fast averaging),
check (viscosity, dissipativity, optimizing-sequence fixtures).  Each run
writes report.json and tables/*.csv into --out.

Exit codes: 0 all declared suites passed, 1 suite failure, 2 config/schema
error.  Runs are deterministic: the same config and seed produce
byte-identical outputs, independent of --jobs (cells are assembled in
declaration order, and the cells of one suite share only solve caches, whose
entries do not depend on which cell filled them).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import config as cfg
from .convergence import (
    OperatorSequence,
    resolvent_convergence_experiment,
    slowfast_resolvent_experiment,
)
from .errors import ConfigError, HJLabError
from .limits import Fn
from .operators import (
    SlowFastCoupling,
    check_dissipative,
    graph_from_hamiltonian,
)
from .reporting import write_report, write_table
from .resolvent import (
    ResolventFamily,
    build_Hhat,
    check_contractive,
    check_pseudo_resolvent_identity,
)
from .semigroup import (
    convergence_in_n,
    density_check_zero_operator,
    linear_semigroup_oracle,
    logexp_oracle,
)
from .spaces import FiniteSpace, make_product_sequence
from .viscosity import check_subsolution, check_supersolution, find_optimizing_sequence

SEED_TAG_OPERATOR = 1
SEED_TAG_PROBES = 2
SEED_TAG_FIXTURES = 3


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag)))


def _run_cells(cells, jobs: int):
    """Run (name, thunk) cells, collecting results in declaration order.

    Cells are independent pure computations; failures inside a cell are suite
    failures, never schema errors.  Any exception a cell raises, including a
    numpy or scipy error from deep inside a solve, becomes that cell's failure
    record, so the other cells still run and the report is still written.
    """

    def run(item):
        name, fn = item
        try:
            passed, details, tables = fn()
            return {"name": name, "passed": bool(passed), "details": details}, tables
        except Exception as exc:
            return (
                {"name": name, "passed": False,
                 "error": f"{type(exc).__name__}: {exc}"},
                [],
            )

    if jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, cells))
    else:
        results = [run(c) for c in cells]
    return results


def _lam_list(values) -> list[float]:
    return [float(v) for v in values]


def _cells_resolvent(section: dict, seed: int):
    space = cfg.build_space(section["space"])
    H = cfg.build_operator(section["operator"], space, _rng(seed, SEED_TAG_OPERATOR))
    probes = cfg.build_probes(section["probes"], space, _rng(seed, SEED_TAG_PROBES))
    family = ResolventFamily(hamiltonian=H)
    cells = []

    ident = section.get("identity")
    if ident:
        ab = [(float(a), float(b)) for a in ident["alpha"] for b in ident["beta"]
              if float(a) < float(b)]
        if not ab:
            raise ConfigError("identity suite needs at least one pair with alpha < beta")

        def run_identity(ab=ab, tol=float(ident["tol"])):
            rep = check_pseudo_resolvent_identity(family, ab, probes, tol)
            rows = [(c["alpha"], c["beta"], c["h_index"], c["residual"]) for c in rep.cases]
            details = {"worst_residual": rep.worst_residual, "tol": tol,
                       "n_cases": len(rep.cases)}
            return rep.passed, details, [
                ("identity_residuals", ("alpha", "beta", "h_index", "residual"), rows)
            ]

        cells.append(("pseudo_resolvent_identity", run_identity))

    contract = section.get("contractivity")
    if contract:

        def run_contract(lams=_lam_list(contract["lambdas"]), tol=float(contract["tol"])):
            pairs = [
                (probes[i], probes[j])
                for i in range(len(probes))
                for j in range(i + 1, len(probes))
            ]
            rep = check_contractive(family, lams, pairs, tol=tol)
            rows = [(c["lam"], c["pair"], c["sup_excess"], c["inf_excess"])
                    for c in rep.cases]
            details = {"worst_excess": rep.worst_excess, "tol": tol,
                       "n_cases": len(rep.cases)}
            return rep.passed, details, [
                ("contractivity", ("lam", "pair", "sup_excess", "inf_excess"), rows)
            ]

        cells.append(("contractivity", run_contract))
    return cells


def _cells_semigroup(section: dict, seed: int):
    space = cfg.build_space(section["space"])
    op_spec = section["operator"]
    oracle = section["oracle"]
    if oracle in ("logexp", "linear"):
        want = "tilt" if oracle == "logexp" else "linear"
        if op_spec["kind"] != want:
            raise ConfigError(f"oracle '{oracle}' needs an operator of kind '{want}'")
        H, A = cfg.build_rate_operator(op_spec, space, _rng(seed, SEED_TAG_OPERATOR))
    else:
        A = None
        H = cfg.build_operator(op_spec, space, _rng(seed, SEED_TAG_OPERATOR))
    f0 = cfg.build_probes(section["initial"], space, _rng(seed, SEED_TAG_PROBES))[0]
    family = ResolventFamily(hamiltonian=H)
    t = float(section["t"])
    n_list = [int(n) for n in section["n_steps"]]
    cells = []

    def run_iteration():
        if oracle == "logexp":
            oracle_vals = logexp_oracle(A, t, f0.values)
        elif oracle == "linear":
            oracle_vals = linear_semigroup_oracle(A, t, f0.values)
        else:
            oracle_vals = None
        rep = convergence_in_n(
            family, t, f0, n_list, oracle_values=oracle_vals,
            tol=float(section["tol_final"]),
        )
        slope_ok = True
        srange = section.get("slope_range")
        if srange is not None:
            slope_ok = float(srange[0]) <= rep.slope <= float(srange[1])
        rows = list(zip(rep.n_list, rep.deviations))
        details = {"mode": rep.mode, "final": rep.final, "slope": rep.slope,
                   "slope_ok": slope_ok, "tol": rep.tol, "notes": rep.notes}
        return rep.passed and slope_ok, details, [
            ("semigroup_errors", ("n_steps", "deviation"), rows)
        ]

    cells.append(("iteration_vs_oracle", run_iteration))

    density = section.get("density")
    if density:

        def run_density(max_k=int(density["max_k"]), tol=float(density["tol_final"])):
            lams = [2.0 ** (-k) for k in range(max_k + 1)]
            verdict = density_check_zero_operator(family, f0, lams, tol)
            rec = verdict.per_level["all"]
            rows = list(zip(rec["lambda_seq"], rec["deviations"]))
            details = {"final": float(rec["deviations"][-1]), "tol": tol,
                       "notes": verdict.notes}
            return verdict.passed, details, [
                ("density_zero_operator", ("lam", "deviation"), rows)
            ]

        cells.append(("zero_operator_density", run_density))
    return cells


def _cells_converge(section: dict, seed: int):
    if section["kind"] == "grid_experiment":
        return _cells_converge_grid(section, seed)
    return _cells_converge_slowfast(section, seed)


def _cells_converge_grid(section: dict, seed: int):
    seq = cfg.build_sequence(section["sequence"])
    scheme = section["scheme"]
    limit_scheme = section.get("limit_scheme", "upwind_quadratic")
    drift = section["drift"]
    members = tuple(
        cfg.build_operator({"kind": scheme, "drift": drift}, m, _rng(seed, SEED_TAG_OPERATOR))
        for m in seq.members
    )
    H_lim = cfg.build_operator(
        {"kind": limit_scheme, "drift": drift}, seq.limit, _rng(seed, SEED_TAG_OPERATOR)
    )
    D = cfg.build_probes(section["probes"], seq.limit, _rng(seed, SEED_TAG_PROBES))
    dagger = graph_from_hamiltonian(H_lim, D, kind="dagger")
    ddagger = graph_from_hamiltonian(H_lim, D, kind="ddagger")
    op_seq = OperatorSequence(
        spaces=seq, members=members, limit_hamiltonian=H_lim,
        limit_dagger=dagger, limit_ddagger=ddagger,
    )
    env = section["envelope_tolerance"]
    if "value" in env:
        tol_env = float(env["value"])
    else:
        a, b = (float(v) for v in section["sequence"]["domain"])
        res = max(int(r) for r in section["sequence"]["resolutions"])
        spacing = (b - a) / res if section["sequence"].get("periodic", True) \
            else (b - a) / (res - 1)
        tol_env = float(env.get("factor", 4.0)) * spacing

    def run_experiment():
        rep = resolvent_convergence_experiment(
            op_seq,
            D,
            _lam_list(section["lambdas"]),
            tol_lim=float(section["tol_lim"]),
            tol_envelope=tol_env,
            tol_viscosity=float(section.get("viscosity_tol", 1e-8)),
            equicontinuity_delta=float(section.get("equicontinuity_delta", 0.5)),
            expectation=section["expectation"],
        )
        rows = []
        for case in rep.envelope_cases:
            for level, sep in sorted(case["separation_per_level"].items()):
                rows.append((case["h_index"], case["lam"], level, sep,
                             case.get("lim_worst_dev", "")))
        details = {
            "expectation": rep.expectation,
            "envelope_tolerance": tol_env,
            "max_separation": max(
                (c["max_separation"] for c in rep.envelope_cases), default=0.0
            ),
            "lifting": rep.lifting,
            "member_viscosity_failures": sum(
                1 for v in rep.member_viscosity
                if not (v["sub_passed"] and v["super_passed"])
            ),
            "notes": rep.notes,
        }
        tables = [
            ("envelope_separation",
             ("h_index", "lam", "level", "separation", "lim_worst_dev"), rows)
        ]
        return rep.passed, details, tables

    return [("barles_perthame", run_experiment)]


def _cells_converge_slowfast(section: dict, seed: int):
    slow_space = cfg.build_space(section["slow_space"])
    H_slow = cfg.build_operator(
        section["slow_operator"], slow_space, _rng(seed, SEED_TAG_OPERATOR)
    )
    A_fast = cfg.build_rate_matrix(section["fast_rate_matrix"], _rng(seed, SEED_TAG_FIXTURES))
    n_fast = A_fast.shape[0]
    fast_space = FiniteSpace(coords=np.arange(n_fast, dtype=float), name=f"fast{n_fast}")
    couplings = [float(c) for c in section["couplings"]]
    product = make_product_sequence(slow_space, fast_space, n_members=len(couplings))
    coupling = SlowFastCoupling(
        slow=H_slow, fast_rate_matrix=A_fast,
        multipliers=tuple(float(m) for m in section.get("multipliers", ())),
    )
    h = cfg.build_probes(section["h"], slow_space, _rng(seed, SEED_TAG_PROBES))[0]

    def run_slowfast():
        rep = slowfast_resolvent_experiment(
            product, coupling, couplings, float(section["lambda"]), h,
            tol_deviation=float(section["tol_deviation"]),
            min_decay_order=float(section.get("min_decay_order", 0.8)),
        )
        rows = list(zip(rep.couplings, rep.oscillations))
        details = {
            "decay_order": rep.decay_order,
            "final_deviation": rep.final_deviation,
            "tol_deviation": float(section["tol_deviation"]),
            "notes": rep.notes,
        }
        return rep.passed, details, [
            ("slowfast_oscillation", ("coupling", "oscillation"), rows)
        ]

    return [("slowfast_averaging", run_slowfast)]


def _cells_check(section: dict, seed: int):
    cells = []
    hhat = section.get("hhat")
    spike = section.get("spike")
    if (hhat or spike) and not all(k in section for k in ("space", "operator", "probes")):
        raise ConfigError("hhat/spike suites need space, operator, and probes")
    if hhat or spike:
        space = cfg.build_space(section["space"])
        H = cfg.build_operator(section["operator"], space, _rng(seed, SEED_TAG_OPERATOR))
        probes = cfg.build_probes(section["probes"], space, _rng(seed, SEED_TAG_PROBES))
        family = ResolventFamily(hamiltonian=H)

    if hhat:

        def run_hhat():
            lams = _lam_list(hhat["lambdas"])
            vtol = float(hhat.get("viscosity_tol", 1e-8))
            dtol = float(hhat.get("dissipativity_tol", 1e-9))
            G, meta = build_Hhat(family, lams, probes, kind="dagger")
            G_dd, _ = build_Hhat(family, lams, probes, kind="ddagger")
            diss = check_dissipative(
                G.pairs, _lam_list(hhat["dissipativity_lambdas"]), tol=dtol
            )
            rows = []
            ok = diss.passed
            for k, (f, _) in enumerate(G.pairs):
                lam_k, h_k = meta[k]["lam"], meta[k]["h"]
                u = Fn(space, f.values)
                sub = check_subsolution(u, G, h_k, lam_k, tol=vtol)
                sup = check_supersolution(u, G_dd, h_k, lam_k, tol=vtol)
                ok = ok and sub.passed and sup.passed
                worst_sub = max(
                    (p["slack"] for p in sub.per_pair if p["slack"] is not None),
                    default=0.0,
                )
                worst_sup = min(
                    (p["slack"] for p in sup.per_pair if p["slack"] is not None),
                    default=0.0,
                )
                rows.append((k, lam_k, meta[k]["h_index"], sub.passed, sup.passed,
                             worst_sub, worst_sup))
            details = {
                "n_pairs": len(G.pairs),
                "dissipativity_violations": len(diss.violations),
                "worst_deficit": diss.worst_margin(),
            }
            return ok, details, [
                ("hhat_pairs",
                 ("pair", "lam", "h_index", "sub_passed", "super_passed",
                  "worst_sub_slack", "worst_super_slack"), rows)
            ]

        cells.append(("hhat_dissipativity_viscosity", run_hhat))

    if spike:

        def run_spike():
            lam0 = _lam_list(hhat["lambdas"])[0] if hhat else 1.0
            vtol = float((hhat or {}).get("viscosity_tol", 1e-8))
            G, meta = build_Hhat(family, [lam0], probes[:1], kind="dagger")
            u0 = G.pairs[0][0]
            i_spike = space.size // 3
            vals = u0.values.copy()
            vals[i_spike] += float(spike.get("magnitude", 0.5))
            u_bad = Fn(space, vals)
            rep = check_subsolution(u_bad, G, meta[0]["h"], lam0, tol=vtol)
            failing = rep.failing_pairs()
            witness_ok = any(p["witness_x"] == i_spike for p in failing)
            should_fail = bool(spike.get("expect_failure", True))
            passed = (not rep.passed and witness_ok) if should_fail else rep.passed
            details = {
                "spike_index": i_spike,
                "check_failed_as_expected": not rep.passed,
                "witness_matches_spike": witness_ok,
                "failing_pairs": [
                    {"pair": p["pair"], "witness_x": p["witness_x"], "slack": p["slack"]}
                    for p in failing
                ],
            }
            return passed, details, []

        cells.append(("spike_negative_fixture", run_spike))

    opt = section.get("optimizing_sequence")
    if opt:

        def run_optseq():
            points = int(opt["points"])
            xs = (1.0 + np.arange(points)) / points
            space_ox = FiniteSpace(coords=xs, name="unit(0,1]")
            logx = Fn(space_ox, np.log(xs))
            eps_grid = [2.0 ** (-k) for k in range(int(opt["eps_halvings"]) + 1)]
            rep = find_optimizing_sequence(
                logx, logx, eps_grid,
                tol_f=float(opt.get("tol_f", 1e-3)), tol_g=float(opt.get("tol_g", 1e-3)),
            )
            rows = list(zip(rep.eps_grid, rep.f_values, rep.g_values))
            details = {
                "sup_f": rep.sup_f, "f_gap_final": rep.f_gap_final,
                "g_tail_max": rep.g_tail_max,
                "worst_construction_margin": float(np.min(rep.construction_margins)),
            }
            return rep.passed, details, [
                ("optimizing_sequence", ("eps", "f_value", "g_value"), rows)
            ]

        cells.append(("optimizing_sequence_fixture", run_optseq))
    return cells


_BUILDERS = {
    "resolvent": _cells_resolvent,
    "semigroup": _cells_semigroup,
    "converge": _cells_converge,
    "check": _cells_check,
}


def run_command(command: str, config: dict, out_dir: str, jobs: int, seed: int) -> int:
    section = config.get(command)
    cells = _BUILDERS[command](section, seed) if section else []
    results = _run_cells(cells, jobs)
    records = [r for r, _ in results]
    passed = all(r["passed"] for r in records)
    payload = {
        "command": command,
        "name": config["name"],
        "schema_version": config["schema_version"],
        "seed": seed,
        "passed": passed,
        "cells": records,
    }
    write_report(out_dir, payload)
    for _, tables in results:
        for name, header, rows in tables:
            write_table(out_dir, name, header, rows)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjlab",
        description="Nonlinear resolvent laboratory: config-driven experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("resolvent", "pseudo-resolvent identity and contractivity suites"),
        ("semigroup", "resolvent iteration vs oracles and the density check"),
        ("converge", "envelope and slow-fast convergence experiments"),
        ("check", "viscosity, dissipativity, and fixture suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--jobs", type=int, default=1, help="worker threads for cells")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)
    try:
        config = cfg.load_config(args.config)
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        return run_command(args.command, config, args.out, args.jobs, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HJLabError as exc:
        print(f"suite error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
