"""Limits of operator sequences: extended limits, envelopes, and experiments.

A sequence of operators H_n over a converging sequence of spaces has three
graded notions of limit, each realized as an executable check over witness
pairs (f_n, g_n) with g_n = H_n f_n, which the caller forms:

  check_ex_lim      both components of a limit pair are two-sided limits of
                    the member pairs;
  check_ex_sublim   the one-sided version a dagger limit pair must satisfy:
                    truncated limits of f_n, a uniform upper bound on g_n,
                    and limsup g_n(z_n) <= g(y) along every tracked sequence
                    whose f-values converge to f(gamma(y));
  check_ex_superlim the mirror image for ddagger pairs.

The checks read sequences only, and every tolerance applies from the
sequence's burn-in index SpaceSequence.n0 on.  The one-sided checks make one
array pass per compact level and report the tail inequality as per-level
aggregates, never one record per tracked point.

First components are tracked toward limit points; second components are
tracked through the sequence's enlarged embeddings toward points y of its
enlarged limit, and gamma(y) names the limit point they sit over.  On a
sequence built without an enlargement the two pictures coincide.

The Barles-Perthame route to resolvent convergence composes these with the
upper/lower envelopes of the solution sequence R_n(lambda) h_n: when the
envelopes coincide (comparison holds in the limit) the member solutions
converge to the limit resolvent, with no compactness or regularity input
beyond the tracked compact families.  The envelopes and the equi-continuity
fit read solution sequences and solve nothing.  Three experiments read an
OperatorSequence, and none builds an operator.
`resolvent_convergence_experiment` runs the whole chain.  It lifts each
distinct limit function (data probe or graph first component) once and
applies each member operator to it once, for the extended-limit checks and
the member test graphs.  Its solve step, one solve_all call per member family
and one for the limit family, gives the solutions all later checks read.
`slowfast_resolvent_experiment` reads the same solve step where the fast
variable is eliminated in the limit: a member's fast oscillation is the gap
of its values over the fibres of gamma.  `semigroup_convergence_experiment`
settles Crandall-Liggett values V_n(t) f_n and V(t) f by step doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .limits import (
    ConvergenceVerdict,
    Fn,
    FnSequence,
    _envelope_excess,
    _gather,
    _lim_verdict,
    check_LIM,
    compute_LIMINF,
    compute_LIMSUP,
    lift_to_members,
)
from .operators import Hamiltonian, OperatorGraph
from .resolvent import (
    ResolventFamily,
    check_pseudo_resolvent_identity,
    estimate_equicontinuity,
)
from .semigroup import crandall_liggett, fit_loglog_slope
from .spaces import SpaceSequence
from .viscosity import check_subsolution, check_supersolution

__all__ = [
    "OperatorSequence",
    "WitnessBundle",
    "EnvelopeReport",
    "ResolventExperimentReport",
    "SlowFastReport",
    "SemigroupExperimentReport",
    "check_ex_lim",
    "check_ex_sublim",
    "check_ex_superlim",
    "barles_perthame_envelopes",
    "resolvent_convergence_experiment",
    "slowfast_resolvent_experiment",
    "semigroup_convergence_experiment",
]

# truncation levels c of the one-sided checks, evenly spaced over
# [-2 ||f||, 2 ||f||]
TRUNCATION_LEVELS = 5
# residual tolerance of the limit family's pseudo-resolvent identity
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class OperatorSequence:
    """Member operators over a space sequence, with limit graphs: the one
    input of every sequence experiment, built by the caller.

    members align with spaces.members; the limit Hamiltonian (when one
    exists) drives direct limit solves, and the dagger/ddagger graphs are the
    test pairs for the limit equation.
    """

    spaces: SpaceSequence
    members: tuple
    limit_hamiltonian: Hamiltonian | None = None
    limit_dagger: object | None = None
    limit_ddagger: object | None = None

    def __post_init__(self) -> None:
        if len(self.members) != self.spaces.n_members:
            raise ValueError("need one member operator per member space")


@dataclass(frozen=True)
class ExLimReport:
    passed: bool
    f_verdict: ConvergenceVerdict
    g_verdict: ConvergenceVerdict


def check_ex_lim(
    limit_pair: tuple, f_seq: FnSequence, g_seq: FnSequence, tol: float
) -> ExLimReport:
    """Two-sided extended limit of the witness pairs (f_n, g_n = H_n f_n):
    LIM f_n = f and LIM g_n = g.  The second components are tracked through
    the enlarged embeddings toward points of the enlarged limit."""
    seq = f_seq.spaces
    f_lim, g_lim = limit_pair
    f_verdict = check_LIM(f_seq, f_lim, tol)
    g_verdict = _lim_verdict(g_seq, g_lim, tol, seq.tracked_enlarged, seq.enlarged_limit_sets)
    return ExLimReport(
        passed=f_verdict.passed and g_verdict.passed, f_verdict=f_verdict, g_verdict=g_verdict
    )


@dataclass(frozen=True)
class WitnessBundle:
    """Witness sequences for one limit pair, with the graded-limit artifacts.

    per_level maps each compact level q to counts of its tracked enlarged
    sequences ("sequences", "gated": f-tail within tol of f(gamma(y)),
    "failed": gated and breaking the tail inequality), "passed", and over
    the gated ones (None when none is): "worst_margin", the enlarged-limit
    point attaining it ("witness_index"), and the smallest margin of each
    member from n0 on ("per_member_margin")."""

    passed: bool
    kind: str
    truncation: tuple
    g_bound: float
    per_level: dict
    notes: tuple = ()


def _check_ex_one_sided(
    limit_pair: tuple, f_seq: FnSequence, g_seq: FnSequence, tol: float, sub: bool
) -> WitnessBundle:
    seq = f_seq.spaces
    n0 = seq.n0
    f_lim, g_lim = limit_pair
    bound = float(max(f_lim.norm, 1e-12))
    c_grid = np.linspace(-2.0 * bound, 2.0 * bound, TRUNCATION_LEVELS)
    clip = np.minimum if sub else np.maximum
    trunc_dev = [0.0] * TRUNCATION_LEVELS
    per_level = {}
    seq_ok = True
    for qi, q in enumerate(seq.compacts.labels):
        # truncating after the gather gives the values of gathering truncated
        # copies
        fv = _gather(f_seq, seq.tracked(q), n0)
        target = f_lim.values[seq.compacts.limit_sets[qi]]
        dev = np.empty_like(fv)
        for k, c in enumerate(c_grid):
            clip(fv, c, out=dev)
            dev -= clip(target, c)
            trunc_dev[k] = max(trunc_dev[k], float(np.abs(dev, out=dev).max()))

        idx = seq.tracked_enlarged(q)
        y = seq.enlarged_limit_sets[qi]
        fv = _gather(f_seq, idx, n0)
        gv = _gather(g_seq, idx, n0)
        fv -= f_lim.values[seq.gamma[y]]
        gated = np.abs(fv, out=fv).max(axis=0) <= tol
        # rounding is monotone, so the smallest member margin of a sequence
        # equals the margin against its largest (sub) or smallest (super) g_n
        if sub:
            margins = np.subtract(g_lim.values[y] + tol, gv, out=gv)
        else:
            margins = np.subtract(gv, g_lim.values[y] - tol, out=gv)
        seq_margin = margins.min(axis=0)[gated]
        level = {"sequences": int(y.size), "gated": int(seq_margin.size), "failed": 0,
                 "worst_margin": None, "witness_index": None, "per_member_margin": None}
        if seq_margin.size:
            i = int(np.argmin(seq_margin))
            level.update(
                failed=int((seq_margin < 0.0).sum()), worst_margin=float(seq_margin[i]),
                witness_index=int(y[gated][i]),
                per_member_margin=margins.min(axis=1, where=gated, initial=np.inf),
            )
        level["passed"] = level["failed"] == 0
        seq_ok = seq_ok and level["passed"]
        per_level[q] = level
    truncation = tuple(
        {"c": float(c), "passed": bool(d <= tol), "worst_dev": float(d)}
        for c, d in zip(c_grid, trunc_dev)
    )
    trunc_ok = all(t["passed"] for t in truncation)
    if sub:
        g_bound = float(max(g.values.max() for g in g_seq.members))
    else:
        g_bound = float(min(g.values.min() for g in g_seq.members))
    notes = []
    if not trunc_ok:
        notes.append("truncated limits failed")
    if not seq_ok:
        notes.append("tracked-sequence inequality failed")
    return WitnessBundle(
        passed=trunc_ok and seq_ok,
        kind="sub" if sub else "super",
        truncation=truncation,
        g_bound=g_bound,
        per_level=per_level,
        notes=tuple(notes),
    )


def check_ex_sublim(
    limit_pair: tuple, f_seq: FnSequence, g_seq: FnSequence, tol: float
) -> WitnessBundle:
    """One-sided extended limit of the witness pairs (f_n, g_n = H_n f_n) for
    a dagger pair: truncated limits of f_n, uniform upper bound on g_n, and
    the tail inequality
    max_{n >= n0} g_n(z_n) <= g(y) + tol along every gated tracked sequence
    (gated = the f-values do converge to f(gamma(y))).  The bundle's
    per_level holds the inequality's aggregates per compact level, with the
    margin g(y) + tol - g_n(z_n) (see WitnessBundle)."""
    return _check_ex_one_sided(limit_pair, f_seq, g_seq, tol, sub=True)


def check_ex_superlim(
    limit_pair: tuple, f_seq: FnSequence, g_seq: FnSequence, tol: float
) -> WitnessBundle:
    """Mirror of check_ex_sublim for ddagger pairs (truncation from below,
    uniform lower bound, liminf inequality)."""
    return _check_ex_one_sided(limit_pair, f_seq, g_seq, tol, sub=False)


@dataclass(frozen=True)
class EnvelopeReport:
    upper: object
    lower: object
    separation_per_level: dict
    max_separation: float


def barles_perthame_envelopes(
    u_seq: FnSequence,
    h_seq: FnSequence,
    h_limit: Fn,
    pre_tol: float,
) -> EnvelopeReport:
    """Upper and lower envelopes of the solution sequence u_n = R_n(lam) h_n.

    u_seq holds the member solutions of the data h_seq; nothing is solved
    here.  Precondition (raised on violation): LIMSUP h_n <= h and
    LIMINF h_n >= h within pre_tol on the tracked compact levels.  The
    returned separation is the worst gap upper - lower per level, the
    quantity that must vanish for the limit resolvent to exist along this
    route.  Every envelope starts at the sequence's own burn-in index.
    """
    seq = h_seq.spaces
    up_h = compute_LIMSUP(h_seq)
    lo_h = compute_LIMINF(h_seq)
    for q, over, under in _envelope_excess(up_h, lo_h, h_limit, seq):
        if over > pre_tol:
            raise PreconditionError(
                f"LIMSUP of the data exceeds the target by {over:.3g} at level {q}"
            )
        if under > pre_tol:
            raise PreconditionError(
                f"LIMINF of the data undershoots the target by {under:.3g} at level {q}"
            )
    upper = compute_LIMSUP(u_seq)
    lower = compute_LIMINF(u_seq)
    separation = {}
    worst = 0.0
    for qi, q in enumerate(seq.compacts.labels):
        idx = seq.compacts.limit_sets[qi]
        touched = np.isfinite(upper.values[idx]) & np.isfinite(lower.values[idx])
        gap = (upper.values[idx] - lower.values[idx])[touched]
        s = float(gap.max()) if gap.size else 0.0
        separation[q] = s
        worst = max(worst, s)
    return EnvelopeReport(
        upper=upper, lower=lower, separation_per_level=separation, max_separation=worst
    )


def _solve_sequence(op_seq: OperatorSequence, problems: list) -> tuple:
    """The experiments' solve step for problems (lam, h_seq, h): solution
    sequences R_n(lam) h_n from one solve_all call per member family, limit
    solutions R(lam) h from one more, and the limit family, whose cache later
    checks read ([] and None without a limit Hamiltonian)."""
    member_sols = [
        ResolventFamily(hamiltonian=H).solve_all(
            [(lam, h_seq.members[n]) for lam, h_seq, _ in problems]
        )
        for n, H in enumerate(op_seq.members)
    ]
    u_seqs = [FnSequence(op_seq.spaces, sols) for sols in zip(*member_sols)]
    if op_seq.limit_hamiltonian is None:
        return u_seqs, [], None
    limit_family = ResolventFamily(hamiltonian=op_seq.limit_hamiltonian)
    return u_seqs, limit_family.solve_all([(lam, h) for lam, _, h in problems]), limit_family


@dataclass(frozen=True)
class ResolventExperimentReport:
    passed: bool
    expectation: str
    lifting: tuple
    witness_bundles: tuple
    member_viscosity: tuple
    equicontinuity: object
    envelope_cases: tuple
    limit_identity: object
    notes: tuple = ()


def resolvent_convergence_experiment(
    op_seq: OperatorSequence,
    D: Sequence[Fn],
    lambdas: Sequence[float],
    tol_lim: float,
    tol_envelope: float,
    tol_viscosity: float = 1e-8,
    equicontinuity_delta: float = 0.5,
    expectation: str = "converge",
    tol_witness: float | None = None,
) -> ResolventExperimentReport:
    """The full convergence chain for a family of member Hamiltonians.

    Steps: (a) lift every probe h through the embeddings (norms never grow)
    and confirm LIM h_n = h; (b) run the one-sided extended-limit checks for
    every limit graph pair on the witness pairs (phi_n, H_n phi_n) of its
    first component phi, lifted the same way; then solve every member
    problem R_n(lambda) h_n and limit problem R(lambda) h once, each
    family's in one solve_all call, for the steps that read them: (c)
    check each member solution is a viscosity sub- and supersolution for its
    own equation against the member test pairs; (d) fit the equi-continuity
    level; then per (h, lambda): envelopes, their separation, and the direct
    comparison of member solutions against the limit solution.  Only the
    limit's pseudo-resolvent identity solves again: R(alpha) of derived
    data, one stack per (alpha, beta).  With expectation="separate" the
    report passes when the envelopes detectably split on a probe instead.
    """
    if expectation not in ("converge", "separate"):
        raise PreconditionError("expectation must be 'converge' or 'separate'")
    seq = op_seq.spaces
    notes: list[str] = []

    # [f, its lift f_n, its member images H_n f_n] per distinct limit function
    # f, a data probe or a graph first component, told apart bit for bit as
    # the lift copies bits; the images are formed when a step first reads them
    formed: list = []

    def entry_for(f: Fn) -> list:
        for entry in formed:
            if entry[0].space is f.space and entry[0].values.tobytes() == f.values.tobytes():
                return entry
        formed.append([f, lift_to_members(f, seq), None])
        return formed[-1]

    def witness(f: Fn) -> tuple:
        """The witness pair sequences (f_n, H_n f_n) over the lift of f."""
        entry = entry_for(f)
        if entry[2] is None:
            entry[2] = FnSequence(seq, tuple(
                H(f_n) for H, f_n in zip(op_seq.members, entry[1].members)
            ))
        return entry[1], entry[2]

    lifting = []
    lifted: list[FnSequence] = []
    for k, h in enumerate(D):
        h_seq = entry_for(h)[1]
        lifted.append(h_seq)
        norm_ok = all(m.norm <= h.norm + 1e-12 for m in h_seq.members)
        verdict = check_LIM(h_seq, h, tol_lim)
        lifting.append({"h_index": k, "norm_preserved": norm_ok, "passed": verdict.passed,
                        "worst_dev": max(r["worst_dev"] for r in verdict.per_level.values())})

    # witness tolerance covers scheme consistency error at member resolution,
    # a larger scale than the solution-convergence tolerance tol_lim
    witness_bundles = []
    for kind, graph, check in (("sub", op_seq.limit_dagger, check_ex_sublim),
                               ("super", op_seq.limit_ddagger, check_ex_superlim)):
        if graph is None or tol_witness is None:
            continue
        for j, (phi, psi) in enumerate(graph.pairs):
            phi_fn = Fn(seq.limit, phi.values)
            bundle = check((phi_fn, psi), *witness(phi_fn), tol=tol_witness)
            witness_bundles.append({"pair": j, "kind": kind, "passed": bundle.passed,
                                    "bundle": bundle})

    # U[(k, lam)] is the solution sequence R_n(lam) h_n of probe k, and
    # u_limit[(k, lam)] its limit solution R(lam) h
    problems = [(k, lam) for k in range(len(D)) for lam in lambdas]
    u_seqs, u_lims, limit_family = _solve_sequence(
        op_seq, [(lam, lifted[k], D[k]) for k, lam in problems]
    )
    U = dict(zip(problems, u_seqs))
    u_limit = dict(zip(problems, u_lims))

    # the member test pairs: the witness pairs over the dagger graph's first
    # components, or over the data probes when there are none
    member_viscosity = []
    graph_fns = [] if op_seq.limit_dagger is None else [
        Fn(seq.limit, phi.values) for phi, _ in op_seq.limit_dagger.pairs
    ]
    test_pairs = [witness(f) for f in graph_fns or D]
    for n, H in enumerate(op_seq.members):
        dagger = OperatorGraph(
            H.space, tuple((f.members[n], g.members[n]) for f, g in test_pairs), kind="dagger"
        )
        ddagger = replace(dagger, kind="ddagger")
        for k, lam in problems:
            u_n, h_n = U[(k, lam)].members[n], lifted[k].members[n]
            sub = check_subsolution(u_n, dagger, h_n, lam, tol=tol_viscosity)
            sup = check_supersolution(u_n, ddagger, h_n, lam, tol=tol_viscosity)
            member_viscosity.append(
                {"n": n, "h_index": k, "lam": float(lam),
                 "sub_passed": sub.passed, "super_passed": sup.passed}
            )

    pairs = [(i, j) for i in range(len(D)) for j in range(i + 1, len(D))][:4]
    equi = None
    if pairs:
        equi = estimate_equicontinuity(
            seq, seq.compacts.labels[0], equicontinuity_delta,
            [(lifted[i], lifted[j], U[(i, lam)], U[(j, lam)])
             for i, j in pairs for lam in lambdas],
        )

    envelope_cases = []
    separated = False
    converged = True
    for k, lam in problems:
        u_seq = U[(k, lam)]
        rep = barles_perthame_envelopes(u_seq, lifted[k], D[k], pre_tol=tol_lim)
        case = {"h_index": k, "lam": float(lam),
                "max_separation": rep.max_separation,
                "separation_per_level": rep.separation_per_level,
                "envelopes_coincide": rep.max_separation <= tol_envelope}
        if limit_family is not None:
            verdict = check_LIM(u_seq, u_limit[(k, lam)], tol_envelope)
            case["lim_passed"] = verdict.passed
            case["lim_worst_dev"] = max(
                r["worst_dev"] for r in verdict.per_level.values()
            )
        envelope_cases.append(case)
        separated = separated or rep.max_separation > tol_envelope
        converged = converged and case["envelopes_coincide"] and case.get("lim_passed", True)

    limit_identity = None
    if limit_family is not None and len(lambdas) >= 2:
        lams = sorted(set(float(l) for l in lambdas))
        ab = [(lams[i], lams[j]) for i in range(len(lams)) for j in range(i + 1, len(lams))]
        limit_identity = check_pseudo_resolvent_identity(limit_family, ab, list(D), IDENTITY_TOL)

    structural_ok = (
        all(r["passed"] and r["norm_preserved"] for r in lifting)
        and all(b["passed"] for b in witness_bundles)
        and all(v["sub_passed"] and v["super_passed"] for v in member_viscosity)
        and (equi is None or equi.ok)
        and (limit_identity is None or limit_identity.passed)
    )
    if expectation == "converge":
        passed = structural_ok and converged
    else:
        passed = separated
        if separated:
            notes.append("envelope separation detected, as expected for the negative control")
    return ResolventExperimentReport(
        passed=passed,
        expectation=expectation,
        lifting=tuple(lifting),
        witness_bundles=tuple(witness_bundles),
        member_viscosity=tuple(member_viscosity),
        equicontinuity=equi,
        envelope_cases=tuple(envelope_cases),
        limit_identity=limit_identity,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SlowFastReport:
    passed: bool
    couplings: tuple
    oscillations: tuple
    decay_order: float
    final_deviation: float
    notes: tuple = ()


def slowfast_resolvent_experiment(
    op_seq: OperatorSequence,
    couplings: Sequence[float],
    lam: float,
    h: Fn,
    tol_deviation: float,
    min_decay_order: float = 0.8,
) -> SlowFastReport:
    """Averaging across coupling strengths, one member per strength n, on a
    sequence whose members are the points of its enlarged limit (a product
    over the slow limit): the fast oscillation of u_n = R_n(lam) h_n, its
    largest gap over a fibre of gamma, decays like 1/n, and the last member
    matches the limit resolvent: max |u_N - R(lam) h o gamma| is small."""
    seq = op_seq.spaces
    if len(couplings) != seq.n_members:
        raise PreconditionError("need one coupling strength per member")
    if op_seq.limit_hamiltonian is None:
        raise PreconditionError("need a limit Hamiltonian")
    if not all(np.array_equal(c, seq.enlarged_limit.coords) for c in seq.member_enlarged_coords):
        raise PreconditionError("the members must be the points of the enlarged limit")
    (u_seq,), (u_bar,), _ = _solve_sequence(op_seq, [(lam, lift_to_members(h, seq), h)])
    oscs = []
    for u in u_seq.members:
        hi = np.full(seq.limit.size, -np.inf)
        lo = np.full(seq.limit.size, np.inf)
        np.maximum.at(hi, seq.gamma, u.values)
        np.minimum.at(lo, seq.gamma, u.values)
        oscs.append(float((hi - lo).max()))
    final_dev = float(np.abs(u_seq.members[-1].values - u_bar.values[seq.gamma]).max())
    # order is an asymptotic quantity: fit on the tail half of the grid,
    # the weakest couplings are pre-asymptotic
    k0 = len(couplings) // 2 if len(couplings) >= 6 else 0
    order = -fit_loglog_slope(couplings[k0:], oscs[k0:])
    notes = []
    if not np.isfinite(order):
        notes.append("oscillation hit zero; decay order undefined")
    passed = (order >= min_decay_order or not np.isfinite(order)) and final_dev <= tol_deviation
    return SlowFastReport(
        passed=passed,
        couplings=tuple(float(c) for c in couplings),
        oscillations=tuple(oscs),
        decay_order=float(order),
        final_deviation=final_dev,
        notes=tuple(notes),
    )


def _settle_steps(
    family: ResolventFamily, t: float, f: Fn, tol: float, n_start: int, n_cap: int
) -> tuple[Fn, int, bool]:
    """Double the step count until two successive approximations agree to tol."""
    m, v = n_start, crandall_liggett(family, t, n_start, f).result
    while 2 * m <= n_cap:
        m, prev, v = 2 * m, v, crandall_liggett(family, t, 2 * m, f).result
        if float(np.abs(v.values - prev.values).max()) <= tol:
            return v, m, True
    return v, m, False


@dataclass(frozen=True)
class SemigroupExperimentReport:
    passed: bool
    verdict: ConvergenceVerdict
    member_steps: tuple
    limit_steps: int
    notes: tuple = ()


def semigroup_convergence_experiment(
    op_seq: OperatorSequence,
    t: float,
    f_limit: Fn,
    tol: float,
    n_start: int = 8,
    n_cap: int = 2**16,
) -> SemigroupExperimentReport:
    """V_n(t) f_n -> V(t) f across a converging sequence of spaces.

    The initial condition is lifted to every member; per member (and the
    limit) the step count doubles until self-consistent at tol / 10, capped;
    the settled values are then compared through check_LIM at tol.  The
    experiment fails when any member or the limit hits the cap unsettled.
    """
    if op_seq.limit_hamiltonian is None:
        raise PreconditionError("need a limit Hamiltonian")
    f_seq = lift_to_members(f_limit, op_seq.spaces)
    # (values, steps, settled) per member, then for the limit
    runs = [
        _settle_steps(ResolventFamily(hamiltonian=H), t, f, tol / 10.0, n_start, n_cap)
        for H, f in zip((*op_seq.members, op_seq.limit_hamiltonian), (*f_seq.members, f_limit))
    ]
    notes = [f"member {n}: step doubling hit the cap before settling"
             for n, (_, _, ok) in enumerate(runs[:-1]) if not ok]
    if not runs[-1][2]:
        notes.append("limit: step doubling hit the cap before settling")
    verdict = check_LIM(FnSequence(op_seq.spaces, [v for v, _, _ in runs[:-1]]), runs[-1][0], tol)
    return SemigroupExperimentReport(
        passed=verdict.passed and not notes,
        verdict=verdict,
        member_steps=tuple(m for _, m, _ in runs[:-1]),
        limit_steps=runs[-1][1],
        notes=tuple(notes),
    )
