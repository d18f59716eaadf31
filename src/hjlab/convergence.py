"""Limits of operator sequences: extended limits, envelopes, and experiments.

A sequence of operators H_n over a converging sequence of spaces has three
graded notions of limit, each realized as an executable check over witness
sequences:

  check_ex_lim      both components of a limit pair are two-sided limits of
                    member pairs (f_n, g_n) with g_n = H_n f_n;
  check_ex_sublim   the one-sided version a dagger limit pair must satisfy:
                    truncated limits of f_n, a uniform upper bound on g_n,
                    and limsup g_n(z_n) <= g(y) along every tracked sequence
                    whose f-values converge to f(gamma(y));
  check_ex_superlim the mirror image for ddagger pairs.

The Barles-Perthame route to resolvent convergence composes these with the
upper/lower envelopes of the solved member resolvents: when the envelopes
coincide (comparison holds in the limit) the member solutions converge to
the limit resolvent, with no compactness or regularity input beyond the
tracked compact families.  `resolvent_convergence_experiment` runs the whole
chain: witness lifting, extended-limit checks, per-member viscosity checks,
equi-continuity fit, envelopes, and the direct comparison against the limit
solve; `slowfast_resolvent_experiment` exercises the averaging route where
the fast variable is eliminated in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError, StructuralError
from .limits import (
    ConvergenceVerdict,
    Fn,
    FnSequence,
    _burn_in,
    _envelope_excess,
    _gather,
    _lim_verdict,
    check_LIM,
    compute_LIMINF,
    compute_LIMSUP,
    lift_to_members,
)
from .operators import (
    Hamiltonian,
    SlowFastCoupling,
    averaged_slowfast_hamiltonian,
    graph_from_hamiltonian,
    slowfast_hamiltonian,
)
from .resolvent import (
    ResolventFamily,
    check_pseudo_resolvent_identity,
    estimate_equicontinuity,
)
from .semigroup import fit_loglog_slope
from .spaces import EnlargedSpaceSequence
from .viscosity import check_subsolution, check_supersolution

__all__ = [
    "OperatorSequence",
    "WitnessBundle",
    "EnvelopeReport",
    "ResolventExperimentReport",
    "SlowFastReport",
    "check_ex_lim",
    "check_ex_sublim",
    "check_ex_superlim",
    "barles_perthame_envelopes",
    "resolvent_convergence_experiment",
    "slowfast_resolvent_experiment",
]

# sup-norm deviation up to which a witness g_n counts as H_n f_n
MEMBERSHIP_TOL = 1e-9
# truncation levels c of the one-sided checks, evenly spaced over
# [-2 ||f||, 2 ||f||]
TRUNCATION_LEVELS = 5
# residual tolerance of the limit family's pseudo-resolvent identity
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class OperatorSequence:
    """Member operators over an enlarged space sequence, with limit graphs.

    members align with spaces.base.members; the limit Hamiltonian (when one
    exists) drives direct limit solves, and the dagger/ddagger graphs are the
    test pairs for the limit equation.
    """

    spaces: EnlargedSpaceSequence
    members: tuple
    limit_hamiltonian: Hamiltonian | None = None
    limit_dagger: object | None = None
    limit_ddagger: object | None = None

    def __post_init__(self) -> None:
        if len(self.members) != self.spaces.base.n_members:
            raise ValueError("need one member operator per member space")


def _member_images(
    op_seq: OperatorSequence, f_seq: FnSequence, g_seq: FnSequence | None
) -> FnSequence:
    """Validate (f_n, g_n) in H_n; when g_seq is None, construct g_n = H_n f_n."""
    images = []
    for n, H in enumerate(op_seq.members):
        img = H(f_seq.members[n])
        if g_seq is not None:
            dev = float(np.abs(img.values - g_seq.members[n].values).max())
            if dev > MEMBERSHIP_TOL:
                raise StructuralError(
                    f"witness pair {n} is not in the member operator: ||H f_n - g_n|| = {dev:.3g}"
                )
            images.append(g_seq.members[n])
        else:
            images.append(img)
    return FnSequence(f_seq.spaces, tuple(images))


@dataclass(frozen=True)
class ExLimReport:
    passed: bool
    f_verdict: ConvergenceVerdict
    g_verdict: ConvergenceVerdict


def check_ex_lim(
    op_seq: OperatorSequence,
    limit_pair: tuple,
    f_seq: FnSequence,
    g_seq: FnSequence | None,
    tol: float,
    n0: int | None = None,
) -> ExLimReport:
    """Two-sided extended limit: LIM f_n = f and LIM g_n = g with
    (f_n, g_n) in H_n (membership violations are structural errors).  The
    second components are tracked through the enlarged embeddings toward
    points of the enlarged limit."""
    ens = op_seq.spaces
    f_lim, g_lim = limit_pair
    g_seq = _member_images(op_seq, f_seq, g_seq)
    f_verdict = check_LIM(f_seq, f_lim, tol, n0=n0)
    g_verdict = _lim_verdict(
        g_seq, g_lim, tol, ens.base.n0 if n0 is None else n0,
        ens.tracked_enlarged, ens.enlarged_limit_sets,
    )
    return ExLimReport(
        passed=f_verdict.passed and g_verdict.passed, f_verdict=f_verdict, g_verdict=g_verdict
    )


@dataclass(frozen=True)
class WitnessBundle:
    """Witness sequences for one limit pair, with the graded-limit artifacts."""

    passed: bool
    kind: str
    truncation: tuple
    g_bound: float
    sequence_records: tuple
    notes: tuple = ()


def _sequence_records(
    ens: EnlargedSpaceSequence,
    f_seq: FnSequence,
    g_seq: FnSequence,
    f_lim: Fn,
    g_lim: Fn,
    tol: float,
    n0: int,
    sub: bool,
) -> tuple[tuple, bool]:
    """One record per tracked enlarged sequence, and whether all pass: a
    sequence whose f-tail stays within tol of f(gamma(y)) is gated, and a
    gated one passes when max g_n (sub) stays below g(y) + tol, or min g_n
    (super) above g(y) - tol, from n0 on."""
    records = []
    seq_ok = True
    for qi, q in enumerate(ens.base.compacts.labels):
        idx = ens.tracked_enlarged(q)
        y = ens.enlarged_limit_sets[qi]
        fv = _gather(f_seq, idx)[n0:]
        gv = _gather(g_seq, idx)[n0:]
        gated = np.abs(fv - f_lim.values[ens.gamma[y]]).max(axis=0) <= tol
        if sub:
            margin = g_lim.values[y] + tol - gv.max(axis=0)
        else:
            margin = gv.min(axis=0) - (g_lim.values[y] - tol)
        passed = ~gated | (margin >= 0.0)
        seq_ok = seq_ok and bool(passed.all())
        for yi, g, ok, m in zip(y.tolist(), gated.tolist(), passed.tolist(), margin.tolist()):
            records.append({"q": q, "y": yi, "gated": g, "passed": ok, "margin": m if g else None})
    return tuple(records), seq_ok


def _check_ex_one_sided(
    op_seq: OperatorSequence,
    limit_pair: tuple,
    f_seq: FnSequence,
    g_seq: FnSequence | None,
    tol: float,
    n0: int | None,
    sub: bool,
) -> WitnessBundle:
    ens = op_seq.spaces
    n0 = _burn_in(ens.base, n0)
    f_lim, g_lim = limit_pair
    g_seq = _member_images(op_seq, f_seq, g_seq)
    bound = float(max(f_lim.norm, 1e-12))
    c_grid = np.linspace(-2.0 * bound, 2.0 * bound, TRUNCATION_LEVELS)
    truncation = []
    trunc_ok = True
    for c in c_grid:
        if sub:
            v = check_LIM(f_seq.truncate_above(c), f_lim.truncate_above(c), tol, n0=n0)
        else:
            v = check_LIM(f_seq.truncate_below(c), f_lim.truncate_below(c), tol, n0=n0)
        worst = max(rec["worst_dev"] for rec in v.per_level.values())
        truncation.append({"c": float(c), "passed": v.passed, "worst_dev": worst})
        trunc_ok = trunc_ok and v.passed
    if sub:
        g_bound = float(max(g.values.max() for g in g_seq.members))
    else:
        g_bound = float(min(g.values.min() for g in g_seq.members))
    records, seq_ok = _sequence_records(ens, f_seq, g_seq, f_lim, g_lim, tol, n0, sub)
    notes = []
    if not trunc_ok:
        notes.append("truncated limits failed")
    if not seq_ok:
        notes.append("tracked-sequence inequality failed")
    return WitnessBundle(
        passed=trunc_ok and seq_ok,
        kind="sub" if sub else "super",
        truncation=tuple(truncation),
        g_bound=g_bound,
        sequence_records=records,
        notes=tuple(notes),
    )


def check_ex_sublim(
    op_seq: OperatorSequence,
    limit_pair: tuple,
    f_seq: FnSequence,
    g_seq: FnSequence | None = None,
    tol: float = 1e-6,
    n0: int | None = None,
) -> WitnessBundle:
    """One-sided extended limit for dagger pairs: truncated limits of f_n,
    uniform upper bound on g_n, and the tail inequality
    max_{n >= n0} g_n(z_n) <= g(y) + tol along every gated tracked sequence
    (gated = the f-values do converge to f(gamma(y)))."""
    return _check_ex_one_sided(op_seq, limit_pair, f_seq, g_seq, tol, n0, sub=True)


def check_ex_superlim(
    op_seq: OperatorSequence,
    limit_pair: tuple,
    f_seq: FnSequence,
    g_seq: FnSequence | None = None,
    tol: float = 1e-6,
    n0: int | None = None,
) -> WitnessBundle:
    """Mirror of check_ex_sublim for ddagger pairs (truncation from below,
    uniform lower bound, liminf inequality)."""
    return _check_ex_one_sided(op_seq, limit_pair, f_seq, g_seq, tol, n0, sub=False)


@dataclass(frozen=True)
class EnvelopeReport:
    upper: object
    lower: object
    solutions: FnSequence
    separation_per_level: dict
    max_separation: float


def barles_perthame_envelopes(
    families: Sequence[ResolventFamily],
    h_seq: FnSequence,
    lam: float,
    h_limit: Fn,
    pre_tol: float,
    n0: int | None = None,
) -> EnvelopeReport:
    """Upper and lower envelopes of the member resolvents R_n(lam) h_n.

    Precondition (raised on violation): LIMSUP h_n <= h and LIMINF h_n >= h
    within pre_tol on the tracked compact levels.  The returned separation is
    the worst gap upper - lower per level, the quantity that must vanish for
    the limit resolvent to exist along this route.
    """
    seq = h_seq.spaces
    up_h = compute_LIMSUP(h_seq, n0=n0)
    lo_h = compute_LIMINF(h_seq, n0=n0)
    for q, over, under in _envelope_excess(up_h, lo_h, h_limit, seq):
        if over > pre_tol:
            raise PreconditionError(
                f"LIMSUP of the data exceeds the target by {over:.3g} at level {q}"
            )
        if under > pre_tol:
            raise PreconditionError(
                f"LIMINF of the data undershoots the target by {under:.3g} at level {q}"
            )
    sols = []
    for n, fam in enumerate(families):
        sols.append(fam.solve(lam, h_seq.members[n]))
    u_seq = FnSequence(seq, tuple(sols))
    upper = compute_LIMSUP(u_seq, n0=n0)
    lower = compute_LIMINF(u_seq, n0=n0)
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
        upper=upper, lower=lower, solutions=u_seq,
        separation_per_level=separation, max_separation=worst,
    )


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
    every limit graph pair, with witnesses lifted the same way; (c) check
    each member solution is a viscosity sub- and supersolution for its own
    equation against the member test pairs; (d) fit the equi-continuity
    level; then per (h, lambda): envelopes, their separation, and the direct
    comparison of member solutions against the limit solve.  With
    expectation="separate" the report passes when the envelopes detectably
    split on at least one probe instead.
    """
    ens = op_seq.spaces
    base = ens.base
    families = [ResolventFamily(hamiltonian=H) for H in op_seq.members]
    limit_family = (
        ResolventFamily(hamiltonian=op_seq.limit_hamiltonian)
        if op_seq.limit_hamiltonian is not None
        else None
    )
    notes: list[str] = []

    lifting = []
    lifted: dict = {}
    for k, h in enumerate(D):
        h_seq = lift_to_members(h, base)
        lifted[k] = h_seq
        norm_ok = all(m.norm <= h.norm + 1e-12 for m in h_seq.members)
        verdict = check_LIM(h_seq, h, tol_lim)
        lifting.append({"h_index": k, "norm_preserved": norm_ok, "passed": verdict.passed,
                        "worst_dev": max(r["worst_dev"] for r in verdict.per_level.values())})

    # witness tolerance covers scheme consistency error at member resolution,
    # a larger scale than the solution-convergence tolerance tol_lim
    witness_bundles = []
    witness_fns: list[FnSequence] = []
    if op_seq.limit_dagger is not None:
        for j, (phi, psi) in enumerate(op_seq.limit_dagger.pairs):
            phi_fn = Fn(base.limit, phi.values)
            f_seq = lift_to_members(phi_fn, base)
            witness_fns.append(f_seq)
            if tol_witness is None:
                continue
            bundle = check_ex_sublim(
                op_seq, (phi_fn, psi), f_seq, None, tol=tol_witness
            )
            witness_bundles.append({"pair": j, "kind": "sub", "passed": bundle.passed,
                                    "bundle": bundle})
    if op_seq.limit_ddagger is not None and tol_witness is not None:
        for j, (phi, psi) in enumerate(op_seq.limit_ddagger.pairs):
            phi_fn = Fn(base.limit, phi.values)
            f_seq = lift_to_members(phi_fn, base)
            bundle = check_ex_superlim(
                op_seq, (phi_fn, psi), f_seq, None, tol=tol_witness
            )
            witness_bundles.append({"pair": j, "kind": "super", "passed": bundle.passed,
                                    "bundle": bundle})

    member_viscosity = []
    probe_seqs = witness_fns if witness_fns else [lifted[k] for k in lifted]
    for n in range(base.n_members):
        probes_n = [fs.members[n] for fs in probe_seqs]
        member_dagger = graph_from_hamiltonian(op_seq.members[n], probes_n, kind="dagger")
        member_ddagger = graph_from_hamiltonian(op_seq.members[n], probes_n, kind="ddagger")
        for k in lifted:
            for lam in lambdas:
                u_n = families[n].solve(lam, lifted[k].members[n])
                sub = check_subsolution(u_n, member_dagger, lifted[k].members[n], lam,
                                        tol=tol_viscosity)
                sup = check_supersolution(u_n, member_ddagger, lifted[k].members[n], lam,
                                          tol=tol_viscosity)
                member_viscosity.append(
                    {"n": n, "h_index": k, "lam": float(lam),
                     "sub_passed": sub.passed, "super_passed": sup.passed}
                )

    pairs = []
    for i in range(len(D)):
        for j in range(i + 1, len(D)):
            pairs.append((lifted[i], lifted[j]))
    equi = None
    if pairs:
        equi = estimate_equicontinuity(
            families, base, base.compacts.labels[0], equicontinuity_delta,
            lambdas, pairs[:4],
        )

    envelope_cases = []
    separated = False
    converged = True
    for k, h in enumerate(D):
        for lam in lambdas:
            rep = barles_perthame_envelopes(families, lifted[k], lam, h, pre_tol=tol_lim)
            case = {"h_index": k, "lam": float(lam),
                    "max_separation": rep.max_separation,
                    "separation_per_level": rep.separation_per_level,
                    "envelopes_coincide": rep.max_separation <= tol_envelope}
            if limit_family is not None:
                u_lim = limit_family.solve(lam, h)
                verdict = check_LIM(rep.solutions, u_lim, tol_envelope)
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
    elif expectation == "separate":
        passed = separated
        if separated:
            notes.append("envelope separation detected, as expected for the negative control")
    else:
        raise PreconditionError("expectation must be 'converge' or 'separate'")
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
    product: EnlargedSpaceSequence,
    coupling: SlowFastCoupling,
    couplings: Sequence[float],
    lam: float,
    h_slow: Fn,
    tol_deviation: float,
    min_decay_order: float = 0.8,
) -> SlowFastReport:
    """Averaging across coupling strengths: fast-variable oscillation of
    R_n(lam)h decays like 1/n, and the strongest-coupling solution matches
    the resolvent of the stationary-averaged slow operator."""
    base = product.base
    if len(couplings) != base.n_members:
        raise PreconditionError("need one coupling strength per member")
    n_slow = base.limit.size
    n_fast = coupling.n_fast
    h_seq = lift_to_members(h_slow, base)
    oscs = []
    for k, n in enumerate(couplings):
        H_n = slowfast_hamiltonian(product, n, coupling)
        u = ResolventFamily(hamiltonian=H_n).solve(lam, h_seq.members[k])
        V = u.values.reshape(n_slow, n_fast)
        oscs.append(float((V.max(axis=1) - V.min(axis=1)).max()))
    H_bar = averaged_slowfast_hamiltonian(coupling)
    fam_bar = ResolventFamily(hamiltonian=H_bar)
    u_bar = fam_bar.solve(lam, h_slow)
    # V is the solution at the strongest coupling, the last one solved
    final_dev = float(np.abs(V - u_bar.values[:, None]).max())
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
