"""Calibration runs for the small grid-convergence fixtures.

Prints the envelope separations, limit deviations, and structural check
outcomes for the reduced positive and negative fixtures used in
tests/test_convergence.py, so the bounds frozen there trace back to a
recorded run.  Larger versions of the same fixtures ship as configs.
"""

import numpy as np

from hjlab import (
    OperatorSequence,
    centered_quadratic,
    graph_from_hamiltonian,
    make_grid_sequence,
    resolvent_convergence_experiment,
    trig_polynomial,
    upwind_quadratic,
)


def drift(space, amp):
    return amp * np.sin(2.0 * np.pi * space.coords[:, 0])


def build(scheme, resolutions, amp):
    seq = make_grid_sequence((0.0, 1.0), resolutions, limit_resolution_factor=10)
    members = tuple(scheme(m, drift(m, amp)) for m in seq.members)
    limit = upwind_quadratic(seq.limit, drift(seq.limit, amp))
    return seq, members, limit


def positive():
    seq, members, limit = build(upwind_quadratic, [32, 64, 128], 0.5)
    D = [
        trig_polynomial(seq.limit, [0.0, 0.2]),
        trig_polynomial(seq.limit, [0.1], [0.15]),
    ]
    graph_probes = [
        trig_polynomial(seq.limit, [0.0, 0.3]),
        trig_polynomial(seq.limit, [0.0], [0.2]),
    ]
    op_seq = OperatorSequence(
        spaces=seq,
        members=members,
        limit_hamiltonian=limit,
        limit_dagger=graph_from_hamiltonian(limit, graph_probes, kind="dagger"),
        limit_ddagger=graph_from_hamiltonian(limit, graph_probes, kind="ddagger"),
    )
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25, 1.0), tol_lim=0.05, tol_envelope=4.0 / 128,
        tol_witness=1.0,
    )
    print("positive passed:", rep.passed)
    for c in rep.envelope_cases:
        print(
            f"  h={c['h_index']} lam={c['lam']}: sep={c['max_separation']:.6f} "
            f"lim_dev={c['lim_worst_dev']:.6f}"
        )
    print("  witnesses:", [(b["kind"], b["passed"]) for b in rep.witness_bundles])
    print("  equi ok:", rep.equicontinuity.ok, " q_hat:", rep.equicontinuity.q_hat)
    print("  identity worst:", rep.limit_identity.worst_residual)


def negative():
    seq, members, limit = build(centered_quadratic, [64, 128, 256], 0.75)
    D = [trig_polynomial(seq.limit, [0.0, 0.0, 0.2])]
    graph_probes = [trig_polynomial(seq.limit, [0.0, 0.3])]
    op_seq = OperatorSequence(
        spaces=seq,
        members=members,
        limit_hamiltonian=limit,
        limit_dagger=graph_from_hamiltonian(limit, graph_probes, kind="dagger"),
        limit_ddagger=graph_from_hamiltonian(limit, graph_probes, kind="ddagger"),
    )
    rep = resolvent_convergence_experiment(
        op_seq, D, lambdas=(0.25,), tol_lim=0.05, tol_envelope=4.0 / 256,
        expectation="separate",
    )
    print("negative passed:", rep.passed)
    for c in rep.envelope_cases:
        print(f"  h={c['h_index']} lam={c['lam']}: sep={c['max_separation']:.6f}")
    fails = sum(
        1 for v in rep.member_viscosity if not (v["sub_passed"] and v["super_passed"])
    )
    print("  member viscosity failures:", fails, "of", len(rep.member_viscosity))


if __name__ == "__main__":
    positive()
    negative()
