"""The package's earlier equi-continuity fit, in nested Python lists.

It collected the three suprema of every (case, member) into per-case rows
and took each level's margins one at a time.  The package computes the same
margins as one array; the arithmetic and its order are unchanged, so both
must give equal reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hjlab.resolvent import EQUICONTINUITY_SLACK, EquiContinuityReport
from hjlab.spaces import SpaceSequence


def estimate_equicontinuity(
    seq: SpaceSequence, q, delta: float, cases: Sequence[tuple]
) -> EquiContinuityReport:
    qi = seq.compacts.level(q)
    n_mem = seq.n_members
    sup_on_K: list[list[float]] = []  # [case][n]
    sup_global: list[list[float]] = []
    sup_on_level: dict = {lab: [] for lab in seq.compacts.labels}
    for h1s, h2s, u1s, u2s in cases:
        row_K, row_glob = [], []
        rows_level = {lab: [] for lab in seq.compacts.labels}
        for n in range(n_mem):
            diff_out = u1s.members[n].values - u2s.members[n].values
            diff_in = h1s.members[n].values - h2s.members[n].values
            row_K.append(float(diff_out[seq.compacts.member_sets[qi][n]].max()))
            row_glob.append(float(diff_in.max()))
            for li, lab in enumerate(seq.compacts.labels):
                rows_level[lab].append(float(diff_in[seq.compacts.member_sets[li][n]].max()))
        sup_on_K.append(row_K)
        sup_global.append(row_glob)
        for lab in seq.compacts.labels:
            sup_on_level[lab].append(rows_level[lab])

    chosen, worst = None, np.inf
    details = []
    for lab in seq.compacts.labels:
        margins = []
        for c in range(len(sup_on_K)):
            for n in range(n_mem):
                bound = delta * sup_global[c][n] + sup_on_level[lab][c][n] + EQUICONTINUITY_SLACK
                margins.append(bound - sup_on_K[c][n])
        m = float(min(margins))
        details.append({"q_hat": lab, "worst_margin": m, "ok": m >= 0.0})
        if m >= 0.0 and chosen is None:
            chosen, worst = lab, m
    return EquiContinuityReport(
        ok=chosen is not None, q=q, q_hat=chosen, delta=delta,
        worst_margin=(worst if chosen is not None else float(min(d["worst_margin"] for d in details))),
        details=tuple(details),
    )
