"""Brute-force per-point reference for the LIM / LIMSUP / LIMINF core.

Every limit point of every compact level is handled on its own: its tracked
sequence comes from a full distance scan over each member's compact set, and
deviations and envelopes are reduced with plain Python loops.  The package's
array core (index matrices, one gather per level, np.maximum.at) must agree
with it exactly, since max and min introduce no rounding.  Only 1-d spaces
are handled, which is what grid sequences are.
"""

import math


def tracked_rows(seq, qi):
    """[(limit point index, [nearest member point index per member]), ...] for
    level qi, in the order of the level's limit set; ties keep the lowest index
    (member sets are sorted)."""
    rows = []
    for p in seq.compacts.limit_sets[qi].tolist():
        target = float(seq.limit.coords[p, 0])
        z = []
        for n, m in enumerate(seq.members):
            xs = m.coords[:, 0].tolist()
            best_d, best_i = math.inf, None
            for i in seq.compacts.member_sets[qi][n].tolist():
                d = abs(xs[i] - target)
                if d < best_d:
                    best_d, best_i = d, i
            z.append(best_i)
        rows.append((p, z))
    return rows


def lim_levels(seq, member_values, f_values, n0):
    """Per level label: worst tail deviation, the limit index of the first row
    attaining it, and the per-member deviation over all rows."""
    out = {}
    for qi, q in enumerate(seq.compacts.labels):
        worst, witness = -math.inf, None
        per_member = [-math.inf] * len(member_values)
        for p, z in tracked_rows(seq, qi):
            row_worst = -math.inf
            for n, vals in enumerate(member_values):
                d = abs(vals[z[n]] - f_values[p])
                per_member[n] = max(per_member[n], d)
                if n >= n0:
                    row_worst = max(row_worst, d)
            if row_worst > worst:
                worst, witness = row_worst, p
        out[q] = {"worst_dev": worst, "witness_limit_index": witness,
                  "per_member_dev": per_member}
    return out


def envelope(seq, member_values, n0, upper):
    """Tail max (upper) or min of f_n along every tracked sequence, taken over
    all levels per limit point; unreached points stay at -inf / +inf."""
    pick = max if upper else min
    out = [-math.inf if upper else math.inf] * seq.limit.size
    for qi in range(seq.compacts.n_levels):
        for p, z in tracked_rows(seq, qi):
            tail = [vals[z[n]] for n, vals in enumerate(member_values) if n >= n0]
            out[p] = pick(out[p], pick(tail))
    return out


def one_sided_records(seq, f_values, g_values, f_limit, g_limit, tol, n0, sub):
    """check_ex_sublim / check_ex_superlim sequence records for the trivial
    enlargement of seq (gamma = identity), one tracked sequence at a time."""
    records = []
    for qi, q in enumerate(seq.compacts.labels):
        for p, z in tracked_rows(seq, qi):
            fv = [f_values[n][z[n]] for n in range(n0, len(f_values))]
            gv = [g_values[n][z[n]] for n in range(n0, len(g_values))]
            gated = max(abs(v - f_limit[p]) for v in fv) <= tol
            rec = {"q": q, "y": p, "gated": gated, "passed": True, "margin": None}
            if gated:
                if sub:
                    margin = g_limit[p] + tol - max(gv)
                else:
                    margin = min(gv) - (g_limit[p] - tol)
                rec["margin"] = margin
                rec["passed"] = margin >= 0.0
            records.append(rec)
    return records
