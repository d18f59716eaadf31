"""Per-pair reference for the viscosity sub/supersolution check.

The package checks every pair of a graph at once with whole-array numpy.
This is the earlier loop over pairs, kept verbatim as the reference: the
vectorised check must give the same passed flag, the same per-pair records
and notes, and raise the same errors.
"""

import numpy as np

from hjlab.errors import PreconditionError
from hjlab.limits import Fn
from hjlab.operators import _ext_scale
from hjlab.viscosity import ViscosityReport, _ext_diff, _ext_values


def check_solution(u, G, h: Fn, lam: float, tol: float, tie_tol: float, sub: bool):
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    uv = _ext_values(u)
    hv = _ext_values(h)
    if sub and uv.max() == np.inf:
        raise PreconditionError("subsolution candidates must be bounded above")
    if not sub and uv.min() == -np.inf:
        raise PreconditionError("supersolution candidates must be bounded below")
    gamma = G.gamma
    per_pair = []
    notes: list[str] = []
    all_ok = True
    sign = 1.0 if sub else -1.0
    for k, (f, g) in enumerate(G.pairs):
        # maximize sign * (u - f): covers sub (maximizers) and super (minimizers)
        diff_x = sign * _ext_diff(uv, f.values)
        gap = float(diff_x.max())
        record = {"pair": k, "skipped": False, "passed": True, "gap": sign * gap,
                  "slack": None, "witness_y": None, "witness_x": None, "n_ties": 0}
        if gap == np.inf:
            # the definition only quantifies over pairs with a finite gap
            record["skipped"] = True
            per_pair.append(record)
            continue
        if gap == -np.inf:
            notes.append(f"pair {k}: degenerate gap (u - f identically infinite); vacuous pass")
            per_pair.append(record)
            continue
        diff_y = diff_x[gamma]
        ties = np.flatnonzero(diff_y >= gap - tie_tol)
        if ties.size == 0:
            record["passed"] = False
            record["slack"] = np.inf
            notes.append(f"pair {k}: optimum not reachable through the enlarged space")
            all_ok = False
            per_pair.append(record)
            continue
        gv = g.values[ties]
        vals = _ext_diff(uv[gamma[ties]] - hv[gamma[ties]], _ext_scale(lam, gv))
        # subsolution wants min over ties <= tol; supersolution wants max >= -tol
        if sub:
            best = int(np.argmin(vals))
            slack = float(vals[best])
            ok = slack <= tol
        else:
            best = int(np.argmax(vals))
            slack = float(vals[best])
            ok = slack >= -tol
        record.update(
            slack=slack,
            n_ties=int(ties.size),
            witness_y=int(ties[best]),
            witness_x=int(gamma[ties[best]]),
            passed=ok,
        )
        all_ok = all_ok and ok
        per_pair.append(record)
    return ViscosityReport(
        kind="subsolution" if sub else "supersolution",
        passed=all_ok, tol=tol, lam=lam, per_pair=tuple(per_pair), notes=tuple(notes),
    )
