"""Per-pair reference for the dissipativity check.

The package compares each pair with all later pairs and every lambda at once.
This is the earlier triple loop, kept verbatim as the reference: the same
checked count, the same floats, and the violations in the same (i, j, lam)
order.
"""

from typing import Sequence

import numpy as np

from hjlab.errors import PreconditionError
from hjlab.limits import ExtFn, Fn
from hjlab.operators import DissipativityReport


def check_dissipative(
    pairs: Sequence[tuple], lambdas: Sequence[float], tol: float = 1e-9
) -> DissipativityReport:
    """Check ||f1 - lam*g1 - (f2 - lam*g2)|| >= ||f1 - f2|| - tol over all
    unordered pair combinations (self-pairs included) and all lambdas."""
    fns = []
    for f, g in pairs:
        fv = f.values if isinstance(f, (Fn, ExtFn)) else np.asarray(f, dtype=float)
        gv = g.values if isinstance(g, (Fn, ExtFn)) else np.asarray(g, dtype=float)
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise PreconditionError("dissipativity check needs finite pairs")
        fns.append((fv, gv))
    violations = []
    checked = 0
    for i in range(len(fns)):
        f1, g1 = fns[i]
        for j in range(i, len(fns)):
            f2, g2 = fns[j]
            rhs = float(np.abs(f1 - f2).max())
            for lam in lambdas:
                if lam <= 0:
                    raise PreconditionError("lambdas must be positive")
                lhs = float(np.abs((f1 - lam * g1) - (f2 - lam * g2)).max())
                checked += 1
                if lhs < rhs - tol:
                    violations.append(
                        {"i": i, "j": j, "lam": float(lam), "lhs": lhs, "rhs": rhs,
                         "deficit": rhs - lhs}
                    )
    return DissipativityReport(passed=not violations, checked=checked, violations=tuple(violations))
