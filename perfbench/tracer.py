"""Span tracer for the traced benchmark run.

Wraps hjlab's public functions from outside the package: every name is
patched where it is looked up (a module that did `from .limits import
check_LIM` holds its own reference, so each hjlab module's globals are
rewritten, not only the defining module).  Spans are kept in memory as
[name, start, end, parent, value] and reduced to per-layer metrics at the
end; the value is whatever a span's extractor pulled from the call's
arguments or result (iteration counts, bytes written, solver method).

Runs are single threaded (--jobs 1), so spans nest properly and a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import weakref
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.sparse.linalg


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.depth: Counter = Counter()
        self._caches = FamilyCaches()

    def wrap(self, fn, name, value=None):
        """Return fn recording one span per call.  name may be a callable
        resolved at entry (used to attribute linear solves to their caller)."""
        spans, stack, depth = self.spans, self._stack, self.depth

        def traced(*args, **kwargs):
            label = name() if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            depth[label] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                depth[label] -= 1
                stack.pop()
            if value is not None:
                rec[4] = value(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import hjlab.cli  # loads every hjlab module
        from hjlab import config, convergence, limits, operators, reporting
        from hjlab import resolvent, semigroup, spaces, viscosity

        def patch(module, attr, name, value=None):
            _patch_everywhere(module, attr, self.wrap(getattr(module, attr), name, value))

        patch(config, "load_config", "config.load")
        patch(hjlab.cli, "run_command", "cli.run_command")
        for attr in ("write_report", "write_table"):
            patch(reporting, attr, "reporting.write", _file_size)

        patch(resolvent, "solve_resolvent", "resolvent.solve", self._solve_value)
        for attr in ("check_pseudo_resolvent_identity", "check_contractive",
                     "build_Hhat", "estimate_equicontinuity"):
            patch(resolvent, attr, "resolvent.check")
        linear_solve = self._linear_solve_name
        patch(np.linalg, "solve", linear_solve)
        patch(scipy.sparse.linalg, "spsolve", linear_solve)

        patch(operators, "check_dissipative", "operators.dissipative",
              lambda out, a, k: out.checked)
        _wrap_hamiltonian_fields(operators.Hamiltonian, self)

        for cls, attr in ((spaces.SpaceSequence, "tracked"),
                          (spaces.EnlargedSpaceSequence, "tracked_enlarged")):
            setattr(cls, attr, self.wrap(getattr(cls, attr), "spaces.tracked",
                                         lambda out, a, k: len(out)))

        patch(limits, "check_LIM", "limits.check_LIM")
        patch(limits, "compute_LIMSUP", "limits.envelope")
        patch(limits, "compute_LIMINF", "limits.envelope")
        patch(limits, "lift_to_members", "limits.lift")

        for attr in ("resolvent_convergence_experiment", "slowfast_resolvent_experiment",
                     "check_ex_lim", "check_ex_sublim", "check_ex_superlim"):
            patch(convergence, attr, "convergence.experiment")
        patch(convergence, "barles_perthame_envelopes", "convergence.envelopes")

        for attr in ("check_subsolution", "check_supersolution"):
            patch(viscosity, attr, "viscosity.check", lambda out, a, k: len(out.per_pair))
        patch(viscosity, "find_optimizing_sequence", "viscosity.optimizing")

        patch(semigroup, "crandall_liggett", "semigroup.cl", lambda out, a, k: out.n_steps)
        patch(semigroup, "logexp_oracle", "semigroup.oracle")
        patch(semigroup, "linear_semigroup_oracle", "semigroup.oracle")
        patch(semigroup, "density_check_zero_operator", "semigroup.density")

    def _linear_solve_name(self) -> str:
        if self.depth["operators.custom_solver"]:
            return "operators.policy_linear_solve"
        if self.depth["resolvent.solve"]:
            return "resolvent.newton_linear_solve"
        return "other.linear_solve"

    def _solve_value(self, out, args, kwargs):
        # diagnostics come from the returned value, never from the family's
        # last_diagnostics side channel
        _, diag = out
        self._caches.observe(args[0])
        return (diag.method, diag.iterations, diag.from_cache)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        # outer spans have no ancestor of their own name: a Hamiltonian that
        # wraps another (scaled, slow-fast) calls the inner one's fields
        outer = [not _has_ancestor(spans, i, s[0]) for i, s in enumerate(spans)]
        total, self_s, calls, outer_total, outer_calls = (Counter() for _ in range(5))
        max_s: dict = {}
        for i, s in enumerate(spans):
            name = s[0]
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            max_s[name] = max(max_s.get(name, 0.0), dur[i])
            if outer[i]:
                outer_total[name] += dur[i]
                outer_calls[name] += 1

        def values(name):
            return [s[4] for s in spans if s[0] == name and s[4] is not None]

        solves = values("resolvent.solve")
        worked = [(m, it) for m, it, cached in solves if not cached]
        methods = Counter(m for m, _ in worked)
        hits = sum(1 for _, _, cached in solves if cached)
        policy_iterations = sum(
            s[4] for i, s in enumerate(spans)
            if s[0] == "operators.custom_solver" and outer[i] and s[4] is not None
        )
        m = {
            "config.load_s": total["config.load"],
            "cli.self_s": self_s["cli.run_command"],
            "reporting.write_s": total["reporting.write"],
            "reporting.bytes": sum(values("reporting.write")),
            "resolvent.solve_calls": len(solves),
            "resolvent.cache_hit_ratio": hits / len(solves) if solves else 0.0,
            "resolvent.cache_entries": self._caches.total(),
            "resolvent.solve_s": total["resolvent.solve"],
            "resolvent.solve_max_s": max_s.get("resolvent.solve", 0.0),
            "resolvent.iterations": sum(it for _, it in worked),
            "resolvent.checks_self_s": self_s["resolvent.check"],
            "resolvent.newton_linear_solve_s": total["resolvent.newton_linear_solve"],
            "resolvent.newton_linear_solve_calls": calls["resolvent.newton_linear_solve"],
            "operators.apply_calls": outer_calls["operators.apply"],
            "operators.apply_s": outer_total["operators.apply"],
            "operators.jacobian_calls": outer_calls["operators.jacobian"],
            "operators.jacobian_s": outer_total["operators.jacobian"],
            "operators.custom_solver_s": outer_total["operators.custom_solver"],
            "operators.policy_iterations": policy_iterations,
            "operators.policy_linear_solve_s": total["operators.policy_linear_solve"],
            "operators.policy_linear_solve_calls": calls["operators.policy_linear_solve"],
            "operators.dissipative_s": total["operators.dissipative"],
            "operators.dissipative_checked": sum(values("operators.dissipative")),
            "spaces.tracked_s": total["spaces.tracked"],
            "spaces.tracked_sequences": sum(values("spaces.tracked")),
            "limits.check_LIM_calls": calls["limits.check_LIM"],
            "limits.check_LIM_s": outer_total["limits.check_LIM"],
            "limits.envelope_s": total["limits.envelope"],
            "limits.lift_s": total["limits.lift"],
            "convergence.self_s": self_s["convergence.experiment"] + self_s["convergence.envelopes"],
            "convergence.envelopes_s": total["convergence.envelopes"],
            "viscosity.check_calls": calls["viscosity.check"],
            "viscosity.check_s": total["viscosity.check"],
            "viscosity.pairs_checked": sum(values("viscosity.check")),
            "viscosity.optimizing_s": total["viscosity.optimizing"],
            "semigroup.cl_s": total["semigroup.cl"],
            "semigroup.cl_steps": sum(values("semigroup.cl")),
            "semigroup.oracle_s": total["semigroup.oracle"],
            "semigroup.density_s": total["semigroup.density"],
            "trace.spans": len(spans),
        }
        for method, suffix in METHODS.items():
            m["resolvent.method." + suffix] = methods[method]
        return m

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans]}, fh)


# solver path as SolveDiagnostics.method spells it -> metric suffix
METHODS = {
    "custom": "custom",
    "custom+continuation": "custom_continuation",
    "newton": "newton",
    "newton+continuation": "newton_continuation",
    "fixed_point": "fixed_point",
    "fixed_point+newton": "fixed_point_newton",
}


class FamilyCaches:
    """Solve-cache sizes of every ResolventFamily seen, including families
    that were garbage collected before the run ended."""

    def __init__(self):
        self._live: dict = {}
        self._retired = 0

    def observe(self, family) -> None:
        key = id(family)
        ref, _ = self._live.get(key, (None, 0))
        if ref is not None and ref() is not family:
            self._retired += self._live.pop(key)[1]
            ref = None
        self._live[key] = (ref or weakref.ref(family), len(getattr(family, "_cache", ())))

    def total(self) -> int:
        return self._retired + sum(size for _, size in self._live.values())


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _file_size(out, args, kwargs) -> int:
    return os.path.getsize(out)


def _patch_everywhere(module, attr, replacement) -> None:
    """Rebind module.attr, and every hjlab module-level name bound to the
    same object by a `from ... import`."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    for name, mod in list(sys.modules.items()):
        if name == "hjlab" or name.startswith("hjlab."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


def _wrap_hamiltonian_fields(cls, tracer: Tracer) -> None:
    """Hamiltonians carry their operator, Jacobian and custom solver as
    closures, so wrap those fields on every instance as it is constructed."""
    fields = (("apply_values", "operators.apply", None),
              ("jacobian", "operators.jacobian", None),
              ("custom_solver", "operators.custom_solver", lambda out, a, k: out[1]))
    init = cls.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for attr, name, value in fields:
            fn = getattr(self, attr)
            if fn is not None and not hasattr(fn, "__wrapped__"):
                object.__setattr__(self, attr, tracer.wrap(fn, name, value))

    cls.__init__ = traced_init
