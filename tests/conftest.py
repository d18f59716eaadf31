import os
from functools import cached_property
from pathlib import Path

import numpy as np

from hjlab import (
    FiniteSpace,
    SlowFastCoupling,
    make_product_sequence,
    random_rate_matrix,
    slowfast_hamiltonian,
    upwind_quadratic,
)
from hjlab.operators import JacobianPattern

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """os.environ with src/ first on PYTHONPATH, so that a subprocess running
    hjlab imports this checkout whether or not the package is installed."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def unit_grid(n: int, name: str = "") -> FiniteSpace:
    """Periodic grid on [0, 1): n equispaced points, the last gap wraps."""
    return FiniteSpace(coords=np.arange(n) / n, name=name or f"grid{n}")


def chain(n: int, name: str = "") -> FiniteSpace:
    return FiniteSpace(coords=np.arange(float(n)), name=name or f"chain{n}")


def banded_product(n_slow: int, n_fast: int, seed: int):
    """A slow-fast product over the upwind scheme on a unit grid of n_slow
    points, at coupling strength 4, with a random fast chain and, when it has
    more than one state, one fast state decoupled by m_z = 0: a Hamiltonian
    whose Newton step factors a folded band.  Returns it with a smooth value
    vector v on the product, as a Newton iterate of smooth data looks."""
    rng = np.random.default_rng(seed)
    s = unit_grid(n_slow, "slow")
    x = s.coords[:, 0]
    m = rng.uniform(0.5, 1.5, n_fast)
    if n_fast > 1:
        m[seed % n_fast] = 0.0
    coupling = SlowFastCoupling(
        slow=upwind_quadratic(s, 0.4 * np.sin(2.0 * np.pi * x)),
        fast_rate_matrix=random_rate_matrix(rng, n_fast), multipliers=tuple(m),
    )
    fast = FiniteSpace(coords=np.arange(float(n_fast)), name="fast")
    H = slowfast_hamiltonian(make_product_sequence(s, fast, n_members=3), 4.0, coupling)
    v = np.repeat(0.3 * np.cos(2.0 * np.pi * x), n_fast)
    return H, v + rng.uniform(-0.01, 0.01, v.shape[0])


def count_layout_builds(monkeypatch) -> dict:
    """Count, from here to the end of the test, the Newton layouts that
    JacobianPattern derives at a first Newton step: {"_band": folded bands,
    "_csc": CSC layouts}."""
    counts = {"_band": 0, "_csc": 0}
    for name in counts:
        def counted(pattern, build=JacobianPattern.__dict__[name].func, name=name):
            counts[name] += 1
            return build(pattern)

        prop = cached_property(counted)
        prop.__set_name__(JacobianPattern, name)
        monkeypatch.setattr(JacobianPattern, name, prop)
    return counts


def reduce_records(records) -> dict:
    """Per-level aggregates of one-sided sequence records ({"q", "y",
    "gated", "passed", "margin"} each, in tracked order), keyed as a
    WitnessBundle's per_level without its per-member margins: the worst
    margin is the first smallest one among the gated records."""
    levels: dict = {}
    for r in records:
        lv = levels.setdefault(r["q"], {
            "sequences": 0, "gated": 0, "failed": 0, "passed": True,
            "worst_margin": None, "witness_index": None,
        })
        lv["sequences"] += 1
        if r["gated"]:
            lv["gated"] += 1
            if not r["passed"]:
                lv["failed"] += 1
                lv["passed"] = False
            if lv["worst_margin"] is None or r["margin"] < lv["worst_margin"]:
                lv["worst_margin"], lv["witness_index"] = r["margin"], r["y"]
    return levels


def per_level_counts(per_level: dict) -> dict:
    """A WitnessBundle's per_level without its per-member margins.  Margins
    compare with ==, under which the two signs of zero agree: the bundle
    takes the smallest member margin, the records the margin against the
    largest (or smallest) g_n, which can differ in the sign of a zero."""
    return {q: {k: v for k, v in lv.items() if k != "per_member_margin"}
            for q, lv in per_level.items()}
