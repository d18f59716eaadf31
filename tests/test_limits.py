"""Function containers, LIM checks, and envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_grid
from oracles import limit_core_reference, limit_reference
from hjlab import (
    CompactFamily,
    ExtFn,
    Fn,
    FnSequence,
    PreconditionError,
    SpaceSequence,
    check_LIM,
    compute_LIMINF,
    compute_LIMSUP,
    lift_to_members,
    make_grid_sequence,
    make_product_sequence,
    trig_polynomial,
)
from hjlab.convergence import _sequence_records
from hjlab.limits import _lim_verdict


def test_fn_rejects_bad_values():
    s = unit_grid(4)
    with pytest.raises(ValueError):
        Fn(s, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Fn(s, np.array([1.0, np.inf, 0.0, 0.0]))


def test_fn_values_are_frozen():
    f = Fn(unit_grid(3), np.zeros(3))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_fn_algebra_and_truncation():
    s = unit_grid(4)
    f = Fn(s, np.array([1.0, -2.0, 3.0, 0.0]))
    assert f.truncate_above(0.5).values.max() == 0.5
    assert f.truncate_below(0.0).values.min() == 0.0


def test_ext_fn_boundedness_flags_and_round_trip():
    s = unit_grid(3)
    e = ExtFn(s, np.array([1.0, -np.inf, 0.0]))
    assert e.bounded_above and not e.bounded_below
    with pytest.raises(ValueError):
        ExtFn(s, np.array([0.0, np.nan, 1.0]))
    f = Fn(s, np.arange(3.0))
    assert np.array_equal(f.as_ext().values, f.values)


def _const_seq(seq, values_fn):
    return FnSequence(seq, tuple(Fn(m, values_fn(m)) for m in seq.members))


def test_check_lim_accepts_the_lifted_target():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64])
    f = trig_polynomial(seq.limit, [0.0, 1.0])
    fs = lift_to_members(f, seq)
    verdict = check_LIM(fs, f, tol=2.0 * np.pi / 16)
    assert verdict.passed
    assert verdict.n0 == seq.n0
    assert set(verdict.per_level) == {0.5, 1.0}


def test_check_lim_rejects_a_constant_offset():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64])
    f = trig_polynomial(seq.limit, [0.0, 1.0])
    fs = lift_to_members(f, seq)
    verdict = check_LIM(fs, Fn(f.space, f.values + 0.5), tol=0.1)
    assert not verdict.passed
    assert all(rec["worst_dev"] >= 0.4 for rec in verdict.per_level.values())


def test_check_lim_burn_in_ignores_early_members():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64], n0=0)
    f = trig_polynomial(seq.limit, [0.0, 1.0])
    lifted = lift_to_members(f, seq)
    # corrupt the first member only
    members = (Fn(seq.members[0], lifted.members[0].values + 5.0),) + lifted.members[1:]
    fs = FnSequence(seq, members)
    assert not check_LIM(fs, f, tol=0.5, n0=0).passed
    assert check_LIM(fs, f, tol=0.5, n0=1).passed


def test_limsup_liminf_bracket_an_oscillating_sequence():
    seq = make_grid_sequence((0.0, 1.0), [16, 32, 64], n0=0)
    fs = FnSequence(
        seq,
        tuple(Fn(m, ((-1.0) ** n) * np.ones(m.size)) for n, m in enumerate(seq.members)),
    )
    up = compute_LIMSUP(fs)
    lo = compute_LIMINF(fs)
    assert np.all(up.values == 1.0)
    assert np.all(lo.values == -1.0)


def test_envelopes_mark_unreached_points_with_infinities():
    # compacts covering only half of the limit space leave the rest unset
    members = tuple(unit_grid(4, f"m{i}") for i in range(3))
    limit = unit_grid(4, "lim")
    compacts = CompactFamily(
        labels=(1.0,),
        member_sets=((np.arange(2),) * 3,),
        limit_sets=(np.arange(2),),
    )
    seq = SpaceSequence(members=members, limit=limit, compacts=compacts)
    fs = _const_seq(seq, lambda m: np.zeros(m.size))
    up = compute_LIMSUP(fs)
    lo = compute_LIMINF(fs)
    assert np.all(up.values[:2] == 0.0) and np.all(lo.values[:2] == 0.0)
    assert np.all(up.values[2:] == -np.inf)
    assert np.all(lo.values[2:] == np.inf)


def test_lift_to_members_never_grows_norms():
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32])
    f = trig_polynomial(seq.limit, [0.0, 0.7], [0.1])
    fs = lift_to_members(f, seq)
    assert all(m.norm <= f.norm + 1e-12 for m in fs.members)
    with pytest.raises(PreconditionError):
        lift_to_members(Fn(seq.members[0], np.zeros(8)), seq)


# Resolutions r0, 3 r0, 9 r0 and an odd limit factor keep every limit point off
# the midpoints between member points, so nearest points are unique and the
# reference's own scan must find the same tracked sequences as the package.
@settings(max_examples=40, deadline=None)
@given(
    r0=st.sampled_from([3, 5]),
    factor=st.sampled_from([3, 5]),
    n0=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    tol=st.floats(0.0, 2.0),
    coarse=st.booleans(),
)
def test_array_core_matches_the_per_point_reference(r0, factor, n0, seed, tol, coarse):
    seq = make_grid_sequence(
        (0.0, 1.0), [r0, 3 * r0, 9 * r0], q_widths=(0.4, 0.7),
        limit_resolution_factor=factor, n0=n0,
    )
    assert seq.compacts.n_levels == 3
    rng = np.random.default_rng(seed)

    def values(size):
        # coarse values tie often, which pins down the witness tie-break
        return rng.integers(-2, 3, size) / 2.0 if coarse else rng.uniform(-1, 1, size)

    fs = FnSequence(seq, tuple(Fn(m, values(m.size)) for m in seq.members))
    f = Fn(seq.limit, values(seq.limit.size))
    member_values = [m.values.tolist() for m in fs.members]

    for qi, q in enumerate(seq.compacts.labels):
        rows = limit_reference.tracked_rows(seq, qi)
        assert seq.compacts.limit_sets[qi].tolist() == [p for p, _ in rows]
        assert seq.tracked(q).tolist() == [z for _, z in rows]

    verdict = check_LIM(fs, f, tol)
    ref = limit_reference.lim_levels(seq, member_values, f.values.tolist(), n0)
    assert verdict.n0 == n0
    for q, rec in verdict.per_level.items():
        assert rec["worst_dev"] == ref[q]["worst_dev"]
        assert rec["witness_limit_index"] == ref[q]["witness_limit_index"]
        assert rec["per_member_dev"].tolist() == ref[q]["per_member_dev"]
        assert rec["passed"] == (ref[q]["worst_dev"] <= tol)

    for upper, compute in ((True, compute_LIMSUP), (False, compute_LIMINF)):
        got = compute(fs).values.tolist()
        assert got == limit_reference.envelope(seq, member_values, n0, upper)


def _verdict_bytes(v):
    # every float as its bytes, so a zero's sign and the last bit both count
    return (v.passed, v.n0, v.notes, np.float64(v.uniform_bound).tobytes(), [
        (q, np.float64(r["worst_dev"]).tobytes(), r["witness_limit_index"],
         r["per_member_dev"].dtype, r["per_member_dev"].tobytes(), r["passed"])
        for q, r in v.per_level.items()
    ])


# Member values drawn from a few levels tie often, and carry both +0.0 and
# -0.0, so the member-major reductions must pick the same element of every
# tie as the target-major ones.
@settings(max_examples=60, deadline=None)
@given(
    product=st.booleans(),
    res=st.lists(st.integers(3, 12), min_size=3, max_size=5, unique=True),
    n0=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([0.0, 0.5, 1.0]),
    sub=st.booleans(),
)
def test_member_major_core_matches_the_target_major_reference_bytewise(
    product, res, n0, seed, tol, sub
):
    if product:
        seq = make_product_sequence(
            unit_grid(res[0], "slow"), unit_grid(3, "fast"), n_members=len(res),
            q_fractions=(0.5,),
        )
    else:
        seq = make_grid_sequence((0.0, 1.0), sorted(res), q_widths=(0.4, 0.7), n0=0)
    n0 = min(n0, seq.n_members - 1)
    rng = np.random.default_rng(seed)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])

    def values(space):
        return levels[rng.integers(0, levels.size, space.size)]

    fs = FnSequence(seq, tuple(Fn(m, values(m)) for m in seq.members))
    gs = FnSequence(seq, tuple(Fn(m, values(m)) for m in seq.members))
    f = Fn(seq.limit, values(seq.limit))
    g = Fn(seq.enlarged_limit, values(seq.enlarged_limit))

    assert _verdict_bytes(check_LIM(fs, f, tol, n0=n0)) == _verdict_bytes(
        limit_core_reference._lim_verdict(fs, f, tol, n0, seq.tracked, seq.compacts.limit_sets)
    )
    # the enlarged second-component verdict of check_ex_lim
    args = (gs, g, tol, n0, seq.tracked_enlarged, seq.enlarged_limit_sets)
    assert _verdict_bytes(_lim_verdict(*args)) == _verdict_bytes(
        limit_core_reference._lim_verdict(*args)
    )
    for upper, compute in ((True, compute_LIMSUP), (False, compute_LIMINF)):
        want = limit_core_reference._envelope(fs, n0, upper)
        assert compute(fs, n0=n0).values.tobytes() == want.values.tobytes()

    f_lim = Fn(seq.limit, values(seq.limit))
    got_records, got_ok = _sequence_records(seq, fs, gs, f_lim, g, tol, n0, sub)
    want_records, want_ok = limit_core_reference.sequence_records(
        seq, fs, gs, f_lim, g, tol, n0, sub
    )
    # repr spells every float exactly, the sign of a zero included
    assert repr(got_records) == repr(want_records)
    assert got_ok == want_ok


def test_burn_in_index_must_name_a_member():
    # only the last of three members matches f, so n0 = 2 passes and n0 = 0
    # fails; n0 = -1 would count from the end and n0 = 3 leaves no tail
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32], n0=0)
    f = trig_polynomial(seq.limit, [0.0, 1.0])
    lifted = lift_to_members(f, seq)
    members = tuple(
        Fn(m, v.values + (5.0 if n < 2 else 0.0))
        for n, (m, v) in enumerate(zip(seq.members, lifted.members))
    )
    fs = FnSequence(seq, members)
    assert check_LIM(fs, f, tol=0.5, n0=2).passed
    assert not check_LIM(fs, f, tol=0.5, n0=0).passed
    for n0 in (-1, 3):
        with pytest.raises(PreconditionError, match="burn-in"):
            check_LIM(fs, f, tol=0.5, n0=n0)
        with pytest.raises(PreconditionError, match="burn-in"):
            compute_LIMSUP(fs, n0=n0)
        with pytest.raises(PreconditionError, match="burn-in"):
            compute_LIMINF(fs, n0=n0)
