"""Space containers and grid and product sequence constructions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain, unit_grid
from oracles import nearest_reference
from hjlab import (
    CompactFamily,
    FiniteSpace,
    Fn,
    SpaceSequence,
    lift_to_members,
    make_grid_sequence,
    make_product_sequence,
)
from hjlab import spaces


def test_finite_space_normalizes_coords():
    s = FiniteSpace(coords=np.array([0.0, 0.5, 1.0]))
    assert s.size == 3
    assert s.dim == 1
    assert s.coords.shape == (3, 1)


def test_finite_space_equality_is_identity():
    a, b = unit_grid(4), unit_grid(4)
    assert a == a
    # structurally identical spaces are still different spaces
    assert a != b


def test_nearest_breaks_ties_toward_the_lowest_index():
    s = FiniteSpace(coords=np.array([0.0, 1.0, 2.0]))
    picked = s.nearest(np.array([[0.5], [1.5]]))
    assert picked.tolist() == [0, 1]


def test_nearest_respects_the_within_restriction():
    s = FiniteSpace(coords=np.arange(4.0))
    picked = s.nearest(np.array([[0.0]]), within=np.array([2, 3]))
    assert picked.tolist() == [2]


def test_nearest_keeps_the_kdtree_choice_of_the_higher_index_at_a_tie():
    # 0.5 is exactly as far from point 0 as from point 1; cKDTree meets point
    # 1 first in this 17-point pool, and the sorted search must not override it
    s = chain(17)
    assert s.nearest(np.array([[0.5]])).tolist() == [1]
    assert s.nearest(np.array([[0.5], [1.5], [2.5]])).tolist() == [1, 1, 3]


def nearest_case(kind, n, seed):
    """Coordinates whose nearest-point queries tie often: a periodic grid,
    a grid with every coordinate repeated (as product spaces collapse their
    fast coordinate), coarse random values in shuffled order, and a plane."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return np.arange(n) / n
    if kind == "duplicated":
        return np.repeat(np.arange(n) / n, 3)
    if kind == "coarse":
        return rng.integers(-8, 9, n) / 8.0
    return rng.integers(0, 5, (n, 2)) / 4.0


@given(
    st.sampled_from(["grid", "duplicated", "coarse", "plane"]),
    st.integers(1, 40),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 2**16),
)
@example("grid", 64, 10, False, 0)
@example("duplicated", 1, 3, False, 0)
@example("grid", 1, 4, False, 0)
@settings(max_examples=200, deadline=None)
def test_nearest_matches_the_kdtree_reference(kind, n, factor, subset, seed):
    coords = nearest_case(kind, n, seed)
    s = FiniteSpace(coords=coords)
    rng = np.random.default_rng(seed + 1)
    pool = np.arange(s.size)
    within = None
    if subset:
        within = rng.permutation(s.size)[: rng.integers(1, s.size + 1)]
        pool = within
    x = np.unique(s.coords[pool, 0])
    lo, hi = x[0] - 0.5, x[-1] + 0.5
    targets = np.concatenate([
        (x[:-1] + x[1:]) / 2,  # midpoints: exact float ties on uniform grids
        lo + (hi - lo) * np.arange(factor * n) / (factor * n),  # a finer grid, past the hull
        rng.uniform(lo, hi, 8),
    ])
    if s.dim == 2:
        targets = np.column_stack([targets, rng.permutation(targets)])
    else:
        targets = targets[:, None]
    got = s.nearest(targets, within=within)
    want = nearest_reference._nearest(s.coords, pool, targets)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_tracking_and_lifting_on_the_control_grids_match_the_kdtree_reference():
    # the sequence of configs/positive_control.yaml and negative_control.yaml
    seq = make_grid_sequence((0.0, 1.0), [64, 128, 256, 512, 1024], limit_resolution_factor=10)
    for qi, q in enumerate(seq.compacts.labels):
        targets = seq.limit.coords[seq.compacts.limit_sets[qi]]
        want = np.stack([
            nearest_reference._nearest(m.coords, seq.compacts.member_sets[qi][n], targets)
            for n, m in enumerate(seq.members)
        ], axis=1)
        assert np.array_equal(seq.tracked(q), want)
    # the lifted values of the index function are the lifting's indices
    index_fn = Fn(seq.limit, np.arange(float(seq.limit.size)))
    lifted = lift_to_members(index_fn, seq)
    for m, f, idx in zip(seq.members, lifted.members, seq.lifting()):
        want = nearest_reference._nearest(seq.limit.coords, np.arange(seq.limit.size), m.coords)
        assert np.array_equal(f.values, want.astype(float))
        assert np.array_equal(idx, want)


def test_lifting_is_searched_once_per_sequence(monkeypatch):
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32], limit_resolution_factor=10)
    searched = []
    real = spaces._nearest
    monkeypatch.setattr(spaces, "_nearest", lambda *a: searched.append(1) or real(*a))
    f = Fn(seq.limit, np.sin(2.0 * np.pi * seq.limit.coords[:, 0]))
    first = lift_to_members(f, seq)
    second = lift_to_members(Fn(seq.limit, -f.values), seq)
    assert len(searched) == seq.n_members
    for a, b in zip(first.members, second.members):
        assert np.array_equal(a.values, -b.values)
    lifting = seq.lifting()
    assert lifting is seq.lifting()
    assert not any(idx.flags.writeable for idx in lifting)


def test_compact_family_rejects_empty_levels():
    with pytest.raises(ValueError):
        CompactFamily(
            labels=(0.5,),
            member_sets=((np.array([], dtype=int),),),
            limit_sets=(np.array([0]),),
        )


def test_space_sequence_needs_three_members_and_full_coverage():
    m = [chain(4, f"m{i}") for i in range(2)]
    fam = CompactFamily(
        labels=(1.0,),
        member_sets=((np.arange(4), np.arange(4)),),
        limit_sets=(np.arange(4),),
    )
    with pytest.raises(ValueError, match="3 member spaces"):
        SpaceSequence(members=tuple(m), limit=chain(4), compacts=fam)


def test_grid_sequence_shapes_and_burn_in_default():
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32, 64])
    assert [m.size for m in seq.members] == [8, 16, 32, 64]
    assert seq.limit.size == 640
    assert seq.n0 == 1
    assert seq.compacts.labels == (0.5, 1.0)


def test_space_sequence_burn_in_must_name_a_member():
    # a negative burn-in index would count from the end, and one past the
    # last member leaves nothing to check
    seq = make_grid_sequence((0.0, 1.0), [4, 16, 64], n0=2)
    assert seq.n0 == 2
    for n0 in (-1, seq.n_members):
        with pytest.raises(ValueError, match="n0 out of range"):
            make_grid_sequence((0.0, 1.0), [4, 16, 64], n0=n0)


def test_grid_sequence_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid_sequence((1.0, 0.0), [8, 16, 32])
    with pytest.raises(ValueError):
        make_grid_sequence((0.0, 1.0), [8, 8, 16])
    with pytest.raises(ValueError):
        make_grid_sequence((0.0, 1.0), [8, 16, 32], q_widths=(1.0, 0.5))


def test_tracked_sequences_stay_within_member_spacing():
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32])
    idx = seq.tracked(1.0)
    limit_idx = seq.compacts.limit_sets[seq.compacts.level(1.0)]
    assert idx.shape == (limit_idx.size, seq.n_members)
    for n, m in enumerate(seq.members):
        got = m.coords[idx[:, n], 0]
        target = seq.limit.coords[limit_idx, 0]
        # the embedding does not wrap, so the right edge costs one spacing
        assert np.all(np.abs(got - target) <= 1.0 / m.size + 1e-12)


def test_tracked_matrices_are_read_only_with_contiguous_member_columns():
    # perfbench's tracer counts tracked sequences as len() of these matrices
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32], q_widths=(0.5,))
    product = make_product_sequence(unit_grid(4, "slow"), unit_grid(3, "fast"), n_members=4)
    cases = [(seq.tracked, seq.compacts.limit_sets, seq)]
    for s in (seq, product):
        cases.append((s.tracked_enlarged, s.enlarged_limit_sets, s))
    for tracked, limit_sets, s in cases:
        for qi, q in enumerate(s.compacts.labels):
            idx = tracked(q)
            assert idx.shape == (limit_sets[qi].size, s.n_members)
            assert len(idx) == limit_sets[qi].size
            assert not idx.flags.writeable
            assert all(idx[:, n].flags.c_contiguous for n in range(s.n_members))
            with pytest.raises(ValueError):
                idx[0, 0] = 0
            assert tracked(q) is idx


def test_trivial_enlargement_has_identity_gamma():
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32])
    assert seq.enlarged_limit is seq.limit
    assert np.array_equal(seq.gamma, np.arange(seq.limit.size))
    assert not seq.gamma.flags.writeable
    assert all(c is m.coords for c, m in zip(seq.member_enlarged_coords, seq.members))
    assert all(a is b for a, b in zip(seq.enlarged_limit_sets, seq.compacts.limit_sets))


def test_trivial_enlargement_tracks_as_the_base_picture():
    seq = make_grid_sequence((0.0, 1.0), [8, 16, 32], q_widths=(0.25, 0.5))
    for q in seq.compacts.labels:
        assert np.array_equal(seq.tracked_enlarged(q), seq.tracked(q))


def test_gamma_must_map_into_the_limit_space():
    product = make_product_sequence(unit_grid(4, "slow"), unit_grid(3, "fast"), n_members=3)
    # -1 would name the last slow point by negative indexing, and the last
    # enlarged point does sit over it, so only the range check rejects it
    for bad in (-1, product.limit.size):
        gamma = product.gamma.copy()
        gamma[-1] = bad
        with pytest.raises(ValueError, match="gamma must map into the limit space"):
            replace(product, gamma=gamma)
    with pytest.raises(ValueError, match="every enlarged point"):
        replace(product, gamma=product.gamma[:-1])
    with pytest.raises(ValueError, match="does not commute"):
        replace(product, gamma=np.roll(product.gamma, 3))


def test_product_sequence_collapses_the_fast_coordinate():
    slow = unit_grid(4, "slow")
    fast = FiniteSpace(coords=np.arange(3.0), name="fast")
    product = make_product_sequence(slow, fast, n_members=3)
    assert product.limit is slow
    assert product.members[0].size == 12
    # constant sequence: every member is the same product space
    assert all(m is product.members[0] for m in product.members)
    assert product.gamma.shape == (12,)
    assert product.enlarged_limit.dim == 2
    # gamma forgets the fast coordinate
    expected = np.repeat(np.arange(4), 3)
    assert np.array_equal(product.gamma, expected)
    assert len(product.tracked_enlarged(1.0)) == 12


def test_product_sequence_needs_three_members():
    slow = unit_grid(4)
    fast = FiniteSpace(coords=np.arange(2.0))
    with pytest.raises(ValueError):
        make_product_sequence(slow, fast, n_members=2)

