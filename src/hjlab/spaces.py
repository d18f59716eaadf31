"""Finite state spaces, compact-set families, and converging sequences of spaces.

The objects here encode the geometric side of the laboratory: a sequence of
finite spaces X_1, X_2, ... together with a limit space X, all embedded in a
common ambient R^d by maps eta_n and eta.  Convergence of points is always
measured in the ambient space.  A directed family of "compact" subsets
K_n^q (one per member space and level q, plus a limit set K^q per level)
organizes where quantitative convergence statements are required to hold:
the levels form a finite chain, member sets grow with q, and the embedded
member sets approach the embedded limit set in Hausdorff distance.

Two-scale problems additionally carry an enlarged picture on the same
SpaceSequence: a second, larger limit space with its own embedding, a
projection gamma down to the limit, and a commuting square tying the two
embeddings together.  A sequence built without one has the trivial
enlargement: the enlarged limit is the limit itself and gamma is the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "FiniteSpace",
    "CompactFamily",
    "SpaceSequence",
    "make_grid_sequence",
    "make_product_sequence",
]


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite set of points, one row of coords each, embedded into R^d.

    The embedding need not be injective (product spaces project onto their
    slow factor, collapsing the fast coordinate).  Identity semantics: two
    spaces compare equal only when they are the same object, so functions
    and operators agree on a space by sharing it, not by rebuilding it.
    """

    coords: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def nearest(self, targets: np.ndarray, within: np.ndarray | None = None) -> np.ndarray:
        """Indices of the nearest points to each target row, optionally restricted
        to the point-index subset `within`, by squared Euclidean distance.

        On a 1-d space the pool is sorted once and each target is placed
        between its two neighbours by binary search (np.searchsorted).  A
        target equidistant from several pool points (an exact float tie, or a
        pick on a duplicated coordinate, as in product spaces that collapse
        the fast coordinate) is answered by cKDTree, as is every target of a
        space with d > 1.  cKDTree gives such a target the point its search
        meets first: the same choice for the same pool and target on every
        run, but not always the lowest (or the highest) index."""
        pool = np.arange(self.size) if within is None else np.asarray(within, dtype=int)
        if pool.size == 0:
            raise ValueError("nearest() over an empty subset")
        return _nearest(self.coords, pool, targets)


def _kdtree_nearest(coords: np.ndarray, pool: np.ndarray, targets: np.ndarray) -> np.ndarray:
    _, local = cKDTree(coords[pool]).query(targets)
    return pool[np.atleast_1d(local)]


def _nearest(coords: np.ndarray, pool: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # index (into coords) of the nearest pool row to each target row
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if coords.shape[1] != 1 or targets.shape[1] != 1:
        return _kdtree_nearest(coords, pool, targets)
    order = np.argsort(coords[pool, 0], kind="stable")
    xs = coords[pool[order], 0]
    t = targets[:, 0]
    right = np.minimum(np.searchsorted(xs, t), xs.size - 1)
    left = np.maximum(right - 1, 0)
    pick = np.where((xs[right] - t) ** 2 < (xs[left] - t) ** 2, right, left)
    # Squared distance falls, then rises along the sorted pool, so the pick is
    # the only nearest point unless a sorted neighbour is exactly as far.
    # Those targets (and non-finite ones) take cKDTree's tie choice, which
    # is not a simple rule of the indices.
    padded = np.concatenate(([-np.inf], xs, [np.inf]))
    d = (padded[pick + 1] - t) ** 2
    clear = (d < (padded[pick] - t) ** 2) & (d < (padded[pick + 2] - t) ** 2)
    out = pool[order[pick]]
    if not clear.all():
        out[~clear] = _kdtree_nearest(coords, pool, targets[~clear])
    return out


def _index_matrix(columns: list) -> np.ndarray:
    # one column per member, each stored contiguously (the transpose of a
    # member-major stack), frozen so cached matrices cannot be edited
    idx = np.stack(columns).T
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True)
class CompactFamily:
    """A finite chain of compact levels q, smallest first.

    member_sets[qi][n] holds the point indices of K_n^q inside member n;
    limit_sets[qi] holds the indices of K^q inside the limit space.
    """

    labels: tuple
    member_sets: tuple
    limit_sets: tuple

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.member_sets) or len(self.labels) != len(self.limit_sets):
            raise ValueError("labels, member_sets, limit_sets must align")
        member_sets = tuple(
            tuple(np.asarray(s, dtype=int) for s in per_q) for per_q in self.member_sets
        )
        limit_sets = tuple(np.asarray(s, dtype=int) for s in self.limit_sets)
        for per_q in member_sets:
            for s in per_q:
                if s.size == 0:
                    raise ValueError("empty compact member set")
        object.__setattr__(self, "member_sets", member_sets)
        object.__setattr__(self, "limit_sets", limit_sets)

    @property
    def n_levels(self) -> int:
        return len(self.labels)

    def level(self, q) -> int:
        return self.labels.index(q)


@dataclass(frozen=True)
class SpaceSequence:
    """Members X_1..X_N embedded alongside a limit space X, with a compact family.

    n0 is the burn-in index: quantitative convergence checks apply to members
    n >= n0 only.  Tracked sequences (nearest-point liftings of limit points,
    level by level) are the probes for all limit computations.

    The enlarged picture of two-scale problems: an enlarged limit Y with its
    own embedding eta_hat into R^{d_hat}, member coordinates in that ambient
    space, enlarged compact sets K_hat^q (one per level), and gamma mapping
    every Y point onto a limit point.  The square commutes exactly: the
    first limit.dim coordinates of eta_hat(y) are eta(gamma(y)).  Omitted,
    these fields take the trivial enlargement: Y = X, gamma = identity and
    the member and limit embeddings and compact sets of the base picture.
    """

    members: tuple
    limit: FiniteSpace
    compacts: CompactFamily
    n0: int = 0
    enlarged_limit: FiniteSpace | None = None
    gamma: np.ndarray | None = None
    member_enlarged_coords: tuple | None = None
    enlarged_limit_sets: tuple | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.members) < 3:
            raise ValueError("need at least 3 member spaces")
        for per_q in self.compacts.member_sets:
            if len(per_q) != len(self.members):
                raise ValueError("compact family must cover every member")
        # the burn-in index names a member: a negative one would count from
        # the end, and one past the last leaves nothing to check
        if not 0 <= self.n0 < len(self.members):
            raise ValueError("n0 out of range")
        enlarged = self.limit if self.enlarged_limit is None else self.enlarged_limit
        if self.gamma is None:
            gamma = np.arange(enlarged.size)
        else:
            gamma = np.array(self.gamma, dtype=int)
        if gamma.shape != (enlarged.size,):
            raise ValueError("gamma must assign a limit point to every enlarged point")
        if np.any((gamma < 0) | (gamma >= self.limit.size)):
            raise ValueError("gamma must map into the limit space")
        gamma.flags.writeable = False
        if not np.array_equal(self.limit.coords[gamma], enlarged.coords[:, :self.limit.dim]):
            raise ValueError(
                "embedding square does not commute: eta(gamma(y)) != gamma_hat(eta_hat(y))"
            )
        coords = self.member_enlarged_coords
        if coords is None:
            coords = tuple(m.coords for m in self.members)
        if len(coords) != len(self.members):
            raise ValueError("need enlarged coordinates for every member")
        sets = self.enlarged_limit_sets
        if sets is None:
            sets = self.compacts.limit_sets
        sets = tuple(np.asarray(s, dtype=int) for s in sets)
        object.__setattr__(self, "enlarged_limit", enlarged)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "member_enlarged_coords", tuple(coords))
        object.__setattr__(self, "enlarged_limit_sets", sets)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def tracked(self, q) -> np.ndarray:
        """Nearest-point lifting of every limit point of K^q, as a read-only
        (n_targets, n_members) index matrix: row i is the tracked sequence of
        limit point compacts.limit_sets[qi][i], and column n holds the closest
        point of K_n^q in the ambient embedding.  Each column is stored
        contiguously, so gathering one member's values along all tracked
        sequences reads one contiguous index array."""
        return self._tracked(q, enlarged=False)

    def tracked_enlarged(self, q) -> np.ndarray:
        """Nearest-point lifting of every enlarged-limit point of K_hat^q, with
        distances measured in the enlarged ambient space; rows align with
        enlarged_limit_sets[qi], as tracked() rows align with the base sets."""
        return self._tracked(q, enlarged=True)

    def _tracked(self, q, enlarged: bool) -> np.ndarray:
        # one body for both pictures, so that neither public method calls the
        # other (perfbench's tracer times each of them as its own span)
        key = ("tracked_hat" if enlarged else "tracked", q)
        if key not in self._cache:
            qi = self.compacts.level(q)
            if enlarged:
                targets = self.enlarged_limit.coords[self.enlarged_limit_sets[qi]]
                member_coords = self.member_enlarged_coords
            else:
                targets = self.limit.coords[self.compacts.limit_sets[qi]]
                member_coords = [m.coords for m in self.members]
            self._cache[key] = _index_matrix([
                _nearest(coords, pool, targets)
                for coords, pool in zip(member_coords, self.compacts.member_sets[qi])
            ])
        return self._cache[key]

    def lifting(self) -> tuple:
        """Nearest-point lifting of every member onto the limit space, as one
        read-only index array per member: entry i is the limit point closest
        to member point i in the ambient embedding."""
        key = ("lifting",)
        if key not in self._cache:
            lifting = tuple(self.limit.nearest(m.coords) for m in self.members)
            for idx in lifting:
                idx.setflags(write=False)
            self._cache[key] = lifting
        return self._cache[key]


# perfbench/tracer.py patches tracked_enlarged through this name
EnlargedSpaceSequence = SpaceSequence


def _interval_grid(a: float, b: float, res: int, periodic: bool) -> np.ndarray:
    if periodic:
        return a + (b - a) * np.arange(res) / res
    return np.linspace(a, b, res)


def _central_subset(xs: np.ndarray, a: float, b: float, width: float) -> np.ndarray:
    c = 0.5 * (a + b)
    half = 0.5 * width * (b - a)
    return np.flatnonzero((xs >= c - half - 1e-12) & (xs <= c + half + 1e-12))


def make_grid_sequence(
    domain: tuple[float, float],
    resolutions: Sequence[int],
    q_widths: Sequence[float] = (0.5, 1.0),
    periodic: bool = True,
    limit_resolution_factor: int = 10,
    n0: int | None = None,
) -> SpaceSequence:
    """Uniform grids on an interval, refining toward a fine evaluation grid.

    The limit space is a grid at limit_resolution_factor times the finest
    member resolution.  Compact levels are centered sub-intervals of the
    stated widths (fractions of the domain), ending with the whole domain.
    """
    a, b = float(domain[0]), float(domain[1])
    if b <= a:
        raise ValueError("domain must be an increasing interval")
    resolutions = [int(r) for r in resolutions]
    if sorted(resolutions) != resolutions or len(set(resolutions)) != len(resolutions):
        raise ValueError("resolutions must be strictly increasing")
    widths = [float(w) for w in q_widths]
    if sorted(widths) != widths or not all(0 < w <= 1 for w in widths):
        raise ValueError("q_widths must be increasing fractions in (0, 1]")
    if widths[-1] != 1.0:
        widths = widths + [1.0]

    members = []
    for res in resolutions:
        xs = _interval_grid(a, b, res, periodic)
        members.append(FiniteSpace(coords=xs, name=f"grid{res}"))
    res_lim = limit_resolution_factor * resolutions[-1]
    xs_lim = _interval_grid(a, b, res_lim, periodic)
    limit = FiniteSpace(coords=xs_lim, name=f"grid{res_lim}")

    member_sets, limit_sets = [], []
    for w in widths:
        member_sets.append(
            tuple(_central_subset(m.coords[:, 0], a, b, w) for m in members)
        )
        limit_sets.append(_central_subset(xs_lim, a, b, w))
    compacts = CompactFamily(
        labels=tuple(widths), member_sets=tuple(member_sets), limit_sets=tuple(limit_sets)
    )
    if n0 is None:
        n0 = max(0, len(members) - 3)
    return SpaceSequence(members=tuple(members), limit=limit, compacts=compacts, n0=n0)


def make_product_sequence(
    slow: FiniteSpace,
    fast: FiniteSpace,
    n_members: int = 7,
    q_fractions: Sequence[float] = (0.5, 1.0),
) -> SpaceSequence:
    """Constant sequence of slow x fast product spaces.

    The base picture collapses the fast coordinate: members embed through the
    slow coordinates only and the limit space is the slow factor.  The
    enlarged limit is the product itself; gamma forgets the fast coordinate.
    Compact levels pair a central slow subset with the whole fast space.
    """
    if n_members < 3:
        raise ValueError("need at least 3 members")
    n_fast = fast.size
    slow_of = np.repeat(np.arange(slow.size), n_fast)
    fast_of = np.tile(np.arange(n_fast), slow.size)
    base_coords = slow.coords[slow_of]
    full_coords = np.hstack([slow.coords[slow_of], fast.coords[fast_of]])

    member = FiniteSpace(coords=base_coords, name=f"{slow.name}x{fast.name}")
    members = tuple(member for _ in range(n_members))
    enlarged = FiniteSpace(coords=full_coords, name=f"{slow.name}x{fast.name}^")

    lo, hi = slow.coords[:, 0].min(), slow.coords[:, 0].max()
    member_sets, limit_sets, hat_sets = [], [], []
    fractions = [float(w) for w in q_fractions]
    if fractions[-1] != 1.0:
        fractions = fractions + [1.0]
    for w in fractions:
        slow_sub = _central_subset(slow.coords[:, 0], lo, hi, w)
        mask = np.isin(slow_of, slow_sub)
        prod_sub = np.flatnonzero(mask)
        member_sets.append(tuple(prod_sub for _ in range(n_members)))
        limit_sets.append(slow_sub)
        hat_sets.append(prod_sub)
    compacts = CompactFamily(
        labels=tuple(fractions), member_sets=tuple(member_sets), limit_sets=tuple(limit_sets)
    )
    return SpaceSequence(
        members=members,
        limit=slow,
        compacts=compacts,
        n0=0,
        enlarged_limit=enlarged,
        gamma=slow_of,
        member_enlarged_coords=tuple(full_coords for _ in range(n_members)),
        enlarged_limit_sets=tuple(hat_sets),
    )

