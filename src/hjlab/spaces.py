"""Finite state spaces, compact-set families, and converging sequences of spaces.

The objects here encode the geometric side of the laboratory: a sequence of
finite spaces X_1, X_2, ... together with a limit space X, all embedded in a
common ambient R^d by maps eta_n and eta.  Convergence of points is always
measured in the ambient space.  A directed family of "compact" subsets
K_n^q (one per member space and level q, plus a limit set K^q per level)
organizes where quantitative convergence statements are required to hold:
the levels form a finite chain, member sets grow with q, and the embedded
member sets approach the embedded limit set in Hausdorff distance.

Two-scale problems additionally carry an enlarged picture: a second, larger
limit space with its own embedding, a projection down to the base limit, and
a commuting square tying the two embeddings together (EnlargedSpaceSequence).
For single-space problems the enlargement is trivial: the enlarged limit is
the limit itself and the projection is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "FiniteSpace",
    "CompactFamily",
    "SpaceSequence",
    "EnlargedSpaceSequence",
    "SpaceAudit",
    "make_grid_sequence",
    "make_product_sequence",
    "kuratowski_limits",
]


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite set of labelled points with an embedding into R^d.

    Point labels are hashable and pairwise distinct; the embedding need not
    be injective (product spaces project onto their slow factor, collapsing
    the fast coordinate).  Identity semantics: two spaces compare equal only
    when they are the same object, so functions and operators agree on a
    space by sharing it, not by rebuilding it.
    """

    points: tuple
    coords: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape[0] != len(self.points):
            raise ValueError("coords rows must match number of points")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def index(self, point: Hashable) -> int:
        return self._index[point]

    def nearest(self, targets: np.ndarray, within: np.ndarray | None = None) -> np.ndarray:
        """Indices of the nearest points to each target row, optionally restricted
        to the point-index subset `within`.  A target equidistant from several
        points gets the one cKDTree's search meets first: the same choice for
        the same pool and target on every run, but not always the lowest (or
        the highest) index."""
        pool = np.arange(self.size) if within is None else np.asarray(within, dtype=int)
        if pool.size == 0:
            raise ValueError("nearest() over an empty subset")
        return _nearest(self.coords, pool, targets)


def _nearest(coords: np.ndarray, pool: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # index (into coords) of the nearest pool row to each target row
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _, local = cKDTree(coords[pool]).query(targets)
    return pool[np.atleast_1d(local)]


def _index_matrix(columns: list) -> np.ndarray:
    # one column per member, frozen so cached matrices cannot be edited
    idx = np.stack(columns, axis=1)
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
class SpaceAudit:
    monotone: bool
    hausdorff: dict
    passed: bool
    reasons: tuple


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    # two-sided Hausdorff distance between finite point clouds
    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = ta.query(b)[0].max()
    d_ba = tb.query(a)[0].max()
    return float(max(d_ab, d_ba))


@dataclass(frozen=True)
class SpaceSequence:
    """Members X_1..X_N embedded alongside a limit space X, with a compact family.

    n0 is the burn-in index: quantitative convergence checks apply to members
    n >= n0 only.  Tracked sequences (nearest-point liftings of limit points,
    level by level) are the probes for all limit computations.
    """

    members: tuple
    limit: FiniteSpace
    compacts: CompactFamily
    n0: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.members) < 3:
            raise ValueError("need at least 3 member spaces")
        for per_q in self.compacts.member_sets:
            if len(per_q) != len(self.members):
                raise ValueError("compact family must cover every member")
        if not (0 <= self.n0 < len(self.members)):
            raise ValueError("n0 out of range")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def tracked(self, q) -> np.ndarray:
        """Nearest-point lifting of every limit point of K^q, as a read-only
        (n_targets, n_members) index matrix: row i is the tracked sequence of
        limit point compacts.limit_sets[qi][i], and column n holds the closest
        point of K_n^q in the ambient embedding."""
        key = ("tracked", q)
        if key not in self._cache:
            qi = self.compacts.level(q)
            targets = self.limit.coords[self.compacts.limit_sets[qi]]
            self._cache[key] = _index_matrix([
                m.nearest(targets, within=self.compacts.member_sets[qi][n])
                for n, m in enumerate(self.members)
            ])
        return self._cache[key]

    def audit(self, tol: float, n0: int | None = None) -> SpaceAudit:
        """Check the compact family: levels grow along the chain, and embedded
        member sets approach the embedded limit set (Hausdorff) past n0."""
        n0 = self.n0 if n0 is None else n0
        reasons: list[str] = []
        monotone = True
        for qi in range(self.compacts.n_levels - 1):
            lo = set(self.compacts.limit_sets[qi].tolist())
            hi = set(self.compacts.limit_sets[qi + 1].tolist())
            if not lo <= hi:
                monotone = False
                reasons.append(f"limit sets not nested at level {self.compacts.labels[qi]}")
            for n in range(self.n_members):
                lo_n = set(self.compacts.member_sets[qi][n].tolist())
                hi_n = set(self.compacts.member_sets[qi + 1][n].tolist())
                if not lo_n <= hi_n:
                    monotone = False
                    reasons.append(
                        f"member sets not nested at level {self.compacts.labels[qi]}, n={n}"
                    )
                    break
        hausdorff: dict = {}
        ok = monotone
        for qi, q in enumerate(self.compacts.labels):
            lim_cloud = self.limit.coords[self.compacts.limit_sets[qi]]
            dists = np.array(
                [
                    _hausdorff(self.members[n].coords[self.compacts.member_sets[qi][n]], lim_cloud)
                    for n in range(self.n_members)
                ]
            )
            hausdorff[q] = dists
            worst = dists[n0:].max()
            if worst > tol:
                ok = False
                reasons.append(f"Hausdorff distance {worst:.3g} > {tol:.3g} at level {q}")
        return SpaceAudit(monotone=monotone, hausdorff=hausdorff, passed=ok, reasons=tuple(reasons))

    def as_enlarged(self) -> "EnlargedSpaceSequence":
        """Trivial enlargement: Y = X, gamma = identity, same embeddings."""
        return EnlargedSpaceSequence(
            base=self,
            enlarged_limit=self.limit,
            gamma=np.arange(self.limit.size),
            member_enlarged_coords=tuple(m.coords for m in self.members),
            enlarged_limit_sets=self.compacts.limit_sets,
            base_columns=tuple(range(self.limit.dim)),
        )


@dataclass(frozen=True)
class EnlargedSpaceSequence:
    """Base sequence plus the enlarged picture used by two-scale problems.

    The enlarged limit Y carries its own embedding eta_hat into R^{d_hat};
    gamma maps Y points onto limit points of the base, and gamma_hat is the
    coordinate projection (base_columns) making the square commute exactly:
    eta(gamma(y)) == eta_hat(y)[base_columns].
    """

    base: SpaceSequence
    enlarged_limit: FiniteSpace
    gamma: np.ndarray
    member_enlarged_coords: tuple
    enlarged_limit_sets: tuple
    base_columns: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=int)
        object.__setattr__(self, "gamma", gamma)
        sets = tuple(np.asarray(s, dtype=int) for s in self.enlarged_limit_sets)
        object.__setattr__(self, "enlarged_limit_sets", sets)
        if gamma.shape != (self.enlarged_limit.size,):
            raise ValueError("gamma must assign a base limit point to every enlarged point")
        cols = list(self.base_columns)
        lhs = self.base.limit.coords[gamma]
        rhs = self.enlarged_limit.coords[:, cols]
        if not np.array_equal(lhs, rhs):
            raise ValueError("embedding square does not commute: eta(gamma(y)) != gamma_hat(eta_hat(y))")
        if len(self.member_enlarged_coords) != self.base.n_members:
            raise ValueError("need enlarged coordinates for every member")

    def tracked_enlarged(self, q) -> np.ndarray:
        """Nearest-point lifting of every enlarged-limit point of K_hat^q, with
        distances measured in the enlarged ambient space; rows align with
        enlarged_limit_sets[qi], as tracked() rows align with the base sets."""
        key = ("tracked_hat", q)
        if key not in self._cache:
            qi = self.base.compacts.level(q)
            targets = self.enlarged_limit.coords[self.enlarged_limit_sets[qi]]
            self._cache[key] = _index_matrix([
                _nearest(self.member_enlarged_coords[n], pool, targets)
                for n, pool in enumerate(self.base.compacts.member_sets[qi])
            ])
        return self._cache[key]


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
        members.append(FiniteSpace(points=tuple(range(res)), coords=xs, name=f"grid{res}"))
    res_lim = limit_resolution_factor * resolutions[-1]
    xs_lim = _interval_grid(a, b, res_lim, periodic)
    limit = FiniteSpace(points=tuple(range(res_lim)), coords=xs_lim, name=f"grid{res_lim}")

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
) -> EnlargedSpaceSequence:
    """Constant sequence of slow x fast product spaces.

    The base picture collapses the fast coordinate: members embed through the
    slow coordinates only and the limit space is the slow factor.  The
    enlarged limit is the product itself; gamma forgets the fast coordinate.
    Compact levels pair a central slow subset with the whole fast space.
    """
    if n_members < 3:
        raise ValueError("need at least 3 members")
    pts = tuple((p, z) for p in slow.points for z in fast.points)
    n_fast = fast.size
    slow_of = np.repeat(np.arange(slow.size), n_fast)
    fast_of = np.tile(np.arange(n_fast), slow.size)
    base_coords = slow.coords[slow_of]
    full_coords = np.hstack([slow.coords[slow_of], fast.coords[fast_of]])

    member = FiniteSpace(points=pts, coords=base_coords, name=f"{slow.name}x{fast.name}")
    members = tuple(member for _ in range(n_members))
    enlarged = FiniteSpace(points=pts, coords=full_coords, name=f"{slow.name}x{fast.name}^")

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
    base = SpaceSequence(members=members, limit=slow, compacts=compacts, n0=0)
    return EnlargedSpaceSequence(
        base=base,
        enlarged_limit=enlarged,
        gamma=slow_of,
        member_enlarged_coords=tuple(full_coords for _ in range(n_members)),
        enlarged_limit_sets=tuple(hat_sets),
        base_columns=tuple(range(slow.dim)),
    )


def kuratowski_limits(
    sets: Sequence[np.ndarray],
    candidates: np.ndarray,
    eps: float,
    n0: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Set limits of a finite sequence of point clouds, on a candidate grid.

    A candidate belongs to the upper limit when its eps-ball meets O_n for
    some n >= n0 (the finite surrogate of "infinitely many n"), and to the
    lower limit when its eps-ball meets every O_n with n >= n0 ("all but
    finitely many").  The lower limit is contained in the upper one by
    construction.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("empty candidate grid")
    clouds = [np.atleast_2d(np.asarray(s, dtype=float)) for s in sets]
    if n0 is None:
        n0 = len(clouds) // 2
    tail = clouds[n0:]
    if not tail:
        raise ValueError("n0 leaves no tail sets")
    hit = np.stack(
        [cKDTree(c).query(candidates)[0] <= eps for c in tail], axis=1
    )  # (n_candidates, n_tail)
    upper = candidates[hit.any(axis=1)]
    lower = candidates[hit.all(axis=1)]
    return upper, lower
