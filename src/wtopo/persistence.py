"""Persistence diagrams (spanning-forest H0 and matrix reduction) and
matching-based diagram distances (bottleneck, p-Wasserstein)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csgraph, csr_matrix

from .complexes import Filtration

UNION_FIND = "union-find"
REDUCTION = "reduction"

_EMPTY_POINTS = np.empty((0, 2), dtype=np.float64)
_EMPTY_BIRTHS = np.empty(0, dtype=np.float64)


def _is_number(x) -> bool:
    return type(x) in (int, float)      # a JSON number; bool is not one


@dataclass(frozen=True)
class PersistenceDiagram:
    """Birth/death pairs per homology dimension.

    ``points[d]`` is an (m, 2) array of finite (birth, death) pairs sorted by
    (birth, death); ``essential[d]`` holds births of never-dying classes.
    Zero-persistence pairs (death == birth) are dropped at construction.
    """

    points: dict[int, np.ndarray] = field(default_factory=dict)
    essential: dict[int, np.ndarray] = field(default_factory=dict)

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.points) | set(self.essential)))

    def points_in(self, dim: int) -> np.ndarray:
        return self.points.get(dim, _EMPTY_POINTS)

    def essential_in(self, dim: int) -> np.ndarray:
        return self.essential.get(dim, _EMPTY_BIRTHS)

    def num_points(self, dim: int, include_essential: bool = False) -> int:
        n = self.points_in(dim).shape[0]
        if include_essential:
            n += self.essential_in(dim).shape[0]
        return n

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        if self.dims() != other.dims():
            return False
        return all(
            np.array_equal(self.points_in(d), other.points_in(d))
            and np.array_equal(self.essential_in(d), other.essential_in(d))
            for d in self.dims())

    def to_json_obj(self) -> list[dict]:
        return [{"dim": d,
                 "points": [[float(b), float(dd)] for b, dd in self.points_in(d)],
                 "essential": [float(b) for b in self.essential_in(d)]}
                for d in self.dims()]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "PersistenceDiagram":
        if not isinstance(obj, list):
            raise ValueError("a diagram must be a JSON list of per-dimension objects")
        points, essential = {}, {}
        for entry in obj:
            if not isinstance(entry, dict) or type(entry.get("dim")) is not int:
                raise ValueError("each diagram entry must be an object with an integer 'dim'")
            d, pts, ess = entry["dim"], entry.get("points", []), entry.get("essential", [])
            if not (isinstance(pts, list) and all(
                    isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
                    for p in pts)):
                raise ValueError(f"dimension {d}: 'points' must be a list of [birth, death] pairs")
            if not (isinstance(ess, list) and all(map(_is_number, ess))):
                raise ValueError(f"dimension {d}: 'essential' must be a flat list of births")
            pts = np.array(pts, dtype=np.float64).reshape(-1, 2)
            ess = np.array(ess, dtype=np.float64)
            if pts.size:
                points[d] = pts
            if ess.size:
                essential[d] = ess
        return cls._build(points, essential)

    @classmethod
    def _build(cls, points: dict[int, np.ndarray],
               essential: dict[int, np.ndarray]) -> "PersistenceDiagram":
        pts = {}
        for d, arr in points.items():
            arr = np.asarray(arr, dtype=np.float64).reshape(-1, 2)
            arr = arr[arr[:, 1] > arr[:, 0]]
            if arr.size:
                order = np.lexsort((arr[:, 1], arr[:, 0]))
                pts[d] = arr[order]
        ess = {d: np.sort(np.asarray(a, dtype=np.float64))
               for d, a in essential.items() if np.asarray(a).size}
        return cls(pts, ess)


def block_h0(sizes: np.ndarray, filts: dict[int, Filtration]) -> list[PersistenceDiagram]:
    """H0 of several filtrations at once, block b on vertices 0..sizes[b]-1,
    all entering at 0, with filtration ``filts[b]`` (blocks ascending; a
    block without one has no edges).

    One minimum spanning forest over the block-diagonal graph gives each
    block one point (0, w) per forest edge of scale w and one essential 0 per
    component (Kruskal with the elder rule). Edges, taken in (block, scale,
    vertices) order, are weighted by their rank 1..m, so the forest follows
    each filtration's order, ties included, and no weight is the 0 that
    csgraph would read as a missing edge.
    """
    parts = [(np.full(f.scales[1].size, b), f.vertices[1], f.scales[1])
             for b, f in filts.items() if f.max_dim]
    block, edges, scales = map(np.concatenate, zip(
        (np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64), _EMPTY_BIRTHS),
        *parts))
    n = int(sizes.sum())
    tree = np.empty(0, dtype=np.int64)
    if block.size:          # csgraph costs about 0.2 ms even without edges
        offset = np.cumsum(sizes) - sizes
        heads, tails = (edges + offset[block][:, None]).T
        ranks = np.arange(1, block.size + 1, dtype=np.float64)
        forest = csgraph.minimum_spanning_tree(csr_matrix((ranks, (heads, tails)), shape=(n, n)))
        tree = np.sort(forest.data.astype(np.int64) - 1)    # (block, scale) order
    # each block's deaths ascend, so its points need no further sort; blocks
    # keep one essential 0 per component and drop zero-persistence points
    deaths, owner = scales[tree], block[tree]
    essential = sizes - np.bincount(owner, minlength=sizes.size)
    kept = deaths > 0.0
    points = np.split(np.column_stack([np.zeros(kept.sum()), deaths[kept]]),
                      np.cumsum(np.bincount(owner[kept], minlength=sizes.size))[:-1])
    return [PersistenceDiagram({0: p} if p.size else {}, {0: np.zeros(e)})
            for p, e in zip(points, essential.tolist())]


def _reduce(columns: list[int], rows: int) -> list[int]:
    """Standard left-to-right column reduction over GF(2), in place.

    Column j is a Python int whose bit i marks row i; its low is the highest
    set bit. Returns ``pivot``: pivot[i] = j when reduced column j has low i,
    else -1.
    """
    pivot = [-1] * rows
    for j, col in enumerate(columns):
        while col:
            low = col.bit_length() - 1
            k = pivot[low]
            if k < 0:
                pivot[low] = j
                break
            col ^= columns[k]
        columns[j] = col
    return pivot


def _reduction(f: Filtration) -> PersistenceDiagram:
    # The global filtration order restricted to one dimension is that
    # dimension's array order, and a column of dimension d only ever absorbs
    # columns of dimension d, so reducing one dimension at a time (rows are
    # facet positions in the dimension below) gives the whole-matrix pairs.
    scales = f.scales
    pivots, zero = [], [np.ones(scales[0].size, dtype=bool)]
    for d in range(1, len(scales)):
        columns = [0] * scales[d].size
        for rows in f.facets(d).T.tolist():
            columns = [c | (1 << i) for c, i in zip(columns, rows)]
        pivots.append(np.array(_reduce(columns, scales[d - 1].size), dtype=np.int64))
        zero.append(np.array([not c for c in columns], dtype=bool))
    pivots.append(np.full(scales[-1].size, -1))
    points, essential = {}, {}
    for d, s in enumerate(scales):
        paired = pivots[d] >= 0
        if paired.any():
            points[d] = np.column_stack([s[paired], scales[d + 1][pivots[d][paired]]])
        essential[d] = s[zero[d] & ~paired]      # zero columns never killed
    return PersistenceDiagram._build(points, essential)


def compute_persistence(f: Filtration, algorithm: str = REDUCTION,
                        homology_dims: tuple[int, ...] | None = None) -> PersistenceDiagram:
    """Persistence diagram of a filtration.

    ``union-find`` is valid for dimension-0 output only. When every vertex
    enters at 0 it reads H0 off one minimum spanning forest of the edges in
    filtration order; otherwise (only ``Filtration.from_simplices`` can give a
    vertex a nonzero entry scale) it runs the reduction and keeps dimension 0.
    ``reduction`` runs the standard boundary-matrix column reduction in
    filtration order, one dimension at a time on bitset columns (O(len(f)^3)
    worst case), and yields every dimension present. Both follow the elder
    rule with ties broken toward the lower vertex index and emit one essential
    dimension-0 point per connected component of the final complex.
    """
    if algorithm == UNION_FIND:
        if homology_dims is not None and any(d > 0 for d in homology_dims):
            raise ValueError("union-find computes dimension-0 persistence only")
        homology_dims = (0,) if homology_dims is None else homology_dims
        diagram = (_reduction(f) if f.scales[0].any()
                   else block_h0(np.array([f.scales[0].size]), {0: f})[0])
    elif algorithm == REDUCTION:
        diagram = _reduction(f)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if homology_dims is not None:
        diagram = PersistenceDiagram(
            {d: p for d, p in diagram.points.items() if d in homology_dims},
            {d: e for d, e in diagram.essential.items() if d in homology_dims})
    return diagram


# ---------------------------------------------------------------------------
# diagram distances
# ---------------------------------------------------------------------------

def _linf(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # pairwise L-inf costs between (n,2) and (m,2) point arrays
    return np.max(np.abs(p[:, None, :] - q[None, :, :]), axis=2) \
        if p.size and q.size else np.zeros((p.shape[0], q.shape[0]))


def _diag_cost(p: np.ndarray) -> np.ndarray:
    return (p[:, 1] - p[:, 0]) / 2.0 if p.size else np.zeros(0)


def _essential_costs(e1: np.ndarray, e2: np.ndarray) -> np.ndarray | None:
    """Sorted pairing of essential births; None when counts differ."""
    if e1.shape[0] != e2.shape[0]:
        return None
    if e1.shape[0] == 0:
        return np.zeros(0)
    return np.abs(np.sort(e1) - np.sort(e2))


def _saturates_rows(adj: np.ndarray) -> bool:
    """True iff some matching of the boolean biadjacency ``adj`` covers every row."""
    if adj.shape[0] > adj.shape[1]:
        return False
    cost = (~adj).astype(np.float64)        # 0 on an edge, 1 off it
    rows, cols = linear_sum_assignment(cost)
    return not cost[rows, cols].any()


def _matching_feasible(cross: np.ndarray, diag1: np.ndarray, diag2: np.ndarray,
                       t: float) -> bool:
    """Perfect matching test for bottleneck threshold t.

    Standard construction: left side = diagram-1 points plus diagonal copies of
    diagram-2 points, right side = diagram-2 points plus diagonal copies of
    diagram-1 points; a point may pair with its own diagonal copy when its
    diagonal cost is <= t, and copy-copy pairs are free. That graph has a
    perfect matching iff the point-to-point edges (cost <= t) hold a matching
    covering every point whose diagonal cost exceeds t: leftover points go to
    their own copies and the leftover copies pair up freely. By the
    Mendelsohn-Dulmage theorem such a matching exists iff one covers those
    diagram-1 points and one covers those diagram-2 points, so two
    assignments on the point-to-point graph decide it.
    """
    close = cross <= t
    return (_saturates_rows(close[diag1 > t])
            and _saturates_rows(close[:, diag2 > t].T))


def _bottleneck_finite(p1: np.ndarray, p2: np.ndarray) -> float:
    if p1.shape[0] == 0 and p2.shape[0] == 0:
        return 0.0
    cross = _linf(p1, p2)
    d1, d2 = _diag_cost(p1), _diag_cost(p2)
    candidates = np.unique(np.concatenate([[0.0], cross.ravel(), d1, d2]))
    lo, hi = 0, len(candidates) - 1
    # the all-to-diagonal matching is feasible at max(d1, d2), always a candidate
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(cross, d1, d2, float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _wasserstein_finite(p1: np.ndarray, p2: np.ndarray, p: float) -> float:
    n, m = p1.shape[0], p2.shape[0]
    if n == 0 and m == 0:
        return 0.0
    size = n + m
    cost = np.zeros((size, size))
    if n and m:
        cost[:n, :m] = _linf(p1, p2) ** p
    if n:
        cost[:n, m:] = _diag_cost(p1)[:, None] ** p
    if m:
        cost[n:, :m] = _diag_cost(p2)[None, :] ** p
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def diagram_distance(d1: PersistenceDiagram, d2: PersistenceDiagram,
                     mode: str = "bottleneck", p: float = 1.0,
                     dimension: int = 0, essential: str = "match") -> float:
    """Matching distance between two diagrams restricted to one dimension.

    Ground metric is L-inf on the plane; unmatched points pay (death-birth)/2
    to the diagonal. Essential points are matched essential-to-essential by
    sorted births (``essential="match"``, inf when the counts differ) or
    ignored (``essential="drop"``). Wasserstein uses an exact assignment and
    requires p >= 1.
    """
    if essential not in ("match", "drop"):
        raise ValueError("essential must be 'match' or 'drop'")
    if mode not in ("bottleneck", "wasserstein"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "wasserstein" and p < 1.0:
        raise ValueError("wasserstein requires p >= 1")
    p1, p2 = d1.points_in(dimension), d2.points_in(dimension)
    if essential == "match":
        ecosts = _essential_costs(d1.essential_in(dimension), d2.essential_in(dimension))
        if ecosts is None:
            return float(np.inf)
    else:
        ecosts = np.zeros(0)
    if mode == "bottleneck":
        base = _bottleneck_finite(p1, p2)
        return float(max(base, ecosts.max() if ecosts.size else 0.0))
    total = _wasserstein_finite(p1, p2, p)
    total += float((ecosts ** p).sum())
    return float(total ** (1.0 / p))
