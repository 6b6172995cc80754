"""Persistence diagrams (union-find and matrix-reduction algorithms) and
matching-based diagram distances (bottleneck, p-Wasserstein)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .complexes import Filtration

UNION_FIND = "union-find"
REDUCTION = "reduction"

_EMPTY_POINTS = np.empty((0, 2), dtype=np.float64)
_EMPTY_BIRTHS = np.empty(0, dtype=np.float64)


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
        points, essential = {}, {}
        for entry in obj:
            d = int(entry["dim"])
            pts = np.asarray(entry.get("points", []), dtype=np.float64).reshape(-1, 2)
            ess = np.asarray(entry.get("essential", []), dtype=np.float64)
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


def _h0_merge(vert_scales: list[float], vert_rank: list[int], edge_u: list[int],
              edge_v: list[int], edge_scales: list[float]):
    """Kruskal-style merge events over edges given in filtration order.

    Elder rule: the component with smaller (birth scale, vertex rank) survives.
    The younger root is re-parented onto the elder, so every root is its
    component's oldest vertex. Returns (births, deaths, roots) with one
    birth/death per merge and the surviving roots.
    """
    parent = list(range(len(vert_scales)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    births, deaths = [], []
    for u, v, scale in zip(edge_u, edge_v, edge_scales):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if (vert_scales[ru], vert_rank[ru]) < (vert_scales[rv], vert_rank[rv]):
            elder, younger = ru, rv
        else:
            elder, younger = rv, ru
        births.append(vert_scales[younger])
        deaths.append(scale)
        parent[younger] = elder
    roots = [v for v in range(len(parent)) if parent[v] == v]
    return births, deaths, roots


def _union_find_h0(f: Filtration) -> PersistenceDiagram:
    vert_scales = f.scales[0].tolist()
    if not vert_scales:
        return PersistenceDiagram()
    edge_u, edge_v, edge_scales = [], [], []
    if len(f.scales) > 1:
        edge_v, edge_u = f.facets(1).T.tolist()
        edge_scales = f.scales[1].tolist()
    births, deaths, roots = _h0_merge(vert_scales, list(range(len(vert_scales))),
                                      edge_u, edge_v, edge_scales)
    essential = np.array(sorted(vert_scales[r] for r in roots), dtype=np.float64)
    pts = np.column_stack([births, deaths]) if births else _EMPTY_POINTS
    return PersistenceDiagram._build({0: pts}, {0: essential})


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

    ``union-find`` runs Kruskal-style component merging and is valid for
    dimension-0 output only; ``reduction`` runs the standard boundary-matrix
    column reduction in filtration order, one dimension at a time on bitset
    columns (O(len(f)^3) worst case), and yields every dimension present. Both use the elder rule with ties broken toward
    the lower vertex index and emit one essential dimension-0 point per
    connected component of the final complex.
    """
    if algorithm == UNION_FIND:
        if homology_dims is not None and any(d > 0 for d in homology_dims):
            raise ValueError("union-find computes dimension-0 persistence only")
        diagram = _union_find_h0(f)
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
