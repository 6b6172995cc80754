"""Persistence diagrams (coboundary reduction with clearing) and
matching-based diagram distances (bottleneck, p-Wasserstein)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .complexes import Filtration, _check_dimension

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
        return [{"dim": d, "points": self.points_in(d).tolist(),
                 "essential": self.essential_in(d).tolist()}
                for d in self.dims()]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "PersistenceDiagram":
        if not isinstance(obj, list):
            raise ValueError("a diagram must be a JSON list of per-dimension objects")
        points, essential, seen = {}, {}, set()
        for entry in obj:
            if not isinstance(entry, dict) or type(entry.get("dim")) is not int:
                raise ValueError("each diagram entry must be an object with an integer 'dim'")
            d, pts, ess = entry["dim"], entry.get("points", []), entry.get("essential", [])
            if d < 0:
                raise ValueError(f"dimension {d}: 'dim' must be non-negative")
            if d in seen:
                raise ValueError(f"dimension {d}: 'dim' appears more than once")
            seen.add(d)
            if not (isinstance(pts, list) and all(
                    isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
                    for p in pts)):
                raise ValueError(f"dimension {d}: 'points' must be a list of [birth, death] pairs")
            if not (isinstance(ess, list) and all(map(_is_number, ess))):
                raise ValueError(f"dimension {d}: 'essential' must be a flat list of births")
            try:
                pts = np.array(pts, dtype=np.float64).reshape(-1, 2)
                ess = np.array(ess, dtype=np.float64)
                finite = np.isfinite(pts).all() and np.isfinite(ess).all()
            except OverflowError:       # an integer beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"dimension {d}: births and deaths must be finite")
            if (pts[:, 1] < pts[:, 0]).any():
                raise ValueError(f"dimension {d}: a point dies before it is born")
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


def _cocolumns(f: Filtration, d: int) -> list[int]:
    """Coboundary of each d-simplex over the m (d + 1)-simplices as an int
    with coface c at bit m - 1 - c, so its highest set bit is its earliest
    coface; built in uint64 words, then read as one int per column."""
    facets = f.facets(d + 1)                # positions in dimension d
    m, n = facets.shape[0], f.scales[d].size
    words = -(-m // 64)
    bit = np.arange(m - 1, -1, -1)
    masks = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    table = np.zeros((n, words), dtype=np.uint64)
    for slot in facets.T:
        np.bitwise_or.at(table, (slot, bit // 64), masks)
    buf, step = table.astype("<u8", copy=False).tobytes(), 8 * words
    return [int.from_bytes(buf[i * step:(i + 1) * step], "little") for i in range(n)]


def _reduction(f: Filtration, top: int) -> PersistenceDiagram:
    # Cohomology with clearing (Chen & Kerber 2011; Bauer 2021, "Ripser"):
    # coboundary columns reduced from the last simplex to the first give the
    # boundary matrix's pairs for the same total order (de Silva, Morozov &
    # Vejdemo-Johansson 2011). A column of dimension d only absorbs columns
    # of dimension d, whose order is the array order, so dimensions reduce
    # one at a time from 0, here up to ``top``. A d-simplex paired as a death
    # below would reduce to zero and is skipped; in the filtration's top
    # dimension the rest are essential.
    scales = f.scales
    last = len(scales) - 1
    points, essential = {}, {}
    dead = np.zeros(scales[0].size, dtype=bool)
    for d in range(min(top + 1, last)):
        columns, m = _cocolumns(f, d), scales[d + 1].size
        by_low, pairs = {}, []
        for j in np.flatnonzero(~dead)[::-1].tolist():
            col = columns[j]
            while col:
                low = col.bit_length() - 1
                other = by_low.get(low)
                if other is None:
                    by_low[low] = col
                    pairs.append((j, m - 1 - low))
                    break
                col ^= other
        birth, death = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        points[d] = np.column_stack([scales[d][birth], scales[d + 1][death]])
        dead[birth] = True                  # deaths of d - 1 and births of d
        essential[d] = scales[d][~dead]
        dead = np.zeros(m, dtype=bool)
        dead[death] = True
    if top >= last:
        essential[last] = scales[last][~dead]
    return PersistenceDiagram._build(points, essential)


def compute_persistence(f: Filtration, algorithm: str = REDUCTION,
                        homology_dims: tuple[int, ...] | None = None) -> PersistenceDiagram:
    """Persistence diagram of a filtration.

    Both algorithms run one reduction: bitset coboundary columns reduced with
    clearing, one dimension at a time from 0 (O(len(f)^3) worst case). It
    gives the pairs of the boundary-matrix reduction in filtration order and
    stops after the highest dimension asked for. ``reduction`` yields every
    dimension present, or those in ``homology_dims``; ``union-find`` is the
    same reduction stopped after dimension 0 and is valid for dimension-0
    output only. The filtration's top dimension builds no columns: its
    simplices not paired as deaths are essential, C(n, 3) minus the
    dimension-1 deaths for a complete ``max_dim`` 2 complex on n vertices.
    Merges follow the elder rule with ties broken toward the lower vertex
    index, and dimension 0 has one essential point per connected component
    of the final complex.
    """
    if algorithm == UNION_FIND:
        if homology_dims is not None and any(d > 0 for d in homology_dims):
            raise ValueError("union-find computes dimension-0 persistence only")
        homology_dims = (0,) if homology_dims is None else homology_dims
    elif algorithm != REDUCTION:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    top = len(f.scales) - 1 if homology_dims is None else max(homology_dims, default=-1)
    diagram = _reduction(f, top)
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
    requires a finite p >= 1.
    """
    _check_dimension(dimension)
    if essential not in ("match", "drop"):
        raise ValueError("essential must be 'match' or 'drop'")
    if mode not in ("bottleneck", "wasserstein"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "wasserstein" and not 1.0 <= p < np.inf:
        raise ValueError(f"wasserstein requires a finite p >= 1, got p={p!r}")
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
