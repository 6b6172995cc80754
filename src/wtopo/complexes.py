"""Filtered Vietoris-Rips and lazy-witness complexes over landmark metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import ValidationError

_TRIANGLE_CHUNK = 1 << 20   # common-neighbour mask cells per triangle-search step


def _sort_dim(verts: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # rows given in lexicographic order -> (scale asc, lexicographic vertices)
    order = np.argsort(scales, kind="stable")
    return verts[order], scales[order]


def _check_dimension(dimension: int) -> None:
    # the one rule on the homology dimension a caller asks for
    if not dimension >= 0:
        raise ValueError(f"dimension must be >= 0, got {dimension}")


def _check_parameters(max_dim: int, max_scale: float = 0.0, nu: int = 0,
                      num_landmarks: int = 0, dimension: int = 0) -> int:
    # the one check of the complex parameters (NaN fails max_scale >= 0) and
    # of the homology dimension asked of the complex; returns the top simplex
    # dimension to build, min(max_dim, dimension + 1): H_d reads only the
    # simplices of dimensions d and d + 1, so H0 needs no triangle
    if max_dim not in (0, 1, 2):
        raise ValueError("max_dim must be 0, 1 or 2")
    if not max_scale >= 0.0:
        raise ValueError(f"max_scale must be a number >= 0, got {max_scale}")
    if not 0 <= nu <= num_landmarks:
        raise ValueError("nu must be in [0, num_landmarks]")
    _check_dimension(dimension)
    if dimension > max_dim:
        raise ValueError(f"dimension must be <= max_dim, got dimension {dimension} "
                         f"and max_dim {max_dim}")
    return min(max_dim, dimension + 1)


@dataclass(frozen=True, eq=False)
class Filtration:
    """A filtered simplicial complex stored as one pair of arrays per dimension,
    from 0 up to its top dimension ``len(scales) - 1``.

    ``vertices[d]`` is an (m_d, d + 1) int64 array of simplices with ascending
    vertex ids (the n vertices are 0..n-1) and ``scales[d]`` the (m_d,)
    float64 entry scales, both sorted by (scale asc, lexicographic vertices).
    The global order (scale asc, dimension asc, lexicographic vertices) is a
    valid filtration order: every face precedes its cofaces, and truncating at
    any scale leaves a face-closed complex. Restricted to one dimension it is
    that dimension's array order, so columns can be reduced one dimension at
    a time.
    """

    vertices: tuple[np.ndarray, ...]
    scales: tuple[np.ndarray, ...]

    @classmethod
    def from_simplices(cls, simplices: Iterable[tuple[Sequence[int], float]],
                       max_dim: int) -> "Filtration":
        """Filtration from (vertices, scale) pairs given in any order.

        The n vertices must carry the ids 0..n-1; they may enter at any scale
        and in any order. Every face of every simplex must be present, and no
        simplex may repeat.
        """
        _check_parameters(max_dim)
        verts: list[list[tuple[int, ...]]] = [[] for _ in range(max_dim + 1)]
        scales: list[list[float]] = [[] for _ in range(max_dim + 1)]
        for vs, scale in sorted((tuple(sorted(int(v) for v in vs)), float(scale))
                                for vs, scale in simplices):
            if not 1 <= len(vs) <= max_dim + 1:
                raise ValueError(f"simplex {vs} is outside dimensions 0..{max_dim}")
            verts[len(vs) - 1].append(vs)
            scales[len(vs) - 1].append(scale)
        n = len(verts[0])
        for vs in verts:
            if len(set(vs)) != len(vs):
                raise ValueError("a simplex is given twice")
            if any(not 0 <= v < n for simplex in vs for v in simplex):
                raise ValueError(f"vertex ids must be 0..{n - 1}, one vertex simplex each")
        arrays = [_sort_dim(np.array(v, dtype=np.int64).reshape(len(v), d + 1),
                            np.array(s, dtype=np.float64))
                  for d, (v, s) in enumerate(zip(verts, scales))]
        f = cls(*zip(*arrays))
        if any((f.facets(d) < 0).any() for d in range(1, max_dim + 1)):
            raise ValueError("a face of some simplex is missing")
        return f

    def facets(self, d: int) -> np.ndarray:
        """(m_d, d + 1) positions in dimension d - 1 of each d-simplex's facets
        (-1 for a facet that is not in the filtration). Uses an n**d table,
        as large as the n x n edge-scale matrix for d = 2."""
        n = self.scales[0].size
        radix = np.array([n ** (d - 1 - c) for c in range(d)])   # d vertex ids -> one key
        position = np.full(n ** d, -1, dtype=np.int64)
        position[self.vertices[d - 1] @ radix] = np.arange(self.scales[d - 1].size)
        drop = [[c for c in range(d + 1) if c != t] for t in range(d + 1)]
        return position[self.vertices[d][:, drop] @ radix]

    def __len__(self) -> int:
        return sum(s.size for s in self.scales)


def _validate_square(dists: np.ndarray, name: str) -> np.ndarray:
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"{name} must be a square matrix")
    # tolerate float noise from per-source shortest-path accumulation order,
    # then canonicalize so downstream scales are exactly symmetric
    if not np.allclose(d, d.T, rtol=1e-9, atol=1e-12):
        raise ValidationError(f"{name} must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValidationError(f"{name} must have a zero diagonal")
    return np.minimum(d, d.T)


def _triangles(present: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # (i, j, k) with i < j < k and all three edges present, in lexicographic
    # order: each edge (i, j) meets the common neighbours k > j of its ends
    n = present.shape[0]
    step = max(1, _TRIANGLE_CHUNK // max(n, 1))
    later = np.arange(n)
    parts = [np.empty((0, 3), dtype=np.int64)]
    for lo in range(0, edges.shape[0], step):
        i, j = edges[lo:lo + step].T
        e, k = np.nonzero(present[i] & present[j] & (later > j[:, None]))
        parts.append(np.column_stack([i[e], j[e], k]))
    return np.concatenate(parts)


def _assemble(n: int, edge_scales: np.ndarray, max_dim: int, max_scale: float) -> Filtration:
    # edge_scales[i, j] = entry scale of edge (i, j); inf means never present
    present = np.isfinite(edge_scales) & (edge_scales <= max_scale)
    ids = np.arange(n, dtype=np.int64)
    verts, scales = [ids[:, None]], [np.zeros(n)]      # already in (0.0, id) order
    if max_dim >= 1:
        edges = np.argwhere(present & (ids[:, None] < ids))  # upper triangle, row-major
        verts.append(edges)
        scales.append(edge_scales[edges[:, 0], edges[:, 1]])
    if max_dim >= 2:
        tri = _triangles(present, edges)
        i, j, k = tri.T
        verts.append(tri)
        scales.append(np.maximum(np.maximum(edge_scales[i, j], edge_scales[i, k]),
                                 edge_scales[j, k]))
    for d in range(1, max_dim + 1):
        verts[d], scales[d] = _sort_dim(verts[d], scales[d])
    return Filtration(tuple(verts), tuple(scales))


def vr_filtration(dists: np.ndarray, max_dim: int, max_scale: float) -> Filtration:
    """Vietoris-Rips filtration: edge (i, j) enters at d(i, j), cliques at the
    max of their edge scales. UNREACHABLE pairs are never connected."""
    d = _validate_square(dists, "distance matrix")
    _check_parameters(max_dim, max_scale)
    edge_scales = d.copy()
    np.fill_diagonal(edge_scales, np.inf)
    return _assemble(d.shape[0], edge_scales, max_dim, max_scale)


def relaxation_terms(witness_dists: np.ndarray, nu: int) -> np.ndarray:
    """nu-th smallest finite witness-to-landmark distance per witness (0 for nu=0).

    Witnesses with fewer than nu reachable landmarks get inf and never witness.
    """
    n_wit = witness_dists.shape[0]
    if nu == 0:
        return np.zeros(n_wit, dtype=np.float64)
    m = np.full(n_wit, np.inf)
    srt = np.sort(witness_dists, axis=1)
    col = srt[:, nu - 1]
    ok = np.isfinite(col)
    m[ok] = col[ok]
    return m


def _witness_edge_scales(witness_dists: np.ndarray, m_nu: np.ndarray) -> np.ndarray:
    # entry (i, j) = min over witnesses w of max(A[w, i], A[w, j]), the (min, max)
    # product of A = max(witness_dists - m_nu, 0) over the witnesses whose m_nu
    # is finite; unwitnessed pairs and the diagonal are inf. Clamping and
    # subtracting before the max is exact: fl(x - m) is monotone in x.
    n_land = witness_dists.shape[1]
    active = m_nu != np.inf
    a = witness_dists[active]           # a copy; A is built in place
    a -= m_nu[active, None]
    np.maximum(a, 0.0, out=a)
    # Each level is one W x L x L float32 BLAS product; the loop makes about
    # W x L x L / 2 elementwise steps, memory-bound at large sizes. Measured
    # break-even level counts (W = 20 L, one BLAS thread): 10 at L = 10, 31
    # at L = 75, 58 at L = 250, 104 at L = 500; the cap stays below each.
    # Unit weights give at most diameter + 1 levels, weighted graphs about W * L.
    levels = _levels(a, min(n_land / 3, 48))
    upper = _pair_loop(a) if levels is None else _level_products(a, levels)
    return np.minimum(upper, upper.T)


def _unit_witness_edge_scales(land_dists: np.ndarray) -> np.ndarray:
    # _witness_edge_scales in closed form for nu = 0 on a unit-weight graph H
    # whose witnesses hold every node of H in the landmarks' components: the
    # edge (i, j) at distance d enters at min_w max(d(w, i), d(w, j)) =
    # ceil(d / 2), and never (inf) across components. The min is at least
    # ceil(d / 2): max(a, b) >= (a + b) / 2 >= d / 2 by the triangle
    # inequality, and distances are integers. It is at most ceil(d / 2): the
    # node at position floor(d / 2) on a shortest i-j path is a witness,
    # floor(d / 2) from i and ceil(d / 2) from j.
    scales = np.ceil(land_dists / 2.0)
    np.fill_diagonal(scales, np.inf)
    return scales


def _levels(a: np.ndarray, cap: float) -> np.ndarray | None:
    # ascending finite values of A, or None when there are more than cap; one
    # column's values already exceed cap on weighted rows, so those skip
    # sorting all W x L entries
    for part in (a[:, :1], a):
        levels = np.unique(part)
        levels = levels[: np.searchsorted(levels, np.inf)]   # inf sorts last
        if levels.size > cap:
            return None
    return levels


def _level_products(a: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # upper triangle of the (min, max) product over the ascending finite
    # values ``levels`` of A: a pair's scale is the first level t with a
    # witness at or below t on both ends, a nonzero entry of B^T B with
    # B = (A <= t). The sums count 0/1 terms, so > 0 is exact in float32.
    n_land = a.shape[1]
    upper = np.full((n_land, n_land), np.inf)
    unset = np.triu(np.ones((n_land, n_land), dtype=bool), 1)
    b = np.empty(a.shape, dtype=np.float32)
    for t in levels:
        np.less_equal(a, t, out=b)
        hit = unset & (b.T @ b > 0.0)
        upper[hit] = t
        unset ^= hit
        if not unset.any():
            break
    return upper


def _pair_loop(a: np.ndarray) -> np.ndarray:
    # upper triangle of the (min, max) product, one landmark row at a time;
    # one buffer of W x L values serves every row (contiguous, as a prefix),
    # so the loop allocates nothing and its cost does not depend on how the
    # allocator trims freed memory
    n_wit, n_land = a.shape
    upper = np.full((n_land, n_land), np.inf)
    pairwise = np.empty(a.size)
    for i in range(n_land - 1):
        rest = pairwise[: n_wit * (n_land - 1 - i)].reshape(n_wit, n_land - 1 - i)
        np.maximum(a[:, i : i + 1], a[:, i + 1 :], out=rest)
        rest.min(axis=0, out=upper[i, i + 1 :], initial=np.inf)   # W may be 0
    return upper


def _witness_complex(witness_dists: np.ndarray, max_dim: int, max_scale: float,
                     nu: int) -> Filtration:
    # the lazy-witness filtration over validated (W, L) witness rows; every
    # witness complex, of the whole graph or of one cover cell, is built here
    n_land = witness_dists.shape[1]
    if max_dim == 0:
        edge_scales = np.full((n_land, n_land), np.inf)
    else:
        edge_scales = _witness_edge_scales(witness_dists, relaxation_terms(witness_dists, nu))
    return _assemble(n_land, edge_scales, max_dim, max_scale)


def witness_filtration(land_dists: np.ndarray, witness_dists: np.ndarray,
                       max_dim: int, max_scale: float, nu: int = 0) -> Filtration:
    """Lazy-witness filtration over the landmark set.

    Edge (i, j) enters at the smallest, over witnesses w, of
    max(0, max(d(w, i), d(w, j)) - m_nu(w)) where m_nu(w) is the nu-th smallest
    witness-to-landmark distance (identically 0 for nu = 0). Higher simplices
    enter at the max of their edge scales; scales are capped at ``max_scale``.
    """
    land = _validate_square(land_dists, "landmark distance matrix")
    wd = np.asarray(witness_dists, dtype=np.float64)
    if wd.ndim != 2 or wd.shape[1] != land.shape[0]:
        raise ValidationError("witness_dists must be (num_witnesses, num_landmarks)")
    if wd.shape[0] == 0:
        raise ValidationError("witness set is empty")
    _check_parameters(max_dim, max_scale, nu, land.shape[0])
    return _witness_complex(wd, max_dim, max_scale, nu)


def is_weak_witness(w: int, sigma: Sequence[int], cover_dists: np.ndarray) -> bool:
    """True iff node w witnesses the landmark subset sigma:
    max over sigma of d(w, v) <= min outside sigma of d(w, u)
    (vacuously true when sigma is the whole landmark set)."""
    wd = np.asarray(cover_dists, dtype=np.float64)
    n_wit, n_land = wd.shape
    if not 0 <= w < n_wit:
        raise ValueError(f"w must be a witness row in [0, {n_wit}), got {w}")
    sig = set(int(v) for v in sigma)
    if not sig:
        raise ValueError("sigma must be non-empty")
    if not sig <= set(range(n_land)):
        raise ValueError("sigma must index landmarks")
    outside = [u for u in range(n_land) if u not in sig]
    if not outside:
        return True
    return float(wd[w, sorted(sig)].max()) <= float(wd[w, outside].min())


def sandwich_check(land_dists: np.ndarray, witness_dists: np.ndarray,
                   alpha: float, epsilon: float, max_dim: int) -> bool | None:
    """Check VR at alpha/3 is inside the witness complex at alpha which is
    inside VR at 3*alpha (as simplex sets). Returns None (not applicable)
    when the hypothesis alpha > 2*epsilon fails; ``max_dim`` and a NaN
    ``alpha`` or ``epsilon`` are checked first. All three are flag complexes
    on the same vertices: they nest exactly when their edge sets do."""
    _check_parameters(max_dim)
    for name, x in (("alpha", alpha), ("epsilon", epsilon)):
        if np.isnan(x):
            raise ValueError(f"{name} must be a number, got {x}")
    if not alpha > 2.0 * epsilon:
        return None
    d = _validate_square(land_dists, "distance matrix")
    wit = witness_filtration(d, witness_dists, min(max_dim, 1), alpha)
    if max_dim == 0:
        return True
    pairs = np.triu(np.isfinite(d), 1)      # VR never joins UNREACHABLE pairs
    inner, outer = (pairs & (d <= scale) for scale in (alpha / 3.0, 3.0 * alpha))
    middle = np.zeros_like(pairs)
    middle[tuple(wit.vertices[1].T)] = True
    return bool((inner <= middle).all() and (middle <= outer).all())
