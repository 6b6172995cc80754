"""Graph representation, geodesic metric, and graph-difference accounting.

Graphs are simple, undirected, positively weighted, and immutable. Distances
between nodes in different connected components are marked with the
``UNREACHABLE`` sentinel (``inf``) rather than a large finite number, so
downstream filtrations never create simplices across components.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

UNREACHABLE = np.inf
_ID_BOUND = 2 ** 63 - 1       # node ids, and the node count (largest id + 1), are int64
_DIAMETER_BATCH = 8         # sources per ``diameter`` batch that is not one whole BFS word
_BFS_LEVEL_CAP = 32         # unit rows deeper than this come from csgraph
# a BFS distance code has (_BFS_LEVEL_CAP + 1).bit_length() bits, held in uint8
assert (_BFS_LEVEL_CAP + 1).bit_length() <= 8


class GraphParseError(ValueError):
    """Malformed edge-list input (message carries the line number)."""


class ValidationError(ValueError):
    """Data violates a structural invariant (self-loop, bad weight, ...)."""


def _edge_tuple(e) -> tuple:
    # (u, v, w) from a ``from_edges`` item, worded as ``load_edge_list`` words a line
    t = tuple(e) if isinstance(e, Iterable) else None
    if t is None or len(t) not in (2, 3):
        raise ValidationError(f"edge {e if t is None else t} is not (u, v) or (u, v, w)")
    u, v, w = t if len(t) == 3 else (*t, 1.0)
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (u, v)):
        raise ValidationError(f"edge {t}: node ids must be integers")
    if not (-_ID_BOUND <= u < _ID_BOUND and -_ID_BOUND <= v < _ID_BOUND):
        raise ValidationError(f"edge {t}: node ids must fit in 64 bits")
    if not isinstance(w, numbers.Real) or isinstance(w, bool):
        raise ValidationError(f"edge {t}: weight must be a real number")
    return u, v, w


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional positive edge weights and node features.

    ``edge_array`` holds one row (u, v) per undirected edge with u < v, sorted
    lexicographically; ``weights`` aligns with it. Instances are immutable and
    safe to share across threads.
    """

    num_nodes: int
    edge_array: np.ndarray          # (E, 2) int64, u < v, lexicographically sorted
    weights: np.ndarray             # (E,) float64, strictly positive and finite
    node_features: np.ndarray | None = None

    @classmethod
    def from_edges(cls, num_nodes: int,
                   edges: Iterable[tuple] = (),
                   node_features: np.ndarray | None = None) -> "Graph":
        """Build a validated Graph from (u, v) or (u, v, w) tuples. Each tuple's
        shape and types are checked in input order before any edge rule."""
        edges = [_edge_tuple(e) for e in edges]
        return cls._build(num_nodes, [(u, v) for u, v, _ in edges],
                          [w for _, _, w in edges], node_features)

    @classmethod
    def _build(cls, num_nodes: int, pairs, weights,
               node_features: np.ndarray | None = None, lines=None) -> "Graph":
        """The one validated constructor: (E, 2) node pairs in any order and
        orientation and their (E,) weights. An error names the first offending
        edge in input order, checked for self-loop, range, weight, duplicate,
        and starts with that edge's line number when ``lines`` gives one per edge."""
        if num_nodes < 1:
            raise ValidationError("graph needs at least one node")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        weights = np.asarray(weights, dtype=np.float64)
        u, v = np.minimum(*pairs), np.maximum(*pairs)
        order = np.lexsort((v, u))              # stable: equal pairs keep input order
        su, sv = u[order], v[order]
        repeat = np.zeros(order.size, dtype=bool)
        repeat[order[1:]] = (su[1:] == su[:-1]) & (sv[1:] == sv[:-1])
        bad = np.stack([u == v, (u < 0) | (v >= num_nodes),
                        ~(np.isfinite(weights) & (weights > 0.0)), repeat])
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            u, v, w = u[i], v[i], float(weights[i])
            where = "" if lines is None else f"line {lines[i]}: "
            raise ValidationError(where + (f"self-loop at node {u}",
                                           f"edge ({u}, {v}) outside [0, {num_nodes})",
                                           f"edge ({u}, {v}) has non-positive weight {w}",
                                           f"duplicate edge ({u}, {v})")[np.argmax(bad[:, i])])
        if node_features is not None:
            node_features = np.asarray(node_features, dtype=np.float64)
            if node_features.ndim != 2 or node_features.shape[0] != num_nodes:
                raise ValidationError("node_features must be an N x F matrix")
        return cls(num_nodes, np.column_stack([su, sv]), weights[order], node_features)

    @property
    def num_edges(self) -> int:
        return int(self.edge_array.shape[0])

    @cached_property
    def unit_weights(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.num_nodes)

    @cached_property
    def _csr(self) -> csr_matrix:
        # symmetric CSR: every edge appears in both directions; the pairs are
        # unique, and scipy's conversion from coordinates sorts each row
        n = self.num_nodes
        heads = np.concatenate([self.edge_array[:, 0], self.edge_array[:, 1]])
        tails = np.concatenate([self.edge_array[:, 1], self.edge_array[:, 0]])
        return csr_matrix((np.concatenate([self.weights, self.weights]), (heads, tails)),
                          shape=(n, n))

    @cached_property
    def _bfs_tables(self) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
        # class c > 0 holds the nodes of degree in (2**(c-2), 2**(c-1)], class
        # 0 the isolated ones. BFS order sorts the nodes by class, so a class
        # is one slice [lo, hi) of it, and its (2**(c-1), hi - lo) table lists
        # each node's neighbours in BFS order, padded with row n, which stays 0
        n, indptr, indices = self.num_nodes, self._csr.indptr, self._csr.indices
        deg = self.degrees
        cls = np.where(deg > 0, np.frexp(deg - 1)[1] + 1, 0).astype(np.uint8)
        order = np.argsort(cls, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        deg, cls = deg[order], cls[order]
        bounds = np.concatenate([[0], np.cumsum(deg)])     # each node's entries
        node = np.repeat(np.arange(n), deg)
        slot = np.arange(bounds[-1]) - bounds[node]
        nbrs = rank[indices[indptr[order][node] + slot]]
        tables = []
        for c in np.unique(cls[cls > 0]).tolist():
            lo, hi = np.searchsorted(cls, [c, c + 1]).tolist()
            a, b = bounds[lo], bounds[hi]
            table = np.full((1 << (c - 1), hi - lo), n, dtype=np.intp)
            table[slot[a:b], node[a:b] - lo] = nbrs[a:b]
            tables.append((lo, hi, table))
        return rank, tables

    @cached_property
    def _covers(self) -> dict:
        # landmarks.build_cover's results, keyed by LandmarkSet
        return {}

    @cached_property
    def _component_labels(self) -> np.ndarray:
        # component k is the one holding the k-th smallest "smallest node id"
        _, labels = csgraph.connected_components(self._csr, directed=False)
        _, first = np.unique(labels, return_index=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        return rank[labels]

    def to_edge_list(self, fp: IO[str]) -> None:
        """Write the edge-list text format ("u v" or "u v w" per line)."""
        for (u, v), w in zip(self.edge_array, self.weights):
            if w == 1.0:
                fp.write(f"{u} {v}\n")
            else:
                fp.write(f"{u} {v} {float(w)!r}\n")


@dataclass(frozen=True)
class DistanceMatrix:
    """Geodesic distances from ``sources`` to every node; inf marks UNREACHABLE."""

    sources: tuple[int, ...]
    dists: np.ndarray               # (len(sources), N) float64

    @property
    def num_nodes(self) -> int:
        return int(self.dists.shape[1])

    @property
    def between_sources(self) -> np.ndarray:
        """(L, L) distances among the sources themselves, in source order."""
        return self.dists[:, list(self.sources)]

    @property
    def diameter(self) -> float:
        """Max finite entry; the graph diameter when sources cover all nodes."""
        finite = self.dists[np.isfinite(self.dists)]
        return float(finite.max()) if finite.size else 0.0

    def to_csv(self, fp: IO[str]) -> None:
        _write_csv(fp, self.dists)


def _write_csv(fp: IO[str], rows: np.ndarray) -> None:
    # the one matrix CSV format: a line per row, each value's float repr ("inf")
    for row in rows:
        fp.write(",".join(repr(float(x)) for x in row))
        fp.write("\n")


def load_edge_list(stream: IO[str] | Iterable[str]) -> Graph:
    """Parse the edge-list text format.

    Each non-comment line is "u v" or "u v w" with integer u != v and optional
    real w > 0; '#'-prefixed lines and blank lines are ignored. The node count
    is 1 + the largest node id seen (at least 1). A line's tokens are checked
    as it is read; the edge rules are ``Graph._build``'s, whose error names
    the first offending line, so a token error comes first wherever it is.
    """
    ids: list[int] = []
    weights: list[float] = []
    lines: list[int] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(f"line {lineno}: expected 'u v' or 'u v w'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: node ids must be integers") from None
        if not (-_ID_BOUND <= u < _ID_BOUND and -_ID_BOUND <= v < _ID_BOUND):
            raise GraphParseError(f"line {lineno}: node ids must fit in 64 bits")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: weight must be a real number") from None
        ids += (u, v)
        weights.append(w)
        lines.append(lineno)
    return Graph._build(max(max(ids, default=0) + 1, 1), ids, weights, lines=lines)


def build_knn_graph(features: np.ndarray, k: int, zero_floor: float = 1e-9) -> Graph:
    """k-nearest-neighbour graph under cosine distance between feature rows.

    The directed kNN relations are symmetrized by union; ties in distance go to
    the lower node index. Edge weight is the cosine distance, with exact-zero
    distances replaced by ``zero_floor`` to keep weights positive.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("features must be an N x F matrix")
    n = x.shape[0]
    if not (1 <= k < n):
        raise ValueError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValidationError(f"non-finite features in row {np.argmin(finite)}")
    # scaling a row by a power of two is exact and leaves its cosines as they
    # are; scaled to a largest entry in [0.5, 1), no norm over- or underflows
    unit = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, initial=0.0))[1][:, None])
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError("zero-norm feature row")
    cosine = 1.0 - (unit @ unit.T) / np.outer(norms, norms)
    np.fill_diagonal(cosine, np.inf)                       # never its own neighbour
    # distance asc, then index asc; pairs listed in (u, rank) order
    v = np.argsort(cosine, axis=1, kind="stable")[:, :k].ravel()
    u = np.repeat(np.arange(n), k)
    d = cosine[u, v]
    pairs = np.sort(np.column_stack([u, v]), axis=1)
    _, first = np.unique(_pair_keys(pairs, n), return_index=True)   # first occurrence wins
    return Graph._build(n, pairs[first], np.where(d[first] > 0.0, d[first], zero_floor),
                        node_features=x)


def geodesics(g: Graph, sources: Sequence[int]) -> DistanceMatrix:
    """Shortest-path rows from each source node.

    Uses bit-parallel breadth-first search when all weights are 1 (csgraph's
    BFS for rows too deep for it) and Dijkstra otherwise.
    """
    src = _source_ids(g, sources)
    dists = (_unit_rows(g, src) if g.unit_weights
             else csgraph.dijkstra(g._csr, directed=True, indices=src))
    return DistanceMatrix(tuple(int(s) for s in src), dists)


def _source_ids(g: Graph, sources: Sequence[int]) -> np.ndarray:
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        raise ValueError("sources must be non-empty")
    if src.min() < 0 or src.max() >= g.num_nodes:
        raise ValueError("source ids outside [0, N)")
    return src


def nearest_sources(g: Graph, sources: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each node's distance to its nearest source, and the rank (position in
    ``sources``) of the earliest nearest one; inf and ``len(sources)`` for a
    node that no source reaches.

    On a unit-weight graph this is one Dijkstra pass from a virtual node
    joined to the source of rank r by weight r + 1, every edge weighted
    k + 1 for k sources: a node at distance D from its nearest sources, the
    earliest of rank r, ends at 1 + r + D (k + 1). Those are integers, exact
    in float64 while (N + 1)(k + 1) < 2**53. On a weighted graph it is the
    argmin of the geodesic rows, whose minimum is then the rows' bit for bit.
    """
    src = _source_ids(g, sources)
    if not g.unit_weights:
        return _nearest_in_rows(geodesics(g, src).dists)
    n, k = g.num_nodes, src.size
    u, v = g.edge_array.T
    # each edge once, as the sorted edge array already lies in CSR order, then
    # the virtual node's row; the pass reads the matrix as undirected
    indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=n)), [u.size + k]])
    joined = csr_matrix((np.concatenate([np.full(u.size, k + 1.0), np.arange(1.0, k + 1)]),
                         np.concatenate([v, src]), indptr), shape=(n + 1, n + 1))
    code = csgraph.dijkstra(joined, directed=False, indices=n)[:n]
    dist, rank = np.full(n, UNREACHABLE), np.full(n, k)
    reach = np.isfinite(code)
    dist[reach], rank[reach] = np.divmod(code[reach] - 1.0, k + 1)
    return dist, rank


def _nearest_in_rows(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # nearest_sources read off (k, N) geodesic rows: argmin keeps the first
    # row on ties
    rank = np.argmin(dists, axis=0)
    dist = dists[rank, np.arange(dists.shape[1])]
    return dist, np.where(np.isfinite(dist), rank, dists.shape[0])


def _unit_rows(g: Graph, src: np.ndarray) -> np.ndarray:
    """Unit-weight rows by level-synchronous BFS from up to 64 sources at once,
    source j being bit j % 64 of word j // 64 (Then et al. 2014, "The More the
    Merrier"; Akiba, Iwata & Yoshida 2013).

    Each level ORs the frontier words of every node's neighbours and keeps the
    bits not seen before; a pair first seen at level l gets distance l, written
    into bit planes. A level over every node and word measured at most about a
    third of one source's heap BFS (paths, grids, the benchmark's graphs), so
    k sources in w words get a budget of 3k / w levels, which cost about what
    csgraph's BFS of the same sources does. Past k / w levels the word goes on
    only while the node words that still hold an unseen bit, reached at the
    last level's rate, would all be reached within the budget; otherwise, or
    at ``_BFS_LEVEL_CAP``, the sources go to csgraph's BFS instead. A deep
    graph such as a path or a grid fails that test the first time it is
    made, while a word that is nearly done runs on.
    """
    n, k = g.num_nodes, src.size
    words = -(-k // 64)
    rank, tables = g._bfs_tables
    col = np.arange(k)
    front = np.zeros((n + 1, words), dtype=np.uint64)
    np.bitwise_or.at(front, (rank[src], col // 64),
                     np.left_shift(np.uint64(1), (col % 64).astype(np.uint64)))
    unseen = ~front[:n]
    # bits past k count as seen, so the loop ends once every real pair is
    unseen[:, -1] &= np.uint64(2 ** 64 - 1) >> np.uint64(-k % 64)
    new, reach = front[:n], np.zeros((n, words), dtype=np.uint64)
    planes = []                                 # bit b of every distance
    depth, patience, budget = 0, k // words, 3 * k // words
    while unseen.any():
        if depth == _BFS_LEVEL_CAP or (depth > patience and np.count_nonzero(unseen)
                                       > np.count_nonzero(new) * (budget - depth)):
            return csgraph.dijkstra(g._csr, directed=True, indices=src, unweighted=True)
        for lo, hi, table in tables:
            np.bitwise_or.reduce(np.take(front, table, axis=0), axis=0, out=reach[lo:hi])
        np.bitwise_and(reach, unseen, out=new)
        if not new.any():                       # every source's component is done
            break
        depth += 1
        unseen ^= new
        planes += [np.zeros_like(new) for _ in range(depth.bit_length() - len(planes))]
        for b, plane in enumerate(planes):
            if depth >> b & 1:
                plane |= new
    # pairs never seen get the all-ones code, above every distance found
    width = (depth + 1).bit_length()
    planes += [np.zeros_like(new) for _ in range(width - len(planes))]
    code = np.zeros((n, 64 * words), dtype=np.uint8)
    for b, plane in enumerate(planes):
        plane |= unseen
        bits = np.unpackbits(plane.astype("<u8", copy=False).view(np.uint8), axis=1,
                             bitorder="little")
        code |= np.multiply(bits, np.uint8(1 << b), out=bits)
    dists = np.empty((k, n))
    dists[...] = code[rank, :k].T
    if unseen.any():
        np.putmask(dists, dists == 2 ** width - 1, UNREACHABLE)
    return dists


def all_pairs(g: Graph) -> DistanceMatrix:
    return geodesics(g, range(g.num_nodes))


def diameter(g: Graph) -> float:
    """Max finite geodesic distance over all node pairs, found exactly by
    eccentricity bounds (Takes & Kosters 2011) instead of an all-sources pass.

    Every node keeps a lower and an upper bound on its eccentricity. Each
    computed source row tightens the bounds of the nodes it reaches, and a
    node is dropped once its upper bound shows its row cannot exceed the
    largest row maximum found so far. Sources are taken a batch at a time,
    alternately those with the largest upper bound (likely periphery) and
    those with the smallest lower bound (likely centre). A batch is one whole
    BFS word of 64 sources on a unit-weight graph once every candidate's
    eccentricity is known to be below ``_BFS_LEVEL_CAP``, and
    ``_DIAMETER_BATCH`` sources otherwise. The result is the maximum over the
    rows actually computed, so it equals the all-pairs maximum bit for bit,
    for weighted graphs too.
    """
    n = g.num_nodes
    labels = g._component_labels
    sizes = np.bincount(labels)
    connected = sizes.size == 1                      # every row reaches every node
    w_max = float(g.weights.max()) if g.num_edges else 0.0
    lo = np.zeros(n)
    hi = (sizes[labels] - 1) * w_max                  # isolated nodes: 0
    # unit distances are integers, so ``hi <= best`` prunes exactly; weighted
    # ones keep every node whose row could round to the maximum
    keep_above = 1.0 if g.unit_weights else 1.0 - 1e-9
    active = np.ones(n, dtype=bool)
    best = 0.0
    for turn in itertools.count():
        active &= hi > best * keep_above
        cand = np.flatnonzero(active)
        if cand.size == 0:
            return best
        # likely periphery on even turns: the largest upper bound, then the
        # largest lower one; likely centre on odd turns: the smallest lower
        # bound, then the smallest upper one; ties by node id
        order = (np.lexsort((-lo[cand], -hi[cand])) if turn % 2 == 0
                 else np.lexsort((hi[cand], lo[cand])))
        batch = cand[order[:64]]
        if g.unit_weights and hi[cand].max() < _BFS_LEVEL_CAP:
            # every candidate's row ends below the level cap, and a word of 64
            # sources runs 64 levels before the work bound looks at it, so one
            # whole BFS word always finishes. Fewer than 64 candidates are the
            # last batch, and repeats fill its word
            batch = np.resize(batch, 64)
        else:
            batch = batch[:_DIAMETER_BATCH]
        dists = geodesics(g, batch).dists
        reached = True if connected else np.isfinite(dists)
        ecc = dists.max(axis=1, where=reached, initial=0.0)[:, None]
        best = max(best, float(ecc.max()))
        active[batch] = False
        # the new maximum drops nodes before the rows update their bounds
        active &= hi > best * keep_above
        if not active.any():
            return best
        # ecc(v) >= max(d, ecc(u) - d) and ecc(v) <= ecc(u) + d over the rows
        # u that reach v; an unreached entry (inf) moves neither bound. In
        # place, ecc(u) - d is read off ecc(u) + d: that rounds only on
        # weighted rows, and only in ``lo``, which orders the sources but
        # never drops one
        np.maximum(lo, dists.max(axis=0, where=reached, initial=0.0), out=lo)
        np.minimum(hi, np.add(dists, ecc, out=dists).min(axis=0), out=hi)
        np.maximum(lo, np.subtract(2.0 * ecc, dists, out=dists).max(axis=0), out=lo)


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node lists, ordered by smallest contained node id."""
    labels = g._component_labels
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels))[:-1]
    return [comp.tolist() for comp in np.split(order, bounds)]


def largest_connected_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component, nodes relabeled contiguously.

    Ties between equal-size components go to the one containing the smallest
    original index. Returns (subgraph, old_to_new) where old_to_new[i] is the
    new index of node i or -1 if i was dropped. A connected graph is returned
    as it is, so the CSR, components and BFS tables it cached are reused.
    """
    labels = g._component_labels
    best = np.argmax(np.bincount(labels))
    keep = np.flatnonzero(labels == best)
    if keep.size == g.num_nodes:
        return g, keep
    return _induced(g, keep)


def _induced(g: Graph, keep: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Subgraph induced on the ascending node ids ``keep``, relabelled
    0..len(keep)-1 in the same order, so its edges stay sorted with u < v.
    Returns (subgraph, old_to_new) with old_to_new[i] = -1 for a dropped i."""
    old_to_new = np.full(g.num_nodes, -1, dtype=np.int64)
    old_to_new[keep] = np.arange(keep.size)
    ends = old_to_new[g.edge_array]
    inner = (ends >= 0).all(axis=1)
    feats = g.node_features[keep] if g.node_features is not None else None
    return Graph(int(keep.size), ends[inner], g.weights[inner], feats), old_to_new


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One int64 key u * n + v per (u, v) row with 0 <= u, v < n; sorting the
    keys sorts the rows lexicographically."""
    return pairs[:, 0] * n + pairs[:, 1]


def adjacency_l1_distance(g1: Graph, g2: Graph, weighted: bool = False) -> float:
    """Number of undirected pairs whose adjacency differs (one flip counts 1).

    With ``weighted=True``, returns the sum of |w1 - w2| over the union of edge
    pairs, treating an absent edge as weight 0.
    """
    if g1.num_nodes != g2.num_nodes:
        raise ValueError("graphs must have the same number of nodes")
    # edge_array is sorted and unique, so are its keys
    k1, k2 = (_pair_keys(g.edge_array, g.num_nodes) for g in (g1, g2))
    if not weighted:
        return float(np.setxor1d(k1, k2, assume_unique=True).size)
    keys = np.union1d(k1, k2)
    w = np.zeros((2, keys.size))
    w[0, np.searchsorted(keys, k1)] = g1.weights
    w[1, np.searchsorted(keys, k2)] = g2.weights
    return float(np.abs(w[0] - w[1]).sum())
