"""Raw local/global topological feature pipelines and the topological loss.

The local pipeline selects landmarks, builds the Voronoi cover, computes a
lazy-witness persistence image inside each cell, and broadcasts the cell's
image to every node it contains. The global pipeline runs one lazy-witness
filtration over the whole graph with all nodes as witnesses. Both are pure
functions of their inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .complexes import (_assemble, _check_dimension, _check_parameters,
                        _unit_witness_edge_scales, _witness_complex)
from .graph import Graph, _induced, _write_csv, geodesics, nearest_sources
from .images import PIConfig, PersistenceImage, persistence_image, resolve_config
from .landmarks import Cover, build_cover, select_landmarks
from .persistence import REDUCTION, UNION_FIND, PersistenceDiagram, compute_persistence


@dataclass(frozen=True)
class NodeFeatureMatrix:
    """Per-node feature rows (row-major flattened persistence images)."""

    values: np.ndarray            # (N, R*R) float64

    @property
    def num_nodes(self) -> int:
        return int(self.values.shape[0])

    def to_csv(self, fp: IO[str]) -> None:
        _write_csv(fp, self.values)

    def to_binary(self, fp: IO[bytes]) -> None:
        """Little-endian block: int64 N, int64 cols, then row-major float64."""
        n, cols = self.values.shape
        fp.write(struct.pack("<qq", n, cols))
        fp.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, fp: IO[bytes]) -> "NodeFeatureMatrix":
        """Inverse of ``to_binary``; the block must end where ``fp`` ends."""
        head, payload = fp.read(16), fp.read()
        if len(head) != 16:
            raise ValueError(f"feature matrix header is {len(head)} bytes, needs 16")
        n, cols = struct.unpack("<qq", head)
        if n < 0 or cols < 0:
            raise ValueError(f"feature matrix header gives a negative shape ({n}, {cols})")
        if len(payload) != n * cols * 8:
            problem = "truncated" if len(payload) < n * cols * 8 else "trailing bytes"
            raise ValueError(f"feature matrix ({n}, {cols}): {problem}, {len(payload)} bytes")
        values = np.frombuffer(payload, dtype="<f8").reshape(n, cols)
        return cls(values.astype(np.float64))


@dataclass(frozen=True)
class TopoLossConfig:
    """Exponents of the persistence penalty sum((d-b)^p ((d+b)/2)^q)."""

    p: float = 2.0
    q: float = 0.0

    def __post_init__(self):
        for name, x in (("p", self.p), ("q", self.q)):
            if not 0 <= x < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {name}={x!r}")
        if self.p + self.q <= 0:
            raise ValueError("need p + q > 0")

    @property
    def k(self) -> float:
        return max(self.p, self.q)


def _vertex_diagram() -> PersistenceDiagram:
    # a cell with one landmark is one vertex, whose diagram is one essential 0
    return PersistenceDiagram({}, {0: np.zeros(1)})


def _forest_diagrams(g: Graph, nearest: tuple[np.ndarray, np.ndarray], sizes: list[int],
                     top: int, max_scale: float) -> list[PersistenceDiagram]:
    """Dimension-0 diagrams at nu = 0 of ``_witness_diagrams``' blocks, block
    b the next ``sizes[b]`` landmarks of ``nearest`` (their
    ``nearest_sources`` over ``g``). Each graph edge (u, v) of weight w whose
    ends have different nearest landmarks s(u), s(v) joins them at
    r = min(max(D(u), w + D(v)), max(D(v), w + D(u))); on unit weights that is
    ceil((D(u) + 1 + D(v)) / 2). A block's minimum spanning forest under r
    has the weights of its witness complex's, since both give every landmark
    pair the same minimax scale, so its weights up to ``max_scale`` are the
    deaths and every other landmark is an essential 0 (README)."""
    dist, label = nearest
    u, v = g.edge_array.T
    cross = (label[u] != label[v]) & np.isfinite(dist[u])
    u, v, w = u[cross], v[cross], g.weights[cross]
    r = np.minimum(np.maximum(dist[u], w + dist[v]), np.maximum(dist[v], w + dist[u]))
    a, b = np.minimum(label[u], label[v]), np.maximum(label[u], label[v])
    # the smallest r per landmark pair (scipy would sum repeated entries), in
    # row-major order, so the pairs are the matrix's CSR layout
    k = sum(sizes)
    order = np.lexsort((r, b, a))
    a, b, r = a[order], b[order], r[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b, r = a[first], b[first], r[first]
    tree = minimum_spanning_tree(csr_matrix((r, b, np.searchsorted(a, np.arange(k + 1))),
                                            shape=(k, k)))
    # tree edges stay in row order, so each block's are one run of them
    row = np.repeat(np.arange(k), np.diff(tree.indptr))
    dies = (tree.data <= max_scale) & (top >= 1)     # a max_dim 0 complex has no edge
    deaths = np.split(tree.data[dies], np.searchsorted(row[dies], np.cumsum(sizes)[:-1]))
    return [PersistenceDiagram._build({0: np.column_stack([np.zeros(d.size), d])},
                                      {0: np.zeros(size - d.size)})
            for size, d in zip(sizes, deaths)]


def _witness_diagrams(g: Graph, blocks: list[tuple[list[int] | np.ndarray, slice | np.ndarray]],
                      top: int, max_scale: float, nu: int, dimension: int,
                      nearest: Callable[[], tuple[np.ndarray, np.ndarray]],
                      rows: Callable[[], np.ndarray]) -> list[PersistenceDiagram]:
    """Lazy-witness diagrams of blocks of landmarks that share no edge of
    ``g``, each complex built up to dimension ``top``. Block b is its
    landmark and witness columns of ``g``, the witnesses every node of the
    landmarks' components; ``nearest`` and ``rows`` give the one pass over
    ``g`` from all blocks' landmarks in order, and only the one read runs.
    At nu = 0 in dimension 0 that is ``nearest_sources``, for one spanning
    forest; otherwise each block's complex is built from its rows, on a
    unit-weight graph at nu = 0 in closed form from the landmark columns
    alone, and the reduction stops at H0 in dimension 0."""
    sizes = [len(marks) for marks, _ in blocks]
    if nu == 0 and dimension == 0:
        return _forest_diagrams(g, nearest(), sizes, top, max_scale)
    dists, diagrams = rows(), []
    for (marks, witnesses), end in zip(blocks, np.cumsum(sizes).tolist()):
        block = dists[end - len(marks):end]
        if g.unit_weights and nu == 0:
            f = _assemble(len(marks), _unit_witness_edge_scales(block[:, marks]), top, max_scale)
        else:
            f = _witness_complex(block[:, witnesses].T, top, max_scale, nu)
        diagrams.append(compute_persistence(f, UNION_FIND if dimension == 0 else REDUCTION))
    return diagrams


def local_cell_diagrams(cover: Cover, *, max_dim: int = 1, dimension: int = 0, nu: int = 0,
                        max_scale: float = np.inf) -> dict[int, PersistenceDiagram]:
    """Lazy-witness diagram of the induced subgraph of every cover cell.

    Only the cells with two or more local landmarks need a pass. In the
    cover's cut graph each cell's induced subgraph is one block, so one pass
    over the cut graph induced on those cells, from their local landmarks,
    serves every cell: shortest-path distances do not depend on node labels,
    so they equal those of the cell's subgraph bit for bit. That pass is
    ``nearest_sources`` or ``geodesics``, whichever the request reads. Each
    cell is witnessed by its members.
    """
    local = cover.local_landmarks
    top = _check_parameters(max_dim, max_scale, nu, min(len(m) for m in local.values()),
                            dimension)
    several = [l for l, m in local.items() if len(m) > 1]
    diagrams = {l: _vertex_diagram() for l in local}
    if several:
        keep = np.sort(np.concatenate([cover.cells[l] for l in several]))
        sub, new = _induced(cover.cut, keep)
        blocks = [(new[list(local[l])], new[list(cover.cells[l])]) for l in several]
        marks = np.concatenate([m for m, _ in blocks])
        diagrams.update(zip(several, _witness_diagrams(
            sub, blocks, top, max_scale, nu, dimension,
            lambda: nearest_sources(sub, marks), lambda: geodesics(sub, marks).dists)))
    return diagrams


def local_encoding(g: Graph, fraction: float, cfg: PIConfig, max_dim: int = 1,
                   dimension: int = 0, nu: int = 0,
                   max_scale: float = np.inf) -> NodeFeatureMatrix:
    """Per-node rows: the cell's witness persistence image, broadcast to every
    node of the cell (nodes sharing a cell get identical rows)."""
    ls = select_landmarks(g, fraction)
    _check_parameters(max_dim, max_scale, nu, len(ls), dimension)   # no cell has more
    cover = build_cover(g, ls)
    diagrams = local_cell_diagrams(cover, max_dim=max_dim, nu=nu,
                                   dimension=dimension, max_scale=max_scale)
    cfg = resolve_config(cfg, g)
    index: dict[tuple[bytes, bytes], int] = {}      # distinct diagram -> image row
    images = []
    position = np.empty(g.num_nodes, dtype=np.intp)    # cell key -> image row
    for l, d in diagrams.items():
        key = (d.points_in(dimension).tobytes(), d.essential_in(dimension).tobytes())
        if key not in index:
            index[key] = len(images)
            images.append(persistence_image(d, cfg, dimension).flatten())
        position[l] = index[key]
    return NodeFeatureMatrix(np.stack(images)[position[cover.cell_of]])


def global_encoding(g: Graph, fraction: float, cfg: PIConfig, max_dim: int = 1,
                    dimension: int = 0, nu: int = 0,
                    max_scale: float = np.inf) -> PersistenceImage:
    """Witness persistence image of the whole graph: landmarks by degree, every
    node a witness (``global_diagram`` of their cover)."""
    ls = select_landmarks(g, fraction)
    _check_parameters(max_dim, max_scale, nu, len(ls), dimension)
    diagram = global_diagram(build_cover(g, ls), max_dim=max_dim,
                             dimension=dimension, nu=nu, max_scale=max_scale)
    return persistence_image(diagram, resolve_config(cfg, g), dimension)


def global_diagram(cover: Cover, *, max_dim: int = 1, dimension: int = 0, nu: int = 0,
                   max_scale: float = np.inf) -> PersistenceDiagram:
    """Witness diagram of the whole graph over the cover's landmarks,
    witnessed by every node: the one-block case of the cells' route
    (``_witness_diagrams``), over the cover's own nearest landmarks or rows."""
    top = _check_parameters(max_dim, max_scale, nu, len(cover.landmarks), dimension)
    return _witness_diagrams(cover.graph, [(list(cover.landmarks), slice(None))],
                             top, max_scale, nu, dimension,
                             lambda: cover.nearest, lambda: cover.rows.dists)[0]


def topo_loss(d: PersistenceDiagram, cfg: TopoLossConfig, dimension: int = 0) -> float:
    """Persistence penalty sum((d_i - b_i)^p ((d_i + b_i)/2)^q) over the finite
    points of one dimension (essential points excluded; empty diagram -> 0)."""
    _check_dimension(dimension)
    pts = d.points_in(dimension)
    if pts.shape[0] == 0:
        return 0.0
    pers = pts[:, 1] - pts[:, 0]
    mid = (pts[:, 1] + pts[:, 0]) / 2.0
    return float(np.sum(pers ** cfg.p * mid ** cfg.q))


def topo_loss_grad(d: PersistenceDiagram, cfg: TopoLossConfig,
                   dimension: int = 0) -> np.ndarray:
    """Per-point (dL/db_i, dL/dd_i) for the loss above, in the diagram's sorted
    point order. Terms whose coefficient (p or q) is zero contribute nothing,
    so zero bases never meet negative exponents."""
    _check_dimension(dimension)
    pts = d.points_in(dimension)
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    p, q = cfg.p, cfg.q
    pers = pts[:, 1] - pts[:, 0]
    mid = (pts[:, 1] + pts[:, 0]) / 2.0
    term_p = p * pers ** (p - 1.0) * mid ** q if p != 0 else np.zeros_like(pers)
    term_q = (q / 2.0) * pers ** p * mid ** (q - 1.0) if q != 0 else np.zeros_like(pers)
    return np.column_stack([-term_p + term_q, term_p + term_q])
