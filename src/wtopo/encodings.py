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
from typing import IO

import numpy as np

from .complexes import _witness_complex
from .graph import Graph, geodesics
from .images import PIConfig, PersistenceImage, persistence_image, resolve_config
from .landmarks import Cover, build_cover, select_landmarks
from .persistence import REDUCTION, PersistenceDiagram, block_h0, compute_persistence

LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class NodeFeatureMatrix:
    """Per-node feature rows (row-major flattened persistence images)."""

    values: np.ndarray            # (N, R*R) float64
    provenance: str               # LOCAL or GLOBAL

    @property
    def num_nodes(self) -> int:
        return int(self.values.shape[0])

    def to_csv(self, fp: IO[str]) -> None:
        for row in self.values:
            fp.write(",".join(repr(float(x)) for x in row))
            fp.write("\n")

    def to_binary(self, fp: IO[bytes]) -> None:
        """Little-endian block: int64 N, int64 cols, then row-major float64."""
        n, cols = self.values.shape
        fp.write(struct.pack("<qq", n, cols))
        fp.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, fp: IO[bytes], provenance: str = LOCAL) -> "NodeFeatureMatrix":
        n, cols = struct.unpack("<qq", fp.read(16))
        values = np.frombuffer(fp.read(n * cols * 8), dtype="<f8").reshape(n, cols)
        return cls(values.astype(np.float64), provenance)


@dataclass(frozen=True)
class TopoLossConfig:
    """Exponents of the persistence penalty sum((d-b)^p ((d+b)/2)^q)."""

    p: float = 2.0
    q: float = 0.0

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q <= 0:
            raise ValueError("need p >= 0, q >= 0 and p + q > 0")

    @property
    def k(self) -> float:
        return max(self.p, self.q)


def _witness_diagrams(blocks: list[np.ndarray], max_dim: int, nu: int, dimension: int,
                      max_scale: float) -> list[PersistenceDiagram]:
    """Lazy-witness diagram of each (witnesses, landmarks) block of geodesic
    rows. A block with one landmark is one vertex and needs no filtration; in
    dimension 0 every block's H0 comes from one spanning forest."""
    if max_dim not in (0, 1, 2):
        raise ValueError("max_dim must be 0, 1 or 2")
    sizes = np.array([rows.shape[1] for rows in blocks])
    if not 0 <= nu <= sizes.min():
        raise ValueError("nu must be in [0, num_landmarks]")
    filts = {b: _witness_complex(rows, max_dim, max_scale, nu)
             for b, rows in enumerate(blocks) if rows.shape[1] > 1}
    # in higher dimensions the forest stands only for the one-vertex blocks
    # (one essential 0), so it gets no edges
    diagrams = block_h0(sizes, {} if dimension else filts)
    if dimension:
        for b, f in filts.items():
            diagrams[b] = compute_persistence(f, REDUCTION)
    return diagrams


def local_cell_diagrams(cover: Cover, max_dim: int = 1, nu: int = 0, dimension: int = 0,
                        max_scale: float = np.inf) -> dict[int, PersistenceDiagram]:
    """Lazy-witness diagram of the induced subgraph of every cover cell.

    In the cover's cut graph each cell's induced subgraph is one block, so
    one geodesics pass over it, from every cell's local landmarks, gives each
    cell's rows; shortest-path distances do not depend on node labels, so
    they equal the rows of the cell's subgraph bit for bit. Each cell is
    witnessed by its members.
    """
    marks = list(cover.local_landmarks.values())
    rows = geodesics(cover.cut, np.concatenate(marks)).dists
    starts = np.cumsum([0] + [len(m) for m in marks]).tolist()
    blocks = [rows[s:e, cover.cells[l]].T
              for l, s, e in zip(cover.local_landmarks, starts, starts[1:])]
    return dict(zip(cover.local_landmarks,
                    _witness_diagrams(blocks, max_dim, nu, dimension, max_scale)))


def local_encoding(g: Graph, fraction: float, cfg: PIConfig, max_dim: int = 1,
                   dimension: int = 0, nu: int = 0,
                   max_scale: float = np.inf) -> NodeFeatureMatrix:
    """Per-node rows: the cell's witness persistence image, broadcast to every
    node of the cell (nodes sharing a cell get identical rows)."""
    cfg = resolve_config(cfg, g)
    cover = build_cover(g, select_landmarks(g, fraction))
    diagrams = local_cell_diagrams(cover, max_dim=max_dim, nu=nu,
                                   dimension=dimension, max_scale=max_scale)
    images = np.stack([persistence_image(d, cfg, dimension).flatten()
                       for d in diagrams.values()])
    position = np.empty(g.num_nodes, dtype=np.intp)    # cell key -> image row
    position[list(diagrams)] = np.arange(len(diagrams))
    return NodeFeatureMatrix(images[position[cover.cell_of]], LOCAL)


def global_encoding(g: Graph, fraction: float, cfg: PIConfig, max_dim: int = 1,
                    dimension: int = 0, nu: int = 0,
                    max_scale: float = np.inf) -> PersistenceImage:
    """Witness persistence image of the whole graph: landmarks by degree, every
    node a witness, geodesic rows computed per landmark."""
    cfg = resolve_config(cfg, g)
    diagram = global_diagram(g, fraction, max_dim=max_dim, dimension=dimension,
                             nu=nu, max_scale=max_scale)
    return persistence_image(diagram, cfg, dimension)


def global_diagram(g: Graph, fraction: float, max_dim: int = 1,
                   dimension: int = 0, nu: int = 0,
                   max_scale: float = np.inf,
                   cover: Cover | None = None) -> PersistenceDiagram:
    """Witness diagram of the whole graph over the cover's landmark rows; the
    cover is built from ``fraction`` when not given."""
    if cover is None:
        cover = build_cover(g, select_landmarks(g, fraction))
    return _witness_diagrams([cover.rows.dists.T], max_dim, nu, dimension, max_scale)[0]


def topo_loss(d: PersistenceDiagram, cfg: TopoLossConfig, dimension: int = 0) -> float:
    """Persistence penalty sum((d_i - b_i)^p ((d_i + b_i)/2)^q) over the finite
    points of one dimension (essential points excluded; empty diagram -> 0)."""
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
    pts = d.points_in(dimension)
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    p, q = cfg.p, cfg.q
    pers = pts[:, 1] - pts[:, 0]
    mid = (pts[:, 1] + pts[:, 0]) / 2.0
    term_p = p * pers ** (p - 1.0) * mid ** q if p != 0 else np.zeros_like(pers)
    term_q = (q / 2.0) * pers ** p * mid ** (q - 1.0) if q != 0 else np.zeros_like(pers)
    return np.column_stack([-term_p + term_q, term_p + term_q])
