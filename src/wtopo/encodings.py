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

from .complexes import witness_filtration
from .graph import Graph, geodesics
from .images import PIConfig, PersistenceImage, persistence_image, resolve_config
from .landmarks import Cover, build_cover, select_landmarks
from .persistence import (REDUCTION, UNION_FIND, PersistenceDiagram,
                          compute_persistence)

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


def _witness_diagram(land_dists: np.ndarray, witness_dists: np.ndarray, max_dim: int,
                     max_scale: float, nu: int, dimension: int) -> PersistenceDiagram:
    filt = witness_filtration(land_dists, witness_dists, max_dim, max_scale, nu=nu)
    return compute_persistence(filt, UNION_FIND if dimension == 0 else REDUCTION)


def local_cell_diagrams(g: Graph, cover: Cover, max_dim: int = 1, nu: int = 0,
                        dimension: int = 0,
                        max_scale: float = np.inf) -> dict[int, PersistenceDiagram]:
    """Lazy-witness diagram of the induced subgraph of every cover cell.

    The cells partition the nodes, so cutting every edge between two cells
    leaves each cell's induced subgraph as one block of the graph. One
    geodesics pass over that cut, from every cell's local landmarks, gives
    each cell's rows; Dijkstra distances do not depend on node labels, so
    they equal the rows of the cell's subgraph bit for bit.
    """
    ends = cover.cell_of[g.edge_array]
    same = ends[:, 0] == ends[:, 1]
    cut = Graph(g.num_nodes, g.edge_array[same], g.weights[same])
    rows = geodesics(cut, np.concatenate(list(cover.local_landmarks.values()))).dists
    diagrams, start = {}, 0
    for l, marks in cover.local_landmarks.items():
        block = rows[start:start + len(marks)]
        start += len(marks)
        diagrams[l] = _witness_diagram(block[:, marks], block[:, cover.cells[l]].T,
                                       max_dim, max_scale, nu, dimension)
    return diagrams


def local_encoding(g: Graph, fraction: float, cfg: PIConfig, max_dim: int = 1,
                   dimension: int = 0, nu: int = 0,
                   max_scale: float = np.inf) -> NodeFeatureMatrix:
    """Per-node rows: the cell's witness persistence image, broadcast to every
    node of the cell (nodes sharing a cell get identical rows)."""
    cfg = resolve_config(cfg, g)
    cover = build_cover(g, select_landmarks(g, fraction))
    diagrams = local_cell_diagrams(g, cover, max_dim=max_dim, nu=nu,
                                   dimension=dimension, max_scale=max_scale)
    images = {l: persistence_image(d, cfg, dimension).flatten()
              for l, d in diagrams.items()}
    return NodeFeatureMatrix(np.array([images[l] for l in cover.cell_of.tolist()]),
                             LOCAL)


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
    return _witness_diagram(cover.rows.between_sources, cover.rows.dists.T, max_dim,
                            max_scale, nu, dimension)


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
