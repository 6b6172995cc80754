"""Degree-centrality landmark selection and Voronoi cover construction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import DistanceMatrix, Graph, _nearest_in_rows, geodesics, nearest_sources


@dataclass(frozen=True)
class LandmarkSet:
    """Landmarks ordered by (degree desc, node id asc)."""

    landmarks: tuple[int, ...]
    fraction: float

    def __len__(self) -> int:
        return len(self.landmarks)


@dataclass(frozen=True)
class Cover:
    """Voronoi cells around landmarks, partitioning the node set.

    Nodes unreachable from every landmark become self-covered singleton cells
    (listed in ``self_covered``). ``cover_radius`` is the largest
    node-to-assigned-landmark distance; ``c_epsilon`` the largest cell size.
    ``local_landmarks`` re-runs the degree selection inside each induced cell
    subgraph. ``cell_of[v]`` is the key of node v's cell; ``nearest`` is
    ``nearest_sources(graph, landmarks)``; ``cut`` is the graph without its
    cross-cell edges. None of the five is serialized or compared.

    ``rows`` (the landmark geodesic rows) and ``epsilon_pairwise`` (half the
    largest finite landmark-to-landmark distance) are computed on first read
    and kept; a cover of a weighted graph keeps the rows its cells came from.
    Neither is compared.
    """

    cells: dict[int, tuple[int, ...]]
    cover_radius: float
    c_epsilon: int
    local_landmarks: dict[int, tuple[int, ...]]
    self_covered: tuple[int, ...]
    graph: Graph = field(compare=False, repr=False)
    landmarks: tuple[int, ...] = field(compare=False, repr=False)
    nearest: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)  # (N,), (N,)
    cell_of: np.ndarray = field(compare=False, repr=False)   # (N,) int64
    cut: Graph = field(compare=False, repr=False)            # same-cell edges only

    @cached_property
    def rows(self) -> DistanceMatrix:
        return geodesics(self.graph, self.landmarks)

    @cached_property
    def epsilon_pairwise(self) -> float:
        land_dists = self.rows.between_sources
        finite = land_dists[np.isfinite(land_dists)]
        return 0.5 * float(finite.max()) if finite.size else 0.0

    def to_json(self) -> str:
        obj = {
            "landmarks": list(self.cells.keys()),
            "cells": {str(l): list(cell) for l, cell in self.cells.items()},
            "epsilon_pairwise": self.epsilon_pairwise,
            "cover_radius": self.cover_radius,
            "c_epsilon": self.c_epsilon,
        }
        return json.dumps(obj, separators=(",", ":"))


def landmark_count(num_nodes: int, fraction: float) -> int:
    # tiny epsilon guards float representation of exact products (e.g. N*0.05)
    return max(1, int(math.floor(num_nodes * fraction + 1e-9)))


def select_landmarks(g: Graph, fraction: float) -> LandmarkSet:
    """Top floor(N * fraction) nodes by degree, ties by ascending node id."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = landmark_count(g.num_nodes, fraction)
    order = np.argsort(-g.degrees, kind="stable")   # stable keeps id order on ties
    return LandmarkSet(tuple(int(i) for i in order[:count]), fraction)


def build_cover(g: Graph, ls: LandmarkSet) -> Cover:
    """Assign every node to its geodesically nearest landmark.

    Ties go to the landmark earlier in the LandmarkSet order. Nodes unreachable
    from every landmark are flagged and become their own singleton cells.
    Cells list the landmarks first, in LandmarkSet order, then those nodes.
    A Graph is immutable, so the cover is memoised on it: a repeat call with
    an equal LandmarkSet returns the same Cover without recomputing it.
    """
    if ls not in g._covers:
        g._covers[ls] = _voronoi_cover(g, ls)
    return g._covers[ls]


def _voronoi_cover(g: Graph, ls: LandmarkSet) -> Cover:
    # a weighted graph's labels are the argmin of its landmark rows (rejects
    # empty or out-of-range landmarks), which the cover keeps
    rows = None if g.unit_weights else geodesics(g, ls.landmarks)
    dist, rank = (nearest_sources(g, ls.landmarks) if rows is None
                  else _nearest_in_rows(rows.dists))
    land = np.asarray(ls.landmarks, dtype=np.int64)
    reachable = np.isfinite(dist)
    unreachable_nodes = np.flatnonzero(~reachable)
    cell_of = np.arange(g.num_nodes)
    cell_of[reachable] = land[rank[reachable]]
    cover_radius = float(dist[reachable].max()) if reachable.any() else 0.0

    # a cell keeps exactly the edges whose two ends it owns (still sorted, valid)
    same = cell_of[g.edge_array[:, 0]] == cell_of[g.edge_array[:, 1]]
    cut = Graph(g.num_nodes, g.edge_array[same], g.weights[same])

    # one stable sort groups nodes by cell key with ids ascending; the lexsort
    # groups them the same way, ranked by (-local degree, id) inside a cell.
    # Each order becomes one list, and a cell is a slice of both
    by_id = np.argsort(cell_of, kind="stable")
    keys, starts, sizes = np.unique(cell_of[by_id], return_index=True, return_counts=True)
    span = dict(zip(keys.tolist(), zip(starts.tolist(), sizes.tolist())))
    by_id, by_rank = by_id.tolist(), np.lexsort((-cut.degrees, cell_of)).tolist()
    cells, local_landmarks = {}, {}
    for k in np.concatenate([land, unreachable_nodes]).tolist():
        start, size = span[k]
        cells[k] = tuple(by_id[start:start + size])
        local_landmarks[k] = tuple(by_rank[start:start + landmark_count(size, ls.fraction)])

    cover = Cover(
        cells=cells,
        cover_radius=cover_radius,
        c_epsilon=max(len(m) for m in cells.values()),
        local_landmarks=local_landmarks,
        self_covered=tuple(unreachable_nodes.tolist()),
        graph=g,
        landmarks=ls.landmarks,
        nearest=(dist, rank),
        cell_of=cell_of,
        cut=cut,
    )
    if rows is not None:
        cover.__dict__["rows"] = rows       # where the cached property keeps it
    return cover
