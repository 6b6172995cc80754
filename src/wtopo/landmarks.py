"""Degree-centrality landmark selection and Voronoi cover construction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DistanceMatrix, Graph, geodesics


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
    (listed in ``self_covered``). ``epsilon_pairwise`` is half the largest
    finite landmark-to-landmark distance; ``cover_radius`` is the largest
    node-to-assigned-landmark distance; ``c_epsilon`` the largest cell size.
    ``local_landmarks`` re-runs the degree selection inside each induced cell
    subgraph. ``cell_of[v]`` is the key of node v's cell; ``rows`` holds the
    landmark geodesic rows, for the witness filtration; ``cut`` is the graph
    without its cross-cell edges. None of the three is serialized.
    """

    cells: dict[int, tuple[int, ...]]
    epsilon_pairwise: float
    cover_radius: float
    c_epsilon: int
    local_landmarks: dict[int, tuple[int, ...]]
    self_covered: tuple[int, ...]
    cell_of: np.ndarray = field(compare=False, repr=False)   # (N,) int64
    rows: DistanceMatrix = field(compare=False, repr=False)  # (L, N)
    cut: Graph = field(compare=False, repr=False)            # same-cell edges only

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
    rows = geodesics(g, ls.landmarks)     # rejects empty or out-of-range landmarks
    land = np.asarray(rows.sources, dtype=np.int64)

    nearest_rank = np.argmin(rows.dists, axis=0)     # first occurrence wins ties
    nearest_dist = rows.dists[nearest_rank, np.arange(g.num_nodes)]
    reachable = np.isfinite(nearest_dist)
    unreachable_nodes = np.flatnonzero(~reachable)
    cell_of = np.where(reachable, land[nearest_rank], np.arange(g.num_nodes))

    land_dists = rows.between_sources
    finite = land_dists[np.isfinite(land_dists)]
    epsilon_pairwise = 0.5 * float(finite.max()) if finite.size else 0.0
    cover_radius = float(nearest_dist[reachable].max()) if reachable.any() else 0.0

    # a cell keeps exactly the edges whose two ends it owns (still sorted, valid)
    same = cell_of[g.edge_array[:, 0]] == cell_of[g.edge_array[:, 1]]
    cut = Graph(g.num_nodes, g.edge_array[same], g.weights[same])

    # one stable sort groups nodes by cell key with ids ascending; the lexsort
    # groups them the same way, ranked by (-local degree, id) inside a cell
    by_id = np.argsort(cell_of, kind="stable")
    keys, starts = np.unique(cell_of[by_id], return_index=True)
    members = dict(zip(keys.tolist(), np.split(by_id, starts[1:])))
    by_rank = np.lexsort((-cut.degrees, cell_of))
    ranked = dict(zip(keys.tolist(), np.split(by_rank, starts[1:])))
    order = np.concatenate([land, unreachable_nodes]).tolist()
    cells = {k: tuple(members[k].tolist()) for k in order}
    local_landmarks = {
        k: tuple(ranked[k][:landmark_count(len(cells[k]), ls.fraction)].tolist())
        for k in order}

    return Cover(
        cells=cells,
        epsilon_pairwise=epsilon_pairwise,
        cover_radius=cover_radius,
        c_epsilon=max(len(m) for m in cells.values()),
        local_landmarks=local_landmarks,
        self_covered=tuple(unreachable_nodes.tolist()),
        cell_of=cell_of,
        rows=rows,
        cut=cut,
    )
