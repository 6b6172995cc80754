"""Edge-flip perturbation simulator and the stability-sweep harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .complexes import _check_parameters
from .encodings import (TopoLossConfig, global_diagram, local_cell_diagrams,
                        topo_loss)
from .graph import Graph, _pair_keys, adjacency_l1_distance
from .images import PIConfig, _capped_points, persistence_image, resolve_config
from .landmarks import LandmarkSet, build_cover, select_landmarks
from .persistence import _EMPTY_POINTS, PersistenceDiagram, diagram_distance

RANDOM = "random"
LANDMARK_TARGETED = "landmark-targeted"

REPORT_COLUMNS = (
    "budget", "trial", "l1_distance", "local_wasserstein_p",
    "global_pi_linf_drift", "topo_loss_drift", "cover_radius", "c_epsilon",
    "bound_ratio_local", "bound_ratio_global",
)


@dataclass(frozen=True)
class PerturbSpec:
    """Exactly ``budget`` distinct undirected pair flips, deterministic in seed."""

    budget: int
    mode: str = RANDOM
    seed: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.mode not in (RANDOM, LANDMARK_TARGETED):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        i = REPORT_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows], dtype=np.float64)

    def to_csv(self, fp: IO[str]) -> None:
        fp.write(",".join(REPORT_COLUMNS))
        fp.write("\n")
        for row in self.rows:
            fp.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
            fp.write("\n")


def _targeted_offsets(marks: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    # candidates: pairs (u, v), u < v, with u or v in marks, row-major; row u
    # holds n-1-u pairs when u is a landmark, else one per landmark above u
    us = np.arange(n, dtype=np.int64)
    is_mark = np.isin(us, marks)
    counts = np.where(is_mark, n - 1 - us,
                      marks.size - np.searchsorted(marks, us, side="right"))
    ends = np.cumsum(counts)
    return ends - counts, int(ends[-1])


def _decode_targeted_pairs(idx: np.ndarray, starts: np.ndarray,
                           marks: np.ndarray) -> np.ndarray:
    # inverse of the row-major candidate enumeration in _targeted_offsets
    u = np.searchsorted(starts, idx, side="right") - 1
    k = idx - starts[u]
    is_mark = np.isin(u, marks)
    above = np.searchsorted(marks, u, side="right") + k
    v = np.where(is_mark, u + 1 + k, marks[np.minimum(above, marks.size - 1)])
    return np.column_stack([u, v])


def perturb(g: Graph, spec: PerturbSpec,
            landmarks: Sequence[int] | None = None) -> Graph:
    """Flip ``spec.budget`` distinct undirected pairs (add if absent, remove if
    present), sampled without replacement; RANDOM samples uniformly over all
    pairs, LANDMARK_TARGETED over pairs with at least one endpoint in
    ``landmarks``. Added edges get weight 1."""
    n = g.num_nodes
    rng = np.random.default_rng(spec.seed)
    if spec.mode == RANDOM:
        marks = np.arange(n, dtype=np.int64)     # every pair has a marked end
    elif landmarks is None:
        raise ValueError("landmark-targeted mode needs the landmark set")
    else:
        marks = np.unique(np.asarray(landmarks, dtype=np.int64))
    starts, total = _targeted_offsets(marks, n)
    if spec.budget > total:
        raise ValueError(f"budget {spec.budget} exceeds {total} candidate pairs")
    pick = rng.choice(total, size=spec.budget, replace=False)
    chosen = _decode_targeted_pairs(np.sort(pick), starts, marks)

    keys, flips = _pair_keys(g.edge_array, n), _pair_keys(chosen, n)
    kept = ~np.isin(keys, flips, assume_unique=True)
    added = chosen[~np.isin(flips, keys, assume_unique=True)]
    return Graph._build(n, np.concatenate([g.edge_array[kept], added]),
                        np.concatenate([g.weights[kept], np.ones(len(added))]),
                        g.node_features)


def _local_drift(cells1: dict[int, np.ndarray], cells2: dict[int, np.ndarray],
                 dimension: int, p: float) -> float:
    """Sum of W_p between per-landmark capped point sets matched by landmark
    identity; cells present on one side only are compared against the empty
    set. Equal sets are skipped: their distance is exactly 0.0."""
    total = 0.0
    for l in sorted(set(cells1) | set(cells2)):
        a, b = cells1.get(l, _EMPTY_POINTS), cells2.get(l, _EMPTY_POINTS)
        if not np.array_equal(a, b):
            total += diagram_distance(PersistenceDiagram._build({dimension: a}, {}),
                                      PersistenceDiagram._build({dimension: b}, {}),
                                      mode="wasserstein", p=p, dimension=dimension,
                                      essential="drop")
    return total


def stability_sweep(g: Graph, budgets: Sequence[int], trials: int,
                    fraction: float, cfg: PIConfig, loss_cfg: TopoLossConfig,
                    mode: str = RANDOM, base_seed: int = 0,
                    freeze_landmarks: bool = False, max_dim: int = 1,
                    dimension: int = 0, nu: int = 0,
                    max_scale: float = np.inf,
                    wasserstein_p: float = 1.0) -> StabilityReport:
    """Perturb-and-recompute harness.

    For every (budget, trial) pair the graph is perturbed with seed
    ``base_seed + trial``, covers and encodings are recomputed (landmarks
    re-selected on the perturbed graph unless ``freeze_landmarks``; a graph
    equal to the clean one reuses the clean results), and the report row
    carries the feature drifts plus the ratio of each drift to its
    stability-bound denominator (local: c_epsilon * (budget + cover_radius);
    global: budget + cover_radius). A budget of 0 yields all-zero drifts.
    """
    budgets = list(budgets)
    if any(budgets[i] > budgets[i + 1] for i in range(len(budgets) - 1)):
        raise ValueError("budgets must be sorted ascending")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1.0 <= wasserstein_p < np.inf:
        raise ValueError(f"wasserstein_p must be finite and >= 1, got {wasserstein_p!r}")
    ls = select_landmarks(g, fraction)
    _check_parameters(max_dim, max_scale, nu, len(ls), dimension)   # no cell has more
    cfg = resolve_config(cfg, g)

    def encode(graph: Graph, ls: LandmarkSet) -> tuple:
        # cover, capped cell diagrams, global diagram and image of one graph
        cover = build_cover(graph, ls)
        kw = dict(max_dim=max_dim, nu=nu, dimension=dimension, max_scale=max_scale)
        cells = {l: _capped_points(d, cfg, dimension)
                 for l, d in local_cell_diagrams(cover, **kw).items()}
        glob = global_diagram(cover, **kw)
        return cover, cells, glob, persistence_image(glob, cfg, dimension)

    clean = encode(g, ls)
    _, local_clean, glob_diag_clean, glob_pi_clean = clean
    loss_clean = topo_loss(glob_diag_clean, loss_cfg, dimension)

    rows = []
    for budget in budgets:
        for trial in range(trials):
            spec = PerturbSpec(budget=budget, mode=mode,
                               seed=base_seed + trial)
            g2 = perturb(g, spec, landmarks=ls.landmarks)
            l1 = adjacency_l1_distance(g, g2)
            # every result is a function of the edges and weights alone
            same = (np.array_equal(g2.edge_array, g.edge_array)
                    and np.array_equal(g2.weights, g.weights))
            cover2, local2, glob_diag2, glob_pi2 = clean if same else encode(
                g2, ls if freeze_landmarks else select_landmarks(g2, fraction))

            local_w = _local_drift(local_clean, local2, dimension, wasserstein_p)
            pi_drift = float(np.max(np.abs(glob_pi_clean.pixels - glob_pi2.pixels)))
            loss_drift = abs(loss_clean - topo_loss(glob_diag2, loss_cfg, dimension))

            denom_local = cover2.c_epsilon * (budget + cover2.cover_radius)
            denom_global = budget + cover2.cover_radius
            rows.append((
                budget, trial, float(l1), float(local_w), pi_drift,
                float(loss_drift), float(cover2.cover_radius),
                int(cover2.c_epsilon),
                float(local_w / denom_local) if denom_local > 0 else 0.0,
                float(pi_drift / denom_global) if denom_global > 0 else 0.0,
            ))
    return StabilityReport(tuple(rows))
