"""Filtered Vietoris-Rips and lazy-witness complexes over landmark metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Sequence

import numpy as np

from .graph import ValidationError

VR = "vr"
WITNESS = "witness"


@dataclass(frozen=True)
class Simplex:
    vertices: tuple[int, ...]
    scale: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Filtration:
    """Simplices sorted by (scale asc, dimension asc, lexicographic vertices).

    The sort order is a valid filtration order: every face precedes its
    cofaces, and truncating at any scale leaves a face-closed complex.
    """

    simplices: tuple[Simplex, ...]
    max_dim: int
    max_scale: float
    kind: str
    nu: int = 0

    def __len__(self) -> int:
        return len(self.simplices)

    def simplex_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(s.vertices for s in self.simplices)

    def to_jsonl(self, fp: IO[str]) -> None:
        for s in self.simplices:
            fp.write(json.dumps({"vertices": list(s.vertices), "scale": s.scale}))
            fp.write("\n")


def _sort_key(s: Simplex):
    return (s.scale, len(s.vertices), s.vertices)


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


def _assemble(n: int, edge_scales: np.ndarray, max_dim: int, max_scale: float,
              kind: str, nu: int = 0) -> Filtration:
    # edge_scales[i, j] = entry scale of edge (i, j); inf means never present
    simplices = [Simplex((i,), 0.0) for i in range(n)]
    present = np.isfinite(edge_scales) & (edge_scales <= max_scale)
    for i in range(n):
        for j in range(i + 1, n):
            if present[i, j]:
                simplices.append(Simplex((i, j), float(edge_scales[i, j])))
    if max_dim >= 2:
        for i, j, k in combinations(range(n), 3):
            if present[i, j] and present[i, k] and present[j, k]:
                scale = max(edge_scales[i, j], edge_scales[i, k], edge_scales[j, k])
                simplices.append(Simplex((i, j, k), float(scale)))
    simplices.sort(key=_sort_key)
    return Filtration(tuple(simplices), max_dim, max_scale, kind, nu)


def vr_filtration(dists: np.ndarray, max_dim: int, max_scale: float) -> Filtration:
    """Vietoris-Rips filtration: edge (i, j) enters at d(i, j), cliques at the
    max of their edge scales. UNREACHABLE pairs are never connected."""
    d = _validate_square(dists, "distance matrix")
    if max_dim not in (0, 1, 2):
        raise ValueError("max_dim must be 0, 1 or 2")
    if max_scale < 0.0:
        raise ValueError("max_scale must be non-negative")
    edge_scales = d.copy()
    np.fill_diagonal(edge_scales, np.inf)
    if max_dim == 0:
        edge_scales = np.full_like(edge_scales, np.inf)
    return _assemble(d.shape[0], edge_scales, max_dim, max_scale, VR)


def relaxation_terms(witness_dists: np.ndarray, nu: int) -> np.ndarray:
    """nu-th smallest finite witness-to-landmark distance per witness (0 for nu=0).

    Witnesses with fewer than nu reachable landmarks get inf and never witness.
    """
    n_wit, n_land = witness_dists.shape
    if nu == 0:
        return np.zeros(n_wit, dtype=np.float64)
    m = np.full(n_wit, np.inf)
    srt = np.sort(witness_dists, axis=1)
    col = srt[:, nu - 1]
    ok = np.isfinite(col)
    m[ok] = col[ok]
    return m


def _witness_edge_scales(witness_dists: np.ndarray, m_nu: np.ndarray) -> np.ndarray:
    # entry (i, j) = min over witnesses w of max(0, max(d(w,i), d(w,j)) - m_nu[w]);
    # witnesses with m_nu = inf never witness, unwitnessed pairs and the diagonal are inf
    n_land = witness_dists.shape[1]
    out = np.full((n_land, n_land), np.inf)
    active = m_nu != np.inf
    wd = witness_dists[active]
    mn = m_nu[active]
    if wd.shape[0] == 0:
        return out
    # min_w max(x_w, 0) == max(min_w x_w, 0), so the clamp runs once at the
    # end; one (W, L) buffer serves every row, so the loop allocates nothing
    # and its cost does not depend on how the allocator trims freed memory
    pairwise = np.empty_like(wd)
    for i in range(n_land):
        np.maximum(wd[:, i : i + 1], wd, out=pairwise)
        pairwise -= mn[:, None]                      # inf stays inf: mn is finite
        pairwise.min(axis=0, out=out[i])
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, np.inf)
    return out


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
    if max_dim not in (0, 1, 2):
        raise ValueError("max_dim must be 0, 1 or 2")
    if not (0 <= nu <= land.shape[0]):
        raise ValueError("nu must be in [0, num_landmarks]")
    if max_dim == 0:
        edge_scales = np.full_like(land, np.inf)
    else:
        edge_scales = _witness_edge_scales(wd, relaxation_terms(wd, nu))
    return _assemble(land.shape[0], edge_scales, max_dim, max_scale, WITNESS, nu)


def is_weak_witness(w: int, sigma: Sequence[int], cover_dists: np.ndarray) -> bool:
    """True iff node w witnesses the landmark subset sigma:
    max over sigma of d(w, v) <= min outside sigma of d(w, u)
    (vacuously true when sigma is the whole landmark set)."""
    wd = np.asarray(cover_dists, dtype=np.float64)
    n_land = wd.shape[1]
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
    when the hypothesis alpha > 2*epsilon fails."""
    if not alpha > 2.0 * epsilon:
        return None
    inner = vr_filtration(land_dists, max_dim, alpha / 3.0).simplex_set()
    wit = witness_filtration(land_dists, witness_dists, max_dim, alpha, nu=0).simplex_set()
    outer = vr_filtration(land_dists, max_dim, 3.0 * alpha).simplex_set()
    return inner <= wit <= outer
