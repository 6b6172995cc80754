"""Persistence-image vectorization with a Gaussian kernel and linear weight."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .complexes import _check_dimension
from .graph import Graph, ValidationError, _write_csv, diameter, largest_connected_component
from .persistence import PersistenceDiagram

DROP = "drop"
CAP = "cap"


@dataclass(frozen=True)
class PIConfig:
    """Grid, kernel, and essential-point policy for persistence images.

    The weight function is fixed to the persistence itself (unit slope). The
    image is evaluated by the midpoint rule: kernel density at each pixel
    center times the cell area. ``essential_policy`` is either "drop" or
    "cap"; capping turns an essential birth b into the point (b, cap_value -
    b). A ``cap_value`` of None is resolved by the graph pipelines to
    max(diameter of the largest connected component, 1) + 1.
    """

    grid_resolution: int
    birth_range: tuple[float, float]
    persistence_range: tuple[float, float]
    sigma: float = 1.0
    essential_policy: str = CAP
    cap_value: float | None = None

    def __post_init__(self):
        if not isinstance(self.grid_resolution, numbers.Integral):
            raise ValueError(f"grid_resolution must be an integer, got {self.grid_resolution!r}")
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if not all(map(math.isfinite, (*self.birth_range, *self.persistence_range))):
            raise ValueError("birth_range and persistence_range must be finite")
        if not self.birth_range[1] > self.birth_range[0]:
            raise ValueError("birth_range must be non-degenerate")
        if not self.persistence_range[1] > self.persistence_range[0]:
            raise ValueError("persistence_range must be non-degenerate")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.cap_value is not None and not math.isfinite(self.cap_value):
            raise ValueError("cap_value must be finite")
        if self.essential_policy not in (DROP, CAP):
            raise ValueError("essential_policy must be 'drop' or 'cap'")


@dataclass(frozen=True)
class PersistenceImage:
    """Fixed-grid image; pixels[i, j] covers birth bin i, persistence bin j."""

    pixels: np.ndarray
    config: PIConfig

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceImage):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.pixels, other.pixels)

    def flatten(self) -> np.ndarray:
        return self.pixels.reshape(-1)      # row-major: index = i * R + j

    def to_csv(self, fp: IO[str]) -> None:
        _write_csv(fp, self.pixels)


def stability_constant(sigma: float) -> float:
    """L-inf-vs-W1 stability constant of the Gaussian-kernel image for a
    unit-slope, unit-bounded weight: sqrt(5) + sqrt(10/pi) / sigma."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return math.sqrt(5.0) + math.sqrt(10.0 / math.pi) / sigma


def _extent(g: Graph) -> float:
    """max(LCC diameter, 1): the default grid extent; the default cap is one above."""
    lcc, _ = largest_connected_component(g)
    return max(diameter(lcc), 1.0)


def resolve_config(cfg: PIConfig, g: Graph) -> PIConfig:
    """Fill cap_value from the graph when unset (max(LCC diameter, 1) + 1)."""
    if cfg.essential_policy == CAP and cfg.cap_value is None:
        return replace(cfg, cap_value=_extent(g) + 1.0)
    return cfg


def default_config(g: Graph, grid_resolution: int = 10, sigma: float = 1.0,
                   essential_policy: str = CAP) -> PIConfig:
    """Grid over [0, diam] x [0, diam] of the LCC, diam = max(LCC diameter, 1),
    cap at diam + 1."""
    diam = _extent(g)
    return PIConfig(
        grid_resolution=grid_resolution,
        birth_range=(0.0, diam),
        persistence_range=(0.0, diam),
        sigma=sigma,
        essential_policy=essential_policy,
        cap_value=diam + 1.0 if essential_policy == CAP else None,
    )


def _capped_points(d: PersistenceDiagram, cfg: PIConfig, dimension: int) -> np.ndarray:
    """(birth, death) rows of one dimension: the finite points, then, under
    CAP, each essential birth b as (b, cap_value); DROP leaves essentials out."""
    pts = d.points_in(dimension)
    ess = d.essential_in(dimension)
    if not ess.size or cfg.essential_policy != CAP:
        return pts
    if cfg.cap_value is None:
        raise ValueError("cap_value required to cap essential points")
    capped = np.column_stack([ess, np.full(ess.shape, cfg.cap_value)])
    return np.vstack([pts, capped]) if pts.size else capped


def _diagram_points(d: PersistenceDiagram, cfg: PIConfig, dimension: int) -> np.ndarray:
    rows = _capped_points(d, cfg, dimension)
    pers = rows[:, 1] - rows[:, 0]
    if np.any(pers[d.points_in(dimension).shape[0]:] <= 0.0):
        raise ValidationError("cap_value must exceed every essential birth")
    out = np.column_stack([rows[:, 0], pers]) if rows.size else np.empty((0, 2))
    # canonical accumulation order makes the image bit-identical under
    # permutation of the input diagram
    if out.shape[0] > 1:
        out = out[np.lexsort((out[:, 1], out[:, 0]))]
    return out


def persistence_image(d: PersistenceDiagram, cfg: PIConfig,
                      dimension: int = 0) -> PersistenceImage:
    """Gaussian-kernel image of one diagram dimension in birth-persistence
    coordinates, weighted by persistence (empty diagram -> zero image)."""
    _check_dimension(dimension)
    r = cfg.grid_resolution
    pts = _diagram_points(d, cfg, dimension)
    if pts.shape[0] == 0:
        return PersistenceImage(np.zeros((r, r)), cfg)
    blo, bhi = cfg.birth_range
    plo, phi = cfg.persistence_range
    cell_w = (bhi - blo) / r
    cell_h = (phi - plo) / r
    centers_b = blo + (np.arange(r) + 0.5) * cell_w
    centers_p = plo + (np.arange(r) + 0.5) * cell_h
    s2 = 2.0 * cfg.sigma ** 2
    norm = cell_w * cell_h / (2.0 * math.pi * cfg.sigma ** 2)
    gb = np.exp(-((centers_b[:, None] - pts[None, :, 0]) ** 2) / s2)   # (R, m)
    gp = np.exp(-((centers_p[:, None] - pts[None, :, 1]) ** 2) / s2)   # (R, m)
    weights = pts[:, 1] * norm                                          # w = persistence
    pixels = (gb * weights[None, :]) @ gp.T
    return PersistenceImage(pixels, cfg)
