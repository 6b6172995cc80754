import math

import numpy as np
import pytest

from conftest import diagram_of, random_diagram
from wtopo import (PIConfig, diagram_distance, persistence_image,
                   stability_constant)
from wtopo.graph import ValidationError
from wtopo.persistence import PersistenceDiagram


def unit_cfg(r=10, sigma=1.0, policy="drop", cap=None):
    return PIConfig(r, (0.0, 1.0), (0.0, 1.0), sigma=sigma,
                    essential_policy=policy, cap_value=cap)


def oracle_midpoint(points, r, birth_range, pers_range, sigma, oversample=1):
    """Independently coded midpoint evaluation, optionally oversampled."""
    out = np.zeros((r, r))
    bw = (birth_range[1] - birth_range[0]) / r
    pw = (pers_range[1] - pers_range[0]) / r
    sub_bw, sub_pw = bw / oversample, pw / oversample
    for i in range(r):
        for j in range(r):
            acc = 0.0
            for si in range(oversample):
                for sj in range(oversample):
                    cb = birth_range[0] + i * bw + (si + 0.5) * sub_bw
                    cp = pers_range[0] + j * pw + (sj + 0.5) * sub_pw
                    for b, d in points:
                        pers = d - b
                        acc += (pers * math.exp(-((cb - b) ** 2 + (cp - pers) ** 2)
                                                / (2 * sigma ** 2))
                                / (2 * math.pi * sigma ** 2) * sub_bw * sub_pw)
            out[i, j] = acc
    return out


def test_stability_constant_values():
    assert stability_constant(1.0) == pytest.approx(4.020192093652561, abs=1e-12)
    assert stability_constant(1.0) == pytest.approx(4.0201921, abs=1e-6)
    assert stability_constant(0.5) == pytest.approx(5.804316209805332, abs=1e-12)
    assert stability_constant(0.5) == pytest.approx(5.8043161, abs=1e-6)
    assert stability_constant(1e12) == pytest.approx(math.sqrt(5.0), abs=1e-9)
    with pytest.raises(ValueError):
        stability_constant(0.0)
    with pytest.raises(ValueError):
        stability_constant(-1.0)


def test_empty_diagram_zero_image():
    img = persistence_image(PersistenceDiagram(), unit_cfg(r=4))
    assert img.pixels.shape == (4, 4)
    assert np.all(img.pixels == 0.0)


def test_essential_only_diagram_dropped_policy():
    d = diagram_of([], essential=[0.0, 0.5])
    img = persistence_image(d, unit_cfg(r=3, policy="drop"))
    assert np.all(img.pixels == 0.0)


def test_essential_capped_policy():
    d = diagram_of([], essential=[0.0])
    capped = persistence_image(d, unit_cfg(r=3, policy="cap", cap=0.8))
    finite = persistence_image(diagram_of([[0.0, 0.8]]),
                               unit_cfg(r=3, policy="drop"))
    assert np.array_equal(capped.pixels, finite.pixels)


def test_cap_policy_requires_value():
    d = diagram_of([], essential=[0.0])
    with pytest.raises(ValueError):
        persistence_image(d, unit_cfg(policy="cap", cap=None))
    with pytest.raises(ValidationError):
        persistence_image(d, unit_cfg(policy="cap", cap=-1.0))


def concatenated_points(d, cfg, dimension):
    """(birth, persistence) rows of one dimension built column by column:
    the finite births and persistences, then under CAP each essential birth
    with persistence cap_value - birth; rows sorted by (birth, persistence)."""
    pts = d.points_in(dimension)
    births, pers = pts[:, 0], pts[:, 1] - pts[:, 0]
    ess = d.essential_in(dimension)
    if ess.size and cfg.essential_policy == "cap":
        if cfg.cap_value is None:
            raise ValueError("cap_value required to cap essential points")
        cap_pers = cfg.cap_value - ess
        if np.any(cap_pers <= 0.0):
            raise ValidationError("cap_value must exceed every essential birth")
        births, pers = np.concatenate([births, ess]), np.concatenate([pers, cap_pers])
    out = np.column_stack([births, pers]) if births.size else np.empty((0, 2))
    return out[np.lexsort((out[:, 1], out[:, 0]))] if out.shape[0] > 1 else out


@pytest.mark.parametrize("policy, cap", [("cap", 2.5), ("cap", 0.5), ("cap", None),
                                         ("drop", None)])
@pytest.mark.parametrize("points", [[], [[0.0, 1.0], [0.25, 2.0]],
                                    [[0.5, 0.5], [0.0, 1.0], [1.0, 1.0]]])
@pytest.mark.parametrize("essential", [[], [0.75, 0.0, 0.75]])
def test_diagram_points_match_the_column_construction(policy, cap, points, essential):
    from wtopo.images import _diagram_points

    # built directly, so zero-persistence finite points stay in the diagram
    d = PersistenceDiagram({1: np.array(points, dtype=np.float64).reshape(-1, 2)},
                           {1: np.array(essential, dtype=np.float64)})
    cfg = unit_cfg(r=4, policy=policy, cap=cap)
    try:
        want = concatenated_points(d, cfg, 1)
    except ValueError as exc:           # ValidationError included
        with pytest.raises(type(exc), match=str(exc)):
            _diagram_points(d, cfg, 1)
        return
    got = _diagram_points(d, cfg, 1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_single_point_image_frozen_values():
    # point (0, 2), R=2 over [0, 2] x [0, 2], sigma 1; values frozen from the
    # independently coded midpoint oracle
    cfg = PIConfig(2, (0.0, 2.0), (0.0, 2.0), sigma=1.0, essential_policy="drop")
    img = persistence_image(diagram_of([[0.0, 2.0]]), cfg).pixels
    expected = np.array([[0.09119730927967717, 0.2478999886193059],
                         [0.033549615174146834, 0.09119730927967717]])
    assert np.allclose(img, expected, rtol=0.0, atol=1e-6)
    oracle = oracle_midpoint([(0.0, 2.0)], 2, (0, 2), (0, 2), 1.0)
    assert np.allclose(img, oracle, rtol=0.0, atol=1e-6)


def test_single_point_image_vs_oversampled_quadrature():
    # fine grid: implementation's one-sample midpoint rule agrees with a
    # ~1000x-oversampled quadrature of the cell integral to 1e-6 per pixel
    cfg = PIConfig(20, (0.0, 1.0), (0.0, 1.0), sigma=1.0, essential_policy="drop")
    img = persistence_image(diagram_of([[0.3, 0.9]]), cfg).pixels
    oracle = oracle_midpoint([(0.3, 0.9)], 20, (0, 1), (0, 1), 1.0, oversample=32)
    assert np.max(np.abs(img - oracle)) < 1e-6


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(51)
    pts = np.column_stack([rng.uniform(0, 0.5, 6), rng.uniform(0.6, 1.0, 6)])
    cfg = unit_cfg(r=8)
    base = persistence_image(diagram_of(pts), cfg).pixels
    for _ in range(5):
        perm = rng.permutation(6)
        shuffled = persistence_image(diagram_of(pts[perm]), cfg).pixels
        assert np.array_equal(base, shuffled)


def test_duplicated_point_doubles_contribution():
    cfg = unit_cfg(r=6)
    one = persistence_image(diagram_of([[0.2, 0.7]]), cfg).pixels
    two = persistence_image(diagram_of([[0.2, 0.7], [0.2, 0.7]]), cfg).pixels
    assert np.array_equal(two, 2.0 * one)


def test_pixels_nonnegative_finite():
    rng = np.random.default_rng(52)
    for _ in range(20):
        d = random_diagram(rng)
        img = persistence_image(d, unit_cfg(r=7, sigma=float(rng.uniform(0.3, 2.0))))
        assert np.all(img.pixels >= 0.0)
        assert np.all(np.isfinite(img.pixels))


def test_pi_stability_bound():
    # |PI(D1) - PI(D2)|_inf <= C(sigma) * W1(D1, D2) for unit-bounded
    # persistence weights
    rng = np.random.default_rng(53)
    for trial in range(100):
        sigma = (0.5, 1.0, 2.0)[trial % 3]
        cfg = unit_cfg(r=10, sigma=sigma)
        d1 = random_diagram(rng, max_points=8)
        d2 = random_diagram(rng, max_points=8)
        i1 = persistence_image(d1, cfg).pixels
        i2 = persistence_image(d2, cfg).pixels
        drift = float(np.max(np.abs(i1 - i2)))
        w1 = diagram_distance(d1, d2, mode="wasserstein", p=1)
        assert drift <= stability_constant(sigma) * w1 + 1e-12


def test_config_validation():
    with pytest.raises(ValueError, match="^grid_resolution must be >= 1$"):
        PIConfig(0, (0, 1), (0, 1))
    with pytest.raises(ValueError, match="^grid_resolution must be an integer, got 2.5$"):
        PIConfig(2.5, (0, 1), (0, 1))
    assert PIConfig(np.int64(3), (0, 1), (0, 1)).grid_resolution == 3
    with pytest.raises(ValueError):
        PIConfig(4, (1, 1), (0, 1))
    with pytest.raises(ValueError, match="persistence_range must be non-degenerate"):
        PIConfig(4, (0, 1), (1, 0))
    with pytest.raises(ValueError):
        PIConfig(4, (0, 1), (0, 1), sigma=0.0)
    with pytest.raises(ValueError):
        PIConfig(4, (0, 1), (0, 1), essential_policy="zap")
    inf, nan = float("inf"), float("nan")
    for bad in (dict(birth_range=(0, inf)), dict(birth_range=(-inf, 1)),
                dict(birth_range=(nan, 1)), dict(persistence_range=(0, inf)),
                dict(persistence_range=(0, nan)), dict(sigma=inf), dict(sigma=nan),
                dict(cap_value=inf), dict(cap_value=nan)):
        kw = dict(grid_resolution=4, birth_range=(0, 1), persistence_range=(0, 1)) | bad
        with pytest.raises(ValueError, match="finite"):
            PIConfig(**kw)


def test_flatten_row_major():
    cfg = unit_cfg(r=3)
    img = persistence_image(diagram_of([[0.1, 0.9]]), cfg)
    flat = img.flatten()
    for i in range(3):
        for j in range(3):
            assert flat[i * 3 + j] == img.pixels[i, j]


def test_image_equality_compares_config_and_pixels():
    d = diagram_of([[0.1, 0.9], [0.2, 0.5]])
    img = persistence_image(d, unit_cfg(r=3))
    assert img == persistence_image(d, unit_cfg(r=3))
    assert img != persistence_image(diagram_of([[0.1, 0.9]]), unit_cfg(r=3))
    assert img != persistence_image(d, unit_cfg(r=3, sigma=2.0))
    assert img != persistence_image(d, unit_cfg(r=3, policy="cap", cap=2.0))


def test_resolved_cap_matches_default_config_below_unit_diameter():
    from wtopo import Graph
    from wtopo.images import default_config, resolve_config

    g = Graph.from_edges(3, [(0, 1, 0.25), (1, 2, 0.25)])     # LCC diameter 0.5
    cap = resolve_config(PIConfig(10, (0, 1), (0, 1)), g).cap_value
    assert cap == default_config(g).cap_value == 2.0
