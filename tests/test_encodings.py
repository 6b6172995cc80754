import io

import numpy as np
import pytest

from conftest import (diagram_of, oracle_local_cell_diagrams, random_connected_graph,
                      random_diagram)
from wtopo import (Graph, LandmarkSet, PIConfig, TopoLossConfig, all_pairs,
                   build_cover, compute_persistence, connected_components,
                   diameter, geodesics, global_diagram,
                   global_encoding, local_cell_diagrams, local_encoding,
                   persistence_image, select_landmarks, topo_loss,
                   topo_loss_grad, vr_filtration, witness_filtration)
from wtopo.encodings import NodeFeatureMatrix
from wtopo.persistence import REDUCTION, UNION_FIND


def six_cycle():
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


def cfg_for(g, r=5, sigma=1.0):
    d = max(diameter(g), 1.0)
    return PIConfig(r, (0.0, d), (0.0, d), sigma=sigma,
                    essential_policy="cap", cap_value=d + 1.0)


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def test_local_single_landmark_all_rows_identical():
    g = six_cycle()
    feats = local_encoding(g, 1 / 6, cfg_for(g))   # one landmark, one cell
    assert np.all(feats.values == feats.values[0])
    assert feats.provenance == "local"


def test_local_broadcast_within_cells():
    g = six_cycle()
    cfg = cfg_for(g)
    feats = local_encoding(g, 2 / 6, cfg)
    cover = build_cover(g, select_landmarks(g, 2 / 6))
    for _, members in cover.cells.items():
        rows = feats.values[list(members)]
        assert np.all(rows == rows[0])


def test_local_broadcast_random_graphs():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(6, 25))
        g = random_connected_graph(rng, n, extra=n // 2)
        cfg = cfg_for(g, r=4)
        feats = local_encoding(g, 0.3, cfg)
        cover = build_cover(g, select_landmarks(g, 0.3))
        for members in cover.cells.values():
            rows = feats.values[list(members)]
            assert np.all(rows == rows[0])


def test_local_matches_staged_pipeline():
    rng = np.random.default_rng(62)
    g = random_connected_graph(rng, 10, extra=5)
    cfg = cfg_for(g, r=4)
    feats = local_encoding(g, 0.3, cfg)

    ls = select_landmarks(g, 0.3)
    cover = build_cover(g, ls)
    expected = np.zeros_like(feats.values)
    for l, members in cover.cells.items():
        diag = local_cell_diagrams(cover)[l]
        img = persistence_image(diag, cfg, 0)
        expected[list(members)] = img.flatten()
    assert np.array_equal(feats.values, expected)


def test_local_cell_diagrams_match_per_cell_oracle():
    # unit, weighted and disconnected graphs; a few landmarks with a larger
    # local fraction, so cells hold the two local landmarks nu = 2 needs
    rng = np.random.default_rng(65)
    runs = np.zeros(3, dtype=int)
    for trial in range(24):
        n = int(rng.integers(8, 30))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=trial % 3 == 1)
        if trial % 3 == 2:               # two components, sometimes an isolated node
            h = random_connected_graph(rng, n // 2, extra=2, weighted=True)
            g = Graph.from_edges(n + n // 2 + trial % 2, [
                *zip(*g.edge_array.T, g.weights),
                *zip(*(h.edge_array + n).T, h.weights)])
        comps = connected_components(g)
        marks = [int(rng.choice(c)) for c in comps[:2]] + rng.choice(n, 2).tolist()
        cover = build_cover(g, LandmarkSet(tuple(dict.fromkeys(marks)),
                                           float(rng.uniform(0.4, 0.9))))
        fewest = min(len(m) for m in cover.local_landmarks.values())
        for nu in range(min(2, fewest) + 1):
            for dimension in (0, 1):
                max_scale = float(rng.choice([np.inf, 2.0]))
                got = local_cell_diagrams(cover, max_dim=2, nu=nu,
                                          dimension=dimension, max_scale=max_scale)
                want = oracle_local_cell_diagrams(g, cover, 2, nu, dimension, max_scale)
                assert list(got) == list(want) and got == want
                runs[nu] += 1
    assert runs.min() >= 4


@pytest.mark.parametrize("weighted", [False, True])
def test_local_cell_diagrams_match_oracle_under_finite_caps(weighted):
    # caps at an edge scale some cell has (a tie with max_scale), between
    # two scales and at 0; weighted cells get distinct non-integer scales
    rng = np.random.default_rng(67 + weighted)
    capped = 0
    for _ in range(6):
        n = int(rng.integers(15, 35))
        g = random_connected_graph(rng, n, extra=n, weighted=weighted)
        cover = build_cover(g, LandmarkSet(tuple(rng.choice(n, 3, replace=False).tolist()),
                                           float(rng.uniform(0.4, 0.9))))
        full = oracle_local_cell_diagrams(g, cover, 1, 0, 0, np.inf)
        deaths = np.unique(np.concatenate([d.points_in(0)[:, 1] for d in full.values()]))
        if deaths.size == 0:
            continue
        fewest = min(len(m) for m in cover.local_landmarks.values())
        for max_scale in (float(deaths[deaths.size // 2]),
                          float(deaths[0] + deaths[-1]) / 2.0, 0.0):
            for nu in range(min(2, fewest) + 1):
                for dimension in (0, 1):
                    got = local_cell_diagrams(cover, max_dim=2, nu=nu,
                                              dimension=dimension, max_scale=max_scale)
                    assert got == oracle_local_cell_diagrams(g, cover, 2, nu, dimension,
                                                             max_scale)
            capped += 1
    assert capped >= 9


@pytest.mark.parametrize("n, weighted, seed", [(1500, False, 69), (500, True, 70)])
def test_local_cell_diagrams_match_oracle_at_benchmark_size(n, weighted, seed):
    # the benchmark's sizes and landmark fraction: most cells hold one local
    # landmark, a few hold several
    g = random_connected_graph(np.random.default_rng(seed), n, extra=n, weighted=weighted)
    cover = build_cover(g, select_landmarks(g, 0.05))
    sizes = [len(m) for m in cover.local_landmarks.values()]
    assert min(sizes) == 1 and max(sizes) > 1
    for nu in (0, 1):
        for dimension in (0, 1):
            got = local_cell_diagrams(cover, max_dim=1, nu=nu, dimension=dimension)
            assert got == oracle_local_cell_diagrams(g, cover, 1, nu, dimension, np.inf)


def test_local_cell_diagrams_reduce_only_cells_with_two_landmarks(monkeypatch):
    g = random_connected_graph(np.random.default_rng(70), 400, extra=400)
    cover = build_cover(g, select_landmarks(g, 0.1))
    several = [l for l, m in cover.local_landmarks.items() if len(m) > 1]
    assert 0 < len(several) < len(cover.cells)
    reduced = []

    def counting(f, *args, **kw):
        reduced.append(f)
        return compute_persistence(f, *args, **kw)

    monkeypatch.setattr("wtopo.encodings.compute_persistence", counting)
    got = local_cell_diagrams(cover, max_dim=2, dimension=1)
    assert len(reduced) == len(several)
    assert [f.scales[0].size for f in reduced] == [len(cover.local_landmarks[l]) for l in several]
    want = oracle_local_cell_diagrams(g, cover, 2, 0, 1, np.inf)
    assert got == want
    assert all(got[l] == want[l] == diagram_of([], [0.0]) for l in cover.cells
               if l not in several)


@pytest.mark.parametrize("max_dim, dimension", [(0, 0), (1, 0), (2, 1)])
def test_local_cell_diagrams_reject_nu_above_a_cells_landmarks(max_dim, dimension):
    rng = np.random.default_rng(68)
    g = random_connected_graph(rng, 20, extra=10)
    cover = build_cover(g, select_landmarks(g, 0.1))
    nu = min(len(m) for m in cover.local_landmarks.values()) + 1
    with pytest.raises(ValueError) as got:
        local_cell_diagrams(cover, max_dim=max_dim, nu=nu, dimension=dimension)
    with pytest.raises(ValueError) as want:
        oracle_local_cell_diagrams(g, cover, max_dim, nu, dimension, np.inf)
    assert str(got.value) == str(want.value)


def _diagram_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def test_global_diagram_matches_the_staged_witness_path():
    # the oracle: one witness filtration over the cover's landmark rows, then
    # union-find in dimension 0 and the reduction above it; errors included
    rng = np.random.default_rng(71)
    cases = 0
    for trial in range(9):
        n = int(rng.integers(6, 30))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=trial % 3 == 1)
        if trial % 3 == 2:               # two components and an isolated node
            h = random_connected_graph(rng, n // 2, extra=2, weighted=True)
            g = Graph.from_edges(n + n // 2 + 1, [
                *zip(*g.edge_array.T, g.weights),
                *zip(*(h.edge_array + n).T, h.weights)])
        for ls in (select_landmarks(g, float(rng.uniform(0.2, 0.6))),
                   LandmarkSet((int(rng.integers(g.num_nodes)),), 0.5)):
            cover = build_cover(g, ls)
            rows = cover.rows
            for max_dim in range(4):
                for dimension in (0, 1):
                    for nu in range(3):
                        for max_scale in (np.inf, float(rng.uniform(0.5, 3.0))):
                            got = _diagram_or_error(lambda: global_diagram(
                                g, ls.fraction, max_dim=max_dim, dimension=dimension,
                                nu=nu, max_scale=max_scale, cover=cover))
                            want = _diagram_or_error(lambda: compute_persistence(
                                witness_filtration(rows.between_sources, rows.dists.T,
                                                   max_dim, max_scale, nu=nu),
                                UNION_FIND if dimension == 0 else REDUCTION))
                            assert got == want
                            cases += isinstance(want, tuple)
    assert cases > 0


def test_global_deterministic():
    rng = np.random.default_rng(63)
    g = random_connected_graph(rng, 15, extra=8)
    cfg = cfg_for(g)
    a = global_encoding(g, 0.3, cfg)
    b = global_encoding(g, 0.3, cfg)
    assert np.array_equal(a.pixels, b.pixels)


def test_global_all_landmarks_matches_vr_h0():
    # with every node a landmark and itself a witness, component merges happen
    # at the same scales as in the Vietoris-Rips complex on all nodes
    rng = np.random.default_rng(64)
    for _ in range(5):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, extra=n // 2,
                                   weighted=bool(rng.integers(0, 2)))
        cfg = cfg_for(g, r=4)
        wit_img = global_encoding(g, 1.0, cfg)
        dmat = all_pairs(g).dists
        vr_diag = compute_persistence(vr_filtration(dmat, 1, np.inf), UNION_FIND)
        vr_img = persistence_image(vr_diag, cfg, 0)
        assert np.allclose(wit_img.pixels, vr_img.pixels, rtol=0.0, atol=1e-12)


def test_global_six_cycle_image_matches_manual_diagram():
    g = six_cycle()
    cfg = cfg_for(g)
    ls = select_landmarks(g, 0.5)       # degree ties -> landmarks (0, 1, 2)
    img = global_encoding(g, 0.5, cfg)
    rows = geodesics(g, ls.landmarks).dists
    land = rows[:, list(ls.landmarks)]
    filt = witness_filtration(land, rows.T, 1, np.inf, nu=0)
    diag = compute_persistence(filt, UNION_FIND)
    manual = persistence_image(diag, cfg, 0)
    assert np.array_equal(img.pixels, manual.pixels)


def test_max_scale_caps_the_filtration():
    # a max_scale too small for any merge leaves every landmark essential
    g = six_cycle()
    full = global_diagram(g, 0.5)
    capped = global_diagram(g, 0.5, max_scale=0.5)
    assert full.num_points(0) > 0
    assert capped.num_points(0) == 0
    assert capped.essential_in(0).shape[0] == 3   # one component per landmark


def test_feature_matrix_csv_and_binary_roundtrip(tmp_path):
    values = np.arange(12, dtype=float).reshape(3, 4)
    feats = NodeFeatureMatrix(values, "local")
    buf = io.StringIO()
    feats.to_csv(buf)
    assert len(buf.getvalue().splitlines()) == 3
    path = tmp_path / "feats.bin"
    with open(path, "wb") as fp:
        feats.to_binary(fp)
    with open(path, "rb") as fp:
        back = NodeFeatureMatrix.from_binary(fp)
    assert np.array_equal(back.values, values)
    raw = path.read_bytes()
    assert int.from_bytes(raw[:8], "little") == 3
    assert int.from_bytes(raw[8:16], "little") == 4


# ---------------------------------------------------------------------------
# topological loss
# ---------------------------------------------------------------------------

def test_loss_empty_diagram():
    from wtopo.persistence import PersistenceDiagram
    assert topo_loss(PersistenceDiagram(), TopoLossConfig()) == 0.0


def test_loss_closed_form_examples():
    assert topo_loss(diagram_of([[0, 2]]), TopoLossConfig(2, 0)) == pytest.approx(4.0, abs=1e-12)
    d = diagram_of([[1, 3], [0, 1]])
    assert topo_loss(d, TopoLossConfig(1, 1)) == pytest.approx(4.5, abs=1e-12)


def test_loss_excludes_essential_points():
    d = diagram_of([[0, 2]], essential=[0.0, 1.0])
    assert topo_loss(d, TopoLossConfig(2, 0)) == pytest.approx(4.0, abs=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        TopoLossConfig(0, 0)
    with pytest.raises(ValueError):
        TopoLossConfig(-1, 2)
    assert TopoLossConfig(1, 3).k == 3


def test_loss_monotone_in_death():
    rng = np.random.default_rng(65)
    for _ in range(20):
        d = random_diagram(rng, max_points=6)
        if d.num_points(0) == 0:
            continue
        cfg = TopoLossConfig(float(rng.integers(1, 4)), float(rng.integers(0, 3)))
        base = topo_loss(d, cfg)
        pts = d.points_in(0).copy()
        i = int(rng.integers(0, pts.shape[0]))
        pts[i, 1] += 0.5
        assert topo_loss(diagram_of(pts), cfg) >= base


def test_loss_bounded_by_diameter_corollary():
    # for diagrams with births/deaths below diam: loss <= m * diam^p * diam^q
    rng = np.random.default_rng(66)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(5, 20)), extra=4)
        diam = diameter(g)
        diag = global_diagram(g, 0.4)
        pts = diag.points_in(0)
        cfg = TopoLossConfig(2, 1)
        m = pts.shape[0]
        assert np.all(pts <= diam)
        assert topo_loss(diag, cfg) <= m * diam ** cfg.p * diam ** cfg.q + 1e-9


def test_grad_closed_form_examples():
    g1 = topo_loss_grad(diagram_of([[0, 2]]), TopoLossConfig(2, 0))
    assert np.allclose(g1, [[-4.0, 4.0]], atol=1e-12)
    g2 = topo_loss_grad(diagram_of([[1, 3]]), TopoLossConfig(1, 1))
    assert np.allclose(g2, [[-1.0, 3.0]], atol=1e-12)


def test_grad_matches_central_differences():
    rng = np.random.default_rng(67)
    h = 1e-6
    for _ in range(50):
        d = random_diagram(rng, max_points=5)
        m = d.num_points(0)
        if m == 0:
            continue
        cfg = TopoLossConfig(float(rng.integers(1, 4)), float(rng.integers(0, 3)))
        grads = topo_loss_grad(d, cfg)
        pts = d.points_in(0)
        for i in range(m):
            for coord in (0, 1):
                plus = pts.copy()
                minus = pts.copy()
                plus[i, coord] += h
                minus[i, coord] -= h
                num = (topo_loss(diagram_of(plus), cfg)
                       - topo_loss(diagram_of(minus), cfg)) / (2 * h)
                scale = max(1.0, abs(num))
                assert abs(grads[i, coord] - num) / scale < 1e-6
