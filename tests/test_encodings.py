import inspect
import io
import os
import re
import struct
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (diagram_of, edge_dict, oracle_assemble, oracle_local_cell_diagrams,
                      oracle_reduction, oracle_witness_edge_scales, random_connected_graph,
                      random_diagram)
import wtopo
from wtopo import (Graph, LandmarkSet, PIConfig, TopoLossConfig, all_pairs,
                   build_cover, compute_persistence, connected_components, default_config,
                   diagram_distance, diameter, geodesics, global_diagram,
                   global_encoding, local_cell_diagrams, local_encoding,
                   persistence_image, select_landmarks, stability_sweep, topo_loss,
                   topo_loss_grad, vr_filtration, witness_filtration)
from wtopo.complexes import Filtration, _unit_witness_edge_scales, _witness_edge_scales
from wtopo.encodings import NodeFeatureMatrix
from wtopo.graph import nearest_sources
from wtopo.persistence import REDUCTION, UNION_FIND, PersistenceDiagram


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
    assert feats.num_nodes == g.num_nodes


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


def test_local_matches_staged_pipeline(monkeypatch):
    # the per-cell image stack, broadcast to each cell's members; the encoding
    # makes one image per distinct diagram
    import wtopo.encodings as encodings

    calls = []
    monkeypatch.setattr(encodings, "persistence_image",
                        lambda *args: calls.append(1) or persistence_image(*args))
    for seed, weighted in ((62, False), (63, True)):
        g = random_connected_graph(np.random.default_rng(seed), 60, extra=30,
                                   weighted=weighted)
        cover = build_cover(g, select_landmarks(g, 0.5))
        for dimension, policy in ((0, "cap"), (0, "drop"), (1, "cap"), (1, "drop")):
            cfg = default_config(g, grid_resolution=4, essential_policy=policy)
            calls.clear()
            feats = local_encoding(g, 0.5, cfg, dimension=dimension)
            diagrams = local_cell_diagrams(cover, dimension=dimension)
            expected = np.zeros_like(feats.values)
            distinct = []
            for l, members in cover.cells.items():
                d = diagrams[l]
                expected[list(members)] = persistence_image(d, cfg, dimension).flatten()
                if not any(np.array_equal(d.points_in(dimension), e.points_in(dimension))
                           and np.array_equal(d.essential_in(dimension),
                                              e.essential_in(dimension))
                           for e in distinct):
                    distinct.append(d)
            assert np.array_equal(feats.values, expected)
            assert len(calls) == len(distinct) < len(cover.cells)


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

    def recording(name, f):
        def record(graph, sources):
            sourced.append((name, graph, np.asarray(sources)))
            return f(graph, sources)
        return record

    # the one pass runs over the cut graph induced on the cells with two or
    # more local landmarks, relabelled in increasing order, from those
    # landmarks: geodesic rows for a complex in dimension 1, nearest
    # landmarks for the spanning forest in dimension 0, which reduces nothing
    keep = np.sort(np.concatenate([cover.cells[l] for l in several]))
    marks = np.concatenate([cover.local_landmarks[l] for l in several])
    kept = np.isin(cover.cut.edge_array[:, 0], keep)
    sourced = []
    monkeypatch.setattr("wtopo.encodings.compute_persistence", counting)
    monkeypatch.setattr("wtopo.encodings.geodesics", recording("geodesics", geodesics))
    monkeypatch.setattr("wtopo.encodings.nearest_sources",
                        recording("nearest_sources", nearest_sources))
    for max_dim, dimension, pass_, complexes in ((2, 1, "geodesics", len(several)),
                                                 (1, 0, "nearest_sources", 0)):
        reduced.clear()
        sourced.clear()
        got = local_cell_diagrams(cover, max_dim=max_dim, dimension=dimension)
        [(name, sub, sources)] = sourced
        assert name == pass_
        assert np.array_equal(keep[sources], marks)
        assert sub.num_nodes == keep.size
        assert np.array_equal(keep[sub.edge_array], cover.cut.edge_array[kept])
        assert len(reduced) == complexes
        assert ([f.scales[0].size for f in reduced]
                == [len(cover.local_landmarks[l]) for l in several][:complexes])
        want = oracle_local_cell_diagrams(g, cover, max_dim, 0, dimension, np.inf)
        assert got == want
        assert all(got[l] == want[l] == diagram_of([], [0.0]) for l in cover.cells
                   if l not in several)


@st.composite
def unit_cover_case(draw):
    # unit graphs, connected (a spanning path) or not, with landmarks by
    # degree and by hand, so that some cells hold several local landmarks
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    order = draw(st.permutations(range(n)))
    path = zip(order, order[1:]) if draw(st.booleans()) else ()
    edges = {(min(p), max(p)) for p in [*pairs, *path] if p[0] != p[1]}
    g = Graph.from_edges(n, sorted(edges))
    fraction = draw(st.sampled_from([0.2, 0.4, 0.7, 1.0]))
    marks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    covers = (build_cover(g, select_landmarks(g, fraction)),
              build_cover(g, LandmarkSet(tuple(marks), fraction)))
    max_dim = draw(st.sampled_from([1, 2]))
    dimension = draw(st.integers(0, max_dim))
    max_scale = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]))
    return g, covers, max_dim, dimension, max_scale


def _oracle_block_diagram(rows, max_dim, dimension, max_scale):
    # the closed form pinned to the brute-force (min, max) product over every
    # witness, then the diagram of the brute-force assembly of those scales
    scales = oracle_witness_edge_scales(rows.dists.T, nu=0)
    assert np.array_equal(_unit_witness_edge_scales(rows.between_sources), scales)
    f = Filtration.from_simplices(
        oracle_assemble(scales.shape[0], scales, max_dim, max_scale), max_dim)
    return compute_persistence(f, REDUCTION,
                               homology_dims=(0,) if dimension == 0 else None)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(unit_cover_case())
def test_unit_witness_blocks_match_the_oracle(case):
    g, covers, max_dim, dimension, max_scale = case
    kw = dict(max_dim=max_dim, dimension=dimension, max_scale=max_scale)
    for cover in covers:
        if len(cover.rows.sources) > 1:      # the global block: every node a witness
            assert global_diagram(cover, **kw) == _oracle_block_diagram(
                cover.rows, max_dim, dimension, max_scale)
        cells = local_cell_diagrams(cover, **kw)
        for l, members in cover.cells.items():
            if len(cover.local_landmarks[l]) > 1:   # a cell block: its members witness
                index = {v: i for i, v in enumerate(members)}
                sub = Graph.from_edges(len(members), [
                    (index[u], index[v]) for u, v in g.edge_array.tolist()
                    if u in index and v in index])
                rows = geodesics(sub, [index[v] for v in cover.local_landmarks[l]])
                assert cells[l] == _oracle_block_diagram(rows, max_dim, dimension,
                                                         max_scale)


@st.composite
def forest_case(draw):
    # unit, integer-weight and decimal-weight graphs (the decimals make
    # rounded float ties), connected (a spanning path) or not, with
    # landmarks by degree and by hand, so that some cells hold several
    n = draw(st.integers(2, 16))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    order = draw(st.permutations(range(n)))
    path = zip(order, order[1:]) if draw(st.booleans()) else ()
    edges = sorted({(min(p), max(p)) for p in [*pairs, *path] if p[0] != p[1]})
    choices = draw(st.sampled_from([(1.0,), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7, 1.0)]))
    weights = draw(st.lists(st.sampled_from(choices), min_size=len(edges),
                            max_size=len(edges)))
    g = Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, weights)])
    fraction = draw(st.sampled_from([0.2, 0.4, 0.7, 1.0]))
    marks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
    covers = (build_cover(g, select_landmarks(g, fraction)),
              build_cover(g, LandmarkSet(tuple(marks), fraction)))
    max_dim = draw(st.sampled_from([0, 1, 2]))
    max_scale = draw(st.sampled_from([0.0, 0.3, 1.0, 1.5, 2.0, np.inf]))
    return g, covers, max_dim, max_scale


def _oracle_h0(rows, max_dim, max_scale):
    # H0 of the brute-force witness complex over every witness column, by the
    # set-column reduction; its deaths are pinned to networkx's spanning
    # forest of the landmark pairs at their witness scales up to max_scale
    scales = oracle_witness_edge_scales(rows.T, nu=0)
    full = oracle_reduction(oracle_assemble(len(rows), scales, max_dim, max_scale))
    h0 = PersistenceDiagram._build({0: full.points_in(0)}, {0: full.essential_in(0)})
    pairs = nx.Graph()
    pairs.add_nodes_from(range(len(rows)))
    if max_dim >= 1:
        pairs.add_weighted_edges_from((i, j, scales[i, j]) for i in range(len(rows))
                                      for j in range(i)
                                      if np.isfinite(scales[i, j]) and scales[i, j] <= max_scale)
    forest = sorted(d["weight"] for _, _, d in nx.minimum_spanning_edges(pairs))
    assert h0.points_in(0)[:, 1].tolist() == forest
    assert h0.essential_in(0).size == len(rows) - len(forest)
    return h0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forest_case())
def test_dimension_0_diagrams_match_the_spanning_forest_oracle(case):
    g, covers, max_dim, max_scale = case
    kw = dict(max_dim=max_dim, dimension=0, max_scale=max_scale)
    for cover in covers:
        # the global block: every node witnesses
        assert global_diagram(cover, **kw) == _oracle_h0(cover.rows.dists, max_dim, max_scale)
        cells = local_cell_diagrams(cover, **kw)
        for l, members in cover.cells.items():
            # a cell block: its members witness, in the cell's own subgraph
            index = {v: i for i, v in enumerate(members)}
            sub = Graph.from_edges(len(members), [
                (index[u], index[v], w) for (u, v), w in edge_dict(g).items()
                if u in index and v in index])
            rows = geodesics(sub, [index[v] for v in cover.local_landmarks[l]])
            assert cells[l] == _oracle_h0(rows.dists, max_dim, max_scale)


def test_unit_dimension_0_answers_compute_no_rows(monkeypatch):
    # at nu = 0 in dimension 0 a unit graph needs no landmark rows: the staged
    # outputs are computed first, then every geodesics binding raises and the
    # entry points run on a fresh copy of the graph (no memoised cover)
    from conftest import oracle_stability_rows

    def staged_cells(cover, max_dim, nu, dimension, max_scale):
        # the cover's cut graph holds every edge inside a cell
        return oracle_local_cell_diagrams(cover.cut, cover, max_dim, nu, dimension, max_scale)

    def staged_global(cover, max_dim, dimension, nu, max_scale):
        return _staged_diagram(cover.rows, max_dim, dimension, nu, max_scale)

    def no_rows(*args, **kw):
        raise AssertionError("landmark rows for a unit-weight H0 answer")

    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 80, extra=60)
    cfg, fraction = cfg_for(g, r=4), 0.2       # the cap is set: no diameter either
    for max_dim, max_scale in ((1, np.inf), (2, 2.0)):
        kw = dict(max_dim=max_dim, dimension=0, nu=0, max_scale=max_scale)
        cover = build_cover(g, select_landmarks(g, fraction))
        assert any(len(m) > 1 for m in cover.local_landmarks.values())
        cells, glob = staged_cells(cover, **kw), staged_global(cover, **kw)
        local = np.zeros((g.num_nodes, 16))
        for l, members in cover.cells.items():
            local[list(members)] = persistence_image(cells[l], cfg, 0).flatten()
        monkeypatch.setattr(wtopo, "global_diagram", staged_global)
        monkeypatch.setattr(wtopo, "local_cell_diagrams", staged_cells)
        rows = oracle_stability_rows(g, [0, 3], 2, fraction, cfg, TopoLossConfig(),
                                     mode="landmark-targeted", **kw)
        monkeypatch.undo()

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wtopo" and hasattr(module, "geodesics"):
                monkeypatch.setattr(module, "geodesics", no_rows)
        fresh = Graph.from_edges(g.num_nodes, g.edge_array.tolist())
        assert np.array_equal(local_encoding(fresh, fraction, cfg, **kw).values, local)
        assert global_encoding(fresh, fraction, cfg, **kw) == persistence_image(glob, cfg, 0)
        assert stability_sweep(fresh, [0, 3], 2, fraction, cfg, TopoLossConfig(),
                               mode="landmark-targeted", **kw).rows == rows
        monkeypatch.undo()


def test_unit_encodings_at_80k_nodes_peak_memory(tmp_path):
    # the H0 encodings of an 80k-node unit graph (a random recursive tree
    # plus 80k extra edges, L = 4000) with the cap set build no L x N rows
    # and no L x L table: about 130 MB peak with the graph's construction
    # (Python 3.11, numpy 2.4, scipy 1.17), where the rows alone would take
    # 2.6 GB
    script = """if True:
        import resource
        import numpy as np
        from wtopo import Graph, PIConfig, global_encoding, local_encoding
        n = 80_000
        rng = np.random.default_rng(5)
        tree = np.column_stack([np.arange(1, n), (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)])
        pairs = np.sort(np.concatenate([tree, rng.integers(0, n, size=(n, 2))]), axis=1)
        pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
        g = Graph.from_edges(n, map(tuple, pairs.tolist()))
        cfg = PIConfig(5, (0.0, 30.0), (0.0, 30.0), cap_value=31.0)
        local_encoding(g, 0.05, cfg, dimension=0)
        global_encoding(g, 0.05, cfg, dimension=0)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(wtopo.__file__)), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 400


@pytest.mark.parametrize("weighted, row_passes", [(False, 1), (True, 0)])
def test_global_diagrams_reuse_the_covers_one_pass(monkeypatch, weighted, row_passes):
    # every global request reads the cover's own nearest landmarks or rows:
    # a unit cover computes its rows on their first read, a weighted cover
    # keeps the rows its cells came from
    g = random_connected_graph(np.random.default_rng(79), 60, extra=30, weighted=weighted)
    cover = build_cover(g, select_landmarks(g, 0.1))
    calls = []

    def counting(name, f):
        def count(*args, **kw):
            calls.append(name)
            return f(*args, **kw)
        return count

    for module in ("wtopo.encodings", "wtopo.landmarks"):
        for name in ("nearest_sources", "geodesics"):
            monkeypatch.setattr(f"{module}.{name}",
                                counting(name, getattr(sys.modules[module], name)))
    for dimension in (0, 1):
        for nu in (0, 1):
            global_diagram(cover, max_dim=2, dimension=dimension, nu=nu)
    assert calls == ["geodesics"] * row_passes


def test_diagram_requests_take_their_parameters_by_keyword():
    # both diagram stages name the same four parameters in the same order,
    # and a positional call cannot put one value in another's place
    cover = build_cover(six_cycle(), LandmarkSet((0, 3), 0.34))
    for stage in (global_diagram, local_cell_diagrams):
        params = list(inspect.signature(stage).parameters.values())
        assert [p.name for p in params] == ["cover", "max_dim", "dimension", "nu",
                                            "max_scale"]
        assert all(p.kind is p.KEYWORD_ONLY for p in params[1:])
        with pytest.raises(TypeError):
            stage(cover, 1, 0)


def test_weighted_covers_and_positive_nu_reach_the_witness_kernel(monkeypatch):
    calls = []

    def counting(witness_dists, m_nu):
        calls.append(witness_dists.shape)
        return _witness_edge_scales(witness_dists, m_nu)

    def closed_form(land_dists):
        calls.append("closed form")
        return _unit_witness_edge_scales(land_dists)

    monkeypatch.setattr("wtopo.complexes._witness_edge_scales", counting)
    monkeypatch.setattr("wtopo.encodings._unit_witness_edge_scales", closed_form)
    rng = np.random.default_rng(73)
    for weighted, nu, kernel in ((True, 0, True), (False, 1, True), (True, 1, True),
                                 (False, 0, False)):
        g = random_connected_graph(rng, 60, extra=30, weighted=weighted)
        cover = build_cover(g, LandmarkSet((0, 1, 2), 0.3))
        several = [l for l, m in cover.local_landmarks.items() if len(m) > 1]
        assert several
        for max_dim in (1, 2):
            calls.clear()
            global_diagram(cover, max_dim=max_dim, nu=nu, dimension=1)
            local_cell_diagrams(cover, max_dim=max_dim, nu=nu, dimension=1)
            # the witness rows: every node for the global block, the members
            # of each cell with two or more local landmarks
            want = [(g.num_nodes, 3)] + [(len(cover.cells[l]), len(cover.local_landmarks[l]))
                                         for l in several]
            assert calls == (want if kernel else ["closed form"] * len(want))
            # dimension 0 at nu = 0 reads a spanning forest: neither edge rule runs
            calls.clear()
            global_diagram(cover, max_dim=max_dim)
            local_cell_diagrams(cover, max_dim=max_dim)
            assert calls == []


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


def _staged_diagram(rows, max_dim, dimension, nu, max_scale):
    f = witness_filtration(rows.between_sources, rows.dists.T, max_dim, max_scale, nu=nu)
    if dimension > max_dim:
        raise ValueError(f"dimension must be <= max_dim, got dimension {dimension} "
                         f"and max_dim {max_dim}")
    return compute_persistence(f, UNION_FIND if dimension == 0 else REDUCTION)


def test_global_diagram_matches_the_staged_witness_path():
    # the oracle: one witness filtration over the cover's landmark rows, a
    # dimension above max_dim rejected, then union-find in dimension 0 and
    # the reduction above it; errors included
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
                                cover, max_dim=max_dim, dimension=dimension,
                                nu=nu, max_scale=max_scale))
                            want = _diagram_or_error(lambda: _staged_diagram(
                                rows, max_dim, dimension, nu, max_scale))
                            assert got == want
                            cases += isinstance(want, tuple)
    assert cases > 0


def test_global_encoding_is_the_image_of_the_cover_diagram():
    rng = np.random.default_rng(72)
    for trial in range(6):
        n = int(rng.integers(6, 25))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=trial % 3 == 1)
        if trial % 3 == 2:               # two components and an isolated node
            h = random_connected_graph(rng, n // 2, extra=2)
            g = Graph.from_edges(n + n // 2 + 1, [
                *zip(*g.edge_array.T, g.weights),
                *zip(*(h.edge_array + n).T, h.weights)])
        cfg, fraction = cfg_for(g), float(rng.uniform(0.1, 0.6))
        for dimension, max_dim in ((0, 1), (1, 2)):
            cover = build_cover(g, select_landmarks(g, fraction))
            want = persistence_image(global_diagram(cover, max_dim=max_dim,
                                                    dimension=dimension), cfg, dimension)
            got = global_encoding(g, fraction, cfg, max_dim=max_dim, dimension=dimension)
            assert got == want


def test_one_landmark_gives_the_one_vertex_diagram():
    # one landmark is one vertex, whatever the graph and the request: its
    # diagram is one essential 0 in dimension 0 and nothing else
    rng = np.random.default_rng(74)
    cases = 0
    for trial in range(30):
        n = int(rng.integers(4, 20))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=trial % 2 == 1)
        if trial % 5 == 4:               # a second component and an isolated node
            g = Graph.from_edges(n + 4, [*zip(*g.edge_array.T, g.weights),
                                         (n, n + 1, 1.5), (n + 1, n + 2, 1.0)])
        cover = build_cover(g, LandmarkSet((int(rng.integers(g.num_nodes)),), 0.5))
        for max_dim in range(3):
            for dimension in range(max_dim + 1):
                for nu in range(2):
                    for max_scale in (np.inf, 0.0, 1.0):
                        d = global_diagram(cover, max_dim=max_dim, dimension=dimension,
                                           nu=nu, max_scale=max_scale)
                        assert d == PersistenceDiagram({}, {0: np.zeros(1)})
                        assert d.to_json_obj() == [{"dim": 0, "points": [],
                                                    "essential": [0.0]}]
                        cases += 1
    assert cases == 1080


def test_a_dimension_0_answer_builds_no_triangles(monkeypatch):
    # H0 reads vertices and edges only, so every entry point stops the complex
    # at dimension 1 and still gives the staged max_dim 2 answer, computed
    # here before the triangle search is made to raise
    import wtopo
    import wtopo.complexes as complexes
    from conftest import oracle_stability_rows

    def staged_cells(cover, max_dim, nu, dimension, max_scale):
        # the cover's cut graph holds every edge inside a cell
        return oracle_local_cell_diagrams(cover.cut, cover, max_dim, nu, dimension, max_scale)

    def staged_global(cover, max_dim, dimension, nu, max_scale):
        return _staged_diagram(cover.rows, max_dim, dimension, nu, max_scale)

    def no_triangles(*args):
        raise AssertionError("a triangle search for a dimension-0 answer")

    rng = np.random.default_rng(75)
    for weighted, nu, max_scale in ((False, 0, np.inf), (True, 0, np.inf),
                                    (False, 1, 2.0), (True, 1, np.inf)):
        g = random_connected_graph(rng, 50, extra=40, weighted=weighted)
        kw = dict(max_dim=2, dimension=0, nu=nu, max_scale=max_scale)
        cfg, fraction = cfg_for(g, r=4), 0.4
        cover = build_cover(g, select_landmarks(g, fraction))
        cells = staged_cells(cover, **kw)
        assert any(len(m) > 1 for m in cover.local_landmarks.values())
        glob = staged_global(cover, **kw)
        local = np.zeros((g.num_nodes, 16))
        for l, members in cover.cells.items():
            local[list(members)] = persistence_image(cells[l], cfg, 0).flatten()
        monkeypatch.setattr(wtopo, "global_diagram", staged_global)
        monkeypatch.setattr(wtopo, "local_cell_diagrams", staged_cells)
        rows = oracle_stability_rows(g, [0, 2], 2, fraction, cfg, TopoLossConfig(), **kw)
        monkeypatch.undo()

        monkeypatch.setattr(complexes, "_triangles", no_triangles)
        assert global_diagram(cover, **kw) == glob
        assert local_cell_diagrams(cover, **kw) == cells
        assert np.array_equal(local_encoding(g, fraction, cfg, **kw).values, local)
        assert global_encoding(g, fraction, cfg, **kw) == persistence_image(glob, cfg, 0)
        assert stability_sweep(g, [0, 2], 2, fraction, cfg, TopoLossConfig(),
                               **kw).rows == rows
        monkeypatch.undo()


@pytest.mark.parametrize("max_scale", [-1.0, float("nan")])
def test_every_builder_rejects_a_max_scale_below_zero_or_nan(max_scale):
    g = six_cycle()
    cover = build_cover(g, select_landmarks(g, 0.5))
    rows, cfg = cover.rows, cfg_for(g)
    message = f"^max_scale must be a number >= 0, got {max_scale}$"
    for build in (lambda s: vr_filtration(rows.between_sources, 1, s),
                  lambda s: witness_filtration(rows.between_sources, rows.dists.T, 1, s),
                  lambda s: global_diagram(cover, max_scale=s),
                  lambda s: local_cell_diagrams(cover, max_scale=s),
                  lambda s: global_encoding(g, 0.5, cfg, max_scale=s),
                  lambda s: local_encoding(g, 0.5, cfg, max_scale=s)):
        with pytest.raises(ValueError, match=message):
            build(max_scale)
        build(0.0)
        build(np.inf)


@pytest.mark.parametrize("entry", ["persistence_image", "topo_loss", "topo_loss_grad",
                                   "diagram_distance", "local_encoding", "global_encoding",
                                   "stability_sweep"])
def test_a_negative_dimension_is_an_error(entry):
    g, d = six_cycle(), diagram_of([[0.0, 2.0]])
    cfg, loss = cfg_for(g), TopoLossConfig()
    call = {"persistence_image": lambda: persistence_image(d, cfg, -1),
            "topo_loss": lambda: topo_loss(d, loss, -1),
            "topo_loss_grad": lambda: topo_loss_grad(d, loss, -1),
            "diagram_distance": lambda: diagram_distance(d, d, dimension=-1),
            "local_encoding": lambda: local_encoding(g, 0.5, cfg, dimension=-1),
            "global_encoding": lambda: global_encoding(g, 0.5, cfg, dimension=-1),
            "stability_sweep": lambda: stability_sweep(g, [0], 1, 0.5, cfg, loss,
                                                       dimension=-1)}[entry]
    with pytest.raises(ValueError, match="^dimension must be >= 0, got -1$"):
        call()


@pytest.mark.parametrize("entry", ["global_diagram", "local_cell_diagrams", "local_encoding",
                                   "global_encoding", "stability_sweep"])
@pytest.mark.parametrize("max_dim, dimension", [(0, 1), (1, 2), (1, 3), (2, 3)])
def test_a_dimension_above_max_dim_is_an_error(entry, max_dim, dimension):
    g = six_cycle()
    cover = build_cover(g, select_landmarks(g, 0.5))
    cfg, loss = cfg_for(g), TopoLossConfig()
    kw = dict(max_dim=max_dim, dimension=dimension)
    call = {"global_diagram": lambda: global_diagram(cover, **kw),
            "local_cell_diagrams": lambda: local_cell_diagrams(cover, **kw),
            "local_encoding": lambda: local_encoding(g, 0.5, cfg, **kw),
            "global_encoding": lambda: global_encoding(g, 0.5, cfg, **kw),
            "stability_sweep": lambda: stability_sweep(g, [0], 1, 0.5, cfg, loss,
                                                       **kw)}[entry]
    with pytest.raises(ValueError, match=f"^dimension must be <= max_dim, got dimension "
                                         f"{dimension} and max_dim {max_dim}$"):
        call()


@pytest.mark.parametrize("entry", ["local_encoding", "global_encoding", "stability_sweep"])
@pytest.mark.parametrize("bad, message", [
    (dict(fraction=0), "fraction must be in (0, 1], got 0"),
    (dict(max_dim=7), "max_dim must be 0, 1 or 2"),
    (dict(max_scale=float("nan")), "max_scale must be a number >= 0, got nan"),
    (dict(dimension=-1), "dimension must be >= 0, got -1"),
    (dict(dimension=3, max_dim=1), "dimension must be <= max_dim, got dimension 3 and max_dim 1"),
])
def test_an_invalid_request_computes_no_rows_and_no_diameter(monkeypatch, entry, bad, message):
    import wtopo.encodings
    import wtopo.graph
    import wtopo.images
    import wtopo.landmarks

    calls = []

    def counted(module, name):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or f(*a, **kw))

    for module in (wtopo.graph, wtopo.landmarks, wtopo.encodings):
        counted(module, "geodesics")
        counted(module, "nearest_sources")
    for module in (wtopo.graph, wtopo.images):
        counted(module, "diameter")
    g = six_cycle()
    cfg = PIConfig(5, (0.0, 3.0), (0.0, 3.0))       # no cap: resolving it takes a diameter
    encode = {"local_encoding": local_encoding, "global_encoding": global_encoding,
              "stability_sweep": lambda g, fraction, cfg, **kw: stability_sweep(
                  g, [0, 1], 1, fraction, cfg, TopoLossConfig(), **kw)}[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        encode(g, cfg=cfg, **{"fraction": 0.5, **bad})
    assert calls == []
    encode(g, 0.5, cfg)          # a valid request reaches the counted bindings
    assert {"geodesics", "nearest_sources", "diameter"} <= set(calls)


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
    cover = build_cover(g, select_landmarks(g, 0.5))
    full = global_diagram(cover)
    capped = global_diagram(cover, max_scale=0.5)
    assert full.num_points(0) > 0
    assert capped.num_points(0) == 0
    assert capped.essential_in(0).shape[0] == 3   # one component per landmark


def test_feature_matrix_csv_and_binary_roundtrip(tmp_path):
    values = np.arange(12, dtype=float).reshape(3, 4)
    feats = NodeFeatureMatrix(values)
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


BLOCK = struct.pack("<qq", 3, 4) + np.arange(12, dtype="<f8").tobytes()


@pytest.mark.parametrize("raw, problem", [
    (struct.pack("<qq", -1, 4), "negative shape"),
    (BLOCK + b"\x00", "trailing bytes"),
    (BLOCK[:-10], "truncated"),
    (BLOCK[:9], "header is 9 bytes"),
], ids=["negative-rows", "trailing", "truncated", "short-header"])
def test_feature_matrix_binary_rejects_malformed_blocks(raw, problem):
    assert NodeFeatureMatrix.from_binary(io.BytesIO(BLOCK)).values.shape == (3, 4)
    with pytest.raises(ValueError, match=problem):
        NodeFeatureMatrix.from_binary(io.BytesIO(raw))


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


@pytest.mark.parametrize("x", [float("inf"), float("nan")])
def test_loss_config_rejects_non_finite_exponents(x):
    with pytest.raises(ValueError, match="^p must be finite"):
        TopoLossConfig(p=x)
    with pytest.raises(ValueError, match="^q must be finite"):
        TopoLossConfig(q=x)


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
        diag = global_diagram(build_cover(g, select_landmarks(g, 0.4)))
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
    assert topo_loss_grad(diagram_of([]), TopoLossConfig(2, 0)).shape == (0, 2)


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
