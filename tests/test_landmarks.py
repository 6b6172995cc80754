from dataclasses import replace

import numpy as np
import pytest

from conftest import random_connected_graph, random_graph
from wtopo import (Graph, LandmarkSet, build_cover, geodesics,
                   select_landmarks)
from wtopo.landmarks import landmark_count


def six_cycle():
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.mark.parametrize("n,fraction,expected", [
    (2485, 0.05, 124),
    (2110, 0.05, 105),
    (1222, 0.05, 61),
    (19717, 0.02, 394),
])
def test_landmark_counts(n, fraction, expected):
    assert landmark_count(n, fraction) == expected


def test_select_landmarks_all_ties_go_to_lower_ids():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2)])
    assert g.degrees.tolist() == [3, 3, 3, 3]
    assert select_landmarks(g, 0.5).landmarks == (0, 1)


def test_select_landmarks_degree_sort_with_tie_rule():
    # degrees [3, 1, 2, 3, 1]: top two by (degree desc, id asc) are (0, 3)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4), (2, 3)])
    assert g.degrees.tolist() == [3, 1, 2, 3, 1]
    assert select_landmarks(g, 0.4).landmarks == (0, 3)


def test_select_landmarks_minimum_one():
    g = Graph.from_edges(3, [(0, 1)])
    assert select_landmarks(g, 0.01).landmarks == (0,)


def test_select_landmarks_fraction_validation():
    g = six_cycle()
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            select_landmarks(g, bad)


def test_build_cover_six_cycle():
    cover = build_cover(six_cycle(), LandmarkSet((0, 3), 2 / 6))
    assert cover.cells == {0: (0, 1, 5), 3: (2, 3, 4)}
    assert cover.c_epsilon == 3
    assert cover.epsilon_pairwise == 1.5
    assert cover.cover_radius == 1.0
    assert cover.self_covered == ()


def test_build_cover_all_nodes_are_landmarks():
    g = six_cycle()
    cover = build_cover(g, LandmarkSet(tuple(range(6)), 1.0))
    assert all(cell == (l,) for l, cell in cover.cells.items())
    assert cover.c_epsilon == 1
    assert cover.cover_radius == 0.0


def test_build_cover_single_landmark():
    g = six_cycle()
    cover = build_cover(g, LandmarkSet((0,), 1 / 6))
    assert cover.cells[0] == tuple(range(6))
    assert cover.cover_radius == 3.0          # eccentricity of node 0
    assert cover.epsilon_pairwise == 0.0


def test_build_cover_unreachable_nodes_become_singletons():
    g = Graph.from_edges(4, [(0, 1)])         # nodes 2, 3 isolated
    cover = build_cover(g, LandmarkSet((0,), 0.25))
    assert cover.cells == {0: (0, 1), 2: (2,), 3: (3,)}
    assert cover.self_covered == (2, 3)
    assert cover.local_landmarks[2] == (2,)


def test_build_cover_partition_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        g = random_connected_graph(rng, n, extra=n // 2)
        ls = select_landmarks(g, 0.3)
        cover = build_cover(g, ls)
        members = [v for cell in cover.cells.values() for v in cell]
        assert sorted(members) == list(range(n))
        assert cover.c_epsilon == max(len(c) for c in cover.cells.values())


def test_build_cover_hausdorff_property():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        g = random_connected_graph(rng, n, extra=n // 2)
        ls = select_landmarks(g, 0.25)
        cover = build_cover(g, ls)
        rows = geodesics(g, ls.landmarks).dists
        assert np.all(rows.min(axis=0) <= cover.cover_radius)


def test_build_cover_tie_goes_to_earlier_landmark():
    # path 0-1-2: node 1 equidistant from 0 and 2
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cover = build_cover(g, LandmarkSet((2, 0), 2 / 3))
    assert cover.cells == {2: (1, 2), 0: (0,)}


def test_local_landmarks_follow_induced_degrees():
    # cell {0,1,2,3}: node 1 has the highest induced degree
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 2)])
    cover = build_cover(g, LandmarkSet((1,), 0.5))
    assert cover.cells[1] == (0, 1, 2, 3, 4)
    assert cover.local_landmarks[1][0] == 1
    assert len(cover.local_landmarks[1]) == 2


def test_cover_rows_cells_and_local_landmarks_match_oracles():
    rng = np.random.default_rng(24)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, p=0.12, weighted=bool(trial % 2))
        ls = select_landmarks(g, float(rng.uniform(0.1, 0.5)))
        cover = build_cover(g, ls)
        rows = geodesics(g, ls.landmarks).dists
        assert np.array_equal(cover.rows.dists, rows)
        assert cover.rows.sources == ls.landmarks

        # nearest landmark, earlier landmark on ties, unreachable nodes alone
        cells = {l: [] for l in ls.landmarks}
        for v in range(n):
            if np.isfinite(rows[:, v].min()):
                cells[ls.landmarks[int(np.argmin(rows[:, v]))]].append(v)
            else:
                cells[v] = [v]
        assert list(cover.cells) == list(cells)
        assert cover.cells == {l: tuple(c) for l, c in cells.items()}
        assert all(cover.cell_of[v] == l for l, c in cells.items() for v in c)

        # local landmarks: top nodes by (-degree inside the cell, id)
        for l, cell in cells.items():
            inside = set(cell)
            deg = {v: sum(1 for a, b in g.edge_array.tolist()
                          if (a == v and b in inside) or (b == v and a in inside))
                   for v in cell}
            ranked = sorted(cell, key=lambda v: (-deg[v], v))
            count = landmark_count(len(cell), ls.fraction)
            assert cover.local_landmarks[l] == tuple(ranked[:count])


def test_cover_cut_holds_exactly_the_same_cell_edges():
    rng = np.random.default_rng(25)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n, p=0.15, weighted=bool(trial % 2))
        cover = build_cover(g, select_landmarks(g, float(rng.uniform(0.05, 0.5))))
        same = [e for e, (u, v) in enumerate(g.edge_array.tolist())
                if cover.cell_of[u] == cover.cell_of[v]]
        assert cover.cut.num_nodes == n
        assert np.array_equal(cover.cut.edge_array, g.edge_array[same].reshape(-1, 2))
        assert np.array_equal(cover.cut.weights, g.weights[same])

    # the cut is neither compared nor serialized
    g = six_cycle()
    cover = build_cover(g, LandmarkSet((0, 3), 2 / 6))
    other = replace(cover, cut=g)
    assert other == cover and other.to_json() == cover.to_json()
    assert "cut=" not in repr(cover)


def test_cover_serialization_deterministic():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 25, extra=10)
    ls = select_landmarks(g, 0.2)
    a = build_cover(g, ls).to_json()
    b = build_cover(g, ls).to_json()
    assert a == b
    assert a.encode() == b.encode()


def test_cover_json_schema():
    import json
    cover = build_cover(six_cycle(), LandmarkSet((0, 3), 2 / 6))
    obj = json.loads(cover.to_json())
    assert set(obj) == {"landmarks", "cells", "epsilon_pairwise",
                        "cover_radius", "c_epsilon"}
    assert obj["cells"] == {"0": [0, 1, 5], "3": [2, 3, 4]}


def test_build_cover_is_memoised_on_the_graph(monkeypatch):
    import wtopo.landmarks
    rng = np.random.default_rng(24)
    g = random_connected_graph(rng, 30, extra=10)
    first = build_cover(g, select_landmarks(g, 0.2))
    calls = []
    monkeypatch.setattr(wtopo.landmarks, "geodesics",
                        lambda *args, **kw: calls.append(args) or geodesics(*args, **kw))
    assert build_cover(g, select_landmarks(g, 0.2)) is first
    assert calls == []
    # another landmark set, or the same landmarks under another fraction
    # (which sets the local landmark counts), is a new cover
    other = build_cover(g, LandmarkSet(select_landmarks(g, 0.2).landmarks, 0.5))
    assert other is not first and len(calls) == 1


def test_build_cover_empty_landmarks_rejected():
    with pytest.raises(ValueError):
        build_cover(six_cycle(), LandmarkSet((), 0.1))
