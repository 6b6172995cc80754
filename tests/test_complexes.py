import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ordered_simplices, oracle_sandwich, oracle_witness_edge_scales,
                      random_connected_graph, random_graph)
from wtopo import (Graph, ValidationError, build_cover, geodesics,
                   is_weak_witness, sandwich_check, select_landmarks,
                   vr_filtration, witness_filtration)


def six_cycle_rows(landmarks):
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    rows = geodesics(g, landmarks).dists
    return rows[:, list(landmarks)], rows.T


def test_vr_basic():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    f = vr_filtration(d, max_dim=1, max_scale=2.0)
    assert ordered_simplices(f) == [((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
                                    ((0, 1), 1.0), ((0, 2), 2.0)]


def test_vr_clique_rule():
    d = np.ones((3, 3)) - np.eye(3)
    f = vr_filtration(d, max_dim=2, max_scale=1.0)
    assert ((0, 1, 2), 1.0) in ordered_simplices(f)
    assert len(f) == 7


def test_vr_zero_scale_vertices_only():
    d = np.ones((3, 3)) - np.eye(3)
    f = vr_filtration(d, max_dim=2, max_scale=0.0)
    assert ordered_simplices(f) == [((0,), 0.0), ((1,), 0.0), ((2,), 0.0)]


def test_vr_rejects_asymmetric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        vr_filtration(d, 1, 1.0)


@pytest.mark.parametrize("d, message", [
    (np.zeros((2, 3)), "must be a square matrix"),
    (np.array([[1.0, 1.0], [1.0, 0.0]]), "must have a zero diagonal"),
])
def test_vr_rejects_a_matrix_that_is_not_a_distance_matrix(d, message):
    with pytest.raises(ValidationError, match=message):
        vr_filtration(d, 1, 1.0)


def test_vr_unreachable_pairs_never_connect():
    d = np.array([[0.0, np.inf], [np.inf, 0.0]])
    f = vr_filtration(d, 1, 100.0)
    assert ordered_simplices(f) == [((0,), 0.0), ((1,), 0.0)]


def test_witness_six_cycle_landmarks_024():
    land, wit = six_cycle_rows((0, 2, 4))
    f = witness_filtration(land, wit, max_dim=2, max_scale=np.inf, nu=0)
    pairs = ordered_simplices(f)
    for edge in ((0, 1), (0, 2), (1, 2)):
        assert (edge, 1.0) in pairs
    assert ((0, 1, 2), 1.0) in pairs
    # oracle agreement on every pair scale
    oracle = oracle_witness_edge_scales(wit, nu=0)
    for vs, scale in ordered_simplices(f):
        if len(vs) == 2:
            assert scale == oracle[vs]


def test_witness_single_landmark():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rows = geodesics(g, [1]).dists
    f = witness_filtration(rows[:, [1]], rows.T, max_dim=1, max_scale=np.inf)
    assert ordered_simplices(f) == [((0,), 0.0)]


def test_witness_landmarks_as_witnesses_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        g = random_connected_graph(rng, n, extra=n // 2)
        ls = select_landmarks(g, 0.5)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        f = witness_filtration(land, land, max_dim=1, max_scale=np.inf, nu=0)
        oracle = oracle_witness_edge_scales(land, nu=0)
        for vs, scale in ordered_simplices(f):
            if len(vs) == 2:
                assert scale == oracle[vs]


def test_witness_nu_relaxation_matches_oracle():
    rng = np.random.default_rng(32)
    for nu in (0, 1, 2):
        n = int(rng.integers(6, 14))
        g = random_connected_graph(rng, n, extra=n)
        ls = select_landmarks(g, 0.4)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        f = witness_filtration(land, rows.T, max_dim=1, max_scale=np.inf, nu=nu)
        oracle = oracle_witness_edge_scales(rows.T, nu=nu)
        got = {vs: scale for vs, scale in ordered_simplices(f) if len(vs) == 2}
        for i in range(len(ls.landmarks)):
            for j in range(i + 1, len(ls.landmarks)):
                if np.isfinite(oracle[i, j]):
                    assert got[(i, j)] == oracle[i, j]
                else:
                    assert (i, j) not in got


def test_witness_shape_mismatch_rejected():
    land = np.zeros((3, 3))
    with pytest.raises(ValidationError):
        witness_filtration(land, np.zeros((4, 2)), 1, np.inf)
    with pytest.raises(ValidationError):
        witness_filtration(land, np.zeros((0, 3)), 1, np.inf)


def test_filtration_sorted_and_face_closed():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        g = random_connected_graph(rng, n, extra=n // 2,
                                   weighted=bool(rng.integers(0, 2)))
        ls = select_landmarks(g, 0.6)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        kind = int(rng.integers(0, 2))
        max_scale = float(rng.uniform(0.5, 4.0))
        if kind == 0:
            f = vr_filtration(land, 2, max_scale)
        else:
            f = witness_filtration(land, rows.T, 2, max_scale,
                                   nu=int(rng.integers(0, 2)))
        seen = set()
        last_key = None
        for vs, scale in ordered_simplices(f):
            key = (scale, len(vs), vs)
            assert last_key is None or last_key <= key
            last_key = key
            assert scale <= max_scale
            for k in range(len(vs)):
                face = vs[:k] + vs[k + 1:]
                if face:
                    assert face in seen        # every face precedes its cofaces
            seen.add(vs)


def test_filtration_monotone_in_max_scale():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n, extra=n // 2)
        ls = select_landmarks(g, 0.6)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        small = vr_filtration(land, 2, 1.0)
        large = vr_filtration(land, 2, 3.0)
        small_pairs = ordered_simplices(small)
        assert ordered_simplices(large)[:len(small_pairs)] == small_pairs


def test_is_weak_witness_examples():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    rows = geodesics(g, (0, 3)).dists.T          # witness x landmark
    assert is_weak_witness(1, [0], rows) is True
    assert is_weak_witness(1, [0, 1], rows) is True   # sigma = all landmarks
    rows024 = geodesics(g, (0, 2, 4)).dists.T
    assert is_weak_witness(3, [0], rows024) is False  # d(3,0)=3 > d(3,2)=1


def test_sandwich_check_random_instances():
    rng = np.random.default_rng(35)
    for _ in range(25):
        n = int(rng.integers(5, 11))
        g = random_connected_graph(rng, n, extra=n // 2)
        ls = select_landmarks(g, 0.4)
        cover = build_cover(g, ls)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        alpha = 2.0 * cover.cover_radius + 1.0
        assert sandwich_check(land, rows.T, alpha, cover.cover_radius, 2) is True


def test_sandwich_check_not_applicable():
    land, wit = six_cycle_rows((0, 3))
    assert sandwich_check(land, wit, 2.0, 1.0, 1) is None


@pytest.mark.parametrize("alpha, epsilon, max_dim, message", [
    (0.1, 1.0, 7, "max_dim must be 0, 1 or 2"),          # not applicable once checked
    (float("nan"), 1.0, 1, "alpha must be a number, got nan"),
    (4.0, float("nan"), 1, "epsilon must be a number, got nan"),
])
def test_sandwich_check_validates_before_not_applicable(alpha, epsilon, max_dim, message):
    land, wit = six_cycle_rows((0, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sandwich_check(land, wit, alpha, epsilon, max_dim)


def test_sandwich_check_all_nodes_landmarks():
    rng = np.random.default_rng(36)
    g = random_connected_graph(rng, 8, extra=4)
    rows = geodesics(g, range(8)).dists
    assert sandwich_check(rows, rows.T, 1.0, 0.0, 2) is True


def test_sandwich_check_never_joins_unreachable_landmarks():
    # VR joins no pair at infinite distance, also when alpha / 3 is inf
    a = np.array([[0.0, np.inf], [np.inf, 0.0]])
    assert sandwich_check(a, a, np.inf, 0.0, 1) is True


def test_sandwich_check_builds_no_triangles(monkeypatch):
    import wtopo.complexes as complexes

    calls = []
    monkeypatch.setattr(complexes, "_triangles", lambda *a: calls.append(a))
    path = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    rows = geodesics(path, range(8)).dists
    assert sandwich_check(rows, rows.T, 3.0, 0.0, 2) is True       # witness triangles
    assert sandwich_check(rows, rows[:, :1].T, 3.0, 0.0, 2) is False   # 0 misses (6, 7)
    assert calls == []


def test_is_weak_witness_rejects_bad_sigma():
    land, wit = six_cycle_rows((0, 3))
    with pytest.raises(ValueError):
        is_weak_witness(0, [], wit)
    with pytest.raises(ValueError):
        is_weak_witness(0, [7], wit)


@pytest.mark.parametrize("w", [-1, -6, 6, 7])
def test_is_weak_witness_rejects_a_witness_outside_the_rows(w):
    land, wit = six_cycle_rows((0, 3))          # 6 witness rows
    with pytest.raises(ValueError, match=r"^w must be a witness row in \[0, 6\)"):
        is_weak_witness(w, [0], wit)


@st.composite
def sandwich_case(draw):
    """Landmark (VR) rows of a seeded graph and, as witness rows, the rows of
    a few of its nodes, with alpha a finite landmark distance times 1 or 3.
    Few witnesses can miss a short VR edge at epsilon 0, so both outcomes
    occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(6, 30))
    g = (random_connected_graph(rng, n, extra=n // 4, weighted=draw(st.booleans()))
         if draw(st.booleans()) else random_graph(rng, n, p=0.15))
    ls = select_landmarks(g, draw(st.sampled_from([0.3, 0.5, 0.8])))
    rows = geodesics(g, ls.landmarks).dists
    land = rows[:, list(ls.landmarks)]
    witnesses = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    scales = np.unique(land[np.isfinite(land) & (land > 0)]).tolist() or [1.0]
    alpha = draw(st.sampled_from(scales)) * draw(st.sampled_from([3.0, 1.0]))
    return land, rows[:, witnesses].T, alpha, draw(st.sampled_from([2, 1, 0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sandwich_case())
def test_sandwich_check_matches_set_oracle(case):
    land, wit, alpha, max_dim = case
    assert sandwich_check(land, wit, alpha, 0.0, max_dim) \
        == oracle_sandwich(land, wit, alpha, 0.0, max_dim)


def test_every_public_name_resolves():
    import wtopo

    assert [name for name in wtopo.__all__ if not hasattr(wtopo, name)] == []
    assert len(set(wtopo.__all__)) == len(wtopo.__all__)
