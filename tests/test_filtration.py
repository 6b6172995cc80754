"""Array filtrations and the per-dimension coboundary reduction against the
plain-python assembly and whole-matrix set reduction in conftest."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (diagram_of, oracle_assemble, oracle_reduction,
                      ordered_simplices, random_connected_graph, random_graph)
from wtopo import (REDUCTION, UNION_FIND, Filtration, compute_persistence,
                   geodesics, select_landmarks, vr_filtration, witness_filtration)
from wtopo import persistence
from wtopo.complexes import _witness_edge_scales, relaxation_terms


def assert_matches_oracles(f, expected):
    assert ordered_simplices(f) == expected
    assert len(f) == len(expected)
    want = oracle_reduction(expected)
    assert compute_persistence(f, REDUCTION) == want
    assert (compute_persistence(f, UNION_FIND)
            == compute_persistence(f, REDUCTION, homology_dims=(0,))
            == diagram_of(want.points_in(0), want.essential_in(0)))


def seeded_rows(rng):
    n = int(rng.integers(3, 26))
    weighted = bool(rng.integers(0, 2))
    if rng.integers(0, 2):
        g = random_connected_graph(rng, n, extra=n // 2, weighted=weighted)
    else:
        g = random_graph(rng, n, p=0.12, weighted=weighted)   # disconnected rows
    ls = select_landmarks(g, float(rng.uniform(0.3, 0.9)))
    rows = geodesics(g, ls.landmarks).dists
    return rows[:, list(ls.landmarks)], rows.T


@pytest.mark.parametrize("kind", ["vr", "witness"])
@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_seeded_filtrations_match_oracles(kind, max_dim):
    rng = np.random.default_rng(71 + max_dim)
    for trial in range(25):
        land, wit = seeded_rows(rng)
        # unit weights give integer scales, so a finite cap lands on ties
        max_scale = (np.inf, 2.0, float(rng.uniform(0.5, 4.0)))[trial % 3]
        n = land.shape[0]
        if kind == "vr":
            f = vr_filtration(land, max_dim, max_scale)
            scales = np.minimum(land, land.T)
        else:
            nu = int(rng.integers(0, 2))
            f = witness_filtration(land, wit, max_dim, max_scale, nu=nu)
            scales = _witness_edge_scales(wit, relaxation_terms(wit, nu))
        np.fill_diagonal(scales, np.inf)
        assert_matches_oracles(f, oracle_assemble(n, scales, max_dim, max_scale))


@pytest.mark.parametrize("n_land", [11, 12, 25])
@pytest.mark.parametrize("kind", ["vr", "witness"])
@pytest.mark.parametrize("weighted", [False, True])
def test_complete_complexes_match_oracle(n_land, kind, weighted):
    # 55/66/300 edges and 165/220/2300 triangles: coboundary columns of one,
    # two or many uint64 words, with the last word full or partial
    rng = np.random.default_rng(n_land + 2 * weighted)
    g = random_connected_graph(rng, 4 * n_land, extra=4 * n_land, weighted=weighted)
    rows = geodesics(g, range(n_land)).dists
    land = rows[:, :n_land]
    scales = np.unique(land)
    for max_scale in (np.inf, float(scales[scales.size // 2])):
        f = (vr_filtration(land, 2, max_scale) if kind == "vr"
             else witness_filtration(land, rows.T, 2, max_scale))
        if max_scale == np.inf:
            assert [s.size for s in f.scales] == [n_land, n_land * (n_land - 1) // 2,
                                                  n_land * (n_land - 1) * (n_land - 2) // 6]
        assert compute_persistence(f, REDUCTION) == oracle_reduction(ordered_simplices(f))


def test_edgeless_and_triangle_free_filtrations_match_oracle():
    rng = np.random.default_rng(75)
    g = random_connected_graph(rng, 12, extra=6, weighted=True)
    rows = geodesics(g, range(6)).dists
    land = rows[:, :6]
    edgeless = [vr_filtration(land, max_dim, 0.1) for max_dim in (1, 2)]  # weights >= 0.5
    assert all(f.scales[1].size == 0 for f in edgeless)
    for f in edgeless + [vr_filtration(land, 1, np.inf), witness_filtration(land, rows.T, 1, 2.0)]:
        assert compute_persistence(f, REDUCTION) == oracle_reduction(ordered_simplices(f))


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_top_dimension_builds_no_columns(monkeypatch, max_dim):
    cocolumns, built = persistence._cocolumns, []

    def counting(f, d):
        built.append(d)
        return cocolumns(f, d)

    monkeypatch.setattr(persistence, "_cocolumns", counting)
    land, wit = seeded_rows(np.random.default_rng(76))
    filts = (vr_filtration(land, max_dim, np.inf), witness_filtration(land, wit, max_dim, 2.0))
    for f in filts:
        compute_persistence(f, REDUCTION)
    assert built == list(range(max_dim)) * 2
    # H0 alone stops after dimension 0's columns
    for f in filts:
        for algorithm, dims in ((UNION_FIND, None), (REDUCTION, (0,))):
            built.clear()
            compute_persistence(f, algorithm, homology_dims=dims)
            assert built == [0][:max_dim]


@st.composite
def hand_built(draw):
    """Face-closed complexes on vertices 0..n-1 that enter at varied scales,
    so their filtration order is not their id order; simplices arrive
    shuffled, with vertices in any order."""
    levels = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])
    n = draw(st.integers(1, 7))
    max_dim = draw(st.integers(0, 2))
    vert = draw(st.lists(levels, min_size=n, max_size=n))
    simplices = {(v,): s for v, s in enumerate(vert)}
    if max_dim >= 1:
        for u, v in combinations(range(n), 2):
            if draw(st.booleans()):
                simplices[(u, v)] = max(vert[u], vert[v]) + draw(levels)
    if max_dim >= 2:
        for t in combinations(range(n), 3):
            faces = list(combinations(t, 2))
            if all(e in simplices for e in faces) and draw(st.booleans()):
                simplices[t] = max(simplices[e] for e in faces) + draw(levels)
    given_order = draw(st.permutations(sorted(simplices)))
    return ([(draw(st.permutations(vs)), simplices[vs]) for vs in given_order],
            max_dim, simplices)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hand_built())
def test_from_simplices_matches_oracles(case):
    given_pairs, max_dim, simplices = case
    f = Filtration.from_simplices(given_pairs, max_dim)
    expected = sorted(simplices.items(), key=lambda s: (s[1], len(s[0]), s[0]))
    assert_matches_oracles(f, expected)


@pytest.mark.parametrize("simplices, max_dim", [
    ([((0,), 0.0), ((0, 1), 1.0)], 1),                       # missing vertex 1
    ([((0,), 0.0), ((2,), 0.0)], 1),                         # ids not 0..n-1
    ([((0,), 0.0), ((1,), 0.0), ((1, 0), 1.0), ((0, 1), 2.0)], 1),   # repeated
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
      ((0, 1, 2), 1.0)], 2),                                 # missing edge (1, 2)
    ([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)], 0),          # above max_dim
    ([((0,), 0.0)], 3),
])
def test_from_simplices_rejects_malformed_input(simplices, max_dim):
    with pytest.raises(ValueError):
        Filtration.from_simplices(simplices, max_dim)
