import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (betti_from_diagram, diagram_of, oracle_betti_counts,
                      oracle_bottleneck, oracle_reduction, oracle_wasserstein,
                      ordered_simplices, random_connected_graph, random_diagram, random_filtration,
                      random_graph)
from wtopo import (REDUCTION, UNION_FIND, Filtration, all_pairs,
                   compute_persistence, diagram_distance, geodesics,
                   select_landmarks, vr_filtration, witness_filtration)
from wtopo.persistence import PersistenceDiagram


def filtration_from(simplices, max_dim=1):
    return Filtration.from_simplices(simplices, max_dim)


# ---------------------------------------------------------------------------
# diagram computation
# ---------------------------------------------------------------------------

def test_single_merge():
    f = filtration_from([((0,), 0), ((1,), 0), ((0, 1), 5)])
    for alg in (UNION_FIND, REDUCTION):
        d = compute_persistence(f, alg)
        assert d.points_in(0).tolist() == [[0.0, 5.0]]
        assert d.essential_in(0).tolist() == [0.0]


def test_single_vertex():
    f = filtration_from([((0,), 0)])
    for alg in (UNION_FIND, REDUCTION):
        d = compute_persistence(f, alg)
        assert d.points_in(0).size == 0
        assert d.essential_in(0).tolist() == [0.0]


def test_triangle_scales_1_2_3():
    land = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    f = vr_filtration(land, max_dim=1, max_scale=np.inf)
    d = compute_persistence(f, REDUCTION)
    assert d.points_in(0).tolist() == [[0.0, 1.0], [0.0, 2.0]]
    assert d.essential_in(0).tolist() == [0.0]
    assert d.points_in(1).size == 0
    assert d.essential_in(1).tolist() == [3.0]   # cycle never filled at max_dim=1
    # threshold-sweep Euler oracle: alive counts match component/cycle counts
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        b0, b1 = oracle_betti_counts(f, alpha)
        assert betti_from_diagram(d, 0, alpha) == b0
        assert betti_from_diagram(d, 1, alpha) == b1


def test_triangle_with_two_simplex_kills_cycle_instantly():
    land = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    f = vr_filtration(land, max_dim=2, max_scale=np.inf)
    d = compute_persistence(f, REDUCTION)
    assert d.num_points(1, include_essential=True) == 0   # zero persistence dropped


def test_union_find_rejects_positive_dimensions():
    f = filtration_from([((0,), 0), ((1,), 0), ((0, 1), 1)])
    with pytest.raises(ValueError):
        compute_persistence(f, UNION_FIND, homology_dims=(1,))


def test_unknown_algorithm_rejected():
    f = filtration_from([((0,), 0)])
    with pytest.raises(ValueError):
        compute_persistence(f, "magic")


def test_union_find_reduction_equivalence_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        f = random_filtration(rng)
        uf = compute_persistence(f, UNION_FIND)
        red = compute_persistence(f, REDUCTION, homology_dims=(0,))
        assert uf.points_in(0).tolist() == red.points_in(0).tolist()
        assert uf.essential_in(0).tolist() == red.essential_in(0).tolist()
        want = oracle_reduction(ordered_simplices(f))
        assert uf == diagram_of(want.points_in(0), want.essential_in(0))


def test_forest_h0_matches_reduction_oracle():
    # witness filtrations with zero-scale edges (nu > 0), tied unit scales and
    # landmarks in different components, against the whole-matrix reduction
    rng = np.random.default_rng(43)
    zero_merges = split = 0
    for trial in range(80):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, p=float(rng.choice([0.08, 0.25])),
                         weighted=bool(trial % 2))
        marks = list(select_landmarks(g, float(rng.uniform(0.3, 1.0))).landmarks)
        rows = geodesics(g, marks).dists
        nu = int(rng.integers(0, min(2, len(marks)) + 1))
        f = witness_filtration(rows[:, marks], rows.T, 1,
                               float(rng.choice([np.inf, 1.5])), nu=nu)
        want = oracle_reduction(ordered_simplices(f))
        got = compute_persistence(f, UNION_FIND)
        assert got == diagram_of(want.points_in(0), want.essential_in(0))
        zero_merges += want.essential_in(0).size + want.num_points(0) < len(marks)
        split += want.essential_in(0).size > 1
    assert zero_merges >= 10 and split >= 10


def test_reduction_betti_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        f = random_filtration(rng, n_max=12, max_dim=1)
        d = compute_persistence(f, REDUCTION)
        scales = sorted({scale for _, scale in ordered_simplices(f)}) + [np.inf]
        for alpha in scales[:-1]:
            b0, b1 = oracle_betti_counts(f, alpha)
            assert betti_from_diagram(d, 0, alpha) == b0
            assert betti_from_diagram(d, 1, alpha) == b1


def test_diagrams_with_different_dimensions_differ():
    d = diagram_of([[0, 1]])
    assert d == diagram_of([[0, 1]])
    # equal in every dimension of d, but not in the dimensions themselves
    assert d != PersistenceDiagram._build({0: [[0, 1]], 1: [[0, 2]]}, {})


def test_diagram_json_roundtrip():
    d = diagram_of([[0.0, 2.0], [1.0, 3.0]], essential=[0.0])
    d2 = PersistenceDiagram.from_json_obj(d.to_json_obj())
    assert d == d2
    # zero persistence is accepted and dropped, as at construction
    assert PersistenceDiagram.from_json_obj(
        [{"dim": 0, "points": [[1, 1], [0, 2]]}]) == diagram_of([[0, 2]])


@pytest.mark.parametrize("obj, dim", [
    ([{"dim": 0, "points": [[0, 1]], "essential": [0]}, {"dim": 0, "points": [[0, 3]]}], 0),
    ([{"dim": -1, "points": [[0, 1]]}], -1),
    ([{"dim": 1, "points": [[0.5, float("inf")]]}], 1),
    ([{"dim": 0, "points": [[float("nan"), 1.0]]}], 0),
    ([{"dim": 2, "essential": [float("nan")]}], 2),
    ([{"dim": 0, "essential": [float("-inf")]}], 0),
    ([{"dim": 1, "points": [[0, 2], [3, 1]]}], 1),           # death before birth
])
def test_diagram_json_rejects_repeated_negative_and_non_finite(obj, dim):
    with pytest.raises(ValueError, match=f"^dimension {dim}:"):
        PersistenceDiagram.from_json_obj(json.loads(json.dumps(obj)))   # NaN, Infinity


@pytest.mark.parametrize("entry", [{"points": [[0, 10 ** 400]]},
                                   {"points": [[-10 ** 400, 1]]},
                                   {"essential": [10 ** 400]}],
                         ids=["death", "birth", "essential"])
def test_diagram_json_rejects_an_integer_beyond_the_float_range(entry):
    text = json.dumps([{"dim": 1, **entry}])        # 400-digit JSON integers
    with pytest.raises(ValueError, match="^dimension 1: births and deaths must be finite$"):
        PersistenceDiagram.from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_bottleneck_single_pair():
    assert diagram_distance(diagram_of([[0, 4]]), diagram_of([[0, 5]])) == 1.0


def test_bottleneck_diagonal_projection():
    assert diagram_distance(diagram_of([[0, 2]]), PersistenceDiagram()) == 1.0


def test_wasserstein_identical_zero():
    d = diagram_of([[0, 4], [1, 2]])
    assert diagram_distance(d, d, mode="wasserstein", p=1) == 0.0


# births and persistences from a few values, so diagrams carry tied and
# repeated points; the sweep skips W_p between equal cells on this identity
GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(GRID, GRID.filter(lambda x: x > 0.0)), max_size=12),
       st.lists(GRID, max_size=4), st.sampled_from([1.0, 2.0, 3.5]),
       st.sampled_from(["match", "drop"]))
def test_distance_of_a_diagram_to_itself_is_exactly_zero(pairs, essential, p, policy):
    d = diagram_of([(b, b + pers) for b, pers in pairs], essential)
    assert diagram_distance(d, d, mode="wasserstein", p=p, essential=policy) == 0.0
    assert diagram_distance(d, d, mode="bottleneck", essential=policy) == 0.0


def test_wasserstein_requires_p_at_least_one():
    with pytest.raises(ValueError):
        diagram_distance(diagram_of([[0, 1]]), diagram_of([[0, 1]]),
                         mode="wasserstein", p=0.5)


def test_distance_missing_dimension_is_zero():
    assert diagram_distance(PersistenceDiagram(), PersistenceDiagram(),
                            dimension=3) == 0.0


def test_essential_count_mismatch_is_inf():
    d1 = diagram_of([[0, 1]], essential=[0.0])
    d2 = diagram_of([[0, 1]], essential=[0.0, 0.0])
    assert diagram_distance(d1, d2) == np.inf
    assert diagram_distance(d1, d2, essential="drop") == 0.0


def test_arguments_checked_before_essential_count_mismatch():
    d1 = diagram_of([[0, 1]], essential=[0.0])
    d2 = diagram_of([[0, 1]], essential=[0.0, 0.0])
    with pytest.raises(ValueError, match="unknown mode"):
        diagram_distance(d1, d2, mode="nonsense")
    with pytest.raises(ValueError, match="essential must be 'match' or 'drop'"):
        diagram_distance(d1, d2, essential="x")
    with pytest.raises(ValueError, match="p >= 1"):
        diagram_distance(d1, d2, mode="wasserstein", p=0.5)


@pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
def test_wasserstein_rejects_an_exponent_that_is_not_finite_and_at_least_one(p):
    d1 = diagram_of([[0, 1]], essential=[0.0])
    d2 = diagram_of([[0, 3]], essential=[0.0])
    for other in (d1, d2):              # equal diagrams once gave 1.0 at p = inf
        with pytest.raises(ValueError, match=r"finite p >= 1, got p="):
            diagram_distance(d1, other, mode="wasserstein", p=p)
    assert diagram_distance(d1, d2, mode="bottleneck", p=p) == 1.5   # p is unused


def test_essential_matched_by_sorted_births():
    d1 = diagram_of([], essential=[0.0, 2.0])
    d2 = diagram_of([], essential=[1.0, 2.5])
    assert diagram_distance(d1, d2) == 1.0
    assert diagram_distance(d1, d2, mode="wasserstein", p=1) == 1.5


def test_distances_match_bruteforce_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        d1 = random_diagram(rng, max_points=3)
        d2 = random_diagram(rng, max_points=3)
        p1 = [tuple(p) for p in d1.points_in(0)]
        p2 = [tuple(p) for p in d2.points_in(0)]
        got_b = diagram_distance(d1, d2, mode="bottleneck")
        assert got_b == pytest.approx(oracle_bottleneck(p1, p2), abs=1e-12)
        for p in (1.0, 2.0):
            got_w = diagram_distance(d1, d2, mode="wasserstein", p=p)
            assert got_w == pytest.approx(oracle_wasserstein(p1, p2, p), rel=1e-12)


def test_bottleneck_thousand_points_per_diagram():
    # a recursive matcher once overflowed the stack at this size
    rng = np.random.default_rng(45)

    def diagram():
        births = rng.uniform(0.0, 0.8, size=1000)
        return diagram_of(np.column_stack([births, births + rng.uniform(0.05, 1.0, 1000)]))

    d1, d2 = diagram(), diagram()
    got = diagram_distance(d1, d2, mode="bottleneck")
    to_diagonal = max(diagram_distance(d, PersistenceDiagram(), mode="bottleneck")
                      for d in (d1, d2))
    assert 0.0 < got <= to_diagonal


def test_distance_pseudometric_properties():
    rng = np.random.default_rng(44)
    for _ in range(20):
        a, b, c = (random_diagram(rng, max_points=4) for _ in range(3))
        for mode, p in (("bottleneck", 1.0), ("wasserstein", 1.0),
                        ("wasserstein", 2.0)):
            dab = diagram_distance(a, b, mode=mode, p=p)
            dba = diagram_distance(b, a, mode=mode, p=p)
            daa = diagram_distance(a, a, mode=mode, p=p)
            assert daa == 0.0
            assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)
            dac = diagram_distance(a, c, mode=mode, p=p)
            dcb = diagram_distance(c, b, mode=mode, p=p)
            assert dab <= dac + dcb + 1e-9


def test_bottleneck_below_wasserstein():
    # W_inf (bottleneck) <= W_p for matching distances with summed costs
    rng = np.random.default_rng(45)
    for _ in range(30):
        d1 = random_diagram(rng, max_points=5)
        d2 = random_diagram(rng, max_points=5)
        b = diagram_distance(d1, d2, mode="bottleneck")
        for p in (1.0, 2.0, 3.0):
            w = diagram_distance(d1, d2, mode="wasserstein", p=p)
            assert b <= w + 1e-9


def test_vr_stability_random_weighted_graphs():
    rng = np.random.default_rng(46)
    for _ in range(50):
        n = int(rng.integers(4, 21))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=True)
        jitter = rng.uniform(0.8, 1.2, size=g.num_edges)
        g2 = type(g).from_edges(
            n, [(int(u), int(v), float(w * s)) for (u, v), w, s in
                zip(g.edge_array, g.weights, jitter)])
        dmat1 = all_pairs(g).dists
        dmat2 = all_pairs(g2).dists
        sup = float(np.max(np.abs(dmat1 - dmat2)))
        f1 = vr_filtration(dmat1, 2, np.inf)
        f2 = vr_filtration(dmat2, 2, np.inf)
        pd1 = compute_persistence(f1, REDUCTION)
        pd2 = compute_persistence(f2, REDUCTION)
        for dim in (0, 1):
            bn = diagram_distance(pd1, pd2, mode="bottleneck", dimension=dim)
            assert bn <= sup + 1e-9
