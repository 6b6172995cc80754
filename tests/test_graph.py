import io

import numpy as np
import pytest

from conftest import (edge_dict, oracle_build_knn_graph, oracle_from_edges,
                      oracle_perturb, random_graph)
from wtopo import (Graph, GraphParseError, ValidationError,
                   adjacency_l1_distance, all_pairs, build_knn_graph,
                   geodesics, largest_connected_component, load_edge_list)
from wtopo.robustness import LANDMARK_TARGETED, RANDOM, PerturbSpec, perturb


def test_load_edge_list_basic():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.num_nodes == 3
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]
    assert g.weights.tolist() == [1.0, 1.0]


def test_load_edge_list_weighted():
    g = load_edge_list(io.StringIO("0 1 2.5\n"))
    assert g.num_nodes == 2
    assert g.weights.tolist() == [2.5]


def test_load_edge_list_comments_and_blank_lines():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n# trailing\n"))
    assert g.num_edges == 1


def test_load_edge_list_self_loop_rejected():
    with pytest.raises(ValidationError):
        load_edge_list(io.StringIO("0 0\n"))


def test_load_edge_list_parse_error_carries_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        load_edge_list(io.StringIO("0 1\nnot an edge line at all\n"))


def test_load_edge_list_rejects_duplicates_and_bad_weights():
    with pytest.raises(ValidationError):
        load_edge_list(io.StringIO("0 1\n1 0\n"))
    with pytest.raises(ValidationError):
        load_edge_list(io.StringIO("0 1 -2\n"))
    with pytest.raises(ValidationError):
        load_edge_list(io.StringIO("0 1 0\n"))


@pytest.mark.parametrize("text, error, message", [
    ("0 1\n# c\n\n1 2\n1 0\n", ValidationError, "line 5: duplicate edge (0, 1)"),
    ("-1 -2\n", ValidationError, "line 1: edge (-2, -1) outside [0, 1)"),
    ("0 1\n1 2 nan\n", ValidationError, "line 2: edge (1, 2) has non-positive weight nan"),
    # the tokens of every line are read before any edge rule is checked
    ("0 1 -1\n1 x\n", GraphParseError, "line 2: node ids must be integers"),
    ("0 1 -1\n0 9223372036854775808\n", GraphParseError,
     "line 2: node ids must fit in 64 bits"),
    ("0 1 x\n", GraphParseError, "line 1: weight must be a real number"),
], ids=["duplicate-after-comments", "all-negative", "nan-weight", "token-after-value",
        "id-beyond-int64", "weight-not-a-number"])
def test_every_edge_list_error_names_its_line(text, error, message):
    with pytest.raises(ValueError) as info:
        load_edge_list(io.StringIO(text))
    assert (type(info.value), str(info.value)) == (error, message)


def test_edge_list_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (1, 2, 0.25), (2, 3)])
    buf = io.StringIO()
    g.to_edge_list(buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert np.array_equal(g.edge_array, g2.edge_array)
    assert np.array_equal(g.weights, g2.weights)


def test_geodesics_path_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert geodesics(g, [0]).dists[0].tolist() == [0.0, 1.0, 2.0]


def test_geodesics_six_cycle():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert geodesics(g, [0]).dists[0].tolist() == [0, 1, 2, 3, 2, 1]


def test_geodesics_unreachable_sentinel():
    g = Graph.from_edges(3, [(0, 1)])
    row = geodesics(g, [0]).dists[0]
    assert row[0] == 0.0 and row[1] == 1.0
    assert np.isinf(row[2])


def test_geodesics_empty_sources_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        geodesics(g, [])
    with pytest.raises(ValueError, match=r"source ids outside \[0, N\)"):
        geodesics(g, [g.num_nodes])


def test_geodesics_triangle_inequality_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, p=0.3, weighted=bool(rng.integers(0, 2)))
        d = all_pairs(g).dists
        for k in range(n):
            via = d[:, k, None] + d[None, k, :]
            assert np.all(d <= via + 1e-9)


def test_geodesics_symmetric_on_all_nodes():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 20, p=0.2)
    d = all_pairs(g).dists
    assert np.array_equal(d, d.T)       # exact for unit weights
    gw = random_graph(rng, 20, p=0.2, weighted=True)
    dw = all_pairs(gw).dists
    finite = np.isfinite(dw)
    assert np.array_equal(finite, finite.T)
    # weighted rows accumulate sums in per-source order: symmetric up to fp error
    assert np.allclose(dw[finite], dw.T[finite], rtol=0.0, atol=1e-12)
    assert np.all(np.diag(dw) == 0.0)


def test_distance_matrix_csv_uses_inf():
    g = Graph.from_edges(3, [(0, 1)])
    buf = io.StringIO()
    geodesics(g, [0]).to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "0.0,1.0,inf"


def test_lcc_drops_isolated_node():
    g = Graph.from_edges(3, [(0, 1)])
    sub, old_to_new = largest_connected_component(g)
    assert sub.num_nodes == 2
    assert sub.edge_array.tolist() == [[0, 1]]
    assert old_to_new.tolist() == [0, 1, -1]


def test_lcc_identity_on_connected_graph():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    sub, old_to_new = largest_connected_component(g)
    assert np.array_equal(sub.edge_array, g.edge_array)
    assert old_to_new.tolist() == list(range(6))


def test_lcc_tie_goes_to_component_with_smallest_index():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sub, old_to_new = largest_connected_component(g)
    assert sub.num_nodes == 2
    assert old_to_new.tolist() == [0, 1, -1, -1]


def test_lcc_slices_node_features():
    feats = np.arange(8, dtype=float).reshape(4, 2)
    g = Graph.from_edges(4, [(1, 2), (1, 3)], node_features=feats)
    sub, _ = largest_connected_component(g)
    assert np.array_equal(sub.node_features, feats[[1, 2, 3]])


def test_lcc_matches_from_edges_construction():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        feats = rng.normal(size=(n, 3))
        g = random_graph(rng, n, p=0.06, weighted=True)
        g = Graph(g.num_nodes, g.edge_array, g.weights, feats)
        sub, old_to_new = largest_connected_component(g)
        best = [v for v in range(n) if old_to_new[v] >= 0]
        want = Graph.from_edges(
            len(best), [(old_to_new[u], old_to_new[v], w)
                        for (u, v), w in zip(g.edge_array, g.weights)
                        if old_to_new[u] >= 0], node_features=feats[best])
        assert sub.num_nodes == want.num_nodes
        assert sub.edge_array.dtype == want.edge_array.dtype
        assert np.array_equal(sub.edge_array, want.edge_array)
        assert np.array_equal(sub.weights, want.weights)
        assert np.array_equal(sub.node_features, want.node_features)


def test_adjacency_l1_identity_and_single_flip():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert adjacency_l1_distance(g, g) == 0.0
    g2 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert adjacency_l1_distance(g, g2) == 1.0
    assert adjacency_l1_distance(g2, g) == 1.0


def test_adjacency_l1_additive_over_disjoint_flips():
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    # remove 3 edges, add 2 on disjoint pairs
    g2 = Graph.from_edges(8, [(3, 4), (4, 5), (5, 6), (6, 7)])
    assert adjacency_l1_distance(g, g2) == 5.0


def test_adjacency_l1_weighted_variant():
    g1 = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)])
    g2 = Graph.from_edges(3, [(0, 1, 0.5)])
    assert adjacency_l1_distance(g1, g2, weighted=True) == pytest.approx(2.5)


def test_adjacency_l1_matches_edge_dict_oracle():
    def oracle(g1, g2, weighted):
        m1, m2 = edge_dict(g1), edge_dict(g2)
        if not weighted:
            return float(len(set(m1) ^ set(m2)))
        return sum(abs(m1.get(k, 0.0) - m2.get(k, 0.0)) for k in set(m1) | set(m2))

    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        weighted = bool(rng.integers(0, 2))
        g1 = random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)), weighted=weighted)
        g2 = random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)), weighted=weighted)
        assert adjacency_l1_distance(g1, g2) == oracle(g1, g2, False)
        assert adjacency_l1_distance(g1, g2, weighted=True) == pytest.approx(
            oracle(g1, g2, True), rel=1e-12, abs=0.0)


def test_adjacency_l1_size_mismatch():
    with pytest.raises(ValueError):
        adjacency_l1_distance(Graph.from_edges(2, [(0, 1)]),
                              Graph.from_edges(3, [(0, 1)]))


def test_knn_identical_vectors_floored_weight():
    g = build_knn_graph(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), k=1)
    weights = edge_dict(g)
    assert weights[(0, 1)] == 1e-9
    # node 2 is equidistant from 0 and 1; tie goes to the lower index
    assert (0, 2) in weights and weights[(0, 2)] == pytest.approx(1.0)
    assert (1, 2) not in weights


def test_knn_orthogonal_vectors():
    g = build_knn_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), k=1)
    assert edge_dict(g) == {(0, 1): pytest.approx(1.0)}


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    g = build_knn_graph(x, k=2)
    cos = 1.0 - x @ x.T
    expected = set()
    for u in range(5):
        order = sorted((cos[u, v], v) for v in range(5) if v != u)
        for _, v in order[:2]:
            expected.add((min(u, v), max(u, v)))
    assert set(edge_dict(g)) == expected
    assert g.degrees.min() >= 2


def test_knn_min_degree_property():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n - 1))
        x = rng.normal(size=(n, 4))
        g = build_knn_graph(x, k=k)
        assert g.degrees.min() >= k


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_knn_rows_beyond_float_square_range(size):
    # the row's squared norm over- or underflows float64 unless it is rescaled
    x = np.array([[size, size], [1.0, 0.0], [0.0, 1.0]])
    g = build_knn_graph(x, k=1)
    assert edge_dict(g) == {(0, 1): pytest.approx(1.0 - 1.0 / np.sqrt(2.0)),
                            (0, 2): pytest.approx(1.0 - 1.0 / np.sqrt(2.0))}
    assert np.array_equal(g.node_features, x)


def test_knn_rejects_zero_row_and_bad_k():
    with pytest.raises(ValidationError):
        build_knn_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), k=1)
    with pytest.raises(ValueError):
        build_knn_graph(np.eye(3), k=3)
    with pytest.raises(ValidationError, match="features must be an N x F matrix"):
        build_knn_graph(np.ones(3), k=1)


def test_graph_invariants_enforced():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 1, float("inf"))])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 5)])
    # a tuple of any other length is named, not unpacked, and so is an id or
    # weight of the wrong type, in load_edge_list's words, before any edge rule
    for edges, message in (
            ([(0, 1), (0, 1, 1.0, 5)], "edge (0, 1, 1.0, 5) is not (u, v) or (u, v, w)"),
            ([(0,)], "edge (0,) is not (u, v) or (u, v, w)"),
            ([5], "edge 5 is not (u, v) or (u, v, w)"),
            ([(0, 1.5)], "edge (0, 1.5): node ids must be integers"),
            ([(0, True)], "edge (0, True): node ids must be integers"),
            ([(0, "a")], "edge (0, 'a'): node ids must be integers"),
            ([(0, 2 ** 70)], f"edge (0, {2 ** 70}): node ids must fit in 64 bits"),
            ([(0, 1, "2")], "edge (0, 1, '2'): weight must be a real number"),
            ([(0, 1, False)], "edge (0, 1, False): weight must be a real number"),
            ([(0, 0), (0, 1.5)], "edge (0, 1.5): node ids must be integers"),
            ([(0, 1.5), (0, 1, 1.0, 5)], "edge (0, 1.5): node ids must be integers")):
        with pytest.raises(ValidationError) as info:
            Graph.from_edges(3, edges)
        assert str(info.value) == message
    # numpy integers and floats are integers and real numbers
    g = Graph.from_edges(3, [(np.int32(0), np.int64(2), np.float32(0.5))])
    assert g.edge_array.tolist() == [[0, 2]] and g.weights.tolist() == [0.5]


def test_knn_rejects_non_finite_features():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 1.0], [1.0, np.inf]])
    with pytest.raises(ValidationError, match=r"non-finite features in row 2"):
        build_knn_graph(x, k=1)


def test_from_edges_ids_beyond_squared_key_range():
    n = 2 ** 40
    g = Graph.from_edges(n, [(n - 1, 0), (1, 5)])
    assert g.edge_array.tolist() == [[0, n - 1], [1, 5]]
    with pytest.raises(ValidationError, match=rf"^duplicate edge \(0, {n - 1}\)$"):
        Graph.from_edges(n, [(0, n - 1), (1, 5), (n - 1, 0)])


def _outcome(build, *args, **kwargs):
    """The exception's type and message, or the built graph's arrays as bytes."""
    try:
        g = build(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    arrays = (g.edge_array, g.weights) + (() if g.node_features is None
                                          else (g.node_features,))
    return g.num_nodes, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _fuzz_edge(rng, n, edges):
    """A mostly valid 2- or 3-tuple; sometimes a self-loop, an id out of
    range, a bad weight, or an earlier pair in either orientation."""
    u = int(rng.integers(0, max(n, 1)))
    v = (u + 1 + int(rng.integers(0, max(n - 1, 1)))) % max(n, 2)
    kind = rng.integers(0, 40)
    if kind == 0:
        v = u
    elif kind == 1:
        u = int(rng.choice([-1, -3, n, n + 2]))
    elif kind in (2, 3) and edges:
        u, v = edges[rng.integers(len(edges))][:2]
        if kind == 3:
            u, v = v, u
    if kind == 4:
        return (u, v, float(rng.choice([0.0, -1.5, np.inf, -np.inf, np.nan])))
    if rng.random() < 0.5:
        return (u, v)
    return (u, v, float(rng.choice([1.0, 0.25, 2.5, 1e-9])))


def _edge_list_outcome(edges, lines):
    """The dict oracle's outcome for an edge-list file whose edges sit on
    ``lines``: 1 + the largest id nodes (at least 1), and an error prefixed
    with the line of the edge at which the oracle's loop stops."""
    n = max(max((max(e[:2]) for e in edges), default=0) + 1, 1)
    want = _outcome(oracle_from_edges, n, edges)
    if not isinstance(want[1], str):
        return want
    stop = next(i for i in range(len(edges))
                if isinstance(_outcome(oracle_from_edges, n, edges[:i + 1])[1], str))
    return want[0], f"line {lines[stop]}: {want[1]}"


def test_graph_builders_match_dict_oracles():
    rng = np.random.default_rng(66)
    gaps = np.random.default_rng(67)      # comment and blank lines between edges
    for _ in range(800):
        n = int(rng.integers(0, 13))
        edges = []
        for _ in range(int(rng.integers(0, 14))):
            edges.append(_fuzz_edge(rng, n, edges))
        feats = (None, rng.normal(size=(max(n, 1), 2)), np.zeros((n + 1, 2)))[rng.integers(0, 3)]
        assert _outcome(Graph.from_edges, n, edges, feats) == \
            _outcome(oracle_from_edges, n, edges, feats)
        # every fuzzed list as an edge-list file
        text, lines = "", []
        for e in edges:
            text += str(gaps.choice(["", "", "# 0 0\n", "\n", "\n# c\n"]))
            text += " ".join(map(repr, e)) + "\n"
            lines.append(text.count("\n"))
        assert _outcome(load_edge_list, io.StringIO(text)) == _edge_list_outcome(edges, lines)

    for _ in range(300):
        n = int(rng.integers(1, 30))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)),
                         weighted=bool(rng.integers(0, 2)))
        if rng.integers(0, 2):
            g = Graph(n, g.edge_array, g.weights, rng.normal(size=(n, 3)))
        mode = (RANDOM, LANDMARK_TARGETED)[rng.integers(0, 2)]
        marks = np.unique(rng.integers(0, n, size=int(rng.integers(1, 4))))
        spec = PerturbSpec(budget=int(rng.integers(0, 2 * n)), mode=mode,
                           seed=int(rng.integers(0, 100)))
        assert _outcome(perturb, g, spec, marks) == _outcome(oracle_perturb, g, spec, marks)

    for _ in range(150):
        n = int(rng.integers(2, 20))
        x = rng.integers(-2, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
        x[rng.integers(0, n, size=n // 3)] = x[0]            # repeated rows tie
        x[~x.any(axis=1), 0] = 1.0
        k = int(rng.integers(1, n))
        assert _outcome(build_knn_graph, x, k) == _outcome(oracle_build_knn_graph, x, k)
        # rows of any ordinary magnitude keep the unscaled weights bit for bit
        y = rng.normal(size=x.shape) * 10.0 ** rng.uniform(-100, 100, size=(n, 1))
        assert _outcome(build_knn_graph, y, k) == _outcome(oracle_build_knn_graph, y, k)


def test_csr_matches_lexsorted_reference():
    # both edge directions lexsorted by (head, tail); each row's slice of
    # indptr counted from the sorted heads
    rng = np.random.default_rng(33)
    graphs = [Graph.from_edges(1), Graph.from_edges(5),
              Graph.from_edges(7, [(0, 3), (3, 6, 2.5), (1, 6)])]
    graphs += [random_graph(rng, int(rng.integers(2, 40)), p=float(rng.uniform(0.0, 0.4)),
                            weighted=bool(k % 2)) for k in range(40)]
    for g in graphs:
        u, v = g.edge_array.T
        heads, tails = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.lexsort((tails, heads))
        csr = g._csr
        assert csr.shape == (g.num_nodes, g.num_nodes)
        assert np.array_equal(csr.indptr, np.searchsorted(heads[order], np.arange(g.num_nodes + 1)))
        assert np.array_equal(csr.indices, tails[order])
        assert np.array_equal(csr.data, np.concatenate([g.weights, g.weights])[order])
