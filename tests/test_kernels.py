"""Numeric kernels (shortest paths, components, witness edge scales, H0 merges)
checked against independent oracles: networkx, csgraph's heap BFS and plain-python
loops."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from conftest import (diagram_of, oracle_witness_edge_scales, random_connected_graph,
                      random_graph)
from wtopo import (UNION_FIND, Filtration, Graph, build_cover, compute_persistence,
                   select_landmarks)
from wtopo.complexes import (_level_products, _pair_loop, _witness_edge_scales,
                             relaxation_terms)
from wtopo.graph import (_DIAMETER_BATCH, connected_components, diameter, geodesics,
                         nearest_sources)


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_weighted_edges_from((int(u), int(v), float(w))
                              for (u, v), w in zip(g.edge_array, g.weights))
    return G


def oracle_rows(g, weighted):
    G = to_networkx(g)
    out = np.full((g.num_nodes, g.num_nodes), np.inf)
    for s in range(g.num_nodes):
        lengths = (nx.single_source_dijkstra_path_length(G, s) if weighted
                   else nx.shortest_path_length(G, s))
        for t, d in lengths.items():
            out[s, t] = d
    return out


def test_unit_geodesics_match_networkx():
    rng = np.random.default_rng(91)
    for _ in range(15):
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n, p=0.15)
        assert np.array_equal(geodesics(g, range(n)).dists, oracle_rows(g, False))


def test_weighted_geodesics_match_networkx():
    rng = np.random.default_rng(92)
    for _ in range(15):
        n = int(rng.integers(1, 30))
        g = random_graph(rng, n, p=0.2, weighted=True)
        got = geodesics(g, range(n)).dists
        want = oracle_rows(g, True)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_geodesics_subset_of_sources_in_given_order():
    rng = np.random.default_rng(96)
    g = random_graph(rng, 30, p=0.1, weighted=True)
    sources = [7, 3, 29, 3]
    assert np.array_equal(geodesics(g, sources).dists,
                          geodesics(g, range(30)).dists[sources])


def csgraph_unit_rows(g, sources):
    """csgraph's heap BFS on a CSR matrix built here from the edge list."""
    u, v = g.edge_array.T
    adj = csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])),
                     shape=(g.num_nodes, g.num_nodes))
    return csgraph.dijkstra(adj, directed=True, indices=sources, unweighted=True)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(rows, cols):
    ids = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.vstack([np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
                       np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])])
    return Graph.from_edges(rows * cols, pairs.tolist())


@st.composite
def unit_graph_and_sources(draw):
    n = draw(st.integers(1, 80))
    chain = draw(st.integers(0, n - 1))         # a path 0-1-...-chain gives deep rows
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))      # few edges: components, isolated nodes
    edges = {(i, i + 1) for i in range(chain)} | {(min(p), max(p)) for p in pairs
                                                   if p[0] != p[1]}
    k = draw(st.sampled_from([1, 63, 64, 65, 129]))
    sources = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return Graph.from_edges(n, sorted(edges)), sources


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unit_graph_and_sources())
@example((Graph.from_edges(1, []), [0] * 65))
@example((Graph.from_edges(4, [(0, 1), (1, 2)]), [3, 0, 3] * 43))
def test_unit_rows_equal_csgraph(case):
    g, sources = case
    got = geodesics(g, sources).dists
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, csgraph_unit_rows(g, sources))


def oracle_nearest(g, sources):
    # a plain loop over the geodesic rows: each node's first source at the
    # smallest distance; inf and len(sources) where none reaches it
    rows = geodesics(g, sources).dists
    dist, rank = np.full(g.num_nodes, np.inf), np.full(g.num_nodes, len(sources))
    for v in range(g.num_nodes):
        for r in range(len(sources)):
            if rows[r, v] < dist[v]:
                dist[v], rank[v] = rows[r, v], r
    return dist, rank


def reweighted(g, data):
    """``g`` with unit, integer or decimal weights drawn per edge; the decimals
    make rounded float ties."""
    choices = data.draw(st.sampled_from([(1.0,), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7, 1.0)]))
    weights = data.draw(st.lists(st.sampled_from(choices), min_size=g.num_edges,
                                 max_size=g.num_edges))
    return Graph.from_edges(g.num_nodes, [(u, v, w) for (u, v), w
                                          in zip(g.edge_array.tolist(), weights)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(unit_graph_and_sources(), st.data())
def test_nearest_sources_match_the_rows_oracle(case, data):
    # repeated sources, several components, isolated and unreached nodes;
    # unit, integer and decimal weights
    g, sources = case
    g = reweighted(g, data)
    dist, rank = nearest_sources(g, sources)
    want_dist, want_rank = oracle_nearest(g, sources)
    assert dist.dtype == np.float64 and np.array_equal(dist, want_dist)
    assert np.array_equal(rank, want_rank)


def test_nearest_sources_on_a_deep_path_with_an_unreached_component():
    # a 10k path, its ties between two sources at equal distance, and a
    # second path that no source reaches
    n = 10_000
    g = Graph.from_edges(n + 5, [*((i, i + 1) for i in range(n - 1)),
                                 *((i, i + 1) for i in range(n, n + 4))])
    rng = np.random.default_rng(97)
    sources = [9_999, 20, 10, *rng.integers(0, n, size=20).tolist(), 10]
    dist, rank = nearest_sources(g, sources)
    want_dist, want_rank = oracle_nearest(g, sources)
    assert np.array_equal(dist, want_dist) and np.array_equal(rank, want_rank)
    assert rank[15] == 1 and np.isinf(dist[n:]).all() and (rank[n:] == len(sources)).all()
    assert dist.max(initial=0, where=np.isfinite(dist)) > 255


@pytest.mark.parametrize("n", [300, 2000])
def test_unit_rows_past_255_equal_csgraph(n):
    g = path_graph(n)
    sources = [0, n - 1, n // 2, 0, *range(1, n, n // 70)]
    assert np.array_equal(geodesics(g, sources).dists, csgraph_unit_rows(g, sources))


def count_unit_csgraph_calls(monkeypatch):
    calls = []
    dijkstra = csgraph.dijkstra

    def counting(*args, **kwargs):
        if kwargs.get("unweighted"):
            calls.append(len(kwargs["indices"]))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counting)
    return calls


def test_work_bound_hands_deep_rows_to_csgraph(monkeypatch):
    g = path_graph(2000)
    want = csgraph_unit_rows(g, range(64))
    calls = count_unit_csgraph_calls(monkeypatch)
    assert np.array_equal(geodesics(g, range(64)).dists, want)
    assert calls == [64]


def test_work_bound_keeps_shallow_rows_bit_parallel(monkeypatch):
    g = random_connected_graph(np.random.default_rng(39), 1500, extra=1500)
    calls = count_unit_csgraph_calls(monkeypatch)
    build_cover(g, select_landmarks(g, 0.05))
    diameter(g)
    assert calls == []


def oracle_diameter(g, weighted):
    G = to_networkx(g)
    if weighted:
        return max(d for _, lengths in nx.all_pairs_dijkstra_path_length(G)
                   for d in lengths.values())
    return max(nx.diameter(G.subgraph(c)) for c in nx.connected_components(G))


def test_diameter_matches_networkx():
    rng = np.random.default_rng(37)
    for weighted in (False, True):
        graphs = [random_connected_graph(rng, int(rng.integers(1, 40)), extra=10,
                                         weighted=weighted) for _ in range(8)]
        graphs.append(random_graph(rng, 316, p=0.006, weighted=weighted))
        assert len(connected_components(graphs[-1])) > 1
        # the only long path lies among the highest node ids
        graphs.append(Graph.from_edges(316, [
            (v, v + 1, float(rng.uniform(0.5, 2.0)) if weighted else 1.0)
            for v in range(256, 315)]))
        for g in graphs:
            np.testing.assert_allclose(diameter(g), oracle_diameter(g, weighted),
                                       rtol=1e-12, atol=0)


def test_diameter_equals_all_pairs_maximum():
    rng = np.random.default_rng(38)
    for weighted in (False, True):
        def w():
            return float(rng.uniform(0.5, 2.0)) if weighted else 1.0

        graphs = [Graph.from_edges(1), Graph.from_edges(7),
                  Graph.from_edges(30, [(v, v + 1, w()) for v in range(29)]),
                  Graph.from_edges(30, [(0, v, w()) for v in range(1, 30)]),
                  Graph.from_edges(12, [(u, v, w()) for u in range(12)
                                        for v in range(u + 1, 12)])]
        for _ in range(25):
            n = int(rng.integers(1, 120))
            graphs.append(random_connected_graph(rng, n, extra=int(rng.integers(0, n + 1)),
                                                 weighted=weighted))
            graphs.append(random_graph(rng, n, p=float(rng.uniform(0.0, 4.0 / n)),
                                       weighted=weighted))
        for g in graphs:
            assert diameter(g) == geodesics(g, range(g.num_nodes)).diameter


def test_diameter_computes_few_source_rows(monkeypatch):
    g = random_connected_graph(np.random.default_rng(39), 1500, extra=1500)
    rows = []

    def counting(g, sources):
        rows.extend(sources)
        return geodesics(g, sources)

    monkeypatch.setattr("wtopo.graph.geodesics", counting)
    got = diameter(g)
    assert len(rows) < g.num_nodes // 2
    assert got == geodesics(g, range(g.num_nodes)).diameter


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unit_graph_and_sources(), st.data())
def test_diameter_is_the_all_pairs_maximum_bit_for_bit(case, data):
    # n <= 80, several components and isolated nodes, deep chains; the
    # decimal weights round, so the weighted rule that keeps every node whose
    # row could round to the maximum is exercised
    g = reweighted(case[0], data)
    assert diameter(g) == geodesics(g, range(g.num_nodes)).diameter


@pytest.mark.parametrize("seed", [3, 6, 7])
def test_diameter_of_a_benchmark_sized_graph_needs_no_csgraph_rows(monkeypatch, seed):
    # on these graphs the eight lowest ids, the first batch, reach
    # eccentricity 10 or more; on seeds 6 and 7 the last batch also has
    # fewer than 64 candidates
    g = random_connected_graph(np.random.default_rng(seed), 1500, extra=1500)
    first = csgraph_unit_rows(g, range(8))
    assert first.max() >= 10
    calls = count_unit_csgraph_calls(monkeypatch)
    got = diameter(g)
    assert calls == []
    assert got == geodesics(g, range(g.num_nodes)).diameter


def diameter_batches(monkeypatch, g):
    batches = []

    def counting(g, sources):
        batches.append(len(sources))
        return geodesics(g, sources)

    monkeypatch.setattr("wtopo.graph.geodesics", counting)
    return diameter(g), batches


@pytest.mark.parametrize("g, want, most_rows", [(path_graph(2000), 1999.0, 16),
                                               (grid_graph(20, 100), 118.0, 48)])
def test_diameter_of_deep_graphs_keeps_small_batches(monkeypatch, g, want, most_rows):
    got, batches = diameter_batches(monkeypatch, g)
    assert got == want
    assert sum(batches) <= most_rows


def test_weighted_diameter_keeps_batches_of_eight(monkeypatch):
    g = random_connected_graph(np.random.default_rng(40), 500, extra=500, weighted=True)
    got, batches = diameter_batches(monkeypatch, g)
    assert got == geodesics(g, range(g.num_nodes)).diameter
    assert max(batches) == _DIAMETER_BATCH


def test_connected_components_match_networkx():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        g = random_graph(rng, n, p=float(rng.uniform(0.0, 0.1)))
        want = sorted((sorted(c) for c in nx.connected_components(to_networkx(g))),
                      key=lambda c: c[0])
        assert connected_components(g) == want


def test_witness_edge_scales_match_oracle():
    rng = np.random.default_rng(94)
    for _ in range(15):
        n_wit = int(rng.integers(1, 30))
        n_land = int(rng.integers(1, 10))
        wd = rng.uniform(0.0, 5.0, size=(n_wit, n_land))
        wd[rng.random(size=wd.shape) < 0.15] = np.inf
        for nu in (0, 1, min(2, n_land)):
            got = _witness_edge_scales(wd, relaxation_terms(wd, nu))
            want = oracle_witness_edge_scales(wd, nu)
            np.fill_diagonal(want, np.inf)
            assert np.array_equal(got, want)


def edge_scale_branches(wd, nu):
    """Both branches of ``_witness_edge_scales`` on A = max(wd - m_nu, 0) over
    the active witnesses, symmetrised: (level products, pair loop)."""
    m = relaxation_terms(wd, nu)
    active = m != np.inf
    a = np.maximum(wd[active] - m[active, None], 0.0)
    levels = np.unique(a[np.isfinite(a)])
    return tuple(np.minimum(u, u.T) for u in (_level_products(a, levels), _pair_loop(a)))


def assert_edge_scales_match_oracle(wd):
    # from nu = 3 on, a witness short of nu finite landmarks can still see a pair
    for nu in range(min(3, wd.shape[1]) + 1):
        want = oracle_witness_edge_scales(wd, nu)
        np.fill_diagonal(want, np.inf)
        products, loop = edge_scale_branches(wd, nu)
        assert np.array_equal(products, want)
        assert np.array_equal(loop, want)
        assert np.array_equal(_witness_edge_scales(wd, relaxation_terms(wd, nu)), want)


@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("n_wit, n_land", [(1, 1), (1, 7), (9, 1), (20, 16), (40, 9)])
def test_edge_scale_branches_match_oracle(integer, n_wit, n_land):
    # integer rows have few levels (the level products' case), float rows
    # about W * L (the loop's); both get inf entries, an all-inf witness row
    # and tied values, and both branches run on each
    rng = np.random.default_rng(7 * n_wit + n_land + integer)
    for _ in range(4):
        if integer:
            wd = rng.integers(0, 4, size=(n_wit, n_land)).astype(np.float64)
        else:
            wd = rng.uniform(0.0, 5.0, size=(n_wit, n_land))
            wd[:, n_land // 2] = wd[:, 0]                     # tied columns
        wd[rng.random(size=wd.shape) < 0.15] = np.inf
        wd[rng.integers(0, n_wit)] = np.inf
        assert_edge_scales_match_oracle(wd)


def test_edge_scale_branches_agree_on_a_unit_graph():
    rng = np.random.default_rng(98)
    g = random_connected_graph(rng, 1500, extra=1500)
    wd = geodesics(g, select_landmarks(g, 0.05).landmarks).dists.T
    for nu in (0, 1, 2):
        products, loop = edge_scale_branches(wd, nu)
        assert np.array_equal(products, loop)
        assert np.array_equal(_witness_edge_scales(wd, relaxation_terms(wd, nu)), loop)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n_land: st.lists(
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]), min_size=n_land, max_size=n_land),
    min_size=1, max_size=6)))
def test_edge_scale_branches_match_oracle_on_small_integer_rows(rows):
    assert_edge_scales_match_oracle(np.array(rows))


def oracle_h0_merge(vert_scales, vert_rank, edge_u, edge_v, edge_scales):
    """Elder-rule merges tracked on explicit member sets; a component's age is
    the smallest (scale, rank) among its members."""
    comp = {v: frozenset([v]) for v in range(len(vert_scales))}

    def age(members):
        return min((vert_scales[v], vert_rank[v]) for v in members)

    births, deaths = [], []
    for u, v, scale in zip(edge_u, edge_v, edge_scales):
        a, b = comp[u], comp[v]
        if a == b:
            continue
        births.append(max(age(a), age(b))[0])
        deaths.append(scale)
        for w in a | b:
            comp[w] = a | b
    oldest = {min(m, key=lambda v: (vert_scales[v], vert_rank[v]))
              for m in comp.values()}
    return births, deaths, sorted(oldest)


def test_h0_merge_matches_union_find_oracle():
    # half the trials give every vertex birth 0 (with zero-scale edges), half
    # give some a later birth; edge scales tie often
    rng = np.random.default_rng(95)
    for trial in range(60):
        nv = int(rng.integers(1, 25))
        births = [0.0, 0.5, 1.0] if trial % 2 else [0.0]
        vert_scales = rng.choice(births, size=nv).tolist()
        pairs = sorted({(int(min(u, v)), int(max(u, v)))
                        for u, v in rng.integers(0, nv, size=(2 * nv, 2)) if u != v})
        simplices = [((v,), s) for v, s in enumerate(vert_scales)]
        simplices += [(p, float(rng.choice([births[-1], 1.5, 2.0, 2.5]))) for p in pairs]
        f = Filtration.from_simplices(simplices, max_dim=1)
        # the oracle walks vertices and edges in filtration order
        vert_rank = np.argsort(np.lexsort((np.arange(nv), vert_scales))).tolist()
        (edge_u, edge_v), edge_scales = f.vertices[1].T.tolist(), f.scales[1].tolist()
        b, d, roots = oracle_h0_merge(vert_scales, vert_rank, edge_u, edge_v, edge_scales)
        want = diagram_of(np.column_stack([b, d]), [vert_scales[r] for r in roots])
        assert compute_persistence(f, UNION_FIND) == want
