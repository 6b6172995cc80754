"""Numeric kernels (shortest paths, components, witness edge scales, H0 merges)
checked against independent oracles: networkx and plain-python loops."""

import networkx as nx
import numpy as np

from conftest import (diagram_of, oracle_witness_edge_scales, random_connected_graph,
                      random_graph)
from wtopo import UNION_FIND, Filtration, Graph, compute_persistence
from wtopo.complexes import _witness_edge_scales, relaxation_terms
from wtopo.graph import connected_components, diameter, geodesics


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


def test_dijkstra_agrees_with_bfs_on_unit_weights():
    rng = np.random.default_rng(93)
    g = random_connected_graph(rng, 25, extra=10)
    bfs = geodesics(g, range(25), method="bfs").dists
    dij = geodesics(g, range(25), method="dijkstra").dists
    assert np.array_equal(bfs, dij)


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

    def counting(g, sources, method="auto"):
        rows.extend(sources)
        return geodesics(g, sources, method)

    monkeypatch.setattr("wtopo.graph.geodesics", counting)
    got = diameter(g)
    assert len(rows) < g.num_nodes // 2
    assert got == geodesics(g, range(g.num_nodes)).diameter


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
    # half the trials give every vertex birth 0 (the spanning forest, with
    # zero-scale edges), half give some a later birth (the reduction); edge
    # scales tie often
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
