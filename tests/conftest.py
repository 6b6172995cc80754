"""Shared seeded generators and brute-force oracles for the test suite."""

from itertools import combinations, permutations

import numpy as np

from wtopo import Graph, ValidationError
from wtopo.persistence import PersistenceDiagram


def random_graph(rng, n, p=0.25, weighted=False):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
                edges.append((u, v, w))
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n, extra=0, weighted=False):
    """Random spanning tree plus ``extra`` distinct edges."""
    perm = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(0, i)])
        pairs.add((min(u, v), max(u, v)))
    target = min(n * (n - 1) // 2, n - 1 + extra)
    while len(pairs) < target:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(a, b, float(rng.uniform(0.5, 2.0)) if weighted else 1.0)
             for a, b in sorted(pairs)]
    return Graph.from_edges(n, edges)


def random_filtration(rng, n_max=30, max_dim=1):
    """Seeded VR or witness filtration over a random graph's landmarks."""
    from wtopo import geodesics, select_landmarks, vr_filtration, witness_filtration

    n = int(rng.integers(2, n_max + 1))
    g = random_graph(rng, n, p=0.25, weighted=bool(rng.integers(0, 2)))
    ls = select_landmarks(g, float(rng.uniform(0.3, 1.0)))
    rows = geodesics(g, ls.landmarks).dists
    land = rows[:, list(ls.landmarks)]
    if rng.integers(0, 2):
        return vr_filtration(land, max_dim, float(rng.uniform(1.0, 5.0)))
    return witness_filtration(land, rows.T, max_dim, float(rng.uniform(1.0, 5.0)),
                              nu=int(rng.integers(0, 2)))


def random_diagram(rng, max_points=8, birth_hi=0.8, pers_hi=1.0, dim=0):
    """Finite-point diagram with births in [0, birth_hi] and persistence in
    (0, pers_hi]."""
    m = int(rng.integers(0, max_points + 1))
    births = rng.uniform(0.0, birth_hi, size=m)
    pers = rng.uniform(0.05, pers_hi, size=m)
    pts = np.column_stack([births, births + pers]) if m else np.empty((0, 2))
    return PersistenceDiagram._build({dim: pts}, {})


def edge_dict(g):
    """{(u, v): w} for every edge of ``g``, u < v."""
    return {(int(u), int(v)): float(w) for (u, v), w in zip(g.edge_array, g.weights)}


def diagram_of(points, essential=(), dim=0):
    return PersistenceDiagram._build(
        {dim: np.asarray(points, dtype=np.float64).reshape(-1, 2)},
        {dim: np.asarray(essential, dtype=np.float64)})


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_from_edges(num_nodes, edges=(), node_features=None):
    """Graph.from_edges as a per-edge loop over a dict of edges."""
    if num_nodes < 1:
        raise ValidationError("graph needs at least one node")
    pairs = {}
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        else:
            u, v, w = e
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise ValidationError(f"self-loop at node {u}")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < num_nodes):
            raise ValidationError(f"edge ({u}, {v}) outside [0, {num_nodes})")
        if not (w > 0.0 and np.isfinite(w)):
            raise ValidationError(f"edge ({u}, {v}) has non-positive weight {w}")
        if (u, v) in pairs:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        pairs[(u, v)] = w
    keys = sorted(pairs)
    edge_array = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
    weights = np.array([pairs[k] for k in keys], dtype=np.float64)
    if node_features is not None:
        node_features = np.asarray(node_features, dtype=np.float64)
        if node_features.ndim != 2 or node_features.shape[0] != num_nodes:
            raise ValidationError("node_features must be an N x F matrix")
    return Graph(num_nodes, edge_array, weights, node_features)


def oracle_perturb(g, spec, landmarks=None):
    """robustness.perturb with the flips applied to a dict of edges."""
    from wtopo.robustness import (RANDOM, _decode_pairs, _decode_targeted_pairs,
                                  _targeted_offsets)

    n = g.num_nodes
    rng = np.random.default_rng(spec.seed)
    if spec.mode == RANDOM:
        capacity = n * (n - 1) // 2
        if spec.budget > capacity:
            raise ValueError(f"budget {spec.budget} exceeds {capacity} candidate pairs")
        chosen = _decode_pairs(np.sort(rng.choice(capacity, size=spec.budget,
                                                  replace=False)), n) \
            if spec.budget else np.empty((0, 2), dtype=np.int64)
    else:
        if landmarks is None:
            raise ValueError("landmark-targeted mode needs the landmark set")
        marks = np.unique(np.asarray(landmarks, dtype=np.int64))
        starts, total = _targeted_offsets(marks, n)
        if spec.budget > total:
            raise ValueError(f"budget {spec.budget} exceeds {total} candidate pairs")
        pick = rng.choice(total, size=spec.budget, replace=False)
        chosen = _decode_targeted_pairs(np.sort(pick), starts, marks)
    pairs = edge_dict(g)
    for u, v in chosen:
        key = (int(u), int(v))
        if key in pairs:
            del pairs[key]
        else:
            pairs[key] = 1.0
    return oracle_from_edges(n, [(u, v, w) for (u, v), w in pairs.items()],
                             node_features=g.node_features)


def oracle_build_knn_graph(features, k, zero_floor=1e-9):
    """graph.build_knn_graph with one lexsort per row and a dict of pairs."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    norms = np.linalg.norm(x, axis=1)
    cosine = 1.0 - (x @ x.T) / np.outer(norms, norms)
    pairs = {}
    ids = np.arange(n)
    for u in range(n):
        row = cosine[u].copy()
        row[u] = np.inf                      # never its own neighbour
        order = np.lexsort((ids, row))       # distance asc, then index asc
        for v in order[:k]:
            v = int(v)
            key = (min(u, v), max(u, v))
            if key not in pairs:
                d = float(cosine[u, v])
                pairs[key] = d if d > 0.0 else zero_floor
    return oracle_from_edges(n, [(u, v, w) for (u, v), w in pairs.items()],
                             node_features=x)


def oracle_local_cell_diagrams(g, cover, max_dim, nu, dimension, max_scale):
    """encodings.local_cell_diagrams as one induced subgraph and one geodesics
    call per cell, the subgraph cut by filtering the whole edge list. Dimension
    0 goes through the reduction, so no code is shared with the spanning forest."""
    from wtopo import compute_persistence, geodesics, witness_filtration
    from wtopo.persistence import REDUCTION

    diagrams = {}
    for l, members in cover.cells.items():
        index = {v: i for i, v in enumerate(members)}
        sub = Graph.from_edges(len(members), [
            (index[u], index[v], w) for (u, v), w in edge_dict(g).items()
            if u in index and v in index])
        rows = geodesics(sub, [index[v] for v in cover.local_landmarks[l]])
        filt = witness_filtration(rows.between_sources, rows.dists.T, max_dim,
                                  max_scale, nu=nu)
        diagrams[l] = compute_persistence(filt, REDUCTION,
                                          homology_dims=(0,) if dimension == 0 else None)
    return diagrams


def oracle_witness_edge_scales(witness_dists, nu):
    """Plain-python lazy-witness edge scales (independent of the kernels)."""
    wd = np.asarray(witness_dists, dtype=float)
    n_wit, n_land = wd.shape
    out = np.full((n_land, n_land), np.inf)
    for i in range(n_land):
        for j in range(i + 1, n_land):
            best = np.inf
            for w in range(n_wit):
                finite = sorted(x for x in wd[w] if np.isfinite(x))
                if nu == 0:
                    relax = 0.0
                elif nu <= len(finite):
                    relax = finite[nu - 1]
                else:
                    continue
                m = max(wd[w, i], wd[w, j])
                if not np.isfinite(m):
                    continue
                best = min(best, max(0.0, m - relax))
            out[i, j] = out[j, i] = best
    return out


def oracle_assemble(n, edge_scales, max_dim, max_scale):
    """(vertices, scale) pairs of the filtration over ``edge_scales`` (inf:
    edge never present), from explicit loops over pairs and triples, sorted
    by (scale, dimension, vertices)."""
    simplices = [((i,), 0.0) for i in range(n)]
    present = np.isfinite(edge_scales) & (edge_scales <= max_scale)
    if max_dim >= 1:
        for i, j in combinations(range(n), 2):
            if present[i, j]:
                simplices.append(((i, j), float(edge_scales[i, j])))
    if max_dim >= 2:
        for i, j, k in combinations(range(n), 3):
            if present[i, j] and present[i, k] and present[j, k]:
                scale = max(edge_scales[i, j], edge_scales[i, k], edge_scales[j, k])
                simplices.append(((i, j, k), float(scale)))
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return simplices


def oracle_reduction(simplices):
    """Diagram of (vertices, scale) pairs given in filtration order, by the
    standard reduction of the whole boundary matrix with set columns."""
    index_of = {vs: i for i, (vs, _) in enumerate(simplices)}
    columns = [{index_of[vs[:k] + vs[k + 1:]] for k in range(len(vs))} if len(vs) > 1
               else set() for vs, _ in simplices]
    low_to_col = {}
    for j, col in enumerate(columns):
        while col and max(col) in low_to_col:
            col ^= columns[low_to_col[max(col)]]
        if col:
            low_to_col[max(col)] = j
    points, essential = {}, {}
    for i, (vs, scale) in enumerate(simplices):
        if columns[i]:
            continue                       # i is a death column, not a birth
        j = low_to_col.get(i)
        if j is None:
            essential.setdefault(len(vs) - 1, []).append(scale)
        else:
            points.setdefault(len(vs) - 1, []).append((scale, simplices[j][1]))
    return PersistenceDiagram._build(
        {d: np.array(p, dtype=np.float64) for d, p in points.items()},
        {d: np.array(b, dtype=np.float64) for d, b in essential.items()})


def oracle_betti_counts(filtration, alpha):
    """(betti0, betti1) of the <=1-skeleton at scale alpha via Euler counts."""
    verts = [s for s in filtration.simplices if s.dim == 0 and s.scale <= alpha]
    edges = [s for s in filtration.simplices if s.dim == 1 and s.scale <= alpha]
    assert all(s.dim <= 1 for s in filtration.simplices if s.scale <= alpha), \
        "euler oracle only valid for max_dim <= 1 prefixes"
    parent = {s.vertices[0]: s.vertices[0] for s in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = find(e.vertices[0]), find(e.vertices[1])
        if a != b:
            parent[a] = b
    comps = len({find(v) for v in parent})
    betti1 = len(edges) - len(verts) + comps
    return comps, betti1


def betti_from_diagram(diagram, dim, alpha):
    pts = diagram.points_in(dim)
    alive = int(np.sum((pts[:, 0] <= alpha) & (pts[:, 1] > alpha))) if pts.size else 0
    ess = diagram.essential_in(dim)
    alive += int(np.sum(ess <= alpha)) if ess.size else 0
    return alive


def _linf_point(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _diag_point(a):
    return (a[1] - a[0]) / 2.0


def oracle_matching_costs(P, Q):
    """Yield the cost multiset of every point matching (rest to the diagonal)."""
    n, m = len(P), len(Q)
    for k in range(min(n, m) + 1):
        for ps in combinations(range(n), k):
            for qs in permutations(range(m), k):
                costs = [_linf_point(P[i], Q[j]) for i, j in zip(ps, qs)]
                costs += [_diag_point(P[i]) for i in range(n) if i not in ps]
                costs += [_diag_point(Q[j]) for j in range(m) if j not in qs]
                yield costs


def oracle_bottleneck(P, Q):
    return min((max(c) if c else 0.0) for c in oracle_matching_costs(P, Q))


def oracle_wasserstein(P, Q, p):
    return min(sum(x ** p for x in c) for c in oracle_matching_costs(P, Q)) ** (1 / p)
