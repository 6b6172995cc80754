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
    from wtopo.robustness import RANDOM, _decode_targeted_pairs, _targeted_offsets

    n = g.num_nodes
    rng = np.random.default_rng(spec.seed)
    if spec.mode == RANDOM:
        capacity = n * (n - 1) // 2
        if spec.budget > capacity:
            raise ValueError(f"budget {spec.budget} exceeds {capacity} candidate pairs")
        candidates = list(combinations(range(n), 2))   # row-major upper triangle
        pick = rng.choice(capacity, size=spec.budget, replace=False) if spec.budget else []
        chosen = [candidates[i] for i in sorted(pick)]
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
    0 keeps H0 of the reduction."""
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


def oracle_stability_rows(g, budgets, trials, fraction, cfg, loss_cfg, mode="random",
                          base_seed=0, freeze_landmarks=False, max_dim=1, dimension=0,
                          nu=0, max_scale=np.inf, wasserstein_p=1.0):
    """robustness.stability_sweep's rows with nothing reused: every graph, the
    clean one and each row's, gets a fresh cover (built on a fresh copy, so no
    memoised cover is met) and fresh diagrams, and the local drift runs one
    W_p per cell, equal cells included."""
    from wtopo import (PerturbSpec, adjacency_l1_distance, build_cover, diagram_distance,
                       global_diagram, local_cell_diagrams, perturb, persistence_image,
                       resolve_config, select_landmarks, topo_loss)

    cfg = resolve_config(cfg, g)
    empty = PersistenceDiagram()

    def encode(graph, ls):
        copy = Graph.from_edges(graph.num_nodes, [(u, v, w) for (u, v), w
                                                  in edge_dict(graph).items()])
        cover = build_cover(copy, ls)
        kw = dict(max_dim=max_dim, nu=nu, dimension=dimension, max_scale=max_scale)
        cells = local_cell_diagrams(cover, **kw)
        glob = global_diagram(cover, **kw)
        return cover, cells, glob, persistence_image(glob, cfg, dimension)

    def capped(d):
        pts, ess = d.points_in(dimension), d.essential_in(dimension)
        if ess.size and cfg.essential_policy == "cap":
            pts = np.vstack([pts, [(b, cfg.cap_value) for b in ess]])
        return PersistenceDiagram._build({dimension: pts}, {})

    ls = select_landmarks(g, fraction)
    _, cells, glob, image = encode(g, ls)
    rows = []
    for budget in budgets:
        for trial in range(trials):
            g2 = perturb(g, PerturbSpec(budget, mode, base_seed + trial), landmarks=ls.landmarks)
            cover2, cells2, glob2, image2 = encode(
                g2, ls if freeze_landmarks else select_landmarks(g2, fraction))
            local_w = 0.0
            for l in sorted(set(cells) | set(cells2)):
                local_w += diagram_distance(
                    capped(cells.get(l, empty)), capped(cells2.get(l, empty)),
                    mode="wasserstein", p=wasserstein_p, dimension=dimension,
                    essential="drop")
            pi_drift = float(np.max(np.abs(image.pixels - image2.pixels)))
            loss_drift = abs(topo_loss(glob, loss_cfg, dimension)
                             - topo_loss(glob2, loss_cfg, dimension))
            denom_local = cover2.c_epsilon * (budget + cover2.cover_radius)
            denom_global = budget + cover2.cover_radius
            rows.append((
                budget, trial, float(adjacency_l1_distance(g, g2)), float(local_w),
                pi_drift, float(loss_drift), float(cover2.cover_radius),
                int(cover2.c_epsilon),
                float(local_w / denom_local) if denom_local > 0 else 0.0,
                float(pi_drift / denom_global) if denom_global > 0 else 0.0))
    return tuple(rows)


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


def ordered_simplices(f):
    """(vertices, scale) pairs of a Filtration in its global order: by
    (scale, dimension), each dimension's rows in their array order."""
    pairs = [(tuple(v), s) for vs, ss in zip(f.vertices, f.scales)
             for v, s in zip(vs.tolist(), ss.tolist())]
    return sorted(pairs, key=lambda p: (p[1], len(p[0])))    # stable


def oracle_sandwich(land, wit, alpha, epsilon, max_dim):
    """sandwich_check by containment of frozensets of vertex tuples."""
    from wtopo import vr_filtration, witness_filtration

    if not alpha > 2.0 * epsilon:
        return None
    inner, middle, outer = (frozenset(vs for vs, _ in ordered_simplices(f)) for f in (
        vr_filtration(land, max_dim, alpha / 3.0),
        witness_filtration(land, wit, max_dim, alpha, nu=0),
        vr_filtration(land, max_dim, 3.0 * alpha)))
    return inner <= middle <= outer


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
    alive = [vs for vs, scale in ordered_simplices(filtration) if scale <= alpha]
    verts = [vs for vs in alive if len(vs) == 1]
    edges = [vs for vs in alive if len(vs) == 2]
    assert len(verts) + len(edges) == len(alive), \
        "euler oracle only valid for max_dim <= 1 prefixes"
    parent = {vs[0]: vs[0] for vs in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
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
