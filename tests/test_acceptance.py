"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np

from conftest import (diagram_of, oracle_reduction, ordered_simplices,
                      random_connected_graph, random_diagram, random_filtration)
from wtopo import (Graph, PIConfig, TopoLossConfig, all_pairs, build_cover,
                   compute_persistence, diagram_distance, geodesics,
                   persistence_image, sandwich_check, select_landmarks,
                   stability_constant, stability_sweep, topo_loss,
                   topo_loss_grad, vr_filtration, witness_filtration)
from wtopo.persistence import REDUCTION, UNION_FIND


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_landmark_count_reproduction():
    cases = [(2485, 0.05, 124), (2110, 0.05, 105), (1222, 0.05, 61),
             (19717, 0.02, 394)]
    graphs = [(_path_graph(n), frac, expected) for n, frac, expected in cases]
    start = time.perf_counter()
    counts = [len(select_landmarks(g, frac).landmarks)
              for g, frac, _ in graphs]
    elapsed = time.perf_counter() - start
    ok = counts == [c for _, _, c in cases] and elapsed < 1.0
    _report("landmark-count reproduction (124/105/61/394, < 1 s)", ok,
            f"counts={counts}, {elapsed:.3f}s")


def test_union_find_reduction_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        f = random_filtration(rng, n_max=30)
        uf = compute_persistence(f, UNION_FIND)
        red = compute_persistence(f, REDUCTION, homology_dims=(0,))
        want = oracle_reduction(ordered_simplices(f))
        if (uf.points_in(0).tolist() != red.points_in(0).tolist()
                or uf.essential_in(0).tolist() != red.essential_in(0).tolist()
                or uf != diagram_of(want.points_in(0), want.essential_in(0))):
            mismatches += 1
    _report("union-find vs reduction vs whole-matrix oracle H0 equivalence "
            "(100 filtrations, exact)",
            mismatches == 0, f"{mismatches} mismatches")


def test_vr_stability():
    rng = np.random.default_rng(2025)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        g = random_connected_graph(rng, n, extra=n // 2, weighted=True)
        jitter = rng.uniform(0.8, 1.2, size=g.num_edges)
        g2 = Graph.from_edges(
            n, [(int(u), int(v), float(w * s)) for (u, v), w, s in
                zip(g.edge_array, g.weights, jitter)])
        d1 = all_pairs(g).dists
        d2 = all_pairs(g2).dists
        sup = float(np.max(np.abs(d1 - d2)))
        pd1 = compute_persistence(vr_filtration(d1, 2, np.inf), REDUCTION)
        pd2 = compute_persistence(vr_filtration(d2, 2, np.inf), REDUCTION)
        for dim in (0, 1):
            if diagram_distance(pd1, pd2, dimension=dim) > sup + 1e-9:
                violations += 1
    _report("VR stability: bottleneck <= sup-norm of geodesic change "
            "(50 graphs)", violations == 0, f"{violations} violations")


def test_sandwich_property():
    rng = np.random.default_rng(2026)
    violations = 0
    trials = 0
    while trials < 50:
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n, extra=n // 3)
        frac = float(rng.uniform(0.15, 0.4))
        ls = select_landmarks(g, frac)
        if len(ls.landmarks) > 6:
            continue
        cover = build_cover(g, ls)
        rows = geodesics(g, ls.landmarks).dists
        land = rows[:, list(ls.landmarks)]
        alpha = 2.0 * cover.cover_radius + float(rng.uniform(0.5, 2.0))
        result = sandwich_check(land, rows.T, alpha, cover.cover_radius,
                                max_dim=2)
        trials += 1
        if result is not True:
            violations += 1
    _report("sandwich containment VR(a/3) <= Wit(a) <= VR(3a) (50 instances)",
            violations == 0, f"{violations} violations")


def test_pi_stability():
    rng = np.random.default_rng(2027)
    violations = 0
    for trial in range(100):
        sigma = (0.5, 1.0, 2.0)[trial % 3]
        cfg = PIConfig(10, (0.0, 1.0), (0.0, 1.0), sigma=sigma,
                       essential_policy="drop")
        d1 = random_diagram(rng, max_points=8)
        d2 = random_diagram(rng, max_points=8)
        drift = float(np.max(np.abs(persistence_image(d1, cfg).pixels
                                    - persistence_image(d2, cfg).pixels)))
        bound = stability_constant(sigma) * diagram_distance(
            d1, d2, mode="wasserstein", p=1)
        if drift > bound + 1e-12:
            violations += 1
    _report("PI stability: |PI1 - PI2|_inf <= C(sigma) * W1 (100 pairs)",
            violations == 0, f"{violations} violations")


def test_pi_quadrature():
    import math

    def oversampled(point, r, rng_lo, rng_hi, sigma, sub):
        b, d = point
        pers = d - b
        out = np.zeros((r, r))
        w = (rng_hi - rng_lo) / r
        for i in range(r):
            for j in range(r):
                acc = 0.0
                for si in range(sub):
                    for sj in range(sub):
                        cb = rng_lo + i * w + (si + 0.5) * w / sub
                        cp = rng_lo + j * w + (sj + 0.5) * w / sub
                        acc += (pers * math.exp(-((cb - b) ** 2 + (cp - pers) ** 2)
                                                / (2 * sigma ** 2))
                                / (2 * math.pi * sigma ** 2) * (w / sub) ** 2)
                out[i, j] = acc
        return out

    cfg = PIConfig(20, (0.0, 1.0), (0.0, 1.0), sigma=1.0, essential_policy="drop")
    img = persistence_image(diagram_of([[0.3, 0.9]]), cfg).pixels
    oracle = oversampled((0.3, 0.9), 20, 0.0, 1.0, 1.0, 32)   # ~1000x oversampled
    err = float(np.max(np.abs(img - oracle)))
    _report("PI quadrature: single point vs oversampled oracle (<= 1e-6/pixel)",
            err < 1e-6, f"max err {err:.2e}")


def test_topological_loss_and_gradient():
    from wtopo.persistence import PersistenceDiagram

    exact = (
        abs(topo_loss(PersistenceDiagram(), TopoLossConfig())) <= 1e-12
        and abs(topo_loss(diagram_of([[0, 2]]), TopoLossConfig(2, 0)) - 4.0) <= 1e-12
        and abs(topo_loss(diagram_of([[1, 3], [0, 1]]), TopoLossConfig(1, 1)) - 4.5) <= 1e-12
    )
    rng = np.random.default_rng(2028)
    h = 1e-6
    grad_ok = True
    checked = 0
    while checked < 50:
        d = random_diagram(rng, max_points=5)
        if d.num_points(0) == 0:
            continue
        checked += 1
        cfg = TopoLossConfig(float(rng.integers(1, 4)), float(rng.integers(0, 3)))
        grads = topo_loss_grad(d, cfg)
        pts = d.points_in(0)
        for i in range(pts.shape[0]):
            for coord in (0, 1):
                plus, minus = pts.copy(), pts.copy()
                plus[i, coord] += h
                minus[i, coord] -= h
                num = (topo_loss(diagram_of(plus), cfg)
                       - topo_loss(diagram_of(minus), cfg)) / (2 * h)
                if abs(grads[i, coord] - num) / max(1.0, abs(num)) >= 1e-6:
                    grad_ok = False
    _report("topological loss: closed forms exact to 1e-12, gradient vs "
            "central differences < 1e-6 (50 diagrams)", exact and grad_ok)


def test_zero_budget_fixed_point():
    rng = np.random.default_rng(2029)
    g = random_connected_graph(rng, 40, extra=20)
    cfg = PIConfig(5, (0.0, 10.0), (0.0, 10.0), sigma=1.0,
                   essential_policy="cap", cap_value=11.0)
    report = stability_sweep(g, [0], trials=5, fraction=0.2, cfg=cfg,
                             loss_cfg=TopoLossConfig(), base_seed=17)
    drift_cols = ("l1_distance", "local_wasserstein_p", "global_pi_linf_drift",
                  "topo_loss_drift")
    ok = all(np.all(report.column(c) == 0.0) for c in drift_cols)
    _report("zero-budget fixed point: all drift columns exactly 0", ok)


def test_efficiency_scaled():
    rng = np.random.default_rng(2030)
    g = random_connected_graph(rng, 2500, extra=2500)   # ~5000 edges
    assert 4900 <= g.num_edges <= 5100
    cfg = PIConfig(10, (0.0, 30.0), (0.0, 30.0), sigma=1.0,
                   essential_policy="cap", cap_value=31.0)
    start = time.perf_counter()
    ls = select_landmarks(g, 0.05)
    assert len(ls.landmarks) == 125
    rows = geodesics(g, ls.landmarks).dists
    land = rows[:, list(ls.landmarks)]
    filt = witness_filtration(land, rows.T, max_dim=1, max_scale=np.inf)
    diagram = compute_persistence(filt, UNION_FIND)
    persistence_image(diagram, cfg, 0)
    elapsed = time.perf_counter() - start
    _report("efficiency: 2500-node global witness features < 60 s",
            elapsed < 60.0, f"{elapsed:.2f}s")


def test_drift_growth_sanity():
    from wtopo import diameter

    rng = np.random.default_rng(2031)
    g = random_connected_graph(rng, 100, extra=15)   # sparse: drifts are nonzero
    diam = diameter(g)
    cfg = PIConfig(8, (0.0, diam), (0.0, diam), sigma=diam / 8.0,
                   essential_policy="cap", cap_value=diam + 1.0)
    report = stability_sweep(g, [2, 4, 8, 16], trials=20, fraction=0.1,
                             cfg=cfg, loss_cfg=TopoLossConfig(), base_seed=5)
    budgets = report.column("budget")
    drift = report.column("global_pi_linf_drift")
    clean_cover = build_cover(g, select_landmarks(g, 0.1))
    medians = {b: float(np.median(drift[budgets == b])) for b in (2, 4, 8, 16)}
    assert max(medians.values()) > 0.0      # the harness must see real drift
    ok = all(medians[2 * b] <= 4.0 * medians[b] + clean_cover.cover_radius
             for b in (2, 4, 8))
    _report("drift growth sanity: median drift(2b) <= 4 * median drift(b) + "
            "cover radius for b in {2,4,8}", ok, f"medians={medians}")
