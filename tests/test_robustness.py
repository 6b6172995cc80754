import io

import numpy as np
import pytest

from conftest import edge_dict, oracle_stability_rows, random_connected_graph, random_graph
from wtopo import (Graph, PerturbSpec, TopoLossConfig, adjacency_l1_distance,
                   default_config, perturb, select_landmarks, stability_sweep)
from wtopo.robustness import LANDMARK_TARGETED, REPORT_COLUMNS


def test_decode_pairs_enumerates_upper_triangle():
    from itertools import combinations

    from wtopo.robustness import _decode_targeted_pairs, _targeted_offsets

    for n in (2, 3, 7, 12):
        marks = np.arange(n)             # every node marked: RANDOM's candidates
        starts, total = _targeted_offsets(marks, n)
        assert total == n * (n - 1) // 2
        got = _decode_targeted_pairs(np.arange(total), starts, marks).tolist()
        assert got == [list(p) for p in combinations(range(n), 2)]


def test_zero_budget_identity():
    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 12, extra=6)
    g2 = perturb(g, PerturbSpec(budget=0, seed=3))
    assert np.array_equal(g.edge_array, g2.edge_array)
    assert np.array_equal(g.weights, g2.weights)


def test_perturb_l1_equals_budget():
    rng = np.random.default_rng(72)
    g = random_connected_graph(rng, 15, extra=10)
    for budget in (1, 4, 9):
        g2 = perturb(g, PerturbSpec(budget=budget, seed=11))
        assert adjacency_l1_distance(g, g2) == budget


def test_perturb_deterministic():
    rng = np.random.default_rng(73)
    g = random_connected_graph(rng, 10, extra=5)
    spec = PerturbSpec(budget=5, seed=42)
    a = perturb(g, spec)
    b = perturb(g, spec)
    assert np.array_equal(a.edge_array, b.edge_array)
    c = perturb(g, PerturbSpec(budget=5, seed=43))
    assert not np.array_equal(a.edge_array, c.edge_array)


def test_perturb_preserves_invariants():
    rng = np.random.default_rng(74)
    g = random_connected_graph(rng, 10, extra=5)
    g2 = perturb(g, PerturbSpec(budget=8, seed=1))
    # construction re-validates: no self loops, no duplicates, positive weights
    assert np.all(g2.edge_array[:, 0] < g2.edge_array[:, 1])
    assert len({tuple(e) for e in g2.edge_array.tolist()}) == g2.num_edges
    assert np.all(g2.weights > 0)


def test_perturb_budget_capacity_check():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        perturb(g, PerturbSpec(budget=4, seed=0))     # only 3 pairs exist
    g2 = perturb(g, PerturbSpec(budget=3, seed=0))    # full flip is fine
    assert adjacency_l1_distance(g, g2) == 3


def test_perturb_landmark_targeted_touches_landmarks():
    rng = np.random.default_rng(75)
    g = random_connected_graph(rng, 20, extra=10)
    marks = select_landmarks(g, 0.2).landmarks
    g2 = perturb(g, PerturbSpec(budget=6, mode=LANDMARK_TARGETED, seed=5),
                 landmarks=marks)
    before = edge_dict(g)
    after = edge_dict(g2)
    flipped = set(before) ^ set(after)
    assert len(flipped) == 6
    assert all(u in marks or v in marks for u, v in flipped)


def test_perturb_landmark_targeted_matches_candidate_list_oracle():
    from wtopo.robustness import _decode_targeted_pairs, _targeted_offsets

    rng = np.random.default_rng(76)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        marks = sorted(set(rng.integers(0, n, size=int(rng.integers(0, n + 1))).tolist()))
        cand = sorted({(min(l, v), max(l, v)) for l in marks
                       for v in range(n) if v != l})
        starts, total = _targeted_offsets(np.array(marks, dtype=np.int64), n)
        assert total == len(cand)
        got = _decode_targeted_pairs(np.arange(total), starts,
                                     np.array(marks, dtype=np.int64))
        assert got.reshape(-1, 2).tolist() == [list(p) for p in cand]
        # same RNG draw, same flips as indexing the explicit list
        g = random_graph(rng, n, p=0.2)
        budget = min(total, 5)
        pick = np.random.default_rng(9).choice(total, size=budget, replace=False)
        g2 = perturb(g, PerturbSpec(budget=budget, mode=LANDMARK_TARGETED, seed=9),
                     landmarks=marks)
        flipped = set(edge_dict(g)) ^ set(edge_dict(g2))
        assert flipped == {cand[i] for i in pick}


def test_perturb_landmark_targeted_requires_landmarks():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        perturb(g, PerturbSpec(budget=1, mode=LANDMARK_TARGETED, seed=0))


def test_perturb_spec_validation():
    with pytest.raises(ValueError):
        PerturbSpec(budget=-1)
    with pytest.raises(ValueError):
        PerturbSpec(budget=1, mode="chaotic")


def test_sweep_zero_budget_all_drifts_zero():
    rng = np.random.default_rng(76)
    g = random_connected_graph(rng, 14, extra=7)
    report = stability_sweep(g, [0], trials=3, fraction=0.25,
                             cfg=default_config(g, grid_resolution=4),
                             loss_cfg=TopoLossConfig())
    assert len(report) == 3
    for col in ("l1_distance", "local_wasserstein_p", "global_pi_linf_drift",
                "topo_loss_drift", "bound_ratio_local", "bound_ratio_global"):
        assert np.all(report.column(col) == 0.0)


def test_sweep_row_cardinality():
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 12, extra=6)
    report = stability_sweep(g, [1, 2, 4], trials=3, fraction=0.25,
                             cfg=default_config(g, grid_resolution=4),
                             loss_cfg=TopoLossConfig())
    assert len(report) == 9
    assert report.column("budget").tolist() == [1, 1, 1, 2, 2, 2, 4, 4, 4]
    assert report.column("trial").tolist() == [0, 1, 2] * 3


def test_sweep_l1_column_equals_budget():
    rng = np.random.default_rng(78)
    g = random_connected_graph(rng, 12, extra=10)
    report = stability_sweep(g, [0, 2, 5], trials=2, fraction=0.25,
                             cfg=default_config(g, grid_resolution=4),
                             loss_cfg=TopoLossConfig())
    assert np.array_equal(report.column("l1_distance"), report.column("budget"))


def test_sweep_bound_ratios_finite_on_random_graph():
    rng = np.random.default_rng(79)
    g = random_connected_graph(rng, 30, extra=20)
    budgets = [0, 2, 5]                         # up to 10% of the edges
    report = stability_sweep(g, budgets, trials=3, fraction=0.2,
                             cfg=default_config(g, grid_resolution=5),
                             loss_cfg=TopoLossConfig(), base_seed=9)
    for col in ("bound_ratio_local", "bound_ratio_global"):
        assert np.all(np.isfinite(report.column(col)))
    assert np.all(report.column("local_wasserstein_p") >= 0.0)
    assert np.all(report.column("global_pi_linf_drift") >= 0.0)


def test_sweep_freeze_landmarks_flag():
    rng = np.random.default_rng(80)
    g = random_connected_graph(rng, 15, extra=8)
    frozen = stability_sweep(g, [3], trials=2, fraction=0.25,
                             cfg=default_config(g, grid_resolution=4),
                             loss_cfg=TopoLossConfig(), freeze_landmarks=True,
                             base_seed=4)
    assert len(frozen) == 2                     # runs end to end


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("dimension", [0, 1])
@pytest.mark.parametrize("policy", ["cap", "drop"])
def test_sweep_rows_equal_the_recompute_everything_oracle(monkeypatch, weighted, dimension,
                                                           policy):
    import wtopo.robustness as robustness

    rng = np.random.default_rng(83 + weighted)
    g = random_connected_graph(rng, 40, extra=30, weighted=weighted)
    cfg = default_config(g, grid_resolution=4, essential_policy=policy)
    covers = []
    build_cover = robustness.build_cover
    monkeypatch.setattr(robustness, "build_cover",
                        lambda *args: covers.append(1) or build_cover(*args))
    budgets, trials = [0, 0, 3], 2
    for mode in ("random", LANDMARK_TARGETED):
        for freeze in (False, True):
            kw = dict(mode=mode, base_seed=5, freeze_landmarks=freeze, dimension=dimension)
            covers.clear()
            report = stability_sweep(g, budgets, trials, 0.5, cfg, TopoLossConfig(), **kw)
            # the clean graph once, then one cover per trial whose graph changed
            assert len(covers) == 1 + trials * sum(b > 0 for b in budgets)
            assert report.rows == oracle_stability_rows(g, budgets, trials, 0.5, cfg,
                                                        TopoLossConfig(), **kw)


def test_sweep_rejects_unsorted_budgets():
    rng = np.random.default_rng(81)
    g = random_connected_graph(rng, 8, extra=2)
    with pytest.raises(ValueError):
        stability_sweep(g, [4, 1], trials=1, fraction=0.3,
                        cfg=default_config(g, grid_resolution=3),
                        loss_cfg=TopoLossConfig())
    with pytest.raises(ValueError):
        stability_sweep(g, [1], trials=0, fraction=0.3,
                        cfg=default_config(g, grid_resolution=3),
                        loss_cfg=TopoLossConfig())


@pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
@pytest.mark.parametrize("budgets", [[0], [0, 3]])
def test_sweep_rejects_a_bad_wasserstein_exponent_before_any_work(monkeypatch, p, budgets):
    import wtopo.robustness as robustness

    rng = np.random.default_rng(84)
    g = random_connected_graph(rng, 10, extra=4)
    cfg = default_config(g, grid_resolution=3)
    calls = []
    for name in ("select_landmarks", "build_cover", "perturb"):
        monkeypatch.setattr(robustness, name, lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="^wasserstein_p must be finite and >= 1"):
        stability_sweep(g, budgets, trials=1, fraction=0.3, cfg=cfg,
                        loss_cfg=TopoLossConfig(), wasserstein_p=p)
    assert calls == []


def test_report_csv_header_and_shape():
    rng = np.random.default_rng(82)
    g = random_connected_graph(rng, 10, extra=4)
    report = stability_sweep(g, [0, 1], trials=2, fraction=0.3,
                             cfg=default_config(g, grid_resolution=3),
                             loss_cfg=TopoLossConfig())
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[0] == ("budget,trial,l1_distance,local_wasserstein_p,"
                        "global_pi_linf_drift,topo_loss_drift,cover_radius,"
                        "c_epsilon,bound_ratio_local,bound_ratio_global")
    assert len(lines) == 1 + 4
    assert all(len(line.split(",")) == len(REPORT_COLUMNS) for line in lines[1:])
