"""The benchmark's workloads: sizes, the timed op, and the output checks.

Every op goes through the public ``wtopo`` API, looked up on the package at
call time so that the tracer's wrappers see each call. An op returns its
outputs as named byte strings; ``check`` returns the list of failed output
checks (empty when the op is correct).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

FRACTION = 0.05


def landmark_count(n: int) -> int:
    return max(1, int(n * FRACTION + 1e-9))


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    weighted: bool
    tiny_nodes: int
    op_uses_config: bool     # compare-weighted times default_config but never uses it
    config_repeats: int      # timed default_config calls per run
    graphs: int = 1          # independent input graphs per run, all used by every op


WORKLOADS = {
    "features-unit": Workload("features-unit", 1500, False, 200, True, config_repeats=7),
    # the reduction's cost varies by up to 25% from graph to graph; an op over
    # two graphs averages that out, so quartiles over seeds stay close
    "compare-weighted": Workload("compare-weighted", 500, True, 120, False,
                                 config_repeats=5, graphs=2),
    "sweep-targeted": Workload("sweep-targeted", 1000, False, 300, True, config_repeats=9),
}

COMPARE_BUDGET = 30
SWEEP_BUDGETS = (0, 10, 100)
SWEEP_BUDGETS_TINY = (0, 10, 40)      # large enough to move the global image
SWEEP_TRIALS = 2


class Context:
    """Per-run state shared by the op and its checks (built outside timing)."""

    def __init__(self, w, workload: Workload, seed: int, graphs, cfg, tiny: bool):
        self.w = w                  # the wtopo package
        self.workload = workload
        self.seed = seed
        self.cfg = cfg
        self.tiny = tiny
        self.use(graphs)
        self.cells = None
        if workload.name == "features-unit":
            ls = w.select_landmarks(self.g, FRACTION)
            self.cells = w.build_cover(self.g, ls).cells

    def use(self, graphs) -> None:
        """Run the next op on ``graphs``: fresh objects parsed from the same
        text, so no op sees state an earlier call cached on a graph."""
        self.graphs = graphs
        self.g = graphs[0]


def run_op(ctx: Context) -> dict[str, bytes]:
    return _OPS[ctx.workload.name](ctx)


def _features_op(ctx: Context) -> dict[str, bytes]:
    w = ctx.w
    local = w.local_encoding(ctx.g, fraction=FRACTION, cfg=ctx.cfg)
    img = w.global_encoding(ctx.g, fraction=FRACTION, cfg=ctx.cfg)
    buf = io.BytesIO()
    local.to_binary(buf)
    return {"local.bin": buf.getvalue(),
            "global.pixels": np.ascontiguousarray(img.pixels, dtype="<f8").tobytes()}


def _diagram(w, g):
    ls = w.select_landmarks(g, FRACTION)
    land = np.asarray(ls.landmarks, dtype=np.int64)
    rows = w.geodesics(g, ls.landmarks).dists
    filt = w.witness_filtration(rows[:, land], rows.T, 2, float("inf"))
    return w.compute_persistence(filt, w.REDUCTION)


def _compare_op(ctx: Context) -> dict[str, bytes]:
    w = ctx.w
    budget = 5 if ctx.tiny else COMPARE_BUDGET
    out = {}
    for k, g in enumerate(ctx.graphs):
        g2 = w.perturb(g, w.PerturbSpec(budget=budget, mode=w.RANDOM, seed=ctx.seed))
        d1, d2 = _diagram(w, g), _diagram(w, g2)
        out[f"{k}.d1.json"] = json.dumps(d1.to_json_obj(), separators=(",", ":")).encode()
        out[f"{k}.d2.json"] = json.dumps(d2.to_json_obj(), separators=(",", ":")).encode()
        for mode in ("bottleneck", "wasserstein"):
            for dim in (0, 1):
                value = w.diagram_distance(d1, d2, mode=mode, p=1.0, dimension=dim)
                out[f"{k}.{mode}.{dim}"] = repr(value).encode()
    return out


def _sweep_op(ctx: Context) -> dict[str, bytes]:
    w = ctx.w
    report = w.stability_sweep(
        ctx.g, SWEEP_BUDGETS_TINY if ctx.tiny else SWEEP_BUDGETS, SWEEP_TRIALS,
        FRACTION, ctx.cfg, w.TopoLossConfig(p=2.0, q=0.0),
        mode=w.LANDMARK_TARGETED, base_seed=ctx.seed)
    buf = io.StringIO()
    report.to_csv(buf)
    return {"sweep.csv": buf.getvalue().encode()}


_OPS = {"features-unit": _features_op, "compare-weighted": _compare_op,
        "sweep-targeted": _sweep_op}


# ---------------------------------------------------------------------------
# output checks (invariants that hold for any seed)
# ---------------------------------------------------------------------------

def check(ctx: Context, out: dict[str, bytes]) -> list[str]:
    return _CHECKS[ctx.workload.name](ctx, out)


def _check_features(ctx: Context, out: dict[str, bytes]) -> list[str]:
    errors = []
    n, cols = np.frombuffer(out["local.bin"][:16], dtype="<i8")
    values = np.frombuffer(out["local.bin"][16:], dtype="<f8").reshape(n, cols)
    pixels = np.frombuffer(out["global.pixels"], dtype="<f8")
    if n != ctx.g.num_nodes:
        errors.append(f"local encoding has {n} rows, graph has {ctx.g.num_nodes} nodes")
    for name, arr in (("local", values), ("global", pixels)):
        if not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
            errors.append(f"{name} encoding has a negative or non-finite value")
    for landmark, members in ctx.cells.items():
        rows = values[list(members)]
        if not np.all(rows == rows[0]):
            errors.append(f"local rows differ inside the cell of landmark {landmark}")
            break
    return errors


def _check_compare(ctx: Context, out: dict[str, bytes]) -> list[str]:
    errors = []
    for k in range(len(ctx.graphs)):
        for dim in (0, 1):
            bottleneck = float(out[f"{k}.bottleneck.{dim}"])
            wasserstein = float(out[f"{k}.wasserstein.{dim}"])
            if not bottleneck <= wasserstein:
                errors.append(f"graph {k}: bottleneck {bottleneck} > W1 {wasserstein} "
                              f"in dimension {dim}")
    return errors


def _check_sweep(ctx: Context, out: dict[str, bytes]) -> list[str]:
    errors = []
    lines = out["sweep.csv"].decode().splitlines()
    header = lines[0].split(",")
    budgets = SWEEP_BUDGETS_TINY if ctx.tiny else SWEEP_BUDGETS
    if len(lines) - 1 != len(budgets) * SWEEP_TRIALS:
        errors.append(f"sweep has {len(lines) - 1} rows")
    drifts = ("local_wasserstein_p", "global_pi_linf_drift", "topo_loss_drift")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        budget = int(row["budget"])
        if float(row["l1_distance"]) != budget:
            errors.append(f"l1_distance {row['l1_distance']} != budget {budget}")
        if budget == 0 and any(float(row[k]) != 0.0 for k in drifts):
            errors.append(f"budget-0 row has nonzero drift: {line}")
    return errors


_CHECKS = {"features-unit": _check_features, "compare-weighted": _check_compare,
           "sweep-targeted": _check_sweep}


def digest(out: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(out):
        h.update(name.encode() + b"\0" + len(out[name]).to_bytes(8, "little"))
        h.update(out[name])
    return h.hexdigest()
