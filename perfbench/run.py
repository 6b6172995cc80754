"""wtopo pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy. One process, one caller, a
closed loop: the next op starts only after the previous one returned and its
outputs were checked. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. See
``perfbench/RATIONALE.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread (at most nproc), fixed before numpy is first imported: on a
# 2-CPU machine the ops ran no faster with two, and one thread keeps a run
# from depending on how busy a second CPU is
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True      # leave no __pycache__ in the checkout

import argparse
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)

import numpy as np                   # noqa: E402

import gen                          # noqa: E402
import workloads                    # noqa: E402
from tracer import METRIC_UNITS, Tracer   # noqa: E402

END_TO_END_UNITS = {"op_p90_s": "s", "config_p90_s": "s", "setup_s": "s",
                    "ok_rate": "ratio", "peak_rss_mb": "MB"}


def import_wtopo():
    """Import the package from this checkout's ``src/`` or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "wtopo", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}/wtopo")
    sys.path.insert(0, SRC)
    import wtopo

    if os.path.dirname(os.path.abspath(wtopo.__file__)) != os.path.join(SRC, "wtopo"):
        raise SystemExit(f"perfbench: imported wtopo from {wtopo.__file__}, not {SRC}")
    return wtopo


def environment() -> dict:
    import networkx
    import scipy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "nproc": NPROC, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "numba_imports": numba_imports}


def graph_texts(workload, seed: int, tiny: bool) -> tuple[str, ...]:
    """Edge-list text of the run's input graphs: the first from ``seed``,
    extra ones from ``(seed, k)``."""
    n = workload.tiny_nodes if tiny else workload.nodes
    return tuple(gen.edge_list_text(n, seed if k == 0 else (seed, k), workload.weighted)
                 for k in range(workload.graphs))


def parse(w, texts) -> tuple:
    return tuple(w.load_edge_list(io.StringIO(text)) for text in texts)


def load_graphs(w, workload, seed: int, tiny: bool) -> tuple:
    return parse(w, graph_texts(workload, seed, tiny))


def setup_probe(workload, seed: int, tiny: bool) -> float:
    """Wall seconds of a fresh process doing the set-up: start the
    interpreter, import wtopo, generate the run's graphs and parse them."""
    cmd = [sys.executable, "-B", os.path.abspath(__file__), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would round the sample up to the next poll
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def reference_digest(workload, seed: int, tiny: bool) -> str | None:
    with open(REFERENCE, encoding="utf-8") as fp:
        refs = json.load(fp)
    return refs.get(workload.name + ("@tiny" if tiny else ""), {}).get(str(seed))


def lcc_diameter_oracle(g) -> float:
    """LCC diameter from code independent of wtopo: networkx with eccentricity
    bounds for unit weights, scipy's Dijkstra for weighted graphs (networkx's
    bounding search degenerates on real-valued weights)."""
    if g.unit_weights:
        import networkx as nx

        G = nx.Graph()
        G.add_nodes_from(range(g.num_nodes))
        G.add_edges_from(map(tuple, g.edge_array.tolist()))
        lcc = G.subgraph(max(nx.connected_components(G), key=len)).copy()
        return float(nx.diameter(lcc, usebounds=True))
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    n = g.num_nodes
    a = coo_matrix((g.weights, (g.edge_array[:, 0], g.edge_array[:, 1])), shape=(n, n)).tocsr()
    _, label = connected_components(a, directed=False)
    keep = np.flatnonzero(label == np.bincount(label).argmax())
    d = dijkstra(a[keep][:, keep], directed=False)
    return float(d.max())


def p90(samples: list[float]) -> float:
    """90th percentile, interpolated between the samples.

    On a shared virtual machine the host's speed switches between a busy and
    a quiet state for seconds to minutes at a time (on a 2-CPU one, quiet ran
    up to twice as fast). A run's median follows the share of its time the
    host happened to be quiet; its upper tail follows the busy state, which
    varied less from run to run (see RATIONALE.md).
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(w, workload, seed: int, seconds: float, trace: bool, tiny: bool,
                 setup_repeats: int = SETUP_REPEATS, log=print) -> dict:
    # setup_s is an end-to-end metric only, so traced runs skip its probes
    setup_samples = [] if trace else [setup_probe(workload, seed, tiny)
                                      for _ in range(setup_repeats)]
    tracer = Tracer(w) if trace else None
    if tracer:
        tracer.install()
    texts = graph_texts(workload, seed, tiny)
    graphs = parse(w, texts)
    g = graphs[0]
    if tracer:
        tracer.uninstall()
    config_samples, configs = [], []

    def configure():
        """One timed default_config call on a freshly parsed copy of the
        first graph."""
        fresh = parse(w, texts[:1])[0]
        gc.collect()
        if tracer:
            tracer.phase = "config"
            tracer.install()
        t0 = time.perf_counter()
        configs.append(w.default_config(fresh))
        config_samples.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    reference = reference_digest(workload, seed, tiny)
    first_digest = None
    failures: list[str] = []
    untraced: list[float] = []
    traced: list[float] = []
    ops = 0
    # the run's default_config calls are spread evenly over its seconds,
    # between ops, so config and op times sample the same stretch of time
    repeats = workload.config_repeats
    t_start = time.perf_counter()
    configure()
    ctx = workloads.Context(w, workload, seed, graphs, configs[0], tiny)
    while True:
        elapsed = time.perf_counter() - t_start
        done = elapsed >= seconds
        if len(configs) < (repeats if done else min(repeats, 1 + int(repeats * elapsed / seconds))):
            configure()
            continue
        if done and ops >= (2 if trace else 1):
            break
        traced_op = trace and ops % 2 == 1
        ops += 1
        ctx.use(parse(w, texts))
        gc.collect()
        if traced_op:
            tracer.install()
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(ctx)
        except Exception:
            failures.append(f"op {ops} raised:\n{traceback.format_exc()}")
            continue
        finally:
            elapsed = time.perf_counter() - t0
            if traced_op:
                tracer.uninstall()
        (traced if traced_op else untraced).append(elapsed)
        errors = workloads.check(ctx, out)
        d = workloads.digest(out)
        first_digest = first_digest or d
        if d != first_digest:
            errors.append("output differs from this run's first op")
        if reference is not None and d != reference:
            errors.append(f"output digest {d} differs from the committed reference")
        if errors:
            failures.append(f"op {ops}: " + "; ".join(errors))
    if not untraced or (trace and not traced):
        raise SystemExit("perfbench: no op completed:\n" + "\n".join(failures))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # one more attempted operation: the run's graphs and default_config,
    # checked after peak RSS is read so the oracle's memory is not counted
    n = workload.tiny_nodes if tiny else workload.nodes
    oracle = lcc_diameter_oracle(g) + 1.0
    if any((h.num_nodes, h.num_edges, h.unit_weights) != (n, 2 * n - 1, not workload.weighted)
           for h in graphs):
        failures.append(f"generated graphs have N={[h.num_nodes for h in graphs]} "
                        f"E={[h.num_edges for h in graphs]}")
    elif any(c != configs[0] for c in configs):
        failures.append("default_config differs between copies of the same graph")
    elif not np.isclose(configs[0].cap_value, oracle, rtol=1e-12, atol=0.0):
        failures.append(f"cap_value {configs[0].cap_value!r} != LCC diameter + 1 = {oracle!r}")
    attempted = ops + 1

    for f in failures:
        log(f"FAILED {f}", file=sys.stderr)
    log(f"workload {workload.name} seed {seed}: graphs={len(graphs)} N={g.num_nodes} E={g.num_edges} "
        f"L={workloads.landmark_count(g.num_nodes)} weighted={workload.weighted} "
        f"cap_value={configs[0].cap_value!r} "
        f"reference={'checked' if reference else 'none for this seed'} digest={first_digest}")
    if trace:
        traced_mean, untraced_mean = statistics.fmean(traced), statistics.fmean(untraced)
        metrics = tracer.per_layer(traced_mean, untraced_mean)
        units = METRIC_UNITS
        log(f"traced ops: {len(traced)} (mean {traced_mean:.4f} s), untraced ops: "
            f"{len(untraced)} (mean {untraced_mean:.4f} s)")
        log("no layer waits on another thread or process, so no span has waiting time")
        if tracer.uncounted:
            log(f"counters not readable from these calls: {sorted(tracer.uncounted)}")
        log("phase   function                        calls     total_s      self_s")
        for phase, name, calls, total, self_s in tracer.span_table():
            log(f"{phase:7} {name:30} {calls:6d} {total:11.4f} {self_s:11.4f}")
    else:
        metrics = {"op_p90_s": p90(untraced),
                   "config_p90_s": p90(config_samples),
                   # a second-long fresh process: a single slow start
                   # would move its upper tail, not its median
                   "setup_s": statistics.median(setup_samples),
                   "ok_rate": (attempted - len(failures)) / attempted,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        log(f"op_p90_s of {len(untraced)} ops: {[round(t, 4) for t in untraced]}")
        log(f"config_p90_s of {len(config_samples)} calls: "
            f"{[round(t, 4) for t in config_samples]}")
        log(f"setup_s median of {len(setup_samples)} processes: "
            f"{[round(t, 4) for t in setup_samples]}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def smoke(w) -> int:
    """Every workload at tiny size, untraced and traced: every metric named in
    BENCHMARK.json is present with its unit, and every output check passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(w, workload, 1, 0.0, trace, tiny=True,
                                  setup_repeats=1, log=lambda *a, **k: None)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: output checks failed")
            named = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != named:
                problems.append(f"{name} trace={int(trace)}: metrics or units differ "
                                f"from BENCHMARK.json: {sorted(set(got.items()) ^ set(named.items()))}")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def record(w, workload, seed: int, tiny: bool) -> int:
    graphs = load_graphs(w, workload, seed, tiny)
    cfg = w.default_config(graphs[0]) if workload.op_uses_config else None
    ctx = workloads.Context(w, workload, seed, graphs, cfg, tiny)
    out = workloads.run_op(ctx)
    errors = workloads.check(ctx, out)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    with open(REFERENCE, encoding="utf-8") as fp:
        refs = json.load(fp)
    refs.setdefault(workload.name + ("@tiny" if tiny else ""), {})[str(seed)] = workloads.digest(out)
    with open(REFERENCE + ".part", "w", encoding="utf-8") as fp:
        json.dump(refs, fp, indent=1, sort_keys=True)
        fp.write("\n")
    os.replace(REFERENCE + ".part", REFERENCE)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, traced and untraced")
    ap.add_argument("--tiny", action="store_true", help="use the smoke sizes")
    ap.add_argument("--record", action="store_true",
                    help="run one op and store its output digest as the reference")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = import_wtopo()
    if args.smoke:
        return smoke(w)
    if args.workload is None:
        ap.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        load_graphs(w, workload, args.seed, args.tiny)
        return 0
    if args.record:
        return record(w, workload, args.seed, args.tiny)
    print("env: " + json.dumps(environment(), sort_keys=True))
    result = run_workload(w, workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
