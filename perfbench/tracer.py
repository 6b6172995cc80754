"""Span tracer that wraps wtopo's public functions from the benchmark's side.

``Tracer.install`` replaces every module-level binding of the functions in
``WRAPPED`` (in every imported ``wtopo`` module, so ``from .graph import
geodesics`` call sites are covered too) with a wrapper that records one span
per call: phase, layer, name, duration and the time covered by its direct
child spans. ``uninstall`` puts the original functions back. Spans stay in
memory; ``per_layer`` aggregates them when the run ends.

Self time is a span's duration minus the time its direct children cover.
Nothing here waits on another thread or process, so spans carry no waiting
time. ``_kernels`` and ``cli`` are not layers: kernel time is counted inside
the public function that calls it.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "landmarks", "complexes", "persistence", "images",
          "encodings", "robustness")

WRAPPED = {
    "graph": ("load_edge_list", "geodesics", "diameter",
              "largest_connected_component", "adjacency_l1_distance"),
    "landmarks": ("select_landmarks", "build_cover"),
    "complexes": ("witness_filtration",),
    "persistence": ("compute_persistence", "diagram_distance"),
    "images": ("persistence_image", "default_config"),
    "encodings": ("local_cell_diagrams", "global_diagram", "local_encoding",
                  "global_encoding", "topo_loss"),
    "robustness": ("perturb", "stability_sweep"),
}

# per-layer metric -> unit; every traced run reports all of them (0 where the
# workload never calls the function)
METRIC_UNITS = {
    "graph.load_s": "s",
    "graph.geodesics_s": "s",
    "graph.geodesics_calls": "count",
    "graph.geodesics_sources": "count",
    "graph.geodesics_repeat_ratio": "ratio",
    "graph.diameter_s": "s",
    "graph.lcc_s": "s",
    "graph.l1_s": "s",
    "landmarks.select_s": "s",
    "landmarks.cover_s": "s",
    "landmarks.cells": "count",
    "landmarks.cells_unchanged_ratio": "ratio",
    "landmarks.cells_compared": "count",
    "complexes.witness_s": "s",
    "complexes.witness_calls": "count",
    "complexes.simplices": "count",
    "persistence.diagram_s": "s",
    "persistence.pairs": "count",
    "persistence.distance_s": "s",
    "persistence.distance_calls": "count",
    "persistence.distance_points": "count",
    "images.image_s": "s",
    "images.config_self_s": "s",
    "encodings.cells_s": "s",
    "encodings.global_s": "s",
    "encodings.local_s": "s",
    "robustness.perturb_s": "s",
    "robustness.flips": "count",
    "robustness.sweep_self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_self_s": "s",
    "trace.unspanned_s": "s",
}

# op-phase self time of one function -> metric
_SELF_TIME = {
    "geodesics": "graph.geodesics_s",
    "adjacency_l1_distance": "graph.l1_s",
    "select_landmarks": "landmarks.select_s",
    "build_cover": "landmarks.cover_s",
    "witness_filtration": "complexes.witness_s",
    "compute_persistence": "persistence.diagram_s",
    "diagram_distance": "persistence.distance_s",
    "persistence_image": "images.image_s",
    "local_cell_diagrams": "encodings.cells_s",
    "global_diagram": "encodings.global_s",
    "local_encoding": "encodings.local_s",
    "perturb": "robustness.perturb_s",
    "stability_sweep": "robustness.sweep_self_s",
}


def _graph_key(g) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(g.num_nodes.to_bytes(8, "little"))
    h.update(g.edge_array.tobytes())
    h.update(g.weights.tobytes())
    return h.digest()


class Tracer:
    """Collects spans and per-op counters while installed."""

    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.spans: list[tuple[str, str, str, float, float]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.uncounted: set[str] = set()
        self.counts: dict[str, float] = defaultdict(float)
        self.traced_ops = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen_inputs: set[bytes] = set()
        self._clean_cells: set[tuple[int, ...]] | None = None

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        # a name a later refactor removes is skipped; its metrics read 0
        originals = {}
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"{self.package.__name__}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    originals[fn] = self._wrap(layer, name, fn)
        prefix = self.package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, originals[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def begin_op(self) -> None:
        self.phase = "op"
        self.traced_ops += 1
        self._seen_inputs.clear()
        self._clean_cells = None

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[0]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((tracer.phase, layer, name, duration,
                                     duration - frame[1]))
            if tracer.phase == "op":
                try:
                    tracer._count(name, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.uncounted.add(name)   # the call's shape changed
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "geodesics":
            g, sources = args[0], tuple(int(s) for s in args[1])
            c["graph.geodesics_calls"] += 1
            c["graph.geodesics_sources"] += len(sources)
            key = _graph_key(g) + hashlib.blake2b(repr(sources).encode(),
                                                  digest_size=16).digest()
            if key in self._seen_inputs:
                c["geodesics_repeats"] += 1
            self._seen_inputs.add(key)
        elif name == "build_cover":
            cells = set(result.cells.values())
            c["landmarks.cells"] += len(cells)
            if self._clean_cells is None:
                self._clean_cells = cells
            else:
                c["landmarks.cells_compared"] += len(cells)
                c["cells_unchanged"] += len(cells & self._clean_cells)
        elif name == "witness_filtration":
            c["complexes.witness_calls"] += 1
            c["complexes.simplices"] += len(result)
        elif name == "compute_persistence":
            c["persistence.pairs"] += sum(result.num_points(d) for d in result.dims())
        elif name == "diagram_distance":
            dimension = kwargs.get("dimension", 0)
            c["persistence.distance_calls"] += 1
            c["persistence.distance_points"] += sum(
                d.num_points(dimension, include_essential=True) for d in args[:2])
        elif name == "perturb":
            c["robustness.flips"] += args[1].budget

    # -- aggregation --------------------------------------------------------

    def per_layer(self, traced_op_s: float, untraced_op_s: float) -> dict[str, float]:
        """Per-op metrics from the recorded spans and counters."""
        ops = max(self.traced_ops, 1)
        out = {name: 0.0 for name in METRIC_UNITS}
        op_self = 0.0
        for phase, _layer, name, _duration, self_s in self.spans:
            if phase == "op":
                op_self += self_s
                if name in _SELF_TIME:
                    out[_SELF_TIME[name]] += self_s / ops
        for key, value in self.counts.items():
            if key in out:
                out[key] = value / ops
        c = self.counts
        if c["graph.geodesics_calls"]:
            out["graph.geodesics_repeat_ratio"] = (c["geodesics_repeats"]
                                                   / c["graph.geodesics_calls"])
        if c["landmarks.cells_compared"]:
            out["landmarks.cells_unchanged_ratio"] = (c["cells_unchanged"]
                                                      / c["landmarks.cells_compared"])

        # load and config run once per run, outside the op: per call
        load = [s for s in self.spans if s[0] == "setup" and s[2] == "load_edge_list"]
        if load:
            out["graph.load_s"] = sum(s[4] for s in load) / len(load)
        config = [s for s in self.spans if s[0] == "config"]
        n_config = sum(1 for s in config if s[2] == "default_config") or 1
        for _phase, _layer, name, duration, self_s in config:
            if name == "diameter":          # inclusive: its all-pairs rows
                out["graph.diameter_s"] += duration / n_config
            elif name == "largest_connected_component":
                out["graph.lcc_s"] += self_s / n_config
            elif name == "default_config":
                out["images.config_self_s"] += self_s / n_config

        for layer, n in self.errors.items():
            out[f"{layer}.errors"] = n
        out["trace.op_s"] = traced_op_s
        out["trace.untraced_op_s"] = untraced_op_s
        out["trace.overhead_s"] = traced_op_s - untraced_op_s
        out["trace.spans_self_s"] = op_self / ops
        out["trace.unspanned_s"] = traced_op_s - op_self / ops
        return out

    def span_table(self) -> list[tuple[str, str, int, float, float]]:
        """(phase, name, calls, total seconds, self seconds), all ops summed."""
        rows: dict[tuple[str, str], list[float]] = {}
        for phase, _layer, name, duration, self_s in self.spans:
            row = rows.setdefault((phase, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += self_s
        return [(p, n, int(r[0]), r[1], r[2]) for (p, n), r in sorted(rows.items())]
