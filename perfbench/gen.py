"""Seeded graph generator for the benchmark.

A graph is a random recursive spanning tree over a random node order plus
``n`` extra distinct edges, so it is connected, has exactly ``2n - 1`` edges
and a mean degree just under 4. The output is edge-list text in the format
``wtopo.load_edge_list`` parses, with the lines shuffled so the parser sees
no sorted input. Weights, when asked for, are uniform in [0.5, 2].

The generator uses only numpy, so it does not depend on the package under
test or on its test suite. ``seed`` is anything ``numpy.random.default_rng``
accepts: the benchmark passes the run's seed for its first graph and
``(seed, k)`` for its k-th extra graph.
"""

from __future__ import annotations

import numpy as np


def edge_list_text(n: int, seed, weighted: bool) -> str:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # node order[i] attaches to a uniformly chosen earlier node order[j], j < i
    earlier = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    a, b = order[1:], order[earlier]
    pairs = {(int(u), int(v)) for u, v in zip(np.minimum(a, b), np.maximum(a, b))}
    target = 2 * n - 1
    while len(pairs) < target:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    shuffle = rng.permutation(len(edges))
    if weighted:
        w = rng.uniform(0.5, 2.0, size=len(edges))
        lines = [f"{edges[k][0]} {edges[k][1]} {float(w[k])!r}" for k in shuffle]
    else:
        lines = [f"{edges[k][0]} {edges[k][1]}" for k in shuffle]
    return "\n".join(lines) + "\n"
