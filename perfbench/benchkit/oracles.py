"""Answer checks.

The repository's own oracles (``reference_pagerank``, ``reference_sssp``,
``reference_components``, ``true_shortest_paths``) are pure Python and
take a few hundred ms on the benchmark graph.  ``refresh`` needs an
oracle per cycle, so it uses the vectorized recurrences below, which are
checked against the repository's oracles once per run.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.pagerank import BASE_DELTA, DAMPING
from repro.workloads.sssp import INFINITY

TOLERANCE = 1e-9   # absolute, as the repository's tests use


def pagerank_vector(edges: list, nodes: int, iterations: int) -> np.ndarray:
    """``reference_pagerank`` (no availability) over nodes 0..n-1; nodes
    without incoming edges get a zero delta, as the COALESCE'd query."""
    src, dst, weight = _arrays(edges)
    rank = np.zeros(nodes)
    delta = np.full(nodes, BASE_DELTA)
    for _ in range(iterations):
        incoming = np.bincount(dst, weights=delta[src] * weight,
                               minlength=nodes)
        rank = rank + delta
        delta = DAMPING * incoming
    return rank


def sssp_vector(edges: list, nodes: int, source: int,
                iterations: int) -> np.ndarray:
    """``reference_sssp`` over nodes 0..n-1: distance lags delta by one
    round and nodes without a finite candidate keep their values."""
    src, dst, weight = _arrays(edges)
    distance = np.full(nodes, float(INFINITY))
    delta = np.full(nodes, float(INFINITY))
    delta[source] = 0.0
    for _ in range(iterations):
        live = delta[src] != INFINITY
        best = np.full(nodes, np.inf)
        np.minimum.at(best, dst[live], delta[src[live]] + weight[live])
        reached = np.isfinite(best)
        distance = np.where(reached, np.minimum(distance, delta), distance)
        delta = np.where(reached, best, delta)
    return distance


def _arrays(edges: list):
    array = np.asarray(edges, dtype=np.float64)
    return (array[:, 0].astype(np.int64), array[:, 1].astype(np.int64),
            array[:, 2])


def as_vector(mapping: dict, nodes: int) -> np.ndarray:
    vector = np.full(nodes, np.nan)
    for node, value in mapping.items():
        vector[node] = value
    return vector


def keyed_result(table, nodes: int) -> np.ndarray:
    """A two-column (node, value) result as a vector indexed by node;
    raises ValueError unless every node appears exactly once."""
    keys = table.columns[0]
    values = table.columns[1]
    if keys.mask.any() or values.mask.any():
        raise ValueError("NULL in result")
    node_ids = keys.data.astype(np.int64)
    if len(node_ids) != nodes or not np.array_equal(
            np.sort(node_ids), np.arange(nodes)):
        raise ValueError(f"result covers {len(node_ids)} rows, "
                         f"not each of {nodes} nodes once")
    vector = np.empty(nodes)
    vector[node_ids] = values.data.astype(np.float64)
    return vector


def mismatch(got: np.ndarray, expected: np.ndarray,
             tolerance: float = TOLERANCE) -> str | None:
    """None when the vectors agree within ``tolerance``, else a short
    description of the worst disagreement."""
    if got.shape != expected.shape:
        return f"shape {got.shape} != {expected.shape}"
    error = np.abs(got - expected)
    if np.isnan(error).any():
        return "missing or NaN values"
    worst = int(np.argmax(error))
    if error[worst] > tolerance:
        return (f"node {worst}: got {got[worst]!r}, "
                f"expected {expected[worst]!r}")
    return None
