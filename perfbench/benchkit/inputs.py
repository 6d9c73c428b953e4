"""Workload inputs, generated from the run's seed only.

The engine receives nothing but what these functions return: table rows
and statement texts.  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.generators import (
    dblp_like,
    generate_edges,
    generate_vertex_status,
)

NODES = 6000
SSSP_SOURCE = 1


@dataclass(frozen=True)
class Graph:
    nodes: int
    edges: list            # (src, dst, weight)
    status: list           # (node, status)


def graph(seed: int, nodes: int = NODES) -> Graph:
    """A DBLP-shaped graph (edges/node ≈ 3.3) plus its vertexStatus."""
    spec = dblp_like(nodes, seed=seed)
    return Graph(nodes, generate_edges(spec), generate_vertex_status(spec))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class RefreshBatches:
    """The ``refresh`` workload's edge batches.

    Every edge of batch *c* carries one weight ``w_c`` that no base edge
    and no other batch has, so ``DELETE ... WHERE weight = w_c`` removes
    exactly that batch."""

    def __init__(self, seed: int, nodes: int, base_edges: list,
                 size: int = 100):
        self._rng = _rng(seed, 2)
        self._nodes = nodes
        self._size = size
        self._used = {weight for _, _, weight in base_edges}

    def next(self) -> tuple[float, list]:
        while True:
            weight = round(float(self._rng.uniform(0.05, 0.95)), 6)
            if weight not in self._used:
                break
        self._used.add(weight)
        src = self._rng.integers(0, self._nodes, size=self._size)
        dst = (src + self._rng.integers(1, self._nodes, size=self._size)) \
            % self._nodes
        return weight, [(int(s), int(d), weight) for s, d in zip(src, dst)]


def insert_sql(rows: list) -> str:
    values = ", ".join(f"({s}, {d}, {w!r})" for s, d, w in rows)
    return f"INSERT INTO edges VALUES {values}"


def delete_sql(weight: float) -> str:
    return f"DELETE FROM edges WHERE weight = {weight!r}"


# The serve mix: (kind, share).
SERVE_MIX = (("lookup", 0.80), ("neighbours", 0.15), ("update", 0.05))
# Requests drawn from the generator at a time.
SERVE_BLOCK = 4096


class ServeStream:
    """The ``serve`` request stream: statement kind by the fixed mix, key
    by Zipf(1.0) over the node ids (popularity shuffled so that id does
    not encode it), and the value each UPDATE writes."""

    def __init__(self, seed: int, nodes: int):
        self._rng = _rng(seed, 3)
        popularity = 1.0 / np.arange(1, nodes + 1, dtype=np.float64)
        self._popularity = popularity / popularity.sum()
        self._ids = self._rng.permutation(nodes)
        self._nodes = nodes
        self._buffer: list = []

    def _refill(self) -> None:
        size = SERVE_BLOCK
        kinds = self._rng.choice(len(SERVE_MIX), size=size,
                                 p=[share for _, share in SERVE_MIX])
        keys = self._ids[self._rng.choice(self._nodes, size=size,
                                          p=self._popularity)]
        values = self._rng.integers(0, 10, size=size)
        self._buffer = [(SERVE_MIX[k][0], int(key), int(value))
                        for k, key, value in zip(kinds, keys, values)]
        self._buffer.reverse()

    def next(self, reads_only: bool = False) -> tuple[str, int, int]:
        while True:
            if not self._buffer:
                self._refill()
            request = self._buffer.pop()
            if not (reads_only and request[0] == "update"):
                return request


def serve_sql(kind: str, key: int, value: int) -> str:
    if kind == "lookup":
        return f"SELECT status FROM vertexStatus WHERE node = {key}"
    if kind == "neighbours":
        return f"SELECT COUNT(*), SUM(weight) FROM edges WHERE src = {key}"
    return f"UPDATE vertexStatus SET status = {value} WHERE node = {key}"
