"""Semi-naive delta evaluation for ITERATIVE CTEs.

Covers the safety analyzer (which step queries are provably per-key),
the program shape the rewrite emits, bit-identity of delta-mode results
against the always-correct full recomputation across workloads and
termination families, the runtime's self-disabling fallbacks, and the
EXPLAIN ANALYZE integration (frontier-sized delta_rows, measured
iteration feedback)."""

import numpy as np
import pytest

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.execution import SessionOptions
from repro.plan.program import DeltaFusedStep
from repro.types import SqlType
from repro.workloads import (
    ff_query,
    pagerank_query,
    reference_pagerank,
    reference_sssp,
    sssp_query,
)

EDGES = generate_edges(dblp_like(nodes=200, seed=21))


def dag_edges(num_nodes=400, num_edges=1600, seed=5):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(1, num_nodes + 1, size=2)
        if a < b:
            edges.add((int(a), int(b)))
    return [(a, b, round(float(rng.uniform(0.1, 2.0)), 3))
            for a, b in sorted(edges)]


def graph_db(edges, delta_on=True, **options) -> Database:
    db = Database(SessionOptions(enable_delta_iteration=delta_on,
                                 **options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


def both_modes(sql, edges=EDGES):
    """(full rows, delta rows, delta-mode database) for one query."""
    full = graph_db(edges, delta_on=False).execute(sql).rows()
    db = graph_db(edges, delta_on=True)
    delta = db.execute(sql).rows()
    return full, delta, db


class TestBitIdentity:
    def test_sssp(self):
        full, delta, db = both_modes(sssp_query(source=1, iterations=10))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_pagerank(self):
        full, delta, db = both_modes(pagerank_query(iterations=8))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_friends(self):
        full, delta, db = both_modes(
            ff_query(iterations=5, selectivity_mod=7))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_sssp_on_dag_where_the_frontier_empties(self):
        edges = dag_edges()
        full, delta, db = both_modes(
            sssp_query(source=1, iterations=40), edges)
        assert full == delta
        # The wave dies out long before iteration 40: most delta-mode
        # iterations see an empty frontier and skip both loop bodies.
        assert db.stats.delta_iterations >= 30

    def test_matches_reference_sssp(self):
        edges = dag_edges()
        db = graph_db(edges, delta_on=True)
        got = dict(db.execute(sssp_query(source=1, iterations=40)).rows())
        assert got == reference_sssp(edges, source=1, iterations=40)

    def test_matches_reference_pagerank(self):
        db = graph_db(EDGES, delta_on=True)
        got = dict(db.execute(pagerank_query(iterations=6)).rows())
        reference = reference_pagerank(EDGES, iterations=6)
        assert got.keys() == reference.keys()
        for node, rank in got.items():
            assert rank == pytest.approx(reference[node], abs=1e-9)


class TestTerminationFamilies:
    def test_updates_budget(self):
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", "UNTIL 250 UPDATES")
        full, delta, db = both_modes(sql, dag_edges(300, 1200))
        assert full == delta

    def test_delta_condition_converges(self):
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", "UNTIL DELTA = 0")
        full, delta, db = both_modes(sql, dag_edges(300, 1200))
        assert full == delta
        assert db.stats.delta_iterations > 0


class TestProgramShape:
    def _program(self, sql, delta_on, **options):
        from repro.core.rewrite import compile_statement
        from repro.execution import ExecutionStats
        from repro.plan import PlanContext
        from repro.sql import parse
        db = graph_db(EDGES, delta_on=delta_on, **options)
        return compile_statement(
            parse(sql), PlanContext(db.catalog), db.options,
            ExecutionStats())

    def test_fused_delta_step_emitted_when_safe_and_enabled(self):
        program = self._program(sssp_query(source=1, iterations=5), True)
        fused = [s for s in program.steps if isinstance(s, DeltaFusedStep)]
        assert len(fused) == 1
        assert fused[0].jump_full > 0
        assert fused[0].jump_to > fused[0].jump_full
        assert fused[0].jump_to == fused[0].jump_done

    def test_no_delta_steps_when_disabled(self):
        program = self._program(sssp_query(source=1, iterations=5), False)
        assert not any(isinstance(step, DeltaFusedStep)
                       for step in program.steps)

    def test_unsafe_step_query_falls_back(self):
        # Item 0 is not the bare anchor key: the analyzer must refuse.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges GROUP BY src
          ITERATE SELECT r.node + 0, r.v + 1.0 FROM r
          UNTIL 3 ITERATIONS
        ) SELECT node, v FROM r"""
        program = self._program(sql, True)
        assert not any(isinstance(step, DeltaFusedStep)
                       for step in program.steps)
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.delta_iterations == 0


class TestRuntimeFallbacks:
    def test_duplicate_keys_disable_delta_but_stay_correct(self):
        # The init query emits duplicate keys; the capture step detects
        # this on iteration 1 and permanently routes to the full body.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges
          ITERATE SELECT r.node, r.v + 1.0 FROM r
          UNTIL 3 ITERATIONS
        ) SELECT node, v FROM r"""
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.delta_iterations == 0


class TestExplainAnalyze:
    def test_delta_rows_report_the_frontier(self):
        edges = dag_edges(300, 1200)
        db = graph_db(edges, delta_on=True)
        db.execute(sssp_query(source=1, iterations=25))
        db.set_option("enable_tracing", True)
        db.execute(sssp_query(source=1, iterations=25))
        records = db.last_trace().loops[0].records
        # Once the wave dies the frontier is empty, and the telemetry
        # shows it (full recomputation would report full-table deltas).
        assert records[-1].delta_rows == 0
        assert any(r.delta_rows > 0 for r in records)

    def test_measured_iterations_feed_the_cost_model(self):
        db = graph_db(dag_edges(300, 1200), delta_on=True)
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", "UNTIL DELTA = 0")
        first = db.explain_analyze(sql)
        assert "(heuristic)" in first and "measured" in first
        second = db.explain_analyze(sql)
        assert "(measured)" in second and "error +0%" in second

    def test_exact_termination_stays_exact(self):
        db = graph_db(EDGES, delta_on=True)
        sql = sssp_query(source=1, iterations=8)
        db.explain_analyze(sql)
        report = db.explain_analyze(sql)
        assert "8 iterations (exact)" in report
