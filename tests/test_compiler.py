"""Expression compiler tests: compiled closures must agree with the
interpreter on every expression, and the cache must actually hit inside
iterative loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.execution import Frame, evaluate
from repro.execution.compiler import ExpressionCache, compile_expression
from repro.plan.logical import Field
from repro.sql import parse
from repro.storage import Column
from repro.types import SqlType


def expr_of(text):
    return parse(f"SELECT {text}").items[0].expr


def frame_of(**columns):
    fields = []
    cols = []
    for name, (sql_type, values) in columns.items():
        fields.append(Field("t", name, sql_type))
        cols.append(Column.from_values(sql_type, values))
    return Frame(tuple(fields), cols)


def assert_equivalent(text, frame):
    expr = expr_of(text)
    interpreted = evaluate(expr, frame)
    compiled = compile_expression(expr, frame.fields)(frame)
    assert compiled.sql_type is interpreted.sql_type \
        or {compiled.sql_type, interpreted.sql_type} \
        <= {SqlType.FLOAT, SqlType.NUMERIC}
    assert compiled.to_list() == interpreted.to_list(), text


INT_FRAME_VALUES = {
    "x": (SqlType.INTEGER, [1, 2, None, -4, 0]),
    "y": (SqlType.INTEGER, [10, None, 30, 40, 0]),
    "f": (SqlType.FLOAT, [0.5, None, 2.5, -1.0, 0.0]),
    "b": (SqlType.BOOLEAN, [True, False, None, True, False]),
}


class TestEquivalence:
    @pytest.mark.parametrize("text", [
        "x", "42", "1.5", "NULL", "TRUE", "'hello'",
        "x + y", "x - y", "x * y", "x + f", "f * 2.0",
        "-x", "+x",
        "x = y", "x <> y", "x < y", "x <= y", "x > y", "x >= y",
        "x = 2", "f > 1.0",
        "b AND x > 0", "b OR x > 0", "NOT b",
        "x IS NULL", "x IS NOT NULL",
        "x > 0 AND y > 0 OR f > 1.0",
        "(x + y) * 2 > 10",
    ])
    def test_corpus(self, text):
        assert_equivalent(text, frame_of(**INT_FRAME_VALUES))

    def test_fallback_cases_still_work(self):
        # These are not compiled (fallback to the interpreter) but the
        # compiled entry point must still produce correct results.
        frame = frame_of(**INT_FRAME_VALUES)
        for text in ["x / 2", "x % 3", "COALESCE(x, 0)",
                     "CASE WHEN x > 0 THEN 1 ELSE 0 END",
                     "CAST(x AS float)", "x IN (1, 2)",
                     "x BETWEEN 0 AND 3", "LEAST(x, y)"]:
            assert_equivalent(text, frame)

    @given(st.lists(st.one_of(st.none(), st.integers(-100, 100)),
                    min_size=1, max_size=30),
           st.lists(st.one_of(st.none(), st.integers(-100, 100)),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_arithmetic_property(self, xs, ys):
        size = min(len(xs), len(ys))
        frame = frame_of(x=(SqlType.INTEGER, xs[:size]),
                         y=(SqlType.INTEGER, ys[:size]))
        for text in ["x + y", "x * y - 3", "x < y", "x = y",
                     "x IS NULL OR y > 0"]:
            assert_equivalent(text, frame)

    @given(st.lists(st.one_of(st.none(), st.booleans()),
                    min_size=1, max_size=25),
           st.lists(st.one_of(st.none(), st.booleans()),
                    min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_kleene_logic_property(self, ps, qs):
        size = min(len(ps), len(qs))
        frame = frame_of(p=(SqlType.BOOLEAN, ps[:size]),
                         q=(SqlType.BOOLEAN, qs[:size]))
        for text in ["p AND q", "p OR q", "NOT p",
                     "p AND NOT q", "NOT (p OR q)"]:
            assert_equivalent(text, frame)


class TestCache:
    def test_cache_hits_on_repeated_node(self):
        cache = ExpressionCache()
        expr = expr_of("x + 1")
        fields = (Field("t", "x", SqlType.INTEGER),)
        first = cache.get(expr, fields, node_key=1)
        second = cache.get(expr, fields, node_key=1)
        assert first is second
        assert cache.compilations == 1
        assert cache.hits == 1

    def test_different_nodes_compile_separately(self):
        cache = ExpressionCache()
        expr = expr_of("x + 1")
        fields = (Field("t", "x", SqlType.INTEGER),)
        cache.get(expr, fields, node_key=1)
        cache.get(expr, fields, node_key=2)
        assert cache.compilations == 2

    def test_iterative_loop_reuses_compiled_expressions(self, db):
        db.execute("""
            CREATE TABLE t (k int, v int)""")
        db.load_rows("t", [(i, i) for i in range(50)])
        db.execute("""
            WITH ITERATIVE r (k, v) AS (
              SELECT k, v FROM t ITERATE SELECT k, v + 1 FROM r
              UNTIL 20 ITERATIONS
            ) SELECT SUM(v) FROM r""")
        # The context is per-statement, so inspect via a fresh run.
        from repro.execution import ExecutionContext
        from repro.core.rewrite import compile_statement
        from repro.runtime import run_program
        from repro.plan import PlanContext
        program = compile_statement(
            parse("""
            WITH ITERATIVE r (k, v) AS (
              SELECT k, v FROM t ITERATE SELECT k, v + 1 FROM r
              UNTIL 20 ITERATIONS
            ) SELECT SUM(v) FROM r"""),
            PlanContext(db.catalog), db.options, db.stats)
        ctx = ExecutionContext(db.catalog, db.registry, db.options,
                               db.stats)
        run_program(program, ctx)
        # 20 iterations of the same Project: compiled once, hit 19+ times.
        assert ctx.expr_cache.hits >= 19
        assert ctx.expr_cache.compilations < ctx.expr_cache.hits


class TestEngineEquivalence:
    """Full queries must not care whether the compiler is on."""

    @pytest.mark.parametrize("sql", [
        "SELECT src + dst * 2 FROM edges WHERE weight > 0.4",
        "SELECT src FROM edges WHERE src = 1 AND dst > 1 OR weight >= 1.0",
        """WITH ITERATIVE r (k, v) AS (
             SELECT src, 0 FROM (SELECT DISTINCT src FROM edges)
             ITERATE SELECT k, v + k FROM r UNTIL 5 ITERATIONS
           ) SELECT k, v FROM r""",
    ])
    def test_compiled_equals_interpreted(self, sql, graph_db):
        graph_db.set_option("enable_expr_compile", True)
        compiled = sorted(graph_db.execute(sql).rows())
        graph_db.set_option("enable_expr_compile", False)
        interpreted = sorted(graph_db.execute(sql).rows())
        assert compiled == interpreted
        graph_db.set_option("enable_expr_compile", True)
