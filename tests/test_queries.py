"""End-to-end SQL tests through the Database façade: projection, filters,
joins, aggregation, set operations, ordering, subqueries, CTEs."""

import pytest

from repro.errors import BindError, CatalogError
from repro import Database


def rows(db, sql):
    return db.execute(sql).rows()


class TestProjectionAndFilter:
    def test_select_columns(self, people_db):
        result = rows(people_db, "SELECT name, age FROM people WHERE id = 1")
        assert result == [("ada", 36)]

    def test_select_star(self, people_db):
        result = people_db.execute("SELECT * FROM people")
        assert result.column_names() == ["id", "name", "age", "city"]
        assert len(result.rows()) == 5

    def test_computed_columns(self, people_db):
        result = rows(people_db,
                      "SELECT id * 10 + 1 FROM people WHERE id <= 2")
        assert result == [(11,), (21,)]

    def test_null_filtering(self, people_db):
        result = rows(people_db, "SELECT name FROM people WHERE age > 40")
        # barbara (age NULL) must not appear.
        assert sorted(r[0] for r in result) == ["alan", "edsger", "grace"]

    def test_is_null_filter(self, people_db):
        assert rows(people_db,
                    "SELECT name FROM people WHERE city IS NULL") \
            == [("edsger",)]

    def test_distinct(self, people_db):
        result = rows(people_db, "SELECT DISTINCT city FROM people")
        assert len(result) == 4  # london, new york, None, boston

    def test_where_on_missing_column(self, people_db):
        with pytest.raises(BindError):
            people_db.execute("SELECT * FROM people WHERE nope = 1")

    def test_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM ghost")

    def test_case_insensitive_identifiers(self, people_db):
        assert rows(people_db, "SELECT NAME FROM PEOPLE WHERE ID = 1") \
            == [("ada",)]


class TestJoins:
    def test_inner_join(self, graph_db):
        result = rows(graph_db, """
            SELECT e1.src, e2.dst FROM edges e1
            JOIN edges e2 ON e1.dst = e2.src
            ORDER BY e1.src, e2.dst""")
        assert (1, 3) in result and (3, 2) in result

    def test_left_join_pads_with_null(self, graph_db):
        result = rows(graph_db, """
            SELECT e1.src, e1.dst, e2.dst FROM edges e1
            LEFT JOIN edges e2 ON e1.dst = e2.src AND e2.weight > 10
            ORDER BY e1.src, e1.dst""")
        assert all(r[2] is None for r in result)
        assert len(result) == 5

    def test_right_join(self, db):
        db.execute("CREATE TABLE a (x int)")
        db.execute("CREATE TABLE b (x int)")
        db.load_rows("a", [(1,), (2,)])
        db.load_rows("b", [(2,), (3,)])
        result = rows(db, "SELECT a.x, b.x FROM a RIGHT JOIN b ON a.x = b.x "
                          "ORDER BY b.x")
        assert result == [(2, 2), (None, 3)]

    def test_full_join(self, db):
        db.execute("CREATE TABLE a (x int)")
        db.execute("CREATE TABLE b (x int)")
        db.load_rows("a", [(1,), (2,)])
        db.load_rows("b", [(2,), (3,)])
        result = set(rows(db,
                          "SELECT a.x, b.x FROM a FULL JOIN b ON a.x = b.x"))
        assert result == {(1, None), (2, 2), (None, 3)}

    def test_cross_join(self, db):
        db.execute("CREATE TABLE a (x int)")
        db.execute("CREATE TABLE b (y int)")
        db.load_rows("a", [(1,), (2,)])
        db.load_rows("b", [(10,), (20,)])
        assert len(rows(db, "SELECT * FROM a CROSS JOIN b")) == 4

    def test_non_equi_join(self, db):
        db.execute("CREATE TABLE a (x int)")
        db.execute("CREATE TABLE b (y int)")
        db.load_rows("a", [(1,), (2,), (3,)])
        db.load_rows("b", [(2,)])
        result = rows(db, "SELECT a.x FROM a JOIN b ON a.x < b.y")
        assert result == [(1,)]

    def test_self_join_requires_alias(self, graph_db):
        with pytest.raises(BindError):
            graph_db.execute(
                "SELECT * FROM edges JOIN edges ON edges.src = edges.dst")

    def test_null_join_keys_never_match(self, db):
        db.execute("CREATE TABLE a (x int)")
        db.execute("CREATE TABLE b (x int)")
        db.load_rows("a", [(None,), (1,)])
        db.load_rows("b", [(None,), (1,)])
        assert rows(db, "SELECT a.x FROM a JOIN b ON a.x = b.x") == [(1,)]

    def test_three_way_join(self, graph_db):
        result = rows(graph_db, """
            SELECT count(*) FROM edges e1
            JOIN edges e2 ON e1.dst = e2.src
            JOIN edges e3 ON e2.dst = e3.src""")
        assert result[0][0] > 0


class TestAggregation:
    def test_global_aggregates(self, people_db):
        result = rows(people_db,
                      "SELECT COUNT(*), COUNT(age), SUM(age), MIN(age), "
                      "MAX(age), AVG(age) FROM people")
        count_star, count_age, total, low, high, mean = result[0]
        assert count_star == 5
        assert count_age == 4  # one NULL age is skipped
        assert total == 36 + 45 + 41 + 72
        assert (low, high) == (36, 72)
        assert mean == pytest.approx(total / 4)

    def test_group_by(self, people_db):
        result = dict(rows(people_db,
                           "SELECT city, COUNT(*) FROM people "
                           "GROUP BY city"))
        assert result["london"] == 2
        assert result[None] == 1  # NULLs form one group

    def test_group_by_expression(self, graph_db):
        result = rows(graph_db,
                      "SELECT src % 2, COUNT(*) FROM edges GROUP BY src % 2 "
                      "ORDER BY src % 2")
        assert len(result) == 2

    def test_having(self, people_db):
        result = rows(people_db,
                      "SELECT city, COUNT(*) FROM people GROUP BY city "
                      "HAVING COUNT(*) > 1")
        assert result == [("london", 2)]

    def test_sum_of_empty_group_is_null_count_zero(self, db):
        db.execute("CREATE TABLE t (x int)")
        result = rows(db, "SELECT SUM(x), COUNT(x), COUNT(*) FROM t")
        assert result == [(None, 0, 0)]

    def test_min_max_of_empty_is_null(self, db):
        db.execute("CREATE TABLE t (x int)")
        assert rows(db, "SELECT MIN(x), MAX(x) FROM t") == [(None, None)]

    def test_count_distinct(self, people_db):
        assert rows(people_db,
                    "SELECT COUNT(DISTINCT city) FROM people") == [(3,)]

    def test_aggregate_over_nulls_only(self, db):
        db.execute("CREATE TABLE t (x int)")
        db.load_rows("t", [(None,), (None,)])
        assert rows(db, "SELECT SUM(x), COUNT(*) FROM t") == [(None, 2)]

    def test_null_only_group(self, db):
        db.execute("CREATE TABLE staff (dept int, salary float)")
        db.load_rows("staff", [(1, 2.0), (1, None), (1, 4.0),
                               (99, None), (99, None)])
        result = rows(db, "SELECT dept, COUNT(*), COUNT(salary), "
                          "SUM(salary), AVG(salary), MIN(salary), "
                          "MAX(salary) FROM staff GROUP BY dept "
                          "ORDER BY dept")
        # Every aggregate but COUNT(*) goes NULL/0 for the group whose
        # inputs are all NULL.
        assert result == [(1, 3, 2, 6.0, 3.0, 2.0, 4.0),
                          (99, 2, 0, None, None, None, None)]

    def test_integer_aggregates_and_count_distinct(self, db):
        db.execute("CREATE TABLE t (g int, x int)")
        db.load_rows("t", [(1, 5), (1, 5), (1, -3), (1, None),
                           (2, 7), (2, 7)])
        result = rows(db, "SELECT g, SUM(x), COUNT(DISTINCT x), MIN(x), "
                          "MAX(x) FROM t GROUP BY g ORDER BY g")
        assert result == [(1, 7, 2, -3, 5), (2, 14, 1, 7, 7)]
        assert all(isinstance(value, int)
                   for row in result for value in row)

    def test_expression_over_aggregates(self, people_db):
        result = rows(people_db,
                      "SELECT MAX(age) - MIN(age) FROM people")
        assert result == [(72 - 36,)]

    def test_non_grouped_column_rejected(self, people_db):
        with pytest.raises(BindError):
            people_db.execute(
                "SELECT name, COUNT(*) FROM people GROUP BY city")

    def test_aggregate_in_where_rejected(self, people_db):
        with pytest.raises(BindError):
            people_db.execute(
                "SELECT * FROM people WHERE SUM(age) > 10")

    def test_group_key_reused_in_select_expression(self, graph_db):
        result = rows(graph_db, """
            SELECT src * 100, COUNT(*) FROM edges GROUP BY src
            ORDER BY src * 100""")
        assert result[0][0] == 100


class TestSetOperations:
    def test_union_deduplicates(self, graph_db):
        result = rows(graph_db,
                      "SELECT src FROM edges UNION SELECT dst FROM edges")
        assert sorted(r[0] for r in result) == [1, 2, 3, 4]

    def test_union_all_keeps_duplicates(self, graph_db):
        result = rows(graph_db, "SELECT src FROM edges UNION ALL "
                                "SELECT dst FROM edges")
        assert len(result) == 10

    def test_union_type_widening(self, db):
        result = rows(db, "SELECT 1 UNION SELECT 2.5")
        assert sorted(r[0] for r in result) == [1.0, 2.5]

    def test_union_arity_mismatch(self, db):
        from repro.errors import PlanError
        with pytest.raises(PlanError):
            db.execute("SELECT 1 UNION SELECT 1, 2")


class TestOrderingAndLimit:
    def test_order_by_desc(self, people_db):
        result = rows(people_db,
                      "SELECT name FROM people WHERE age IS NOT NULL "
                      "ORDER BY age DESC")
        assert result[0] == ("edsger",)

    def test_nulls_sort_last_ascending(self, people_db):
        result = rows(people_db, "SELECT age FROM people ORDER BY age")
        assert result[-1] == (None,)

    def test_order_by_expression(self, graph_db):
        result = rows(graph_db,
                      "SELECT src, dst FROM edges ORDER BY src + dst DESC")
        assert result[0] == (4, 1) or result[0][0] + result[0][1] == \
            max(s + d for s, d, _ in
                [(1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 1, 0), (4, 1, 0)])

    def test_limit_offset(self, people_db):
        result = rows(people_db,
                      "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1")
        assert result == [(2,), (3,)]

    def test_limit_beyond_rows(self, people_db):
        assert len(rows(people_db,
                        "SELECT id FROM people LIMIT 100")) == 5

    def test_order_by_alias(self, graph_db):
        result = rows(graph_db, """
            SELECT src, COUNT(*) AS c FROM edges GROUP BY src
            ORDER BY c DESC, src""")
        assert result[0] == (1, 2)


class TestSubqueriesAndCtes:
    def test_derived_table(self, graph_db):
        result = rows(graph_db, """
            SELECT t.s FROM (SELECT src AS s FROM edges WHERE weight > 0.6)
            AS t ORDER BY t.s""")
        assert result == [(2,), (3,), (4,)]

    def test_unaliased_derived_table(self, graph_db):
        result = rows(graph_db,
                      "SELECT src FROM (SELECT src FROM edges) ORDER BY src")
        assert len(result) == 5

    def test_regular_cte(self, graph_db):
        result = rows(graph_db, """
            WITH heavy AS (SELECT src, dst FROM edges WHERE weight >= 1.0)
            SELECT COUNT(*) FROM heavy""")
        assert result == [(3,)]

    def test_cte_with_declared_columns(self, graph_db):
        result = rows(graph_db, """
            WITH pairs (a, b) AS (SELECT src, dst FROM edges)
            SELECT a FROM pairs WHERE b = 3 ORDER BY a""")
        assert result == [(1,), (2,)]

    def test_cte_referenced_twice(self, graph_db):
        result = rows(graph_db, """
            WITH nodes AS (SELECT src AS n FROM edges
                           UNION SELECT dst FROM edges)
            SELECT COUNT(*) FROM nodes x JOIN nodes y ON x.n = y.n""")
        assert result == [(4,)]

    def test_multiple_ctes_later_sees_earlier(self, graph_db):
        result = rows(graph_db, """
            WITH a AS (SELECT src FROM edges),
                 b AS (SELECT COUNT(*) AS c FROM a)
            SELECT c FROM b""")
        assert result == [(5,)]

    def test_select_without_from(self, db):
        assert rows(db, "SELECT 1 + 1, 'x'") == [(2, "x")]
