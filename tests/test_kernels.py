"""Kernel tests: key encoding, join-pair generation, grouping, sorting —
checked against brute-force references with hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.kernel_cache import (
    build_dictionary,
    build_join_index,
    dense_limit,
)
from repro.execution.kernels import (
    build_probe_index,
    distinct_indices,
    encode_keys,
    equi_join_pairs,
    factorize,
    group_ids,
    sort_indices,
)
from repro.storage import Column
from repro.types import SqlType

int_lists = st.lists(st.one_of(st.none(), st.integers(-20, 20)), max_size=40)
INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


class TestFactorize:
    def test_basic_codes(self):
        column = Column.from_values(SqlType.INTEGER, [5, 3, 5, 3, 9])
        codes, cardinality = factorize(column, nulls_match=False)
        assert cardinality == 3
        assert codes[0] == codes[2]
        assert codes[1] == codes[3]
        assert len(set(codes.tolist())) == 3

    def test_nulls_no_match(self):
        column = Column.from_values(SqlType.INTEGER, [1, None, 1, None])
        codes, _ = factorize(column, nulls_match=False)
        assert codes[1] == -1 and codes[3] == -1

    def test_nulls_match_form_a_group(self):
        column = Column.from_values(SqlType.INTEGER, [1, None, None])
        codes, cardinality = factorize(column, nulls_match=True)
        assert codes[1] == codes[2] >= 0
        assert cardinality == 2

    def test_text_column(self):
        column = Column.from_values(SqlType.TEXT, ["a", "b", "a", None])
        codes, _ = factorize(column, nulls_match=False)
        assert codes[0] == codes[2]
        assert codes[3] == -1

    def test_empty(self):
        column = Column.from_values(SqlType.INTEGER, [])
        codes, cardinality = factorize(column, nulls_match=False)
        assert len(codes) == 0
        assert cardinality == 0


class TestEncodeKeys:
    def test_multi_column_distinguishes(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 2, 2])
        b = Column.from_values(SqlType.INTEGER, [1, 2, 1, 1])
        codes = encode_keys([a, b], nulls_match=True)
        assert codes[2] == codes[3]
        assert len(set(codes.tolist())) == 3

    def test_null_poisons_join_keys(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1])
        b = Column.from_values(SqlType.INTEGER, [2, None])
        codes = encode_keys([a, b], nulls_match=False)
        assert codes[1] == -1
        assert codes[0] >= 0

    @given(int_lists, int_lists)
    def test_equal_rows_get_equal_codes(self, a_vals, b_vals):
        size = min(len(a_vals), len(b_vals))
        a = Column.from_values(SqlType.INTEGER, a_vals[:size])
        b = Column.from_values(SqlType.INTEGER, b_vals[:size])
        codes = encode_keys([a, b], nulls_match=True)
        rows = list(zip(a_vals[:size], b_vals[:size]))
        for i in range(size):
            for j in range(size):
                assert (codes[i] == codes[j]) == (rows[i] == rows[j])


class TestEquiJoinPairs:
    def _pairs(self, left, right):
        left_col = Column.from_values(SqlType.INTEGER, left)
        right_col = Column.from_values(SqlType.INTEGER, right)
        joint = left_col.concat(right_col)
        codes = encode_keys([joint], nulls_match=False)
        li, ri = equi_join_pairs(codes[:len(left)], codes[len(left):])
        return sorted(zip(li.tolist(), ri.tolist()))

    def test_simple_join(self):
        pairs = self._pairs([1, 2, 3], [2, 3, 3])
        assert pairs == [(1, 0), (2, 1), (2, 2)]

    def test_no_matches(self):
        assert self._pairs([1, 2], [3, 4]) == []

    def test_nulls_never_match(self):
        assert self._pairs([None], [None]) == []

    def test_duplicates_multiply(self):
        pairs = self._pairs([1, 1], [1, 1, 1])
        assert len(pairs) == 6

    def test_empty_sides(self):
        assert self._pairs([], [1]) == []
        assert self._pairs([1], []) == []

    @given(int_lists, int_lists)
    @settings(max_examples=60)
    def test_matches_brute_force(self, left, right):
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left) if lv is not None
            for j, rv in enumerate(right) if rv == lv and rv is not None)
        assert self._pairs(left, right) == expected

    def test_pairs_grouped_by_left_row_order(self):
        left_col = Column.from_values(SqlType.INTEGER, [3, 1, 3])
        right_col = Column.from_values(SqlType.INTEGER, [3, 1])
        joint = left_col.concat(right_col)
        codes = encode_keys([joint], nulls_match=False)
        li, _ = equi_join_pairs(codes[:3], codes[3:])
        assert li.tolist() == sorted(li.tolist())


class TestGroupIds:
    def test_group_structure(self):
        column = Column.from_values(SqlType.INTEGER, [7, 7, 8, 7])
        codes = encode_keys([column], nulls_match=True)
        gids, first = group_ids(codes)
        assert len(first) == 2
        assert gids[0] == gids[1] == gids[3]
        assert gids[2] != gids[0]

    @given(int_lists)
    def test_first_index_points_to_representative(self, values):
        if not values:
            return
        column = Column.from_values(SqlType.INTEGER, values)
        codes = encode_keys([column], nulls_match=True)
        gids, first = group_ids(codes)
        for gid, index in enumerate(first):
            assert gids[index] == gid


class TestDistinct:
    def test_keeps_first_occurrence(self):
        a = Column.from_values(SqlType.INTEGER, [1, 2, 1, 3, 2])
        keep = distinct_indices([a])
        assert keep.tolist() == [0, 1, 3]

    def test_nulls_are_one_value(self):
        a = Column.from_values(SqlType.INTEGER, [None, None, 1])
        assert len(distinct_indices([a])) == 2

    @given(int_lists)
    def test_distinct_count_matches_set(self, values):
        if not values:
            return
        column = Column.from_values(SqlType.INTEGER, values)
        expected = len({(v is None, v) for v in values})
        assert len(distinct_indices([column])) == expected


class TestSort:
    def test_ascending_with_nulls_last(self):
        column = Column.from_values(SqlType.INTEGER, [3, None, 1])
        order = sort_indices([column], [True])
        assert order.tolist() == [2, 0, 1]

    def test_descending(self):
        column = Column.from_values(SqlType.INTEGER, [3, 1, 2])
        order = sort_indices([column], [False])
        assert [column[i] for i in order] == [3, 2, 1]

    def test_multi_key(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 0])
        b = Column.from_values(SqlType.INTEGER, [2, 1, 9])
        order = sort_indices([a, b], [True, True])
        assert order.tolist() == [2, 1, 0]

    def test_stability(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 1])
        order = sort_indices([a], [True])
        assert order.tolist() == [0, 1, 2]

    @given(st.lists(st.integers(-50, 50), max_size=40))
    def test_matches_python_sorted(self, values):
        column = Column.from_values(SqlType.INTEGER, values)
        order = sort_indices([column], [True])
        assert [column[i] for i in order] == sorted(values)


# ---------------------------------------------------------------------------
# Direct-address kernels: counting dictionaries, CSR probe, bitmap grouping
# ---------------------------------------------------------------------------


def unique_reference(column: Column):
    """``np.unique`` factorization of the valid values (the sort path)."""
    valid = ~column.mask
    uniques, inverse = np.unique(column.data[valid], return_inverse=True)
    codes = np.full(len(column), -1, dtype=np.int64)
    codes[valid] = inverse
    return uniques, codes


def assert_dictionary_matches_unique(column: Column):
    dictionary = build_dictionary(column)
    uniques, codes = unique_reference(column)
    assert dictionary.uniques.dtype == uniques.dtype
    assert dictionary.uniques.tolist() == uniques.tolist()
    assert dictionary.codes.tolist() == codes.tolist()
    assert dictionary.has_nulls == bool(column.mask.any())


def nested_loop_pairs(left_rows, right_rows):
    """Inner equi-join reference: a NULL in any key column never matches."""
    return sorted(
        (i, j)
        for i, lr in enumerate(left_rows) if None not in lr
        for j, rr in enumerate(right_rows) if lr == rr)


def int_column(values) -> Column:
    return Column.from_values(SqlType.INTEGER, list(values))


class TestDenseDictionary:
    @pytest.mark.parametrize("rows", [1, 10, 500])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_span_at_the_density_bound(self, rows, extra):
        # Values 0 .. span-1 with the span just below, at and just above
        # dense_limit(rows): both sides of the switch agree with np.unique.
        span = dense_limit(rows) + extra
        rng = np.random.default_rng(rows + extra)
        values = rng.integers(0, span, rows)
        values[0], values[-1] = 0, span - 1
        assert_dictionary_matches_unique(int_column((values - 7).tolist()))

    @pytest.mark.parametrize("values", [
        [INT64_MIN, INT64_MAX],
        [INT64_MAX, INT64_MAX - 1, INT64_MAX],
        [INT64_MIN + 1, INT64_MIN, INT64_MIN + 3],
        [-5, -1, -5, -3, 0],
        [INT64_MIN, 0],
    ])
    def test_extreme_and_negative_values(self, values):
        assert_dictionary_matches_unique(int_column(values))

    @given(st.lists(st.one_of(st.none(), st.integers(INT64_MIN, INT64_MAX)),
                    max_size=30))
    @settings(max_examples=60)
    def test_any_int64_values_match_unique(self, values):
        assert_dictionary_matches_unique(int_column(values))

    @given(int_lists)
    def test_nulls_in_both_encodings(self, values):
        column = int_column(values)
        uniques, reference = unique_reference(column)
        for nulls_match in (False, True):
            codes, cardinality = factorize(column, nulls_match)
            null_code = len(uniques) if nulls_match else -1
            expected = np.where(column.mask, null_code, reference)
            assert codes.tolist() == expected.tolist()
            assert cardinality == len(uniques) + int(nulls_match)

    def test_float_text_and_boolean_keep_the_sort_path(self):
        for sql_type, values in [
                (SqlType.FLOAT, [2.5, None, -1.0, 2.5]),
                (SqlType.TEXT, ["b", None, "a", "b"]),
                (SqlType.BOOLEAN, [True, None, False, True])]:
            column = Column.from_values(sql_type, values)
            dictionary = build_dictionary(column)
            assert dictionary.codes.tolist() == [1, -1, 0, 1]


class TestDenseEncoding:
    @staticmethod
    def multi_columns(rows, width, distinct, seed, null_rate=0.0):
        rng = np.random.default_rng(seed)
        columns = []
        for _ in range(width):
            values = rng.integers(0, distinct, rows).tolist()
            nulls = rng.random(rows) < null_rate
            columns.append(int_column(
                [None if n else v for v, n in zip(values, nulls)]))
        return columns

    @pytest.mark.parametrize("width,distinct", [
        (2, 40),     # radix product 1600 > rows, below dense_limit
        (2, 400),    # radix product 160000 > dense_limit: re-densified
        (9, 400),    # radix product ~210**9 > 2**62
    ])
    @pytest.mark.parametrize("nulls_match", [False, True])
    def test_codes_are_dense_and_match_joint_unique(self, width, distinct,
                                                    nulls_match):
        rows = 300
        columns = self.multi_columns(rows, width, distinct,
                                     seed=width * distinct, null_rate=0.1)
        if width == 9:
            product = 1
            for column in columns:
                product *= factorize(column, nulls_match)[1]
            assert product > 1 << 62
        codes = encode_keys(columns, nulls_match=nulls_match)
        tuples = list(zip(*(c.to_list() for c in columns)))
        valid = np.array([nulls_match or None not in t for t in tuples])
        assert (codes[~valid] == -1).all()
        assert (codes[valid] >= 0).all()
        assert codes.max() < dense_limit(rows)
        # Codes order rows like their per-column codes, lexicographically
        # (the order the group output inherits), and partition them like
        # tuple equality.
        per_column = np.stack(
            [factorize(c, nulls_match)[0] for c in columns], axis=1)
        _, reference = np.unique(per_column[valid], axis=0,
                                 return_inverse=True)
        _, got = np.unique(codes[valid], return_inverse=True)
        assert got.tolist() == reference.ravel().tolist()

    @pytest.mark.parametrize("width,distinct", [(2, 5), (2, 400), (9, 400)])
    def test_group_ids_equal_np_unique(self, width, distinct):
        columns = self.multi_columns(300, width, distinct, seed=distinct,
                                     null_rate=0.05)
        codes = encode_keys(columns, nulls_match=True)
        _, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
        gids, first_index = group_ids(codes)
        assert gids.dtype == first_index.dtype == np.int64
        assert gids.tolist() == inverse.tolist()
        assert first_index.tolist() == first.tolist()

    @given(int_lists)
    def test_group_ids_first_rows_equal_np_unique(self, values):
        codes = encode_keys([int_column(values)], nulls_match=True)
        _, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
        gids, first_index = group_ids(codes)
        assert gids.tolist() == inverse.tolist()
        assert first_index.tolist() == first.tolist()


class TestCsrProbe:
    @given(st.lists(st.integers(-1, 12), max_size=40))
    def test_offsets_delimit_each_codes_rows(self, values):
        codes = np.array(values, dtype=np.int64)
        offsets, positions = build_probe_index(codes)
        assert offsets[0] == 0 and offsets[-1] == len(positions)
        for code in range(len(offsets) - 1):
            rows = positions[offsets[code]:offsets[code + 1]].tolist()
            assert rows == np.flatnonzero(codes == code).tolist()

    def test_wide_code_space_sorts_stably(self):
        # Codes past 2**16 take the second radix pass.
        rng = np.random.default_rng(3)
        codes = rng.integers(-1, 200000, 5000)
        offsets, positions = build_probe_index(codes)
        valid = np.flatnonzero(codes >= 0)
        expected = valid[np.argsort(codes[valid], kind="stable")]
        assert positions.tolist() == expected.tolist()

    def test_probe_codes_beyond_the_build_range_never_match(self):
        left = np.array([0, 5, 99, -1, 2], dtype=np.int64)
        right = np.array([2, 0, 2], dtype=np.int64)
        li, ri = equi_join_pairs(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [
            (0, 1), (4, 0), (4, 2)]


class TestCachedJoinIndexProbe:
    @pytest.mark.parametrize("width,distinct", [
        (1, 50),     # one column: the per-column codes are the codes
        (2, 40),     # radix product within dense_limit
        (2, 400),    # radix product beyond dense_limit: re-densified
    ])
    def test_probe_matches_joint_encoding_and_nested_loop(self, width,
                                                          distinct):
        build = TestDenseEncoding.multi_columns(200, width, distinct,
                                                seed=1, null_rate=0.05)
        probe = TestDenseEncoding.multi_columns(150, width, distinct * 2,
                                                seed=2, null_rate=0.05)
        index = build_join_index(build)
        assert index is not None
        assert (index.key_uniques is not None) == (
            distinct ** width > dense_limit(200))
        assert index.codes.max() < dense_limit(200)
        li, ri = equi_join_pairs(index.probe(probe), index.codes,
                                 index.probe_index)
        got = list(zip(li.tolist(), ri.tolist()))
        assert li.tolist() == sorted(li.tolist())
        joint = encode_keys([p.concat(b) for p, b in zip(probe, build)],
                            nulls_match=False)
        jl, jr = equi_join_pairs(joint[:150], joint[150:])
        assert got == list(zip(jl.tolist(), jr.tolist()))
        left_rows = list(zip(*(c.to_list() for c in probe)))
        right_rows = list(zip(*(c.to_list() for c in build)))
        assert sorted(got) == nested_loop_pairs(left_rows, right_rows)

    def test_radix_product_beyond_int64_declines(self):
        build = TestDenseEncoding.multi_columns(300, 9, 400, seed=4)
        product = 1
        for column in build:
            product *= factorize(column, nulls_match=False)[1]
        assert product > 1 << 62
        assert build_join_index(build) is None

    def test_nbytes_counts_the_probe_index(self):
        index = build_join_index([int_column([3, 1, 3, None, 2])])
        offsets, positions = index.probe_index
        payload = sum(d.nbytes() for d in index.dictionaries)
        assert index.nbytes() == (payload + index.codes.nbytes
                                  + offsets.nbytes + positions.nbytes)
