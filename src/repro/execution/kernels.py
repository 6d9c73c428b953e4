"""Vectorized kernels shared by join, aggregation, distinct and sort.

The central abstraction is *key encoding*: a list of columns is turned into
a single int64 code per row via per-column factorization and mixed-radix
combination.  Join keys encode NULL as -1 (never matches); grouping keys
encode NULL as an ordinary bucket (SQL groups NULLs together).

Every factorizing kernel takes an optional :class:`KernelCache`: when
given, the per-column dictionary (the ``np.unique`` result) is memoized
keyed by the column's version, so loop-invariant columns are factorized
once per loop instead of once per iteration.  Cached code arrays are
read-only; kernels that combine codes always allocate fresh output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..storage import Column
from .kernel_cache import KernelCache, build_dictionary


def factorize(column: Column, nulls_match: bool,
              cache: Optional[KernelCache] = None
              ) -> tuple[np.ndarray, int]:
    """Per-column dense codes.

    Returns (codes, cardinality).  Valid values get codes in
    [0, n_unique); NULLs get ``n_unique`` when ``nulls_match`` (they form
    their own group) or -1 otherwise (they never match anything).

    With a cache, the returned array may be shared (and read-only);
    callers must not mutate it in place.
    """
    if cache is not None:
        dictionary = cache.dictionary(column)
        n_unique = dictionary.cardinality
        if nulls_match:
            if dictionary.has_nulls:
                codes = np.array(dictionary.codes)
                codes[column.mask] = n_unique
                return codes, n_unique + 1
            return dictionary.codes, n_unique + 1
        return dictionary.codes, n_unique
    dictionary = build_dictionary(column)
    n_unique = dictionary.cardinality
    codes = np.array(dictionary.codes)
    if nulls_match:
        codes[column.mask] = n_unique
        return codes, n_unique + 1
    return codes, n_unique


def encode_keys(columns: Sequence[Column], nulls_match: bool,
                cache: Optional[KernelCache] = None) -> np.ndarray:
    """Combine key columns into one int64 code per row (-1 = no-match)."""
    if not columns:
        raise ValueError("encode_keys needs at least one column")
    combined = None
    for column in columns:
        codes, cardinality = factorize(column, nulls_match, cache)
        if combined is None:
            combined = codes
            combined_card = max(cardinality, 1)
            continue
        bad = (combined < 0) | (codes < 0)
        combined = combined * max(cardinality, 1) + codes
        combined[bad] = -1
        combined_card *= max(cardinality, 1)
        if combined_card > (1 << 62):
            # Mixed-radix overflow: re-densify before continuing.
            valid = combined >= 0
            if valid.any():
                _, inverse = np.unique(combined[valid], return_inverse=True)
                combined = combined.copy()
                combined[valid] = inverse
                combined_card = int(inverse.max()) + 1 if len(inverse) else 1
            else:
                combined_card = 1
    return combined


def build_probe_index(codes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Sort a build side's codes for binary-search probing.

    Returns (sorted_codes, sorted_positions) with -1 (no-match) codes
    dropped — the shape :func:`equi_join_pairs` accepts as
    ``right_sorted``.
    """
    valid = codes >= 0
    positions = np.nonzero(valid)[0]
    valid_codes = codes[valid]
    order = np.argsort(valid_codes, kind="stable")
    return valid_codes[order], positions[order]


def equi_join_pairs(left_codes: np.ndarray,
                    right_codes: np.ndarray,
                    right_sorted: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """All matching (left_row, right_row) index pairs for equal codes.

    Codes of -1 never match.  Pairs are grouped by left row in left-row
    order, which downstream outer-join padding relies on.

    ``right_sorted`` is an optional prebuilt (sorted_codes,
    sorted_positions) pair for the right side — a cached
    :class:`~repro.execution.kernel_cache.JoinIndex` supplies it so a
    loop-invariant build side is sorted once per loop, not per iteration.
    """
    if right_sorted is not None:
        sorted_codes, sorted_positions = right_sorted
    else:
        sorted_codes, sorted_positions = build_probe_index(right_codes)

    valid_left = left_codes >= 0
    lo = np.searchsorted(sorted_codes, left_codes, "left")
    hi = np.searchsorted(sorted_codes, left_codes, "right")
    counts = np.where(valid_left, hi - lo, 0)

    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    cumulative = np.cumsum(counts)
    first_of_row = np.repeat(cumulative - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - first_of_row
    right_idx = sorted_positions[starts + offsets]
    return left_idx, right_idx


def group_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids plus the first-row index of each group.

    ``codes`` must have no -1 entries (use nulls_match=True encoding).
    """
    uniques, first_index, inverse = np.unique(
        codes, return_index=True, return_inverse=True)
    del uniques
    return inverse.astype(np.int64), first_index.astype(np.int64)


def distinct_indices(columns: Sequence[Column],
                     cache: Optional[KernelCache] = None) -> np.ndarray:
    """Row indices keeping the first occurrence of each distinct row."""
    if not columns:
        return np.zeros(1, dtype=np.int64)
    codes = encode_keys(columns, nulls_match=True, cache=cache)
    _, first_index = group_ids(codes)
    return np.sort(first_index)


def scatter_update(old: Column, positions: np.ndarray,
                   new_values: Column) -> tuple[Column, np.ndarray]:
    """Keyed merge: scatter ``new_values`` over ``positions`` of ``old``.

    Returns (merged column, changed mask over ``positions``) where
    *changed* is SQL ``IS DISTINCT FROM`` between the old and new value
    at each position.  When nothing changed, the original column object
    is returned unchanged so its version — and any kernel-cache state
    keyed by it — survives.
    """
    if new_values.sql_type is not old.sql_type:
        new_values = new_values.cast(old.sql_type)
    changed = old.take(positions).is_distinct_from(new_values)
    if not changed.any():
        return old, changed
    data = old.data.copy()
    mask = old.mask.copy()
    data[positions] = new_values.data
    mask[positions] = new_values.mask
    return Column(old.sql_type, data, mask), changed


def sort_indices(key_columns: Sequence[Column],
                 ascending: Sequence[bool],
                 cache: Optional[KernelCache] = None) -> np.ndarray:
    """Stable multi-key sort order.  NULLs sort last under ASC and first
    under DESC (treated as the largest value, PostgreSQL's default)."""
    if not key_columns:
        return np.arange(0, dtype=np.int64)
    sort_keys = []
    for column, asc in zip(key_columns, ascending):
        codes, cardinality = factorize(column, nulls_match=False, cache=cache)
        # NULLs become the largest rank.
        ranks = np.where(codes < 0, cardinality, codes)
        if not asc:
            ranks = -ranks
        sort_keys.append(ranks)
    # np.lexsort uses the *last* key as primary.
    return np.lexsort(tuple(reversed(sort_keys))).astype(np.int64)
