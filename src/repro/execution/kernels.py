"""Vectorized kernels shared by join, aggregation, distinct and sort.

The central abstraction is *key encoding*: a list of columns is turned into
a single int64 code per row via per-column factorization and mixed-radix
combination.  Join keys encode NULL as -1 (never matches); grouping keys
encode NULL as an ordinary bucket (SQL groups NULLs together).

Codes are *dense*: every valid code lies in [0, K) with K at most
:func:`~repro.execution.kernel_cache.dense_limit` of the row count, so the
join and group kernels address arrays of length K directly — a CSR probe
(``offsets[c]`` to ``offsets[c + 1]``) instead of a binary search, and a
presence bitmap instead of a sort.

Every factorizing kernel takes an optional :class:`KernelCache`: when
given, the per-column dictionary (sorted uniques + codes) is memoized
keyed by the column's version from its second request on, so
loop-invariant columns are factorized twice per loop instead of once
per iteration.  Dictionary code arrays are read-only; kernels that
combine codes always allocate fresh output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..storage import Column
from .kernel_cache import KernelCache, build_dictionary, dense_limit, densify


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
    """Combine key columns into one int64 code per row (-1 = no-match).

    Valid codes stay below ``dense_limit(rows)``: whenever the mixed-radix
    product outgrows it, the combined codes are re-densified (order
    preserved) before the next column is folded in.  That bound is far
    below 2**62, so it also keeps the combination inside int64."""
    if not columns:
        raise ValueError("encode_keys needs at least one column")
    limit = dense_limit(len(columns[0]))
    combined = None
    for column in columns:
        codes, cardinality = factorize(column, nulls_match, cache)
        radix = max(cardinality, 1)
        if combined is None:
            combined, combined_card = codes, radix
            continue
        bad = (combined < 0) | (codes < 0)
        combined = combined * radix + codes
        combined[bad] = -1
        combined_card *= radix
        if combined_card > limit:
            uniques, combined = densify(combined)
            combined_card = max(len(uniques), 1)
    return combined


def _stable_code_order(codes: np.ndarray, size: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for codes in [0, size).

    An LSD radix sort over 16-bit digits: numpy's stable sort of 16-bit
    keys is itself a radix sort, several times faster than its int64
    merge sort."""
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    shift = 16
    while size > (1 << shift):
        digit = (codes[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def build_probe_index(codes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """CSR layout of a build side's codes for direct-address probing.

    Returns (offsets, positions): the rows holding code ``c`` are
    ``positions[offsets[c]:offsets[c + 1]]``, in row order.  -1
    (no-match) codes are dropped.  This is the shape
    :func:`equi_join_pairs` accepts as ``right_index``.
    """
    valid = codes >= 0
    if valid.all():
        positions, valid_codes = None, codes
    else:
        positions = np.flatnonzero(valid)
        valid_codes = codes[valid]
    size = int(valid_codes.max()) + 1 if len(valid_codes) else 0
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(valid_codes, minlength=size), out=offsets[1:])
    order = _stable_code_order(valid_codes, size)
    return offsets, order if positions is None else positions[order]


def equi_join_pairs(left_codes: np.ndarray,
                    right_codes: np.ndarray,
                    right_index: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """All matching (left_row, right_row) index pairs for equal codes.

    Codes of -1 never match.  Pairs are grouped by left row in left-row
    order, which downstream outer-join padding relies on.

    ``right_index`` is an optional prebuilt :func:`build_probe_index`
    result for the right side — a cached
    :class:`~repro.execution.kernel_cache.JoinIndex` supplies it so a
    loop-invariant build side is indexed once per loop, not per
    iteration.  Each probe row then costs two offset lookups.
    """
    if right_index is None:
        right_index = build_probe_index(right_codes)
    offsets, positions = right_index
    size = len(offsets) - 1
    if not size or not len(left_codes):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    probing = (left_codes >= 0) & (left_codes < size)
    slots = np.where(probing, left_codes, 0)
    lo = offsets[slots]
    counts = offsets[slots + 1] - lo
    counts[~probing] = 0

    left_idx = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    if not len(left_idx):
        return left_idx, np.empty(0, dtype=np.int64)
    # Output k is match (k - first output of its left row) of that row,
    # which sits at positions[lo + that rank].
    shift = lo - (np.cumsum(counts) - counts)
    right_idx = positions[np.arange(len(left_idx), dtype=np.int64)
                          + np.repeat(shift, counts)]
    return left_idx, right_idx


def group_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids plus the first-row index of each group.

    ``codes`` must be non-negative (nulls_match=True encoding) and dense,
    as :func:`encode_keys` returns them.  Groups are numbered in code
    order by a presence bitmap, so the result equals ``np.unique(codes,
    return_index=True, return_inverse=True)``'s inverse and index.
    """
    count = len(codes)
    if not count:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    present = np.zeros(int(codes.max()) + 1, dtype=np.bool_)
    present[codes] = True
    rank = np.cumsum(present, dtype=np.int64) - 1
    gids = rank[codes]
    first_index = np.full(int(rank[-1]) + 1, count, dtype=np.int64)
    np.minimum.at(first_index, gids, np.arange(count, dtype=np.int64))
    return gids, first_index


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
