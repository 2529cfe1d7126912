"""Threshold bitsets: which rows of a block lie at or below given rows.

_dominated (monomials) and the fold's _surviving_lifts (fold) test
candidate rows against blocks of dominator rows.  For a large test they
build each block's threshold table once (_threshold_table) and look the
candidates up in it a chunk at a time (_table_bits).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Each temporary of a table build or lookup holds at most _SLICE bits or
# bytes, as large as one of _dominated's block x chunk tests.
_SLICE = 1 << 22


class _Table(NamedTuple):
    """A block's threshold bitsets; _threshold_table builds it."""

    bits: np.ndarray  # one row of uint64 words per (column, level)
    base: np.ndarray  # per column, added to a capped value
    cap: np.ndarray  # per column, the largest value looked up as itself
    keys: np.ndarray | None  # the sorted level keys when ranked, else None


def _threshold_table(columns: np.ndarray) -> _Table:
    """For each column of a block and each level e, the block rows at or below e.

    ``columns`` holds a block's columns, one row per column and one
    entry (>= 0) per block row.  Column j gets the level -1, whose
    bitset is empty, and then one level e per value it can take; the
    bitset of (j, e), in uint64 words, has bit i set iff columns[j][i]
    <= e.  The padding bits that fill the last word are never set, so
    a padding row matches nothing.

    The levels come from the range of the block's values.  When every
    value is below the block's padded row count, column j has the levels
    -1 to its largest value (at most m + 2 on a fold's exponent column,
    the empty one included), and a lookup finds a level by adding the
    column's offset.  Otherwise every column is ranked: its levels are
    -1 and its distinct values, and a lookup finds them by one
    searchsorted over all columns' keys.  So a column has at most
    (padded rows + 1), or (distinct values + 1), levels however large
    its values are, and the table's memory follows the block, not the
    exponent range.  The bitsets are built a slice of levels at a time,
    each slice's temporaries holding at most _SLICE bytes.
    """
    k, n = columns.shape
    words = -(-n // 64)
    top = columns.max(axis=1)
    if top.max() < 64 * words:
        counts = top + 2
        base = np.cumsum(counts) - top - 1
        col = np.repeat(np.arange(k), counts)
        level = np.arange(len(col)) - base[col]
        cap, keys = top, None
    else:
        ext = np.concatenate([np.full((k, 1), -1), np.sort(columns, axis=1)], axis=1)
        fresh = np.ones(ext.shape, dtype=bool)
        fresh[:, 2:] = ext[:, 2:] != ext[:, 1:-1]
        col, level = np.nonzero(fresh)[0], ext[fresh]
        # keys of column j lie in [j * span - 1, j * span + top.max()]
        span = int(top.max()) + 2
        base, cap = np.arange(k) * span, np.full(k, span - 2)
        keys = base[col] + level
    bits = np.empty((len(level), 8 * words), dtype=np.uint8)
    step = max(1, _SLICE // (512 * words))
    for a in range(0, len(level), step):
        le = np.zeros((len(level[a : a + step]), 64 * words), dtype=bool)
        np.less_equal(columns[col[a : a + step]], level[a : a + step, None], out=le[:, :n])
        bits[a : a + step] = np.packbits(le, axis=1)
    return _Table(bits.view(np.uint64), base[:, None], cap[:, None], keys)


def _table_bits(table: _Table, values: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """For each looked-up row, the bitset of the table's block rows at or below it.

    ``values`` is column-major: values[j] holds column j of every
    looked-up row, each value at least -1.  Row i of the result, in
    uint64 words, has bit k set iff the block's row k is <= looked-up
    row i in every column, and bit k of ``acc[i]`` is set if ``acc`` is
    given (it is updated in place).  Each value is capped at its
    column's largest level and turned into a table row, by offset or by
    rank; then each column costs one gather and one AND, and as many
    columns as fit in _SLICE bits are gathered at once.
    """
    rows = np.minimum(values, table.cap) + table.base
    if table.keys is not None:
        rows = np.searchsorted(table.keys, rows, side="right") - 1
    step = max(1, _SLICE // (64 * table.bits.shape[1] * values.shape[1]))
    for j in range(0, len(rows), step):
        part = np.take(table.bits, rows[j : j + step], axis=0)
        part = np.bitwise_and.reduce(part, axis=0) if len(part) > 1 else part[0]
        acc = part if acc is None else np.bitwise_and(acc, part, out=acc)
    return acc
