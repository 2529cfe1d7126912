"""The row kernels: every loop over blocks of exponent rows.

This leaf module imports no package module.  It owns the row layout,
the block-size constants and each caller's contract with the one
dominance query, _undominated: which candidate rows lie above no
dominator row.  A dominator d lies below a candidate x when d[j] <=
x[j] in every column but the last and d[-1] < x[-1], tested as
d[-1] + 1 <= x[-1].  The last column is the caller's:

- _minimal_rows (behind MonomialIdeal.from_rows, multiply and
  PrimeDecomposition) appends the degree, and queries the distinct rows
  in canonical order (degree ascending, then tuple descending, which
  fixes every first-reported witness) against rows of smaller degree;
- _surviving_lifts (one step of symbolic_power's fold) carries the
  degree off sigma, which a lift shares with its parent, and queries a
  step's lifts against the running antichain's rows of sigma-degree
  <= m.  A step whose whole query fits _BROADCAST (most steps of a
  complement's fold) skips _undominated: its full lift rows are decided
  by one broadcast comparison, after one check.

A candidate is a parent row with its own values on columns sigma (never
the last); off sigma it equals its parent.  So the part off sigma is
tested once per parent, and the sigma columns once per candidate.  The
minimalization's candidates are the parent rows themselves: sigma is
empty and the lifts have no rows, so both callers take the same path.

The dominators are tested a block of at most _BLOCK rows at a time,
least last column first once they fill more than one block: those lie
below the most candidates, and a candidate found dominated leaves the
later blocks.  ``check``, if given, is called before each block; a
caller's budget check raises from it to stop a long query.  A block is
held column-major (one row per column) and decided by threshold tables,
whatever its size: its tables off sigma and on sigma are built once
(_threshold_table; with sigma empty the second has no columns).  Each
chunk of at most _CHUNK parents gathers its part off sigma and looks it
up in the first (_table_bits), which gives each parent the bitset of
the block rows below it off sigma; a parent whose bitset is empty keeps
all its candidates.  The candidates of the others, _CHUNK at a time,
start from their parent's bitset and AND in their sigma columns'
bitsets (none when sigma is empty); nonzero means dominated.  A lookup
costs a few numpy calls however many rows the chunk has, and ANDs 64
block rows per word operation.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

# The query tests blocks of at most _BLOCK dominators against chunks of
# at most _CHUNK parents or candidates, so each temporary of a test holds
# at most _BLOCK x _CHUNK bits or bytes whatever the row count and the
# exponent sizes; a block's threshold table holds one _BLOCK-bit row per
# level.
_BLOCK = 4096
_CHUNK = 1024
# Only _surviving_lifts reads it: a fold step whose dominator block's
# entries times its lifts and parents come to at most _BROADCAST is
# decided on full lift rows by one broadcast comparison, not by tables.
_BROADCAST = 1 << 15
# Each temporary of a table build or lookup holds at most _SLICE bits or
# bytes, as large as one block x chunk test.
_SLICE = _BLOCK * _CHUNK
# At or below this many rows _canonical_order sorts with one np.lexsort
# over the row's columns; above it, with the packed words.
_LEXSORT_ROWS = 128


def _canonical_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows by degree ascending, then tuple descending.

    Both paths sort stably, so equal rows keep their input order, and
    they return the same indices; the row count picks the cheaper one.
    Up to _LEXSORT_ROWS rows, one np.lexsort over the keys (the degree,
    then -row[j] for each column j) costs a few calls, while the packed
    path pays a few calls per column whatever the row count.  Above it,
    the sort keys (the degree, then top - row[j] for each column j, top
    the largest entry) are packed, most significant first, into as few
    nonnegative int64 words as they fit in, and one stable sort orders
    the words: a lexsort over every column costs one sort pass per
    column, which the packed words save once the rows are many.
    """
    if len(rows) == 0:
        return np.arange(0)
    deg = rows.sum(axis=1)
    if len(rows) <= _LEXSORT_ROWS:
        return np.lexsort(np.vstack([-rows.T[::-1], deg[None]]))
    top = int(rows.max())
    width = max(top.bit_length(), 1)
    words = [deg]
    used = max(int(deg.max()).bit_length(), 1)
    for j in range(rows.shape[1]):
        if used + width > 63:
            words.append(np.zeros(len(rows), dtype=np.int64))
            used = 0
        words[-1] = (words[-1] << width) | (top - rows[:, j])
        used += width
    if len(words) == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(words[::-1])


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Indices of the distinct rows, in canonical order.

    The canonical sort puts equal rows side by side, so duplicates drop
    by comparing neighbours.  Returning indices keeps the sorted copy
    short-lived: a caller that rebinds ``rows = rows[_distinct(rows)]``
    holds at most two copies of the rows at a time.
    """
    order = _canonical_order(rows)
    srt = rows[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    return order[fresh]


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
    exponent range.  A block with no columns gives a table with no
    levels, whose lookups leave their accumulator as it is.  The bitsets
    are built a slice of levels at a time, each slice's temporaries
    holding at most _SLICE bytes.
    """
    k, n = columns.shape
    words = -(-n // 64)
    top = columns.max(axis=1)
    if top.max(initial=-1) < 64 * words:
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


def _undominated(
    parents: np.ndarray,
    owner: np.ndarray,
    doms: np.ndarray,
    check: Callable[[], None] | None = None,
    idx: np.ndarray | None = None,
    lifts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates that lie above no dominator row, as (owner, lifts).

    Candidate i is the row ``parents[owner[i]]`` with its columns ``idx``
    (sigma) replaced by ``lifts[:, i]``, one row of lifts per sigma
    column; without idx and lifts, sigma is empty and it is that parent
    row itself.  ``owner`` is nondecreasing, so each parent's candidates
    form one run.  The survivors come back in input order.
    """
    if lifts is None:
        idx, lifts = [], np.empty((0, len(owner)), dtype=parents.dtype)
    off = np.ones(parents.shape[1], dtype=bool)
    off[idx] = False
    if len(doms) > _BLOCK:
        doms = doms[np.argsort(doms[:, -1], kind="stable")]
    for lo in range(0, len(doms), _BLOCK):
        if check is not None:
            check()
        if len(owner) == 0:
            break
        block = doms[lo : lo + _BLOCK]
        block_off = block.T[off]  # a copy (boolean index), so raising its last row is safe
        block_off[-1] += 1
        off_table = _threshold_table(block_off)
        sig_table = _threshold_table(block.T[idx])
        hit = np.zeros(len(owner), dtype=bool)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        runs = np.diff(starts, append=len(owner))
        for p0 in range(0, len(starts), _CHUNK):
            first = starts[p0 : p0 + _CHUNK]
            bits = _table_bits(off_table, parents[owner[first]].T[off])
            live = bits.any(axis=1)
            if not live.any():
                continue
            # the candidates of the live parents, and each one's parent row in bits
            slot = np.repeat(np.arange(len(first)), runs[p0 : p0 + _CHUNK])
            tested = np.flatnonzero(live[slot])
            slot = slot[tested]
            tested += first[0]
            for c0 in range(0, len(tested), _CHUNK):
                chunk = tested[c0 : c0 + _CHUNK]
                acc = _table_bits(sig_table, lifts[:, chunk], bits[slot[c0 : c0 + _CHUNK]])
                hit[chunk] = acc.any(axis=1)
        owner = owner[~hit]
        lifts = lifts[:, ~hit]
    return owner, lifts


def _minimal_rows(rows: np.ndarray, check: Callable[[], None] | None = None) -> np.ndarray:
    """Minimal rows under componentwise <=, canonically ordered.

    After _distinct, two distinct rows x <= c have deg x < deg c, so a
    row is dominated iff a row of strictly smaller degree, hence earlier
    in canonical order, is <= it: the query with the degree as the
    strictly compared last column.  The rows are split into blocks of
    _BLOCK; each block's still-kept rows are the dominators of one
    query, with an empty sigma, of the still-kept rows of larger degree.
    Rows found dominated later in the same block still act as
    dominators, which cannot change the answer: whatever lies above
    them lies above the rows below them.

    ``check``, if given, is called before each dominator block; a
    caller's budget check raises from it to stop a long minimalization.
    """
    rows = rows[_distinct(rows)]
    deg = rows.sum(axis=1)
    if len(rows) == 0 or deg[0] == deg[-1]:
        return rows  # distinct rows of one degree are an antichain
    ext = np.column_stack([rows, deg])
    dropped = np.zeros(len(rows), dtype=bool)
    for lo in range(0, len(rows), _BLOCK):
        first = np.searchsorted(deg, deg[lo], side="right")
        open_ = first + np.flatnonzero(~dropped[first:])
        if len(open_) == 0:
            break
        block = ext[lo : lo + _BLOCK][~dropped[lo : lo + _BLOCK]]
        kept, _ = _undominated(ext, open_, block, check)
        dropped[open_] = True
        dropped[kept] = False
    return rows[~dropped]


@cache
def _compositions(total: int, parts: int) -> np.ndarray:
    """All weak compositions of total into parts, as read-only int64 rows."""
    rows = []
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        rows.append(comp)
    rows = np.array(rows, dtype=np.int64)
    rows.flags.writeable = False
    return rows


def _surviving_lifts(
    todo: np.ndarray,
    idx: np.ndarray,
    deficits: np.ndarray,
    doms: np.ndarray,
    check: Callable[[], None] | None = None,
) -> np.ndarray:
    """The distinct lifts of the todo rows that lie above no dominator row.

    A todo row g with deficit d lifts to g + c for every weak
    composition c of d over the columns ``idx`` (sigma).  The last
    column of ``todo`` and ``doms`` is the degree off sigma, which a
    lift shares with its parent.  A lift x is dropped iff some dominator
    row d has d <= x in every column but the last and d[-1] < x[-1].
    ``check`` is the query's per-block budget check.  The survivors come
    back in no fixed order, deduplicated unless they all have one
    parent, whose lifts are distinct already.

    When the dominators are one block whose entries times the lifts and
    parents come to at most _BROADCAST (few todo rows and dominators),
    the lifts are built as full column-major rows, each parent's column
    repeated plus its compositions on sigma, and decided by one
    broadcast comparison after one check.  Otherwise the lifts are held
    as their sigma columns and their parent's index, and _undominated's
    tables test each parent off sigma once and each lift on sigma only;
    full rows are built only for the survivors.
    """
    counts = np.bincount(deficits).tolist()
    present = [d for d, c in enumerate(counts) if c]
    comps = {d: _compositions(d, len(idx)).T for d in present}
    lift_count = sum(counts[d] * comps[d].shape[1] for d in present)
    if len(doms) <= _BLOCK and (lift_count + len(todo)) * doms.size <= _BROADCAST:
        if check is not None:
            check()
        parts = [comps[d] for d in deficits.tolist()]
        full = todo.T.repeat([p.shape[1] for p in parts], axis=1)
        full[idx] += parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        below = doms.T.copy()
        below[-1] += 1
        out = full[:, (below[:, None, :] > full[:, :, None]).any(axis=0).all(axis=1)].T
        # lifts of different parents may coincide; one parent's never do
        return out if len(todo) == 1 else out[_distinct(out)]
    if len(present) > 1:
        # parents grouped by deficit, so each group's lifts are one sum
        todo = todo[np.argsort(deficits, kind="stable")]
    # the lifts are column-major (one row per sigma column), as the query takes them
    sig = todo.T[idx]
    lifts, owner, lo = [], [], 0
    for d, c in comps.items():
        hi = lo + counts[d]
        lifts.append((sig[:, lo:hi, None] + c[:, None, :]).reshape(len(idx), -1))
        owner.append(np.arange(lo, hi).repeat(c.shape[1]))
        lo = hi
    # each parent's lifts form one run of owner, which dropping lifts keeps
    lifts = lifts[0] if len(present) == 1 else np.concatenate(lifts, axis=1)
    owner = owner[0] if len(present) == 1 else np.concatenate(owner)
    owner, lifts = _undominated(todo, owner, doms, check, idx, lifts)
    out = todo[owner]
    out[:, idx] = lifts.T
    # lifts of different parents may coincide; one parent's never do
    return out if len(owner) == 0 or owner[0] == owner[-1] else out[_distinct(out)]
