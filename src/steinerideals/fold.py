"""One step of the symbolic-power fold: the lifts that survive its query.

symbolic_power folds one prime power p_sigma^m at a time; each step
lifts the rows of sigma-degree below m to sigma-degree m and keeps the
lifts that no row of the running antichain lies below (the proof is in
symbolic_power's docstring).  _surviving_lifts answers that query
without building the dropped lifts.  It tests the dominators a block at
a time, as _dominated does, and on large tests looks the parents and
the lifts up in each block's threshold tables (bitsets, one table off
sigma and one on it).  The block, chunk and broadcast sizes are
monomials', read at call time.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable

import numpy as np

from . import monomials
from .bitsets import _table_bits, _threshold_table
from .monomials import _distinct


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
    row d has d <= x in every column but the last and d[-1] < x[-1]
    (_dominated's test).  The survivors come back as full rows, in no
    fixed order.

    A lift equals its parent off sigma, so the test splits in two: the
    part off sigma (the last column compared strictly) is tested once
    per parent, and the sigma columns once per lift.  Lifts are held as
    their sigma columns and their parent's index, and full rows are
    built only for the survivors.  These are deduplicated, unless they
    all have one parent, whose lifts are distinct already.

    The dominators are tested a block of _BLOCK rows at a time (the
    sizes are monomials', shared with _dominated), and ``check``, if
    given, is called before each block; a caller's budget check raises
    from it to stop a long query.  As in _dominated, a block is decided
    by one of two paths.  When the open lifts and the parents, times the
    block's entries, stay within _BROADCAST, one broadcast comparison
    per part decides it.  Otherwise the block gets two threshold tables,
    built once: one over its columns off sigma and one over its sigma
    columns (_threshold_table).  Each chunk of at most _CHUNK parents
    with open lifts looks its part off sigma up in the first
    (_table_bits), which gives each parent the bitset of the block rows
    below it off sigma.  A parent whose bitset is empty keeps all its
    lifts for this block.  The lifts of the other parents, in chunks of
    at most _CHUNK, start from their parent's bitset and AND in only
    their sigma columns' bitsets from the second table.
    """
    off = np.ones(todo.shape[1], dtype=bool)
    off[idx] = False
    counts = np.bincount(deficits).tolist()
    present = [d for d, c in enumerate(counts) if c]
    if len(present) > 1:
        # parents grouped by deficit, so each group's lifts are one sum
        todo = todo[np.argsort(deficits, kind="stable")]
    # Every array below is column-major (one row per column): numpy
    # reduces across the rows of a small 3-d array much faster than
    # along its last axis.
    sig = todo.T[idx]
    lifts, owner, lo = [], [], 0
    for d in present:
        comps = _compositions(d, len(idx)).T
        hi = lo + counts[d]
        lifts.append((sig[:, lo:hi, None] + comps[:, None, :]).reshape(len(idx), -1))
        owner.append(np.arange(lo, hi).repeat(comps.shape[1]))
        lo = hi
    # each parent's lifts form one run of owner, which dropping lifts keeps
    lifts = lifts[0] if len(present) == 1 else np.concatenate(lifts, axis=1)
    owner = owner[0] if len(present) == 1 else np.concatenate(owner)
    parts = todo.T[off]
    parts[-1] -= 1
    doms_off, doms_sig = doms.T[off], doms.T[idx]
    block_rows, chunk_rows = monomials._BLOCK, monomials._CHUNK
    for lo in range(0, len(doms), block_rows):
        if check is not None:
            check()
        if len(owner) == 0:
            break
        block_off, block_sig = doms_off[:, lo : lo + block_rows], doms_sig[:, lo : lo + block_rows]
        if (len(owner) + len(todo)) * block_off.shape[1] * doms.shape[1] <= monomials._BROADCAST:
            hit = (block_off[:, None] <= parts[:, :, None]).all(axis=0)[owner]
            hit &= (block_sig[:, None] <= lifts[:, :, None]).all(axis=0)
            keep = ~hit.any(axis=1)
            lifts, owner = lifts[:, keep], owner[keep]
            continue
        off_table, sig_table = _threshold_table(block_off), _threshold_table(block_sig)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        runs = np.diff(starts, append=len(owner))
        hit = np.zeros(len(owner), dtype=bool)
        for p0 in range(0, len(starts), chunk_rows):
            first = starts[p0 : p0 + chunk_rows]
            bits = _table_bits(off_table, parts[:, owner[first]])
            live = bits.any(axis=1)
            if not live.any():
                continue
            # the lifts of the live parents, and each one's parent row in bits
            slot = np.repeat(np.arange(len(first)), runs[p0 : p0 + chunk_rows])
            tested = np.flatnonzero(live[slot])
            slot = slot[tested]
            tested += first[0]
            for c0 in range(0, len(tested), chunk_rows):
                chunk = tested[c0 : c0 + chunk_rows]
                acc = _table_bits(sig_table, lifts[:, chunk], bits[slot[c0 : c0 + chunk_rows]])
                hit[chunk] = acc.any(axis=1)
        lifts, owner = lifts[:, ~hit], owner[~hit]
    out = todo[owner]
    out[:, idx] = lifts.T
    # lifts of different parents may coincide; one parent's never do
    return out if len(owner) == 0 or owner[0] == owner[-1] else out[_distinct(out)]
