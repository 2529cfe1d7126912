"""One step of the symbolic-power fold: the lifts that survive its query.

symbolic_power folds one prime power p_sigma^m at a time; each step
lifts the rows of sigma-degree below m to sigma-degree m and keeps the
lifts that no row of the running antichain lies below (the proof is in
symbolic_power's docstring).  _surviving_lifts builds the lifts as
their sigma columns and their parent, and asks bitsets' dominance query
for the ones that survive (its module docstring describes the query).
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable

import numpy as np

from .bitsets import _undominated
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
    row d has d <= x in every column but the last and d[-1] < x[-1].
    The lifts are held as their sigma columns and their parent's index,
    _undominated tests each parent off sigma once and each lift on sigma
    only (``check`` is its per-block budget check), and full rows are
    built only for the survivors.  These come back in no fixed order,
    deduplicated unless they all have one parent, whose lifts are
    distinct already.
    """
    counts = np.bincount(deficits).tolist()
    present = [d for d, c in enumerate(counts) if c]
    if len(present) > 1:
        # parents grouped by deficit, so each group's lifts are one sum
        todo = todo[np.argsort(deficits, kind="stable")]
    # the lifts are column-major (one row per sigma column), as the query takes them
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
    owner, lifts = _undominated(todo, owner, doms, check, idx, lifts)
    out = todo[owner]
    out[:, idx] = lifts.T
    # lifts of different parents may coincide; one parent's never do
    return out if len(owner) == 0 or owner[0] == owner[-1] else out[_distinct(out)]
