"""Symbolic powers of intersections of squarefree prime ideals.

A PrimeDecomposition holds the supports of height-one-generated primes
p_sigma = (x_i : i in sigma).  The ideal it presents is the intersection
of those primes, and the m-th symbolic power is the intersection of the
m-th ordinary powers:

    I^(m) = intersection over sigma of p_sigma^m.

Membership is a linear condition: w lies in p_sigma^m exactly when its
sigma-degree (sum of exponents over sigma) is at least m.  That predicate
is the independent oracle used to cross-check the generator enumeration.

Two constructions feed decompositions from designs: cover_ideal takes the
edges of a hypergraph as supports; complement_ideal takes the non-blocks
of a Steiner system S(t, n, v) and records the (t, n, v) provenance.
Initial degrees are always searched; the provenance unlocks the audit of
each searched alpha against complement_alpha_formula, the containment
engine's regularity-threshold shortcut, the Stable Harbourne threshold
v / (n - 1) and the Waldschmidt lower bound v / n of alpha_table.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .bitsets import _canonical_order, _surviving_lifts
from .budget import Budget
from .designs import Hypergraph, SteinerSystem, _normalize_edge, complement_blocks
from .errors import InternalInconsistency, MixedAmbient
from .monomials import EXPONENT_LIMIT, Monomial, MonomialIdeal

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class PrimeDecomposition:
    """Antichain of prime supports over {1, ..., variable_count}.

    Supports are sorted tuples ordered by (size, lex).  Embedded supports
    (supersets of another support) contribute nothing to an intersection
    and are normalized away with a logged notice.  ``steiner`` carries
    (t, n, v) when the decomposition is the complement configuration of a
    validated S(t, n, v), and None otherwise.
    """

    variable_count: int
    supports: tuple[tuple[int, ...], ...]
    steiner: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("variable_count must be >= 1")
        if not self.supports:
            raise ValueError("a prime decomposition needs at least one support")
        seen = {_normalize_edge(s, self.variable_count, "support") for s in self.supports}
        # Equal-size supports cannot nest, so each support is only tested,
        # as a bitmask, against the kept supports of strictly smaller size.
        minimal = []
        smaller: list[int] = []
        same_size: list[int] = []
        for s in sorted(seen, key=lambda s: (len(s), s)):
            if minimal and len(s) > len(minimal[-1]):
                smaller += same_size
                same_size = []
            mask = sum(1 << i for i in s)
            if any(t & mask == t for t in smaller):
                logger.info("normalized away embedded support %s", s)
                continue
            minimal.append(s)
            same_size.append(mask)
        object.__setattr__(self, "supports", tuple(minimal))
        if self.steiner is not None:
            t, n, v = self.steiner
            if not (1 <= t < n <= v):
                raise ValueError(f"bad steiner provenance {self.steiner}")
            object.__setattr__(self, "steiner", (t, n, v))

    @functools.cached_property
    def _tables(self) -> _SearchTables:
        """The alpha search's tables, built on first use and kept with P."""
        return _search_tables(self)

    @functools.cached_property
    def _fold_columns(self) -> tuple[np.ndarray, ...]:
        """Each support's 0-based variable indices, built on first fold and kept with P."""
        flat = np.fromiter(itertools.chain.from_iterable(self.supports), dtype=np.intp) - 1
        ends = itertools.accumulate(len(s) for s in self.supports)
        return tuple(flat[end - len(s) : end] for s, end in zip(self.supports, ends))

    @property
    def support_count(self) -> int:
        return len(self.supports)

    @property
    def big_height(self) -> int:
        """Largest support size (max height of an associated prime)."""
        return max(len(s) for s in self.supports)


def cover_ideal(H: Hypergraph) -> PrimeDecomposition:
    """Decomposition whose supports are the edges of H.

    The presented ideal is the cover ideal: the intersection of the edge
    primes, generated by the vertex covers of H.
    """
    return PrimeDecomposition(H.vertex_count, H.edges)


def complement_ideal(S: SteinerSystem, *, budget: Budget | None = None) -> PrimeDecomposition:
    """Decomposition supported on the n-subsets that are not blocks of S.

    Raises ComplementEmpty when every n-subset is a block (t+1 = n = v
    style corner cases).  The budget is checked while complement_blocks
    enumerates (stage "complement").  The result records Steiner
    provenance.
    """
    return PrimeDecomposition(S.v, complement_blocks(S, budget=budget), steiner=(S.t, S.n, S.v))


def member_of_symbolic(w: Monomial, P: PrimeDecomposition, m: int) -> bool:
    """Decide w in I^(m) by the linear predicate, one support at a time."""
    if w.variable_count != P.variable_count:
        raise MixedAmbient(P.variable_count, w.variable_count)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return True
    return all(sum(w.exponents[i - 1] for i in s) >= m for s in P.supports)


def symbolic_power(
    P: PrimeDecomposition,
    m: int,
    *,
    budget: Budget | None = None,
    _seed: MonomialIdeal | None = None,
) -> MonomialIdeal:
    """Minimal generators of I^(m) as a MonomialIdeal.

    Folds the prime powers p_sigma^m into a running intersection one
    support at a time, smallest supports first, starting from the unit
    ideal (one zero row).  Intersecting a monomial g with p_sigma^m
    needs only the minimal monomials above g with sigma-degree m: when g
    is deficient by d, these are g plus the weak compositions of d over
    sigma.  That is much tighter than generic pairwise lcms.

    Each step keeps the running antichain G's rows of sigma-degree >= m
    (the ok rows) and adds the lifts g + c of the others (the todo rows)
    that are minimal.  No ok row is dominated: a lift at or below an ok
    row h would put its parent g strictly below h inside G.  A lift x
    (sigma-degree exactly m) is not minimal iff some g' in G with
    sigma-degree <= m has g' <= x and offdeg(g') < offdeg(x), offdeg
    being the degree off sigma.  Proof: any y <= x in the new set has
    sigma-degree m, so y agrees with x on sigma, and y != x forces
    offdeg(y) < offdeg(x); y is a sigma-tight ok row, which is such a
    g', or a lift of a todo row g' <= y.  Conversely such a g' is a
    tight ok row below x, or a todo row whose lift g' + (x - g') on
    sigma lies strictly below x.  The lift's own parent g is never such
    a g', as offdeg(g) = offdeg(x).  So each step is one one-sided query
    of the lifts against those rows of G, with offdeg as the strictly
    compared last column; the ok rows of larger sigma-degree never enter
    it.  A lift x = g + c has x_off = g_off, as c is zero off sigma; so
    the query's test off sigma, offdeg included, is the same for all of
    g's lifts.  _surviving_lifts runs it once per parent and dominator
    block, tests each lift on the sigma columns only, and builds full
    rows only for the lifts that survive.  The result is sorted
    canonically once, after the last step.

    The argument holds for any antichain G to start from.  Since I^(m)
    is contained in I^(k) for k < m, folding every p_sigma^m into the
    minimal generators of I^(k) also ends at I^(m), and each lift is
    then bounded by the deficit m - k.  ``_seed`` is that I^(k); it is
    private to ContainmentEngine, which passes its largest cached lower
    power.

    Raises ResourceLimit when the candidate row count would exceed the
    budget's generator cap or its deadline passes; the deadline is also
    checked once per dominator block of each step's query.  The
    exception's ``partial`` dict records how far the fold got.  Raises
    OverflowError, before folding, when m exceeds EXPONENT_LIMIT: the
    m-th multiple of a minimal transversal is a generator of I^(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > EXPONENT_LIMIT:
        raise OverflowError(f"symbolic exponent {m} exceeds limit {EXPONENT_LIMIT}")
    budget = budget or Budget()
    nv = P.variable_count
    total = len(P.supports)
    # The rows of G, with one more column: each step writes every row's
    # offdeg there, and a lift inherits its parent's offdeg, so the query
    # needs no stacking.
    seed = np.zeros((1, nv), dtype=np.int64) if _seed is None else _seed.rows
    rows = np.zeros((len(seed), nv + 1), dtype=np.int64)
    rows[:, :-1] = seed

    for step, idx in enumerate(P._fold_columns):
        sdeg = rows[:, idx].sum(axis=1)
        short = sdeg < m
        deficits = m - sdeg[short]
        # rows per deficit; np.bincount, unlike np.unique, does not
        # import numpy.ma (about 1 MB of resident memory)
        counts = np.bincount(deficits, minlength=m + 1)
        candidate = int(len(rows) - counts.sum()) + sum(
            c * comb(d + len(idx) - 1, d) for d, c in enumerate(counts.tolist()) if c
        )
        partial = {"supports_folded": step, "supports_total": total, "kept": len(rows)}
        budget.check("symbolic-power", partial, candidate)
        if counts.any():
            rows[:, -1] = rows[:, :-1].sum(axis=1) - sdeg
            doms = rows[sdeg <= m]
            lifts = _surviving_lifts(
                rows[short], idx, deficits, doms, lambda: budget.check("symbolic-power", partial)
            )
            rows = np.concatenate([rows[~short], lifts])
    rows = rows[:, :-1]
    return MonomialIdeal(nv, rows[_canonical_order(rows)])


# Initial degree alpha(I^(m)) = least total degree of a member, computed
# by bound-and-search on exponent vectors without enumerating generators.


# Rows per frontier chunk of the alpha search.  A chunk has fewer rows
# when its expansion, up to m + 1 children per row, would hold more than
# _CHUNK_CELLS entries of need, so that decompositions with thousands of
# supports, or a large m, still expand in small blocks.
_CHUNK_ROWS = 256
_CHUNK_CELLS = 1 << 19


@dataclass(frozen=True)
class _SearchTables:
    """The alpha search's view of P, shared by every m and degree.

    Support columns are ordered by their last variable.  So the supports
    that variable idx closes are the columns ``start[idx]`` to
    ``start[idx + 1]``, and the columns still open while idx is assigned
    are those from ``start[idx]`` on.  ``steps[idx]`` is the 0/1 row of
    the supports on idx over those open columns, and ``fsuf[idx]`` is the
    largest number of supports on any variable >= idx.
    """

    start: list[int]
    steps: list[np.ndarray]
    fsuf: list[int]


def _search_tables(P: PrimeDecomposition) -> _SearchTables:
    sups = sorted((tuple(i - 1 for i in s) for s in P.supports), key=max)
    nv = P.variable_count
    incidence = np.zeros((nv, len(sups)), dtype=np.int8)
    incidence[
        np.fromiter(itertools.chain.from_iterable(sups), dtype=np.intp),
        np.repeat(np.arange(len(sups)), [len(s) for s in sups]),
    ] = 1
    start = np.searchsorted([max(s) for s in sups], np.arange(nv + 1)).tolist()
    fsuf = np.maximum.accumulate(incidence.sum(axis=1)[::-1])[::-1].tolist() + [0]
    return _SearchTables(start, [incidence[i, start[i]:] for i in range(nv)], fsuf)


def _search_total(
    P: PrimeDecomposition,
    m: int,
    degree: int,
    budget: Budget,
    largest_first: bool = False,
) -> tuple[int, ...] | None:
    """The first feasible vector of total degree <= degree, or None.

    The search assigns the variables in their natural order and tries
    each variable's exponents from 0 up, so the vector it returns is the
    lex-smallest feasible one.  With largest_first the exponents run
    from min(left, m) down and the vector is the lex-largest: at degree
    = alpha, every feasible vector is a minimal generator of I^(m) of
    degree alpha, so that is the canonically first generator of I^(m).
    The support tables are P's, built on its first search and shared by
    every later one.

    The search tree has one node per partial assignment of the variables
    0..idx-1.  It is expanded as a depth-first stack of frontier chunks:
    blocks of at most a few hundred nodes at the same idx, each held as
    a ``need`` matrix (nodes x open supports), a ``left`` vector (the
    degree left) and the exponent prefix.  ``need[k]``
    is m minus the k-th support's degree, clipped at 0, so a row's sum
    is its summed support deficit.  Popping a chunk expands every node
    at variable idx at once, with one numpy step: each exponent e in
    0..min(left, m) becomes a child, ``need`` drops by e on the supports
    incident to idx, and a child is cut when

    - a support whose last variable is idx is still deficient; supports
      closed earlier were checked at an ancestor and cannot change, so
      their columns are dropped from the chunk;
    - its deficit exceeds ``left * fsuf[idx + 1]``: one unit on a
      variable still free lowers the deficit by at most ``fsuf[idx +
      1]``, so the degree left cannot clear it (the counting bound,
      applied to the residue);
    - some support still needs more than the degree left.

    The survivors go back on the stack in row-bounded slices, the first
    slice on top, so the search stays depth-first and its memory stays
    bounded; a lone row with more children than a chunk may hold (a
    large m) is expanded a block of exponents at a time.  These are the
    cuts of a node-at-a-time depth-first search, at the same nodes and
    in the same order, so the first leaf that survives is that search's
    first feasible vector.  The budget is checked at the root and once
    per chunk popped.

    At the root the last two cuts are the counting bound itself: the
    search stops there, after one budget check, iff degree < m or degree
    * f_max < m * #supports, f_max being the most supports on any
    variable.

    Exponents are capped at m.  The search stays exact: lowering an
    exponent above m to m keeps every support degree >= m, so a feasible
    vector of total <= degree implies a capped one; and a feasible vector
    of least total degree is a minimal generator, none of whose exponents
    exceeds m.
    """
    nv = P.variable_count
    start, steps, fsuf = P._tables.start, P._tables.steps, P._tables.fsuf
    partial = {"m": m, "degree_tried": degree}
    budget.check("initial-degree", partial)
    if m * start[nv] > degree * fsuf[0] or m > degree:
        return None
    dtype = np.int8 if m <= np.iinfo(np.int8).max else np.int64
    # rows are summed in int16 unless a deficit could overflow it
    acc = np.int16 if m * start[nv] <= np.iinfo(np.int16).max else np.int64
    zeros = np.zeros(start[nv], dtype)
    # a chunk is (idx, need, left, prefix, first): its rows' children
    # take the exponents on variable idx from 0 up, or from min(left, m)
    # down when largest_first, after skipping the first `first` of them
    stack = [(0, np.full((1, start[nv]), m, dtype), np.array([degree]), np.zeros((1, 0), dtype), 0)]
    while stack:
        budget.check("initial-degree", partial)
        idx, need, left, prefix, first = stack.pop()
        top = np.minimum(left, m)
        counts = top + 1 - first
        take = max(1, _CHUNK_CELLS // max(1, need.shape[1]))
        if counts[0] > take:
            # only a lone row (a large m) has more children than a chunk
            # may hold: expand the first take of them, the rest after
            stack.append((idx, need, left, prefix, first + take))
            counts = np.array([take])
        offsets = np.cumsum(counts) - counts
        if largest_first:
            e = np.repeat(top - first + offsets, counts) - np.arange(counts.sum())
        else:
            e = first + np.arange(counts.sum()) - np.repeat(offsets, counts)
        left = np.repeat(left, counts) - e
        e = e.astype(dtype)
        # a zero row, not the scalar 0: numpy's int8 maximum is much
        # faster against an array of the same shape
        need = np.maximum(
            np.repeat(need, counts, axis=0) - e[:, None] * steps[idx], zeros[: need.shape[1]]
        )
        closed = start[idx + 1] - start[idx]
        ok = ~need[:, :closed].any(axis=1)
        need = need[:, closed:]
        ok &= need.sum(axis=1, dtype=acc) <= left * fsuf[idx + 1]
        ok &= need.max(axis=1, initial=0) <= left
        prefix = np.column_stack([np.repeat(prefix, counts, axis=0), e])
        if idx + 1 == nv:
            if ok.any():
                return tuple(prefix[ok.argmax()].tolist())
            continue
        need, left, prefix = need[ok], left[ok], prefix[ok]
        rows = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // ((m + 1) * max(1, need.shape[1]))))
        for lo in reversed(range(0, len(left), rows)):
            hi = lo + rows
            stack.append((idx + 1, need[lo:hi], left[lo:hi], prefix[lo:hi], 0))
    return None


def initial_degree(P: PrimeDecomposition, m: int, *, budget: Budget | None = None) -> int:
    """alpha(I^(m)): least degree of a monomial in the symbolic power.

    Tries the degrees from the counting bound max(m, ceil(m * #supports
    / f_max)) up, one decision search each, and returns the first that
    is feasible; never enumerates the generating set.  No degree below
    that bound is tried, since the search's root cut would refute it.
    The support tables are built on the first search of P and shared by
    every degree, every m and every later call.  The loop ends by
    m * variable_count at the latest, where the all-m vector is
    feasible.  Exponents are capped at m: lowering an exponent above m
    to m keeps a member in I^(m) and lowers its degree.  Each search
    expands a depth-first stack of frontier chunks, one numpy step per
    chunk and variable, and cuts a node when the degree left, times the
    most supports on any variable still free, is below the summed
    support deficit: one unit of degree lowers that sum by at most that
    many (details in _search_total).  Raises ResourceLimit (stage
    "initial-degree") when the budget's deadline passes; the search
    checks it at each degree's root and once per chunk.  Raises
    OverflowError, before searching, when m exceeds EXPONENT_LIMIT, as
    symbolic_power does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > EXPONENT_LIMIT:
        raise OverflowError(f"symbolic exponent {m} exceeds limit {EXPONENT_LIMIT}")
    budget = budget or Budget()
    bound = max(m, -(-m * P._tables.start[-1] // P._tables.fsuf[0]))
    return next(d for d in itertools.count(bound) if _search_total(P, m, d, budget) is not None)


def complement_alpha_formula(v: int, n: int, m: int) -> int:
    """Closed-form alpha(I^(m)) for Steiner complement configurations.

    Write m = p*n + q with 0 <= q < n.  Then alpha is p*v plus a
    fractional-layer term: 0 for q = 0, v - n for q = 1 (the initial
    degree of the ideal itself), and v - n + q for 2 <= q < n.
    """
    if not (1 <= n <= v) or m < 1:
        raise ValueError("need 1 <= n <= v and m >= 1")
    p, q = divmod(m, n)
    if q == 0:
        return p * v
    if q == 1:
        return p * v + (v - n)
    return p * v + (v - n + q)


@dataclass(frozen=True)
class AlphaTable:
    """Initial degrees alpha(I^(m)) for 1 <= m <= M plus Waldschmidt bounds.

    waldschmidt_upper is min over the table of alpha(m)/m, an upper bound
    for the limit by subadditivity.  waldschmidt_lower is the exact value
    v/n for Steiner complements and None otherwise.  The constructor
    re-checks strict monotonicity, subadditivity and bound consistency
    and raises InternalInconsistency if the engine produced a table that
    violates them.
    """

    entries: tuple[tuple[int, int], ...]
    waldschmidt_lower: Fraction | None

    def __post_init__(self):
        alphas = dict(self.entries)
        ms = [m for m, _ in self.entries]
        if not ms or ms != list(range(1, len(ms) + 1)):
            raise ValueError("entries must cover m = 1..M in order")
        for (m1, a1), (m2, a2) in zip(self.entries, self.entries[1:]):
            if a2 <= a1:
                raise InternalInconsistency(
                    f"alpha not strictly increasing: alpha({m1})={a1}, alpha({m2})={a2}"
                )
        for ma, aa in self.entries:
            for mb, ab in self.entries:
                if ma + mb in alphas and alphas[ma + mb] > aa + ab:
                    raise InternalInconsistency(
                        f"subadditivity fails at {ma}+{mb}: "
                        f"{alphas[ma + mb]} > {aa} + {ab}"
                    )
        upper = self.waldschmidt_upper
        if self.waldschmidt_lower is not None and self.waldschmidt_lower > upper:
            raise InternalInconsistency(
                f"exact Waldschmidt {self.waldschmidt_lower} exceeds upper bound {upper}"
            )

    @property
    def waldschmidt_upper(self) -> Fraction:
        return min(Fraction(a, m) for m, a in self.entries)

    def attained_at(self) -> tuple[int, ...]:
        """The m values where alpha(m)/m equals the upper bound."""
        upper = self.waldschmidt_upper
        return tuple(m for m, a in self.entries if Fraction(a, m) == upper)

    def to_dict(self) -> dict:
        return {
            "entries": {str(m): a for m, a in self.entries},
            "waldschmidt_upper": str(self.waldschmidt_upper),
            "waldschmidt_lower": (
                None if self.waldschmidt_lower is None else str(self.waldschmidt_lower)
            ),
            "attained": list(self.attained_at()),
        }
