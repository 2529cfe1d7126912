"""Symbolic powers of intersections of squarefree prime ideals.

A PrimeDecomposition holds the supports of height-one-generated primes
p_sigma = (x_i : i in sigma) as the rows of one 0/1 matrix.  The ideal
it presents is the intersection of those primes, and the m-th symbolic
power is the intersection of the m-th ordinary powers:

    I^(m) = intersection over sigma of p_sigma^m.

Membership is a linear condition: w lies in p_sigma^m exactly when its
sigma-degree (sum of exponents over sigma) is at least m.  That predicate
is the independent oracle used to cross-check the generator enumeration.

Two constructions feed decompositions from designs: cover_ideal takes the
edges of a hypergraph as supports; complement_ideal takes the non-blocks
of a Steiner system S(t, n, v) and records the (t, n, v) provenance.
Initial degrees are always computed, by one bounded search or from the
bounds alone, never read off a closed form; the provenance unlocks the
audit of each alpha against complement_alpha_formula, the containment
engine's regularity-threshold shortcut, the Stable Harbourne threshold
v / (n - 1) and the Waldschmidt lower bound v / n of alpha_table.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .bitsets import _canonical_order, _minimal_rows, _surviving_lifts
from .budget import Budget
from .designs import Hypergraph, SteinerSystem, _normalize_edge, complement_blocks
from .errors import InternalInconsistency, MixedAmbient, _integer
from .monomials import EXPONENT_LIMIT, Monomial, MonomialIdeal


@dataclass(frozen=True, init=False, eq=False)
class PrimeDecomposition:
    """Antichain of prime supports over {1, ..., variable_count}.

    ``rows``, one read-only 0/1 int8 row per support in canonical order
    (size ascending, then the row descending: (size, lex) order on sorted
    tuples), is the only stored form; ``supports`` builds those tuples on
    first read.  _minimal_rows drops embedded supports.  ``steiner``
    carries (t, n, v) for the complement configuration of a validated
    S(t, n, v), and None otherwise.  ``budget`` is checked
    (stage "decomposition") before each run of 2^16 supports is turned
    into rows (``supports_checked`` of the ``supports_total`` given), then,
    both at the total, before each block of the embedding test.
    """

    variable_count: int
    rows: np.ndarray
    steiner: tuple[int, int, int] | None = None

    def __init__(self, variable_count, supports, steiner=None, budget: Budget | None = None):
        variable_count = _integer(variable_count, "variable_count")
        given = tuple(supports)
        if not given:
            raise ValueError("a prime decomposition needs at least one support")
        if steiner is not None:
            t, n, v = (_integer(x, "steiner", None) for x in steiner)
            if not (1 <= t < n <= v):
                raise ValueError(f"bad steiner provenance {steiner}")
            steiner = (t, n, v)
        budget = budget or Budget()
        rows = np.zeros((len(given), variable_count), dtype=np.int8)

        def fill(lo, run):
            sizes = np.fromiter(map(len, run), np.intp, len(run))
            cols = np.array(list(itertools.chain.from_iterable(run)))
            bad = cols.dtype.kind not in "iu" or not sizes.all()  # a float, a string, an empty support
            if bad or cols.min() < 1 or cols.max() > variable_count:
                raise ValueError
            rows[np.repeat(np.arange(lo, lo + len(run)), sizes), cols - 1] = 1

        for lo in range(0, len(given), 1 << 16):
            budget.check("decomposition", {"supports_checked": lo, "supports_total": len(given)})
            run = given[lo : lo + (1 << 16)]
            try:
                fill(lo, run)
            except (TypeError, ValueError, OverflowError):
                # the plain route raises a ValueError naming the bad support
                fill(lo, [_normalize_edge(s, variable_count, "support") for s in run])
        done = {"supports_checked": len(given), "supports_total": len(given)}
        minimal = _minimal_rows(rows, lambda: budget.check("decomposition", done))
        minimal.flags.writeable = False  # a view of it can never be made writeable
        vars(self).update(variable_count=variable_count, rows=minimal.view(), steiner=steiner)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeDecomposition):
            return NotImplemented
        return self.steiner == other.steiner and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.steiner, self.rows.shape, self.rows.tobytes()))

    @functools.cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        variables = iter((self.rows.nonzero()[1] + 1).tolist())
        return tuple(tuple(itertools.islice(variables, k)) for k in self.rows.sum(axis=1).tolist())

    @functools.cached_property
    def _tables(self) -> _SearchTables:
        """The alpha search's tables, built on first use and kept with P."""
        return _search_tables(self)

    @property
    def support_count(self) -> int:
        return len(self.rows)

    @property
    def big_height(self) -> int:
        """Largest support size (max height of an associated prime): the last row's."""
        return int(self.rows[-1].sum())


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
    enumerates (stage "complement") and while the decomposition
    normalizes the supports (stage "decomposition").  The result records
    Steiner provenance.
    """
    supports = complement_blocks(S, budget=budget)
    return PrimeDecomposition(S.v, supports, steiner=(S.t, S.n, S.v), budget=budget)


def member_of_symbolic(w: Monomial, P: PrimeDecomposition, m: int) -> bool:
    """Decide w in I^(m): every support's degree >= m, by one einsum on the uncopied int8 rows."""
    if w.variable_count != P.variable_count:
        raise MixedAmbient(P.variable_count, w.variable_count)
    m = _integer(m, "m", 0)
    return bool((np.einsum("ij,j->i", P.rows, np.asarray(w.exponents, np.int64)) >= m).all())


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
    g's lifts.  _surviving_lifts decides a small step's full lift rows
    by one comparison, and otherwise runs that test once per parent and
    dominator block and tests each lift on the sigma columns only.

    On complements a step has a few todo rows among thousands, so a
    step costs what those rows cost.  G is kept column-major in an
    append buffer, with each row's total degree as its last entry: a
    step sums |sigma| contiguous buffer rows for the sigma-degrees,
    gathers only its todo and dominator columns, whose offdeg is total
    minus sigma-degree, retires its todo columns in place and appends
    the surviving lifts.  The buffer is compacted only when it is full.
    The result is sorted canonically once, after the last step.

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
    m = _integer(m, "symbolic exponent", most=EXPONENT_LIMIT)
    budget = budget or Budget()
    nv = P.variable_count
    # G is held column-major in an append buffer: column i is row i of G
    # on the first nv rows and its total degree on the last.  A retired
    # column holds m + 1 in every variable, so its sigma-degree exceeds
    # m and it is never a todo row or a dominator again; a live entry
    # never exceeds m, as no minimal generator of I^(k), k <= m, has an
    # exponent above k.  The first `used` columns are filled, `kept` of
    # them live; a full buffer is compacted to twice its live and
    # incoming columns, so each column is copied O(1) times on average.
    seed = np.zeros((1, nv), dtype=np.int64) if _seed is None else _seed.rows
    buf = np.empty((nv + 1, 2 * len(seed)), dtype=np.int64)
    buf[:-1, : len(seed)] = seed.T
    buf[-1, : len(seed)] = seed.sum(axis=1)
    used = kept = len(seed)

    for step, idx in enumerate(row.nonzero()[0] for row in P.rows):
        sdeg = buf[idx, :used].sum(axis=0)
        short = (sdeg < m).nonzero()[0]
        deficits = m - sdeg[short]
        # rows per deficit; np.bincount, unlike np.unique, does not
        # import numpy.ma (about 1 MB of resident memory)
        counts = np.bincount(deficits, minlength=m + 1)
        candidate = kept - len(short) + sum(
            c * comb(d + len(idx) - 1, d) for d, c in enumerate(counts.tolist()) if c
        )
        partial = {"supports_folded": step, "supports_total": len(P.rows), "kept": kept}
        budget.check("symbolic-power", partial, candidate)
        if len(short) == 0:
            continue
        # only the todo and dominator columns are read, with offdeg =
        # total - sigma-degree in the last row; a lift inherits its
        # parent's offdeg, so the query needs no stacking
        doms = (sdeg <= m).nonzero()[0]
        cols = buf[:, doms]
        cols[-1] -= sdeg[doms]
        todo = cols[:, sdeg[doms] < m]
        lifts = _surviving_lifts(
            todo.T, idx, deficits, cols.T, lambda: budget.check("symbolic-power", partial)
        )
        buf[:-1, short] = m + 1
        kept -= len(short)
        if used + len(lifts) > buf.shape[1]:
            live = np.flatnonzero(buf[0, :used] <= m)
            grown = np.empty((nv + 1, 2 * (kept + len(lifts))), dtype=np.int64)
            grown[:, :kept] = buf[:, live]
            buf, used = grown, kept
        buf[:, used : used + len(lifts)] = lifts.T
        # a lift has sigma-degree m, so its total degree is its offdeg + m
        buf[-1, used : used + len(lifts)] += m
        used += len(lifts)
        kept += len(lifts)
    rows = buf[:-1, :used][:, buf[0, :used] <= m].T
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
    nv = P.variable_count
    last = nv - 1 - P.rows[:, ::-1].argmax(axis=1)  # each support's last variable
    order = np.argsort(last, kind="stable")
    incidence = np.ascontiguousarray(P.rows[order].T)
    start = np.searchsorted(last[order], np.arange(nv + 1)).tolist()
    fsuf = np.maximum.accumulate(incidence.sum(axis=1)[::-1])[::-1].tolist() + [0]
    return _SearchTables(start, [incidence[i, start[i]:] for i in range(nv)], fsuf)


def _search_total(
    P: PrimeDecomposition,
    m: int,
    degree: int,
    budget: Budget,
    largest_first: bool = False,
    *,
    floor: int,
) -> tuple[int, ...] | None:
    """A feasible vector of least total degree <= degree, or None.

    A branch and bound with a bound that starts at degree: each feasible
    vector reached within the bound becomes the best one and lowers the
    bound to its total - 1, and the search returns at once when that
    total is <= floor.  So it returns the first vector in search order
    of total <= floor if there is one, and otherwise the first of least
    total.  With floor = degree it is a decision search; with floor at
    or below alpha(I^(m)) it proves the vector it returns least.

    The search assigns the variables in their natural order and tries
    each variable's exponents from 0 up, so of the vectors of one total
    it returns the lex-smallest.  With largest_first the exponents run
    from min(bound - spent, m) down and the vector is the lex-largest:
    at degree = floor = alpha, every feasible vector is a minimal
    generator of I^(m) of degree alpha, so that is the canonically first
    generator of I^(m).  The support tables are P's, built on its first
    search and shared by every later one.

    The search tree has one node per partial assignment of the variables
    0..idx-1.  It is expanded as a depth-first stack of frontier chunks:
    blocks of at most a few hundred nodes at the same idx, each held as
    a ``need`` matrix (nodes x open supports), a ``spent`` vector (the
    degree of the prefix) and the exponent prefix.  ``need[k]``
    is m minus the k-th support's degree, clipped at 0, so a row's sum
    is its summed support deficit.  Popping a chunk expands every node
    at variable idx at once, with one numpy step, under the bound of
    that moment: each exponent e in 0..min(left, m), left = bound -
    spent, becomes a child (a node with left < 0 has none), ``need``
    drops by e on the supports incident to idx, and a child is cut when

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
    large m) is expanded a block of exponents at a time, and records the
    next exponent it will try, as the bound may drop before it is popped
    again.  The leaves of a chunk are taken in search order, as a
    node-at-a-time search would take them, so the vector returned is
    that search's.  The budget is checked at the root and once per chunk
    popped; ``degree_tried`` is the bound.

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
    bound, best = degree, None
    # a chunk is (idx, need, spent, prefix, first): its rows' children
    # take the exponents on variable idx from `first` up to the degree
    # left, or from `first`, capped there, down to 0 when largest_first
    fresh = m if largest_first else 0
    root = np.full((1, start[nv]), m, dtype), np.zeros(1, np.int64), np.zeros((1, 0), dtype)
    stack = [(0, *root, fresh)]
    while stack:
        budget.check("initial-degree", partial)
        idx, need, spent, prefix, first = stack.pop()
        top = np.minimum(bound - spent, m)
        least, most = (0, np.minimum(top, first)) if largest_first else (first, top)
        counts = np.maximum(most + 1 - least, 0)
        take = max(1, _CHUNK_CELLS // max(1, need.shape[1]))
        if counts[0] > take:
            # only a lone row (a large m) has more children than a chunk
            # may hold: expand the first take of them, the rest after
            rest = int(most[0]) - take if largest_first else least + take
            stack.append((idx, need, spent, prefix, rest))
            counts = np.array([take])
        offsets = np.cumsum(counts) - counts
        if largest_first:
            e = np.repeat(most + offsets, counts) - np.arange(counts.sum())
        else:
            e = least + np.arange(counts.sum()) - np.repeat(offsets, counts)
        spent = np.repeat(spent, counts) + e
        left = bound - spent
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
        need, spent, prefix = need[ok], spent[ok], prefix[ok]
        if idx + 1 == nv:
            if len(spent):
                # the leaf a node-at-a-time search would keep last: the
                # first of total <= floor, else the first of least total
                i = int(np.maximum(spent, floor).argmin())
                best, bound = tuple(prefix[i].tolist()), int(spent[i]) - 1
                if bound < floor:
                    return best
                partial["degree_tried"] = bound
            continue
        rows = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // ((m + 1) * max(1, need.shape[1]))))
        for lo in reversed(range(0, len(spent), rows)):
            hi = lo + rows
            stack.append((idx + 1, need[lo:hi], spent[lo:hi], prefix[lo:hi], fresh))
    return best


def initial_degree(
    P: PrimeDecomposition,
    m: int,
    *,
    budget: Budget | None = None,
    known: Mapping[int, int] | None = None,
) -> int:
    """alpha(I^(m)): least degree of a monomial in the symbolic power.

    ``known`` maps some k to a_k = alpha(I^(k)) of the same P (the
    containment engine passes its memo).  alpha(I^(m)) is at least the
    largest of

    - m: each support of a member has degree >= m;
    - ceil(m * #supports / f_max), f_max the most supports on any
      variable: the support degrees sum to >= m * #supports, and one
      unit of degree adds at most f_max to that sum;
    - a_k + m - k, k < m: a member of I^(j+1) divided by a variable it
      holds lies in I^(j), as each support loses at most one degree, so
      a_(j+1) >= a_j + 1;

    and at most the least of

    - m * variable_count: the all-m vector is a member;
    - ceil(m / k) * a_k: the c-th power of a member of I^(k) is in I^(ck);
    - a_k + a_(m-k): I^(k) I^(m-k) lies in I^(m);
    - a_k - (k - m), k > m: the third lower bound, read from above.

    Crossed bounds raise InternalInconsistency, and equal bounds are
    alpha.  Otherwise one branch-and-bound search (_search_total) runs
    from upper - 1 down to lower: alpha is the total of the vector it
    returns, or upper if there is none.  The generating set is never
    enumerated.  The support tables are built on the first search of P
    and shared by every m and every later call.  Exponents are capped at
    m: lowering an exponent above m to m keeps a member in I^(m) and
    lowers its degree.  The search expands a depth-first stack of
    frontier chunks, one numpy step per chunk and variable, and cuts a
    node when the degree left, times the most supports on any variable
    still free, is below the summed support deficit: one unit of degree
    lowers that sum by at most that many (details in _search_total).
    Raises ResourceLimit (stage "initial-degree") when the budget's
    deadline passes; the search checks it at its root and once per
    chunk.  Raises OverflowError, before searching, when m exceeds
    EXPONENT_LIMIT, as symbolic_power does.
    """
    m = _integer(m, "symbolic exponent", most=EXPONENT_LIMIT)
    known = known or {}
    lower = max(
        [m, -(-m * P._tables.start[-1] // P._tables.fsuf[0])]
        + [a + m - k for k, a in known.items() if k < m]
    )
    upper = min(
        [m * P.variable_count]
        + [-(-m // k) * a for k, a in known.items()]
        + [a + known[m - k] for k, a in known.items() if m - k in known]
        + [a - (k - m) for k, a in known.items() if k > m]
    )
    if lower > upper:
        raise InternalInconsistency(f"alpha({m}) bounds cross: {lower} > {upper}, from {known}")
    if lower == upper:
        return lower
    best = _search_total(P, m, upper - 1, budget or Budget(), floor=lower)
    return upper if best is None else sum(best)


def complement_alpha_formula(v: int, n: int, m: int) -> int:
    """Closed-form alpha(I^(m)) for Steiner complement configurations.

    Write m = p*n + q with 0 <= q < n.  Then alpha is p*v plus a
    fractional-layer term: 0 for q = 0, v - n for q = 1 (the initial
    degree of the ideal itself), and v - n + q for 2 <= q < n.
    """
    v, n, m = _integer(v, "v"), _integer(n, "n"), _integer(m, "m")
    if n > v:
        raise ValueError("need n <= v")
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
