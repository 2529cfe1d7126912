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
of a Steiner system S(t, n, v) and records the (t, n, v) provenance, which
unlocks closed-form initial degrees and the exact Waldschmidt constant
v / n used by the faster containment paths.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np

from .designs import Hypergraph, SteinerSystem, complement_blocks
from .errors import (
    ComplementEmpty,
    InternalInconsistency,
    MixedAmbient,
    ResourceLimit,
)
from .monomials import Monomial, MonomialIdeal, _canonical_order, _minimal_rows

logger = logging.getLogger(__name__)

DEFAULT_GENERATOR_CAP = 2_000_000

ProgressFn = Callable[[int, int, int], None]


@dataclass
class Budget:
    """Resource limits shared by every long computation.

    ``generator_cap`` bounds the candidate rows of one symbolic-power fold
    step; ``deadline`` is a ``time.monotonic()`` value or None; ``progress``
    receives (supports folded, supports total, generators kept) after each
    fold step.  Long loops call ``check`` as they go.
    """

    generator_cap: int = DEFAULT_GENERATOR_CAP
    deadline: float | None = None
    progress: ProgressFn | None = None

    def check(self, stage: str, partial: dict, candidate: int = 0) -> None:
        """Raise ResourceLimit for ``stage`` with ``partial`` once a limit is passed."""
        if candidate > self.generator_cap:
            raise ResourceLimit(
                stage,
                f"candidate generator count {candidate} exceeds cap {self.generator_cap}",
                partial,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit(stage, "time budget exhausted", partial)


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
        seen = set()
        for s in self.supports:
            vs = tuple(sorted(set(int(x) for x in s)))
            if not vs:
                raise ValueError("empty support")
            if vs[0] < 1 or vs[-1] > self.variable_count:
                raise ValueError(f"support {vs} outside 1..{self.variable_count}")
            seen.add(vs)
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

    @property
    def support_count(self) -> int:
        return len(self.supports)

    @property
    def big_height(self) -> int:
        """Largest support size (max height of an associated prime)."""
        return max(len(s) for s in self.supports)

    @property
    def min_height(self) -> int:
        return min(len(s) for s in self.supports)


def cover_ideal(H: Hypergraph) -> PrimeDecomposition:
    """Decomposition whose supports are the edges of H.

    The presented ideal is the cover ideal: the intersection of the edge
    primes, generated by the vertex covers of H.
    """
    return PrimeDecomposition(H.vertex_count, H.edges)


def complement_ideal(S: SteinerSystem) -> PrimeDecomposition:
    """Decomposition supported on the n-subsets that are not blocks of S.

    Raises ComplementEmpty when every n-subset is a block (t+1 = n = v
    style corner cases).  The result records Steiner provenance.
    """
    comp = complement_blocks(S)
    if not comp:
        raise ComplementEmpty(
            f"S({S.t},{S.n},{S.v}) uses every {S.n}-subset; complement configuration is empty"
        )
    return PrimeDecomposition(S.v, comp, steiner=(S.t, S.n, S.v))


def support_degree(w: Monomial, support: Sequence[int]) -> int:
    """Sum of the exponents of w over the (1-based) support."""
    return sum(w.exponents[i - 1] for i in support)


def member_of_symbolic(w: Monomial, P: PrimeDecomposition, m: int) -> bool:
    """Decide w in I^(m) by the linear predicate, one support at a time."""
    if w.variable_count != P.variable_count:
        raise MixedAmbient(P.variable_count, w.variable_count)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return True
    return all(support_degree(w, s) >= m for s in P.supports)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All weak compositions of total into parts, as int64 rows."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        rows.append(comp)
    return np.array(rows, dtype=np.int64)


def symbolic_power(
    P: PrimeDecomposition, m: int, *, budget: Budget | None = None
) -> MonomialIdeal:
    """Minimal generators of I^(m) as a MonomialIdeal.

    Folds the prime powers p_sigma^m into the running intersection one
    support at a time, smallest supports first, minimalizing after every
    step.  Intersecting a monomial g with p_sigma^m needs only the
    minimal monomials above g with sigma-degree m: when g is deficient by
    d, these are g plus the weak compositions of d over sigma.  That is
    much tighter than generic pairwise lcms.

    Raises ResourceLimit when the candidate row count would exceed the
    budget's generator cap or its deadline passes; the exception's
    ``partial`` dict records how far the fold got.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    budget = budget or Budget()
    nv = P.variable_count
    total = len(P.supports)
    # seed with the first prime power; supports are already sorted by
    # size, i.e. ascending prime-power generator count.  Its rows are
    # distinct and of one degree, so sorting them is all the
    # minimalization they need.
    sups = _support_arrays(P)
    first = sups[0]
    partial = {"supports_folded": 0, "supports_total": total, "kept": 0}
    budget.check("symbolic-power", partial, comb(m + len(first) - 1, m))
    rows = np.zeros((comb(m + len(first) - 1, m), nv), dtype=np.int64)
    rows[:, list(first)] = _compositions(m, len(first))
    rows = rows[_canonical_order(rows)]

    for step, sup in enumerate(sups[1:], start=1):
        idx = list(sup)
        sdeg = rows[:, idx].sum(axis=1)
        ok = rows[sdeg >= m]
        todo = rows[sdeg < m]
        deficits = m - todo[:, idx].sum(axis=1) if len(todo) else np.zeros(0, dtype=np.int64)
        candidate = len(ok) + int(
            sum(comb(int(d) + len(idx) - 1, int(d)) for d in deficits)
        )
        partial = {"supports_folded": step, "supports_total": total, "kept": len(rows)}
        budget.check("symbolic-power", partial, candidate)
        pieces = [ok]
        for d in sorted(set(int(x) for x in deficits)):
            group = todo[deficits == d]
            comps = np.zeros((comb(d + len(idx) - 1, d), nv), dtype=np.int64)
            comps[:, idx] = _compositions(d, len(idx))
            expanded = (group[:, None, :] + comps[None, :, :]).reshape(-1, nv)
            pieces.append(expanded)
        rows = _minimal_rows(np.vstack(pieces))
        if budget.progress is not None:
            budget.progress(step + 1, total, len(rows))
    return MonomialIdeal(nv, rows)


# Initial degree alpha(I^(m)) = least total degree of a member, computed
# by bound-and-search on exponent vectors without enumerating generators.


def _support_arrays(P: PrimeDecomposition):
    return [tuple(i - 1 for i in s) for s in P.supports]


def _counting_lower_bound(P: PrimeDecomposition, m: int) -> int:
    """Admissible lower bound for alpha via a counting argument.

    One unit on variable i lowers the total deficiency (summed over all
    supports) by the number of supports containing i, so any feasible
    vector has total degree at least m * #supports / max-frequency.  On
    block-regular Steiner complement data this equals ceil(m * v / n).
    """
    freq = [0] * P.variable_count
    for s in P.supports:
        for i in s:
            freq[i - 1] += 1
    fmax = max(freq)
    total_need = m * len(P.supports)
    return max(m, -(-total_need // fmax))


def _greedy_feasible(P: PrimeDecomposition, m: int) -> list[int]:
    """A feasible exponent vector found greedily; upper bound for alpha."""
    sups = _support_arrays(P)
    a = [0] * P.variable_count
    while True:
        deficient = [s for s in sups if m - sum(a[i] for i in s) > 0]
        if not deficient:
            return a
        # add to the variable lying on the most still-deficient supports
        counts = [0] * P.variable_count
        for s in deficient:
            for i in s:
                counts[i] += 1
        best = max(range(P.variable_count), key=lambda i: (counts[i], -i))
        a[best] += 1


def _search_total(
    P: PrimeDecomposition,
    m: int,
    degree: int,
    collect: bool,
    budget: Budget,
    upper_bound: int,
):
    """Feasible vectors with total degree <= degree, natural variable order.

    collect=False: return True as soon as one exists.
    collect=True: return every feasible vector of total degree exactly
    degree (used for minimal-generator extraction at degree = alpha).
    Every search node checks the budget; upper_bound only feeds the
    partial report.

    Support deficits are kept incrementally: ``need[k]`` is m minus the
    k-th support's degree under the current partial assignment.  Raising
    a[idx] by one lowers ``need`` on the supports incident to idx, and
    the loop gives it back on return.  A node prunes when some support
    still needs more than the degree left, or when a support whose last
    variable was just assigned (``closing[idx - 1]``) is still deficient;
    supports closed earlier were checked at an ancestor and cannot change.
    """
    sups = _support_arrays(P)
    nv = P.variable_count
    incident: list[list[int]] = [[] for _ in range(nv)]
    closing: list[list[int]] = [[] for _ in range(nv)]
    for k, s in enumerate(sups):
        for i in s:
            incident[i].append(k)
        closing[max(s)].append(k)
    need = [m] * len(sups)
    found: list[tuple[int, ...]] = []
    a = [0] * nv
    partial = {"m": m, "degree_tried": degree, "upper_bound": upper_bound}

    def dfs(idx: int, left: int) -> bool:
        budget.check("initial-degree", partial)
        if idx and any(need[k] > 0 for k in closing[idx - 1]):
            return False  # support fully assigned yet deficient
        if max(need) > left:
            return False
        if idx == nv:
            if collect:
                if left == 0:
                    found.append(tuple(a))
                return False
            return True
        inc = incident[idx]
        feasible = False
        for e in range(0, left + 1):
            if e:
                for k in inc:
                    need[k] -= 1
            a[idx] = e
            if dfs(idx + 1, left - e):
                feasible = True
                break
        for k in inc:
            need[k] += a[idx]
        a[idx] = 0
        return feasible

    hit = dfs(0, degree)
    return found if collect else hit


def initial_degree(P: PrimeDecomposition, m: int, *, budget: Budget | None = None) -> int:
    """alpha(I^(m)): least degree of a monomial in the symbolic power.

    Runs bound-and-search between the counting lower bound and a greedy
    upper bound; never enumerates the generating set.  Raises
    ResourceLimit (stage "initial-degree") when the budget's deadline
    passes mid-search.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    budget = budget or Budget()
    lo = _counting_lower_bound(P, m)
    hi = sum(_greedy_feasible(P, m))
    for degree in range(lo, hi):
        if _search_total(P, m, degree, False, budget, hi):
            return degree
    return hi


def min_degree_generators(
    P: PrimeDecomposition,
    m: int,
    *,
    budget: Budget | None = None,
    alpha: int | None = None,
) -> tuple[Monomial, ...]:
    """All minimal generators of I^(m) of degree alpha, canonical order.

    A feasible vector of least total degree cannot strictly dominate
    another member, so these are exactly the degree-alpha minimal
    generators of the symbolic power.  ``alpha`` is alpha(I^(m)) when the
    caller already knows it; by default it is searched for here.
    """
    budget = budget or Budget()
    if alpha is None:
        alpha = initial_degree(P, m, budget=budget)
    vecs = _search_total(P, m, alpha, True, budget, alpha)
    vecs.sort(key=lambda t: tuple(-x for x in t))
    return tuple(Monomial(v) for v in vecs)


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


def waldschmidt_exact(P: PrimeDecomposition) -> Fraction | None:
    """Exact Waldschmidt constant v / n for Steiner complements, else None."""
    if P.steiner is None:
        return None
    _, n, v = P.steiner
    return Fraction(v, n)


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
    waldschmidt_upper: Fraction
    waldschmidt_lower: Fraction | None

    def __post_init__(self):
        alphas = dict(self.entries)
        ms = [m for m, _ in self.entries]
        if ms != sorted(ms) or len(set(ms)) != len(ms) or (ms and ms[0] != 1):
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
        upper = min(Fraction(a, m) for m, a in self.entries)
        if upper != self.waldschmidt_upper:
            raise InternalInconsistency("waldschmidt_upper does not match entries")
        if self.waldschmidt_lower is not None and self.waldschmidt_lower > upper:
            raise InternalInconsistency(
                f"exact Waldschmidt {self.waldschmidt_lower} exceeds upper bound {upper}"
            )

    def alpha(self, m: int) -> int:
        return dict(self.entries)[m]

    def attained_at(self) -> tuple[int, ...]:
        """The m values where alpha(m)/m equals the upper bound."""
        return tuple(
            m for m, a in self.entries if Fraction(a, m) == self.waldschmidt_upper
        )

    def to_dict(self) -> dict:
        return {
            "entries": {str(m): a for m, a in self.entries},
            "waldschmidt_upper": str(self.waldschmidt_upper),
            "waldschmidt_lower": (
                None if self.waldschmidt_lower is None else str(self.waldschmidt_lower)
            ),
            "attained": list(self.attained_at()),
        }


def alpha_table(P: PrimeDecomposition, M: int, *, budget: Budget | None = None) -> AlphaTable:
    """Table of alpha(I^(m)) for m = 1..M with Waldschmidt bounds."""
    if M < 1:
        raise ValueError("M must be >= 1")
    entries = tuple((m, initial_degree(P, m, budget=budget)) for m in range(1, M + 1))
    if P.steiner is not None:
        _, n, v = P.steiner
        for m, a in entries:
            expect = complement_alpha_formula(v, n, m)
            if a != expect:
                raise InternalInconsistency(
                    f"alpha({m}) = {a} disagrees with closed form {expect} "
                    f"for the S(t,{n},{v}) complement"
                )
    upper = min(Fraction(a, m) for m, a in entries)
    return AlphaTable(entries, upper, waldschmidt_exact(P))
