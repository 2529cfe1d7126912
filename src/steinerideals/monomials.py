"""Exact arithmetic on monomials and squarefree-or-not monomial ideals.

A MonomialIdeal is stored as one read-only int64 matrix: the exponent
rows of its unique minimal generating set in a canonical order, degree
ascending, then exponent tuple descending (within one degree the largest
power of x1 comes first), which makes first-reported witnesses
deterministic.  Every operation here works on those rows; Monomial
objects (validated exponent vectors) appear only at the API edge.

Exponents are capped at EXPONENT_LIMIT and the operation entry points
bound degree growth, which provably keeps every intermediate far below
int64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, TextIO

import numpy as np

from .bitsets import _nonminimal
from .budget import Budget
from .errors import FormatError, MixedAmbient

# Every stored exponent is at most 2^20, so the sum of two stored rows,
# a multiply product, stays below 2^21, far inside int64; a product
# above the limit is refused when it is stored.
EXPONENT_LIMIT = 1 << 20


@dataclass(frozen=True, order=True)
class Monomial:
    """An exponent vector; the monomial x1^e1 * ... * xk^ek."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        for e in exps:
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
            if e > EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} exceeds limit {EXPONENT_LIMIT}")
        object.__setattr__(self, "exponents", exps)

    @property
    def variable_count(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return self.degree == 0

    def exponent_string(self) -> str:
        """Space-separated exponents, the plain-text exchange form."""
        return " ".join(str(e) for e in self.exponents)

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


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


def _minimal_rows(rows: np.ndarray, check: Callable[[], None] | None = None) -> np.ndarray:
    """Minimal rows under componentwise <=, canonically ordered.

    After _distinct, two distinct rows x <= c have deg x < deg c, so a
    row is dominated iff a row of strictly smaller degree, hence earlier
    in canonical order, is <= it: bitsets' dominance query with the
    degree as the strictly compared last column (_nonminimal).

    ``check``, if given, is called before each dominator block; a
    caller's budget check raises from it to stop a long minimalization.
    """
    if len(rows) == 0:
        return rows.reshape(0, rows.shape[1])
    rows = rows[_distinct(rows)]
    return rows[~_nonminimal(np.column_stack([rows, rows.sum(axis=1)]), check)]


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal, stored by its canonical minimal generating set.

    ``rows``, one read-only int64 exponent row per minimal generator in
    canonical order, is the only stored form; ``generators`` builds the
    Monomial objects on first read.  The constructor copies rows and
    checks shape and range but trusts them to be a canonical antichain;
    from_rows builds an ideal from arbitrary rows.
    """

    variable_count: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.variable_count:
            raise ValueError(f"rows of shape {rows.shape} for {self.variable_count} variables")
        if rows.size and rows.min() < 0:
            raise ValueError("negative exponent in generator rows")
        if rows.size and rows.max() > EXPONENT_LIMIT:
            raise OverflowError(f"exponent {rows.max()} exceeds limit {EXPONENT_LIMIT}")
        rows.flags.writeable = False  # a view of it can never be made writeable
        object.__setattr__(self, "rows", rows.view())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.variable_count == other.variable_count and np.array_equal(self.rows, other.rows)

    @classmethod
    def zero(cls, variable_count: int) -> "MonomialIdeal":
        return cls(variable_count, np.zeros((0, variable_count), dtype=np.int64))

    @classmethod
    def unit(cls, variable_count: int) -> "MonomialIdeal":
        return cls(variable_count, np.zeros((1, variable_count), dtype=np.int64))

    @classmethod
    def from_rows(cls, variable_count: int, rows: np.ndarray) -> "MonomialIdeal":
        """The ideal generated by any exponent rows, minimalized.

        An empty input is the zero ideal.  Any other input must be a
        matrix of variable_count columns with entries in range: the
        constructor's checks run on it before it is minimalized.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return cls.zero(variable_count)
        return cls(variable_count, _minimal_rows(cls(variable_count, rows).rows))

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        """The minimal generators as Monomial objects, in canonical order."""
        return tuple(Monomial(tuple(r)) for r in self.rows.tolist())

    @property
    def is_zero(self) -> bool:
        return len(self.rows) == 0

    @property
    def is_unit(self) -> bool:
        return len(self.rows) == 1 and not self.rows[0].any()

    @property
    def generator_count(self) -> int:
        return len(self.rows)

    def min_degree(self) -> int | None:
        """Initial degree (least generator degree); None for the zero ideal."""
        return int(self.rows[0].sum()) if len(self.rows) else None

    def max_degree(self) -> int | None:
        """Largest minimal-generator degree; None for the zero ideal."""
        return int(self.rows[-1].sum()) if len(self.rows) else None


def multiply(
    I: MonomialIdeal, J: MonomialIdeal, *, budget: Budget | None = None, partial: dict | None = None
) -> MonomialIdeal:
    """Product ideal; generated by pairwise products.

    The budget is checked (stage "ordinary-power", reporting ``partial``)
    with the |I| * |J| products as the candidate count before any is
    built, and once per block of their minimalization.  ``partial`` is
    reported as given, {} by default: the stage's documented keys are
    the ones power passes.
    """
    if I.variable_count != J.variable_count:
        raise MixedAmbient(I.variable_count, J.variable_count)
    if I.is_zero or J.is_zero:
        return MonomialIdeal.zero(I.variable_count)
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    A, B = I.rows, J.rows
    budget, partial = budget or Budget(), partial or {}
    budget.check("ordinary-power", partial, len(A) * len(B))
    rows = (A[:, None, :] + B[None, :, :]).reshape(-1, I.variable_count)
    rows = _minimal_rows(rows, lambda: budget.check("ordinary-power", partial))
    return MonomialIdeal(I.variable_count, rows)


def power(I: MonomialIdeal, r: int, *, budget: Budget | None = None) -> MonomialIdeal:
    """r-th power of the ideal; power(I, 0) is the unit ideal.

    The budget is checked by every multiply step, before it builds its
    products and once per block of their minimalization (stage
    "ordinary-power"; ``factors_done`` counts the factors multiplied so
    far).
    """
    if r < 0:
        raise ValueError("power exponent must be >= 0")
    if r > EXPONENT_LIMIT:
        raise OverflowError(f"power exponent {r} exceeds limit {EXPONENT_LIMIT}")
    if r == 0:
        return MonomialIdeal.unit(I.variable_count)
    out = I
    for done in range(1, r):
        out = multiply(out, I, budget=budget, partial={"r": r, "factors_done": done})
    return out


def member_of_power(
    w: Monomial,
    I: MonomialIdeal,
    r: int,
    slack: int = 0,
    *,
    budget: Budget | None = None,
    partial: dict | None = None,
) -> bool:
    """Decide w in M^slack * I^r, M the irrelevant (all-variables) ideal.

    Equivalent to: some multiset of r generators has product dividing w
    with deg(w) - deg(product) >= slack.  Exact depth-first search with
    degree pruning and memoized failure states; no power ideal is
    materialized.  The generators are tried in degree-descending order
    (the reverse of the canonical order), each pick at or after the
    previous one.  At each node one numpy call tests every remaining
    generator against the residual, and the search descends into those
    that divide it, in that order.  The open nodes are held on an
    explicit stack, so r is not bounded by Python's recursion limit.

    On an I that is not squarefree, a node is also cut when fewer picks
    fit than are left: let e_i be the least positive exponent of x_i
    over the generators; each pick spends at least e_i of some x_i, so
    at most the sum of residual_i // e_i picks fit.  The cut is skipped
    on a squarefree I, the unit ideal among them: there every e_i is 1,
    and the degree test implies the cut when every variable occurs in a
    generator.

    The budget is checked at every search node (stage "membership-scan",
    reporting ``partial``).  ``partial`` is reported as given, {} by
    default: the stage's documented keys are the ones the containment
    engine passes.
    """
    if w.variable_count != I.variable_count:
        raise MixedAmbient(I.variable_count, w.variable_count)
    if r < 0 or slack < 0:
        raise ValueError("r and slack must be >= 0")
    if r == 0:
        return w.degree >= slack
    if I.is_zero:
        return False
    rows = I.rows[::-1]
    min_deg = I.min_degree()
    least = None
    if rows.max() > 1:  # e_i, or above any residual where no generator has x_i
        least = np.where(rows > 0, rows, EXPONENT_LIMIT + 1).min(axis=0)
    budget, partial = budget or Budget(), partial or {}
    failed: set[tuple] = set()
    # one entry per open node: its failure key, residual, picks left and
    # the generators still to try as its next pick
    stack: list[tuple[tuple, np.ndarray, int, Iterator[int]]] = []
    residual, rem, start = np.array(w.exponents, dtype=np.int64), r, 0
    while True:
        budget.check("membership-scan", partial)
        if int(residual.sum()) >= rem * min_deg + slack and (
            least is None or int((residual // least).sum()) >= rem
        ):
            if rem == 0:
                return True
            key = (residual.tobytes(), rem, start)
            if key not in failed:
                fits = (rows[start:] <= residual).all(axis=1)
                stack.append((key, residual, rem, iter((np.flatnonzero(fits) + start).tolist())))
        # the next node: the next pick of the deepest node that has one
        while stack:
            key, parent, left, picks = stack[-1]
            gi = next(picks, None)
            if gi is not None:
                residual, rem, start = parent - rows[gi], left - 1, gi
                break
            failed.add(key)
            stack.pop()
        else:
            return False


def _greedy_members(targets: np.ndarray, I: MonomialIdeal, r: int, slack: int) -> np.ndarray:
    """Which target rows member_of_power's first search path proves in M^slack * I^r.

    Follows, for every row at once, the path the search tries first: r
    times, pick the first generator in its order (degree descending, at
    or after the previous pick) that divides the residual.  A row whose r
    picks all fit and leave at least ``slack`` degrees is a member; False
    only means that this path failed, so the exact search must decide
    the row.  I must be nonzero.
    """
    rows = I.rows[::-1]
    residual = targets.copy()
    start = np.zeros(len(targets), dtype=np.int64)
    found = np.ones(len(targets), dtype=bool)
    for _ in range(r):
        fits = np.arange(len(rows)) >= start[:, None]
        for j in range(rows.shape[1]):
            fits &= rows[:, j] <= residual[:, j, None]
        start = fits.argmax(axis=1)
        found &= fits[np.arange(len(fits)), start]
        residual -= rows[start]
    return found & (residual.sum(axis=1) >= slack)


# Plain-text monomial exchange format: a "vars: k" header line followed
# by one space-separated exponent vector per line.  Blank lines and lines
# starting with '#' are ignored.


def dump_monomials(target: str | TextIO, ideal: MonomialIdeal) -> None:
    """Write the ideal's minimal generators, in canonical order, in the plain-text format."""
    lines = [f"vars: {ideal.variable_count}"]
    lines += [" ".join(map(str, r)) for r in ideal.rows.tolist()]
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def load_monomials(source: str | TextIO) -> tuple[int, tuple[Monomial, ...]]:
    """Read the plain-text format; returns (variable_count, monomials)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise FormatError("monomial file must start with a 'vars: k' header")
    try:
        nv = int(lines[0].split(":", 1)[1])
    except ValueError as exc:
        raise FormatError(f"bad vars header: {lines[0]!r}") from exc
    if nv < 1:
        raise FormatError("variable count must be >= 1")
    out = []
    for ln in lines[1:]:
        try:
            exps = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise FormatError(f"bad exponent line: {ln!r}") from exc
        if len(exps) != nv:
            raise FormatError(f"exponent line {ln!r} has {len(exps)} entries, expected {nv}")
        try:
            out.append(Monomial(exps))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"bad exponent line: {ln!r} ({exc})") from exc
    return nv, tuple(out)
