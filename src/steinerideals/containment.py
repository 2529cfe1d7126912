"""Containment decisions I^(m) <= M^slack * I^r and conjecture scans.

The central question: given a squarefree decomposition presenting I, an
ordinary power exponent r, a symbolic exponent m and a degree slack,
does every element of the symbolic power I^(m) lie in M^slack * I^r,
where M is the ideal of all variables?  For monomial data it suffices to
test the minimal generators of I^(m), and each test asks for a multiset
of r generators of I whose product divides the candidate with at least
``slack`` degrees to spare.

Fast paths, both re-verified where they produce witnesses:

* degree obstruction: if alpha(I^(m)) < r * alpha(I) + slack, the
  containment fails on degree grounds alone and a least-degree generator
  of I^(m) is the canonical witness;
* regularity threshold (Steiner complements, slack 0): the containment
  I^(m) <= I^r is guaranteed once alpha(I^(m)) >= r * (v - n + 1), the
  right side being r times the regularity of the complement ideal.

Otherwise a generator scan decides: the minimal generators of I^(m) are
tested in chunks.  A vectorized greedy pass certifies most of a chunk as
members; every generator it leaves goes, in canonical order, to the
exact search member_of_power, so the witness is the canonically first
non-member.

The report field omega_r = r * omega(I) decides nothing; I^r is built
only in audit mode, to cross-check it.

Every reported failure witness is independently confirmed: membership in
the symbolic power by the linear support predicate, non-membership in
M^slack * I^r by an exhaustive search over the r-multisets of base
generators, pruned by divisibility and degree.  Exact rational
arithmetic throughout; no floats.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Callable

import numpy as np

from .budget import Budget
from .errors import DegenerateRegion, InternalInconsistency, _integer
from .monomials import (
    EXPONENT_LIMIT,
    Monomial,
    MonomialIdeal,
    _greedy_members,
    member_of_power,
    power,
)
from .symbolic import (
    AlphaTable,
    PrimeDecomposition,
    _search_total,
    complement_alpha_formula,
    initial_degree,
    member_of_symbolic,
    symbolic_power,
)

_RECHECK_CHUNK = 4096  # prefixes per vectorized step of the witness's exhaustive search
_SCAN_CHUNK = 1 << 18  # generator-by-base-row tests per vectorized step of the scan


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of one containment check.

    The containment fails exactly when there is a witness: a minimal
    generator of I^(m) outside M^slack * I^r, the canonically first one
    the scan encountered.  ``method`` records which path decided the
    question.  elapsed_ms is wall time and is the only non-deterministic
    field.
    """

    m: int
    r: int
    slack: int
    witness: Monomial | None
    alpha_m: int
    alpha_r: int
    omega_r: int
    method: str
    elapsed_ms: float

    @property
    def holds(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "slack": self.slack,
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.exponent_string(),
            "alpha_m": self.alpha_m,
            "alpha_r": self.alpha_r,
            "omega_r": self.omega_r,
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class ConjectureInstance:
    """One checked instance: its parameters and whether it held."""

    params: dict
    holds: bool
    witness: Monomial | None = None

    def to_dict(self) -> dict:
        out = {"params": dict(self.params), "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness.exponent_string()
        return out


@dataclass(frozen=True)
class ConjectureVerdict:
    """All instances of one conjecture over a scan range, named as printed."""

    name: str
    instances: tuple[ConjectureInstance, ...]
    threshold: Fraction | None = None  # analytic guarantee bound, where known

    @property
    def all_hold(self) -> bool:
        return all(inst.holds for inst in self.instances)

    def to_dict(self) -> dict:
        out = {
            "conjecture": self.name,
            "all_hold": self.all_hold,
            "instances": [inst.to_dict() for inst in self.instances],
        }
        if self.threshold is not None:
            out["threshold"] = str(self.threshold)
        return out


class ContainmentEngine:
    """Shared state for repeated containment checks on one decomposition.

    Caches symbolic powers, initial degrees, the base ideal and the
    ordinary powers audit mode builds, so scans reuse instead of
    recomputing.  A new symbolic power I^(m) is folded from the largest
    cached I^(k), k < m, if any, since I^(m) lies in I^(k); no power is
    folded only to serve as a seed.  The engine is the one memo of
    initial degrees: each new alpha(I^(m)) is searched between the
    bounds the cached ones prove (see initial_degree), and those of a
    Steiner complement are audited against the closed form.
    alpha_table, the conjecture families and the resurgence scans take
    the engine as their first argument and read the decomposition from
    it.  The budget applies to every symbolic
    power, initial-degree search, ordinary power, membership scan and
    witness enumeration the engine runs.
    """

    def __init__(self, decomposition: PrimeDecomposition, *, budget: Budget | None = None):
        self.decomposition = decomposition
        self.budget = budget or Budget()
        self._symbolic: dict[int, MonomialIdeal] = {}
        self._alpha: dict[int, int] = {}
        self._ordinary: dict[int, MonomialIdeal] = {}

    # cached building blocks

    def symbolic(self, m: int) -> MonomialIdeal:
        m = _integer(m, "symbolic exponent", most=EXPONENT_LIMIT)
        hit = self._symbolic.get(m)
        if hit is not None:
            return hit
        seed = max((k for k in self._symbolic if k < m), default=None)
        ideal = symbolic_power(
            self.decomposition, m, budget=self.budget, _seed=self._symbolic.get(seed)
        )
        alpha = self.alpha(m)
        got = ideal.min_degree()
        if got != alpha:
            raise InternalInconsistency(
                f"symbolic power m={m}: min generator degree {got} "
                f"!= bound-and-search alpha {alpha}"
            )
        self._symbolic[m] = ideal
        return ideal

    def base_ideal(self) -> MonomialIdeal:
        return self.symbolic(1)

    def alpha(self, m: int) -> int:
        """alpha(I^(m)) by one search between the bounds the cached alphas prove, cached per m.

        For a Steiner complement each searched value is checked against
        complement_alpha_formula; a mismatch raises InternalInconsistency.
        """
        m = _integer(m, "symbolic exponent", most=EXPONENT_LIMIT)
        hit = self._alpha.get(m)
        if hit is not None:
            return hit
        P = self.decomposition
        val = initial_degree(P, m, budget=self.budget, known=self._alpha)
        if P.steiner is not None:
            _, n, v = P.steiner
            expect = complement_alpha_formula(v, n, m)
            if val != expect:
                raise InternalInconsistency(
                    f"alpha({m}) = {val} disagrees with closed form {expect} "
                    f"for the S(t,{n},{v}) complement"
                )
        self._alpha[m] = val
        return val

    def ordinary_power(self, r: int) -> MonomialIdeal:
        r = _integer(r, "power exponent", 0, EXPONENT_LIMIT)
        hit = self._ordinary.get(r)
        if hit is not None:
            return hit
        val = power(self.base_ideal(), r, budget=self.budget)
        self._ordinary[r] = val
        return val

    def omega_r(self, r: int, audit: bool = False) -> int:
        """Largest minimal-generator degree of I^r: r * omega(I), I = I^(1).

        I is squarefree, so no minimal generator of I^r exceeds r * omega(I).
        For a generator u of top degree, a product of r generators dividing
        u^r has every factor supported inside u; each factor then divides u
        and so equals u, hence u^r is minimal in I^r.  audit=True builds
        I^r and raises InternalInconsistency on a mismatch.
        """
        r = _integer(r, "r", 0)
        val = r * self.base_ideal().max_degree()
        if audit:
            got = self.ordinary_power(r).max_degree()
            if got != val:
                raise InternalInconsistency(
                    f"omega(I^{r}) = {got} disagrees with r * omega(I) = {val}"
                )
        return val

    # witness confirmation, deliberately on independent code paths

    def _confirm_witness(self, w: Monomial, m: int, r: int, slack: int) -> None:
        """Raise InternalInconsistency unless w is a true failure witness.

        w must lie in I^(m) by the support predicate, and no product of r
        base generators may divide w with ``slack`` degrees to spare.  The
        second test is an exhaustive depth-first search over the
        r-multisets of the base rows that divide w, sorted by degree, each
        multiset taken as an index-nondecreasing sequence of rows.  A chunk
        of at most _RECHECK_CHUNK prefixes of one length is extended, in
        one gather and add, by every row at or after its last index that
        is light enough: the rows still to come weigh at least that row's
        degree each, so that many copies of it must fit in the degree left.
        A child whose sum no longer divides w is dropped, and a surviving
        child of length r is a dividing product.  Both cuts are exact, since
        rows are nonnegative and every prefix of a dividing product divides
        w.  The search uses none of member_of_power, _greedy_members or the
        bitsets kernels.

        The budget is checked, at stage witness-enumeration, once per chunk
        popped, the first time before anything is ruled out.
        ``multisets_checked`` counts the multisets ruled out so far: those
        with a row that does not divide w, then every completion of each
        cut or dropped prefix; it never decreases and reaches
        ``multisets_total`` when the search ends.  The search has no limit
        of its own: it ends when it has ruled out every multiset or found
        a dividing product, or when the budget stops it.
        """
        P = self.decomposition
        if not member_of_symbolic(w, P, m):
            raise InternalInconsistency(
                f"witness {w} is not in the symbolic power m={m}"
            )
        rows = self.base_ideal().rows
        total = comb(len(rows) + r - 1, r)
        dtype = np.min_scalar_type(2 * max(w.exponents))  # a row plus a prefix dividing w
        target = np.array(w.exponents, dtype=dtype)
        room = w.degree - slack  # the largest degree a product may have
        degs = rows.sum(axis=1)
        fit = (rows <= target).all(axis=1) & (degs <= room)
        order = np.argsort(degs[fit], kind="stable")
        cand, cdeg = rows[fit][order].astype(dtype), degs[fit][order]
        c = len(cand)
        # within[s][j] = C(c - j + s - 1, s), the s-multisets of rows j..c-1, built on first use
        within, ctype = {}, (np.int64 if total < 1 << 63 else object)
        partial = {
            "m": m,
            "r": r,
            "slack": slack,
            "multisets_checked": 0,
            "multisets_total": total,
        }
        unfit = total - comb(c + r - 1, r)  # the multisets with a row that cannot divide w
        # a chunk is (k, sums, degrees, last): prefixes of k rows, their
        # sums and degrees, and the index of their last row
        stack = [(0, np.zeros((1, len(target)), dtype), np.zeros(1, np.int64), np.zeros(1, np.int64))]
        while stack:
            k, sums, deg, last = stack.pop()
            # each of the r - k rows still to come weighs at least the next one
            hi = np.maximum(np.searchsorted(cdeg, (room - deg) // (r - k), side="right"), last)
            counts = hi - last
            n = int(counts.sum())
            self.budget.check("witness-enumeration", partial)
            offsets = np.cumsum(counts) - counts
            parent = np.repeat(np.arange(len(last)), counts)
            idx = np.arange(n) + np.repeat(last - offsets, counts)
            child = sums[parent] + cand[idx]
            ok = (child <= target).all(axis=1)
            left = r - k - 1  # rows still to come after a child
            if not left and ok.any():
                raise InternalInconsistency(
                    f"witness {w} is divisible by a generator product; "
                    f"membership search disagrees with enumeration"
                )
            for s in {left, left + 1} - within.keys():
                within[s] = np.array([comb(max(a + s - 1, 0), s) for a in range(c, -1, -1)], ctype)
            # ruled out: the completions cut by degree, then those of each
            # dropped child, from its own row on
            partial["multisets_checked"] += (
                unfit + int(within[left + 1][hi].sum()) + int(within[left][idx[~ok]].sum())
            )
            unfit = 0
            if left:
                child, deg, last = child[ok], deg[parent[ok]] + cdeg[idx[ok]], idx[ok]
                for lo in reversed(range(0, len(last), _RECHECK_CHUNK)):
                    cut = slice(lo, lo + _RECHECK_CHUNK)
                    stack.append((k + 1, child[cut], deg[cut], last[cut]))

    # the main decision procedure

    def check(self, m: int, r: int, slack: int = 0, *, audit: bool = False) -> ContainmentReport:
        """Decide I^(m) <= M^slack * I^r and report with witness on failure.

        audit=True disables the true-result shortcuts, forcing the
        membership scan, and checks omega_r against the built I^r; used
        by sanity checks that exist to exercise the real engine.

        A degree obstruction's witness is the canonically first generator
        of I^(m), found without building I^(m): one largest-first alpha
        search at degree alpha(I^(m)) returns it as its first feasible
        vector.

        The scan takes the generators of I^(m) in chunks of about
        _SCAN_CHUNK generator-by-base-row tests and checks the budget once
        per chunk.  _greedy_members certifies what it can of each chunk;
        each row it leaves is decided by member_of_power, in canonical
        order, so the witness is the first generator outside
        M^slack * I^r.
        """
        m, r, slack = _integer(m, "m"), _integer(r, "r"), _integer(slack, "slack", 0)
        t0 = time.perf_counter()
        P = self.decomposition
        alpha_1 = self.alpha(1)
        alpha_m = self.alpha(m)
        alpha_r = r * alpha_1  # alpha is additive on ordinary powers of monomial ideals
        omega_r = self.omega_r(r, audit=audit)

        def report(witness: Monomial | None, method: str) -> ContainmentReport:
            elapsed = (time.perf_counter() - t0) * 1000.0
            return ContainmentReport(m, r, slack, witness, alpha_m, alpha_r, omega_r, method, elapsed)

        # degree obstruction: too little degree to lie in M^slack * I^r
        if alpha_m < alpha_r + slack:
            first = _search_total(P, m, alpha_m, self.budget, largest_first=True, floor=alpha_m)
            witness = Monomial(first)
            self._confirm_witness(witness, m, r, slack)
            return report(witness, "degree-obstruction")

        if not audit:
            # symbolic powers shrink as m grows, so r = 1 with no slack
            # is containment in I^(1) itself
            if r == 1 and slack == 0:
                return report(None, "symbolic-descent")
            # Steiner regularity threshold: alpha(I^(m)) >= r * reg(I)
            # forces the containment, reg(I) = v - n + 1
            if slack == 0 and P.steiner is not None:
                _, n, v = P.steiner
                if alpha_m >= r * (v - n + 1):
                    return report(None, "regularity-threshold")

        rows = self.symbolic(m).rows
        base = self.base_ideal()
        step = max(1, _SCAN_CHUNK // len(base.rows))
        for lo in range(0, len(rows), step):
            partial = {
                "m": m,
                "r": r,
                "slack": slack,
                "generators_checked": lo,
                "generators_total": len(rows),
                "holds_so_far": True,
            }
            self.budget.check("membership-scan", partial)
            chunk = rows[lo : lo + step]
            for i in np.flatnonzero(~_greedy_members(chunk, base, r, slack)).tolist():
                g = Monomial(tuple(chunk[i].tolist()))
                partial = dict(partial, generators_checked=lo + i)
                if not member_of_power(g, base, r, slack, budget=self.budget, partial=partial):
                    self._confirm_witness(g, m, r, slack)
                    return report(g, "generator-scan")
        return report(None, "generator-scan")


def alpha_table(engine: ContainmentEngine, M: int) -> AlphaTable:
    """Table of alpha(I^(m)) for m = 1..M with Waldschmidt bounds.

    The entries are the engine's cached and audited initial degrees, so
    a table costs no search the engine has already run.  The lower bound
    is the exact Waldschmidt constant v / n of an S(t, n, v) complement,
    and None without Steiner provenance.  Raises OverflowError, before
    any search, when M exceeds EXPONENT_LIMIT.
    """
    M = _integer(M, "M", most=EXPONENT_LIMIT)
    entries = tuple((m, engine.alpha(m)) for m in range(1, M + 1))
    steiner = engine.decomposition.steiner
    return AlphaTable(entries, None if steiner is None else Fraction(steiner[2], steiner[1]))


def _r_family(
    engine: ContainmentEngine,
    name: str,
    r_lo: int,
    r_hi: int,
    rule: Callable[[int], tuple[int, int]],
    *,
    audit: bool = False,
    threshold: Fraction | None = None,
) -> ConjectureVerdict:
    """Check I^(m) <= M^slack * I^r with (m, slack) = rule(r) for r in [r_lo, r_hi].

    audit=True is for a family that is a theorem: every check runs in
    audit mode so the real membership machinery is exercised, a False
    outcome raises InternalInconsistency, and instances report only r
    and m (the slack is always 0).
    """
    r_lo, r_hi = _integer(r_lo, "r_lo", None), _integer(r_hi, "r_hi", None)
    if not (1 <= r_lo <= r_hi):
        raise ValueError("need 1 <= r_lo <= r_hi")
    instances = []
    for r in range(r_lo, r_hi + 1):
        m, slack = rule(r)
        rep = engine.check(m, r, slack, audit=audit)
        if not audit:
            params = {"r": r, "m": m, "slack": slack}
            instances.append(ConjectureInstance(params, rep.holds, rep.witness))
        elif rep.holds:
            instances.append(ConjectureInstance({"r": r, "m": m}, True))
        else:
            raise InternalInconsistency(
                f"{name} containment I^({m}) <= I^{r} reported false; "
                f"witness {rep.witness}"
            )
    return ConjectureVerdict(name, tuple(instances), threshold)


def els_scan(engine: ContainmentEngine, r_lo: int, r_hi: int) -> ConjectureVerdict:
    """Sanity check I^(h*r) <= I^r for r in [r_lo, r_hi], h the big height.

    Always a theorem, so it runs in audit mode and a failure raises
    InternalInconsistency to flag the implementation bug.
    """
    h = engine.decomposition.big_height
    return _r_family(engine, "els", r_lo, r_hi, lambda r: (h * r, 0), audit=True)


def stable_harbourne_scan(engine: ContainmentEngine, r_lo: int, r_hi: int) -> ConjectureVerdict:
    """Check I^(h*r - h + 1) <= I^r for r in [r_lo, r_hi].

    For Steiner complements the verdict carries the analytic threshold
    v / (n - 1): every r at or above it is guaranteed by the regularity
    bound, so scans beyond the threshold only confirm.
    """
    P = engine.decomposition
    h = P.big_height
    threshold = None
    if P.steiner is not None:
        _, n, v = P.steiner
        threshold = Fraction(v, n - 1)
    return _r_family(
        engine, "stable-harbourne", r_lo, r_hi, lambda r: (h * r - h + 1, 0), threshold=threshold
    )


def harbourne_huneke_scan(
    engine: ContainmentEngine, r_lo: int, r_hi: int, form: int
) -> ConjectureVerdict:
    """Slack containments of Harbourne-Huneke type over an r range.

    form 1: I^(h*r) <= M^(r*(h-1)) * I^r
    form 2: I^(h*r - h + 1) <= M^((r-1)*(h-1)) * I^r
    """
    h = engine.decomposition.big_height
    form = _integer(form, "form", None)
    if form == 1:
        name, rule = "harbourne-huneke-1", lambda r: (h * r, r * (h - 1))
    elif form == 2:
        name, rule = "harbourne-huneke-2", lambda r: (h * r - h + 1, (r - 1) * (h - 1))
    else:
        raise ValueError("form must be 1 or 2")
    return _r_family(engine, name, r_lo, r_hi, rule)


def chudnovsky_check(
    engine: ContainmentEngine, h_max: int, ambient_dim: int | None = None
) -> ConjectureVerdict:
    """Chudnovsky-type bound alpha(I^(h))/h >= (alpha(I) + N - 1)/N.

    This is the Demailly bound at m = 1, computed by demailly_check;
    only the family name and the instance parameters (no m) differ.
    """
    demailly = demailly_check(engine, 1, h_max, ambient_dim)
    instances = tuple(
        ConjectureInstance({k: v for k, v in inst.params.items() if k != "m"}, inst.holds)
        for inst in demailly.instances
    )
    return ConjectureVerdict("chudnovsky", instances)


def demailly_check(
    engine: ContainmentEngine, m: int, h_max: int, ambient_dim: int | None = None
) -> ConjectureVerdict:
    """Demailly-type bound alpha(I^(h))/h >= (alpha(I^(m)) + N - 1)/(m + N - 1).

    N is the ambient dimension: the block size for Steiner complements,
    otherwise it must be passed explicitly.  m = 1 is the Chudnovsky
    bound.  Exact rationals throughout.
    """
    N = demailly_dimension(engine.decomposition, m, h_max, ambient_dim)
    m = _integer(m, "m")  # a Python int in the instance parameters
    rhs = Fraction(engine.alpha(m) + N - 1, m + N - 1)
    instances = []
    for h in range(1, h_max + 1):
        lhs = Fraction(engine.alpha(h), h)
        instances.append(
            ConjectureInstance(
                {"h": h, "m": m, "lhs": str(lhs), "rhs": str(rhs), "ambient_dim": N},
                lhs >= rhs,
            )
        )
    return ConjectureVerdict("demailly", tuple(instances))


def demailly_dimension(
    P: PrimeDecomposition, m: int, h_max: int, ambient_dim: int | None = None
) -> int:
    """The ambient dimension N that demailly_check(engine, m, h_max,
    ambient_dim) uses on P, after checking its parameters.

    Nothing is computed, so a caller can refuse bad parameters before any
    other work: TypeError when one is not an integer, ValueError when
    ambient_dim, h_max or m is below 1, or when P has no Steiner
    provenance and no ambient_dim is given, and OverflowError when h_max
    or m exceeds EXPONENT_LIMIT.
    """
    if ambient_dim is not None:
        N = _integer(ambient_dim, "ambient_dim")
    elif P.steiner is not None:
        N = P.steiner[1]  # block size
    else:
        raise ValueError(
            "ambient_dim is required for decompositions without Steiner provenance"
        )
    _integer(h_max, "h_max", most=EXPONENT_LIMIT)
    _integer(m, "m", most=EXPONENT_LIMIT)
    return N


@dataclass(frozen=True)
class ResurgenceRegion:
    """Search region for resurgence witnesses derived from one failure.

    Given big height h, ambient dimension N, a resurgence lower bound
    r1 > 1 in the sense rho >= asymptotic value h*(1 - 1/r1), and one
    failing ratio s0/r0 > h*(1 - 1/r1), any further failing pair (s, r)
    with s/r >= s0/r0 must satisfy r <= r_max and s <= s_max(r):

        r_max = ceil(N / (ratio/(h*(1 - 1/r1)) - 1)),
        s_max(r) = (r + N) * h * (1 - 1/r1).
    """

    big_height: int
    ambient_dim: int
    r1: Fraction
    failing_ratio: Fraction
    asymptotic: Fraction
    r_max: int

    def s_max(self, r: int) -> Fraction:
        return (_integer(r, "r") + self.ambient_dim) * self.asymptotic

    def to_dict(self) -> dict:
        return {
            "big_height": self.big_height,
            "ambient_dim": self.ambient_dim,
            "r1": str(self.r1),
            "failing_ratio": str(self.failing_ratio),
            "asymptotic_resurgence": str(self.asymptotic),
            "r_max": self.r_max,
            "s_max_slope": str(self.asymptotic),
            "s_max_intercept": str(self.ambient_dim * self.asymptotic),
            "degenerate": False,
            "s_max": {str(r): str(self.s_max(r)) for r in range(1, self.r_max + 1)},
        }


def resurgence_region(
    big_height: int,
    ambient_dim: int,
    r1: Fraction | int,
    failing_ratio: Fraction | int,
) -> ResurgenceRegion:
    """Bound the search region for resurgence-attaining failures.

    Raises DegenerateRegion when failing_ratio <= h*(1 - 1/r1); then the
    hypothesis of the bounding argument fails and no finite region is
    implied.  r1 must exceed 1.  r1 and failing_ratio are exact
    rationals (int, Fraction, numpy integers); a float raises TypeError.
    """
    big_height = _integer(big_height, "big_height")
    ambient_dim = _integer(ambient_dim, "ambient_dim")
    if not all(isinstance(q, numbers.Rational) for q in (r1, failing_ratio)):
        raise TypeError("r1 and failing_ratio must be exact rationals")
    # Python ints on both sides: a Fraction keeps a numpy numerator as it is
    r1, ratio = (Fraction(int(q.numerator), int(q.denominator)) for q in (r1, failing_ratio))
    if r1 <= 1:
        raise ValueError("r1 must be > 1")
    asymptotic = big_height * (1 - Fraction(1, r1))
    if ratio <= asymptotic:
        raise DegenerateRegion(
            f"failing ratio {ratio} does not exceed the asymptotic value {asymptotic}"
        )
    excess = ratio / asymptotic - 1
    r_max = ceil(Fraction(ambient_dim) / excess)
    return ResurgenceRegion(big_height, ambient_dim, r1, ratio, asymptotic, r_max)


@dataclass(frozen=True)
class ResurgenceScan:
    """Every cell of the box 1 <= r <= r_max, r < m <= m_max.

    Cells with m <= r are skipped: such ratios m/r <= 1 never improve a
    resurgence lower bound (rho >= 1 always), and symbolic-over-ordinary
    failures there carry no region information.  ``cells`` are in scan
    order (see resurgence_search); max_ratio is the best m/r over
    failures, None when everything held.
    """

    m_max: int
    r_max: int
    cells: tuple[ContainmentReport, ...]

    @property
    def failures(self) -> tuple[ContainmentReport, ...]:
        return tuple(rep for rep in self.cells if not rep.holds)

    @property
    def max_ratio(self) -> Fraction | None:
        return max((Fraction(f.m, f.r) for f in self.failures), default=None)

    def to_dict(self) -> dict:
        return {
            "m_max": self.m_max,
            "r_max": self.r_max,
            "cells": len(self.cells),
            "failures": len(self.failures),
            "max_ratio": None if self.max_ratio is None else str(self.max_ratio),
        }


def resurgence_search(engine: ContainmentEngine, m_max: int, r_max: int) -> ResurgenceScan:
    """Check every cell of the scan box, smallest r first.

    Within one r column, cells are checked with m ascending; cached
    symbolic powers are shared across columns through the engine.
    Raises OverflowError, before any check, when m_max exceeds
    EXPONENT_LIMIT.
    """
    m_max, r_max = _integer(m_max, "m_max", most=EXPONENT_LIMIT), _integer(r_max, "r_max")
    cells = []
    for r in range(1, r_max + 1):
        seen_hold = False
        for m in range(r + 1, m_max + 1):
            rep = engine.check(m, r, 0)
            # symbolic powers shrink with m, so failures in one column
            # must precede the first hold; anything else is an engine bug
            if rep.holds:
                seen_hold = True
            elif seen_hold:
                raise InternalInconsistency(
                    f"containment failed at m={m}, r={r} after holding at smaller m"
                )
            cells.append(rep)
    return ResurgenceScan(m_max, r_max, tuple(cells))
