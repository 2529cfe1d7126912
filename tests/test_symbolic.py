"""Symbolic powers, initial degrees, and Waldschmidt bounds."""

import hashlib
import itertools
import re
import time
import traceback
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from steinerideals import (
    AlphaTable,
    Budget,
    ComplementEmpty,
    ContainmentEngine,
    InternalInconsistency,
    MixedAmbient,
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    ResourceLimit,
    alpha_table,
    builtin_fano,
    builtin_sqs8,
    complement_alpha_formula,
    complement_ideal,
    cover_ideal,
    dump_monomials,
    initial_degree,
    member_of_power,
    member_of_symbolic,
    power,
    symbolic_power,
    validate_steiner,
)
from steinerideals import bitsets, symbolic
from steinerideals.symbolic import _search_total

import oracles


def fano_complement():
    return complement_ideal(builtin_fano())


def sqs8_complement():
    return complement_ideal(builtin_sqs8())


def tiny_complement():
    return complement_ideal(validate_steiner(4, 2, 1, [(1, 2), (3, 4)]))


class CountingBudget(Budget):
    """A Budget that counts its checks: one per alpha-search chunk and root."""

    calls = 0

    def check(self, stage, partial, candidate=0):
        self.calls += 1
        super().check(stage, partial, candidate)


def _generic_fold(P, m):
    """Slow reference route: intersect the m-th prime powers pairwise."""
    nv = P.variable_count
    acc = MonomialIdeal.unit(nv)
    for s in P.supports:
        prime = MonomialIdeal.from_rows(nv, np.eye(nv, dtype=np.int64)[np.array(s) - 1])
        acc = oracles.intersect(acc, power(prime, m))
    return acc


# decompositions


def test_cover_ideal_supports_are_the_edges():
    H = builtin_fano().hypergraph()
    P = cover_ideal(H)
    assert P.supports == H.edges
    assert P.steiner is None
    assert P.big_height == 3 and {len(s) for s in P.supports} == {3}


def test_complement_ideal_provenance():
    P = fano_complement()
    assert P.support_count == 28
    assert P.steiner == (2, 3, 7)
    assert sqs8_complement().support_count == 56
    assert tiny_complement().supports == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_complement_of_saturated_design_is_empty():
    S = validate_steiner(3, 3, 2, [(1, 2, 3)])
    with pytest.raises(ComplementEmpty):
        complement_ideal(S)


def test_embedded_supports_are_normalized_away():
    P = PrimeDecomposition(4, ((1, 2, 3), (1, 2), (3,)))
    assert P.supports == ((3,), (1, 2))
    # dropping a superset support never changes the intersection
    raw = ((1, 2, 3), (1, 2), (3,))
    for w in oracles.iter_monomials(4, 4):
        want = all(sum(w[i - 1] for i in s) >= 2 for s in raw)
        assert member_of_symbolic(Monomial(w), P, 2) == want


def test_antichain_matches_the_quadratic_filter():
    rng = Random(5)
    for _ in range(60):
        nv, sups = oracles.random_supports(rng, max_vars=7, max_supports=12)
        distinct = sorted(set(sups), key=lambda s: (len(s), s))
        naive = tuple(s for s in distinct if not any(set(t) < set(s) for t in distinct))
        assert PrimeDecomposition(nv, tuple(sups)).supports == naive


def test_decomposition_is_the_value_of_its_minimal_supports():
    # a permuted, repeated and nested copy of the Fano complement's
    # supports builds the same decomposition, equal and with one hash
    P = fano_complement()
    rng = Random(11)
    messy = list(P.supports) + [s[::-1] for s in P.supports[:9]] + [(1, 2, 3, 4), tuple(range(1, 8))]
    rng.shuffle(messy)
    Q = PrimeDecomposition(7, messy, (2, 3, 7))
    assert Q == P and hash(Q) == hash(P) and len({P, Q}) == 1
    assert Q.supports == P.supports
    assert Q.rows.dtype == np.int8 and not Q.rows.flags.writeable
    assert PrimeDecomposition(7, P.supports) != P
    assert PrimeDecomposition(7, P.supports, (1, 3, 7)) != P
    assert PrimeDecomposition(8, P.supports) != PrimeDecomposition(7, P.supports)


def test_hashing_a_decomposition_builds_no_support_tuples():
    # the hash reads the rows' bytes; supports is built on first read only
    P, Q = fano_complement(), fano_complement()
    assert hash(P) == hash(Q)
    assert "supports" not in vars(P) and "supports" not in vars(Q)


def mixed_supports(seed: int) -> list[tuple[int, ...]]:
    """10,000 random 3-, 4- and 5-subsets of 40 variables, most of them 3-subsets."""
    rng = Random(seed)
    return [tuple(rng.sample(range(1, 41), rng.choice((3,) * 7 + (4, 4, 5)))) for _ in range(10000)]


def test_decomposition_keeps_the_minimal_supports_of_large_mixed_families():
    # about 8,000 distinct supports, over 4096 of them of the least size,
    # so that the embedding test runs over several dominator blocks
    for seed in range(3):
        sups = mixed_supports(seed)
        assert len(set(map(frozenset, sups))) > bitsets._BLOCK
        assert PrimeDecomposition(40, sups).supports == oracles.minimal_supports(sups)


def test_decomposition_checks_its_budget_in_the_embedding_test():
    # one conversion run, then one check before each of the embedding
    # test's two dominator blocks, with every support converted
    calls = []
    budget = Budget(progress=lambda stage, partial: calls.append((stage, dict(partial))))
    PrimeDecomposition(40, mixed_supports(0), budget=budget)
    assert [stage for stage, _ in calls] == ["decomposition"] * 3
    assert [(p["supports_checked"], p["supports_total"]) for _, p in calls] == [
        (0, 10000), (10000, 10000), (10000, 10000)
    ]


@pytest.mark.parametrize("bad", [(), (0, 1), (1, 4), (2, 2**70)])
def test_decomposition_names_a_bad_support(bad):
    # the bad support sits among good ones; its sorted vertex set is named
    supports = [(1, 2), (2, 3), bad, (1, 3)]
    name = "empty support" if not bad else re.escape(str(tuple(sorted(set(bad)))))
    with pytest.raises(ValueError, match=name):
        PrimeDecomposition(3, supports)


def test_decomposition_rejects_bad_input():
    with pytest.raises(ValueError):
        PrimeDecomposition(3, ())
    with pytest.raises(ValueError):
        PrimeDecomposition(3, ((),))
    with pytest.raises(ValueError):
        PrimeDecomposition(3, ((1, 4),))
    with pytest.raises(ValueError):
        PrimeDecomposition(0, ((1,),))
    with pytest.raises(ValueError):
        PrimeDecomposition(7, ((1, 2),), steiner=(3, 3, 7))


def test_decomposition_checks_its_budget_while_normalizing():
    # 3-subsets of 75 points (67,525, more than 2^16) plus one repeat: the
    # conversion to rows reads all 67,526 given, checking before each run
    # of 2^16; the supports all have one size, so no embedding test runs
    given = tuple(itertools.combinations(range(1, 76), 3)) + ((3, 2, 1),)
    calls = []
    budget = Budget(progress=lambda stage, partial: calls.append((stage, dict(partial))))
    P = PrimeDecomposition(75, given, budget=budget)
    assert P.support_count == 67525
    assert [stage for stage, _ in calls] == ["decomposition"] * 2
    assert [(p["supports_checked"], p["supports_total"]) for _, p in calls] == [
        (0, 67526), (65536, 67526)
    ]
    with pytest.raises(ResourceLimit) as ei:
        PrimeDecomposition(3, ((1, 2),), budget=Budget(deadline=time.monotonic() - 1.0))
    assert ei.value.stage == "decomposition"
    assert ei.value.partial == {"supports_checked": 0, "supports_total": 1}


def test_membership_predicate_basics():
    P = tiny_complement()
    # x1*x3 misses the support (2,4) entirely; x1*x2 meets all four
    assert not member_of_symbolic(Monomial((1, 0, 1, 0)), P, 1)
    w = Monomial((1, 1, 0, 0))
    assert member_of_symbolic(w, P, 0)
    assert member_of_symbolic(w, P, 1)
    assert not member_of_symbolic(w, P, 2)
    with pytest.raises(ValueError):
        member_of_symbolic(w, P, -1)
    with pytest.raises(MixedAmbient):
        member_of_symbolic(Monomial((1, 0)), P, 1)


# symbolic powers


FANO_COMPLEMENT_GENS = {1: 7, 2: 14, 3: 29, 4: 42, 5: 63, 6: 85}
FANO_COVER_GENS = {1: 7, 2: 35, 3: 106, 6: 813}
SQS8_COVER_GENS = {1: 56, 2: 140, 3: 512, 4: 925}
SQS8_COMPLEMENT_GENS = {1: 14, 2: 42, 3: 106, 4: 183}


def test_fano_complement_generator_counts():
    P = fano_complement()
    for m, count in FANO_COMPLEMENT_GENS.items():
        I = symbolic_power(P, m)
        assert I.generator_count == count, m
        assert I.min_degree() == complement_alpha_formula(7, 3, m)


def test_fano_cover_generator_counts():
    P = cover_ideal(builtin_fano().hypergraph())
    for m, count in FANO_COVER_GENS.items():
        assert symbolic_power(P, m).generator_count == count, m


def test_sqs8_generator_counts():
    Pc = cover_ideal(builtin_sqs8().hypergraph())
    for m, count in SQS8_COVER_GENS.items():
        assert symbolic_power(Pc, m).generator_count == count, m
    Pi = sqs8_complement()
    for m, count in SQS8_COMPLEMENT_GENS.items():
        assert symbolic_power(Pi, m).generator_count == count, m


def test_symbolic_power_agrees_with_generic_intersection(monkeypatch):
    for P in (fano_complement(), cover_ideal(builtin_fano().hypergraph())):
        assert symbolic_power(P, 1) == _generic_fold(P, 1)
    tiny = tiny_complement()
    for m in (1, 2, 3):
        assert symbolic_power(tiny, m) == _generic_fold(tiny, m)
    rng = Random(19)
    for _ in range(10):
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4)
        P = PrimeDecomposition(nv, tuple(sups))
        for m in (1, 2, 3):
            assert symbolic_power(P, m) == _generic_fold(P, m)
    # The reference fold, with the dominators in one block (left in fold
    # order) and in blocks of 8 (sorted by offdeg first).
    cases = [
        (P, 4)
        for S in (builtin_fano(), builtin_sqs8())
        for P in (complement_ideal(S), cover_ideal(S.hypergraph()))
    ]
    for _ in range(8):
        nv, sups = oracles.random_supports(rng, max_vars=6, max_supports=5, max_size=4)
        cases.append((PrimeDecomposition(nv, tuple(sups)), 3))
    for block in (bitsets._BLOCK, 8):
        monkeypatch.setattr(bitsets, "_BLOCK", block)
        for P, top in cases:
            for m in range(1, top + 1):
                assert symbolic_power(P, m) == oracles.symbolic_power(P, m), (P, m, block)


def test_symbolic_membership_equals_predicate():
    P = fano_complement()
    for m in (1, 2, 3):
        I = symbolic_power(P, m)
        D = I.min_degree() + 1
        for w in oracles.iter_monomials(7, D):
            mono = Monomial(w)
            assert member_of_power(mono, I, 1) == member_of_symbolic(mono, P, m)


def test_generators_are_members_and_minimal():
    P = fano_complement()
    I = symbolic_power(P, 3)
    gens = I.generators
    for g in gens:
        assert member_of_symbolic(g, P, 3)
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j:
                assert not oracles.divides(g.exponents, h.exponents)
    # canonical order, also when the fold has a single step
    for P, m in ((fano_complement(), 3), (PrimeDecomposition(4, ((2, 3, 4),)), 2)):
        gens = symbolic_power(P, m).generators
        assert list(gens) == sorted(gens, key=lambda g: (g.degree, [-e for e in g.exponents]))


def test_symbolic_power_on_random_supports():
    rng = Random(99)
    for _ in range(20):
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4)
        P = PrimeDecomposition(nv, tuple(sups))
        for m in (1, 2, 3):
            I = symbolic_power(P, m)
            assert I.min_degree() == initial_degree(P, m)
            D = I.min_degree() + 2
            want = oracles.brute_symbolic_members(P.supports, nv, m, D)
            for w in oracles.iter_monomials(nv, D):
                assert member_of_power(Monomial(w), I, 1) == (w in want)


def test_symbolic_power_resource_limits():
    P = fano_complement()
    with pytest.raises(ResourceLimit) as ei:
        symbolic_power(P, 2, budget=Budget(generator_cap=1))
    exc = ei.value
    assert exc.stage == "symbolic-power"
    assert exc.partial["supports_total"] == 28
    assert set(exc.partial) == {"supports_folded", "supports_total", "kept"}
    with pytest.raises(ResourceLimit):
        symbolic_power(P, 2, budget=Budget(deadline=time.monotonic() - 1.0))
    with pytest.raises(ValueError):
        symbolic_power(P, 0)


def test_a_fold_seeded_by_a_lower_power_equals_a_fresh_fold():
    # I^(m) lies in I^(k) for k < m, so folding every p^m into the
    # generators of I^(k) must end at I^(m)
    rng = Random(41)
    cases = [
        PrimeDecomposition(nv, tuple(sups))
        for nv, sups in (oracles.random_supports(rng) for _ in range(20))
    ]
    for S in (builtin_fano(), builtin_sqs8()):
        cases += [complement_ideal(S), cover_ideal(S.hypergraph())]
    cases.append(cover_ideal(oracles.ag23().hypergraph()))
    for P in cases:
        powers = {m: symbolic_power(P, m) for m in range(1, 5)}
        for m in range(2, 5):
            for k in range(1, m):
                assert symbolic_power(P, m, _seed=powers[k]) == powers[m], (P, k, m)


def test_a_seeded_fold_obeys_the_deadline():
    P = sqs8_complement()
    seed = symbolic_power(P, 2)
    with pytest.raises(ResourceLimit) as ei:
        symbolic_power(P, 4, budget=Budget(deadline=time.monotonic() - 1.0), _seed=seed)
    exc = ei.value
    assert exc.stage == "symbolic-power"
    assert set(exc.partial) == {"supports_folded", "supports_total", "kept"}
    assert exc.partial["kept"] == seed.generator_count


def test_fold_checks_the_budget_inside_the_minimalization(monkeypatch):
    class StopInTheKernel(Budget):
        def check(self, stage, partial, candidate=0):
            super().check(stage, partial, candidate)
            # the first check made from inside the kernel after the first
            # step, however many step checks come before it
            in_kernel = any(f.name == "_surviving_lifts" for f in traceback.extract_stack())
            if in_kernel and partial["supports_folded"] >= 1:
                raise ResourceLimit(stage, "stop", partial)

    # small blocks give each fold step's dominance query several checks;
    # the traceback shows that the check that raised was the kernel's
    monkeypatch.setattr(bitsets, "_BLOCK", 8)
    with pytest.raises(ResourceLimit) as ei:
        symbolic_power(fano_complement(), 2, budget=StopInTheKernel())
    exc = ei.value
    assert exc.stage == "symbolic-power"
    assert set(exc.partial) == {"supports_folded", "supports_total", "kept"}
    assert 1 <= exc.partial["supports_folded"] < exc.partial["supports_total"]
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    assert frames[frames.index("symbolic_power") + 1] == "_surviving_lifts"


def test_a_small_fold_step_checks_the_budget_in_the_kernel_frame():
    # every step of the Fano complement's fold at m = 1 is one broadcast
    # block, decided on full lift rows after one check made by
    # _surviving_lifts itself, not by the block loop of _undominated
    class StopAfterTheFirstStep(Budget):
        def check(self, stage, partial, candidate=0):
            super().check(stage, partial, candidate)
            in_kernel = any(f.name == "_surviving_lifts" for f in traceback.extract_stack())
            if in_kernel and partial["supports_folded"] >= 1:
                raise ResourceLimit(stage, "stop", partial)

    with pytest.raises(ResourceLimit) as ei:
        symbolic_power(fano_complement(), 1, budget=StopAfterTheFirstStep())
    assert ei.value.partial["supports_folded"] == 1
    frames = [f.name for f in traceback.extract_tb(ei.value.__traceback__)]
    at = frames.index("symbolic_power")
    assert frames[at + 1 : at + 3] == ["_surviving_lifts", "<lambda>"]


@pytest.mark.parametrize("path", ["as-is", "tables", "full-rows"])
def test_symbolic_power_matches_the_reference_fold_on_random_decompositions(monkeypatch, path):
    # Random families of 20-80 supports over 6-9 variables, folded to
    # m = 1..3 and compared with the reference fold.  The fold's buffer
    # starts at two columns, so it grows and compacts many times; a
    # _BROADCAST of 0 sends every step through the owner/sigma split and
    # its threshold tables, a huge one every step through the full-row
    # comparison; counting the kernel's calls and its block loop's
    # (which the reference fold does not share) shows which path ran.
    broadcast = {"as-is": bitsets._BROADCAST, "tables": 0, "full-rows": 1 << 62}[path]
    monkeypatch.setattr(bitsets, "_BROADCAST", broadcast)
    calls = {"steps": 0, "queries": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    rng = Random(89)
    families = []
    for _ in range(6):
        nv = rng.randint(6, 9)
        sups = [tuple(rng.sample(range(1, nv + 1), rng.randint(2, 4))) for _ in range(rng.randint(20, 80))]
        families.append(PrimeDecomposition(nv, tuple(sups)))
    # the decompositions are built first: dropping their embedded supports
    # is a dominance query of its own
    monkeypatch.setattr(symbolic, "_surviving_lifts", counted(bitsets._surviving_lifts, "steps"))
    monkeypatch.setattr(bitsets, "_undominated", counted(bitsets._undominated, "queries"))
    for P in families:
        for m in range(1, 4):
            assert symbolic_power(P, m) == oracles.symbolic_power(P, m), (P.supports, m)
    assert calls["steps"] > 100
    if path != "as-is":
        assert calls["queries"] == {"tables": calls["steps"], "full-rows": 0}[path]


def test_initial_degree_search_obeys_the_budget():
    P = fano_complement()
    expired = Budget(deadline=time.monotonic() - 1.0)
    # initial_degree's one search starts one below the upper bound 4 * 7
    # and is stopped at its root; the direct search starts at its degree
    searches = (
        (lambda: initial_degree(P, 4, budget=expired), 27),
        (lambda: _search_total(P, 4, 10, expired, largest_first=True, floor=10), 10),
    )
    for search, degree in searches:
        with pytest.raises(ResourceLimit) as ei:
            search()
        exc = ei.value
        assert exc.stage == "initial-degree"
        assert exc.partial == {"m": 4, "degree_tried": degree}
    with pytest.raises(ResourceLimit):
        alpha_table(ContainmentEngine(P, budget=expired), 2)
    assert initial_degree(P, 4, budget=Budget(deadline=time.monotonic() + 600)) == 11


def test_symbolic_power_progress_callback():
    # the fold reports through its budget checks: before each step and
    # once per dominator block, so the last report is from inside step 28
    calls = []
    budget = Budget(progress=lambda stage, partial: calls.append((stage, dict(partial))))
    symbolic_power(fano_complement(), 2, budget=budget)
    assert calls[0] == ("symbolic-power", {"supports_folded": 0, "supports_total": 28, "kept": 1})
    assert calls[-1] == ("symbolic-power", {"supports_folded": 27, "supports_total": 28, "kept": 18})
    folded = [partial["supports_folded"] for _, partial in calls]
    assert folded == sorted(folded) and set(folded) == set(range(28))


# initial degrees


def test_initial_degree_formula_for_builtins():
    Pf, Ps = fano_complement(), sqs8_complement()
    for m in range(1, 7):
        assert initial_degree(Pf, m) == complement_alpha_formula(7, 3, m)
    for m in range(1, 5):
        assert initial_degree(Ps, m) == complement_alpha_formula(8, 4, m)


def test_fano_alpha_values():
    P = fano_complement()
    assert [initial_degree(P, m) for m in range(1, 7)] == [4, 6, 7, 11, 13, 14]


def test_sqs8_alpha_values():
    P = sqs8_complement()
    assert [initial_degree(P, m) for m in range(1, 5)] == [4, 6, 7, 8]


def test_alpha_formula_cases():
    # m = p*n + q branches, directly
    assert complement_alpha_formula(7, 3, 3) == 7
    assert complement_alpha_formula(7, 3, 4) == 7 + 4
    assert complement_alpha_formula(7, 3, 5) == 7 + 4 + 2
    assert complement_alpha_formula(7, 3, 6) == 14
    with pytest.raises(ValueError):
        complement_alpha_formula(7, 3, 0)
    with pytest.raises(ValueError):
        complement_alpha_formula(3, 7, 1)


def test_largest_first_search_finds_the_canonical_first_generator():
    # at degree alpha, the largest-first search returns the first
    # generator of I^(m) in canonical order, and the 0-first search the
    # last one of degree alpha
    P = cover_ideal(builtin_sqs8().hypergraph())
    alpha = initial_degree(P, 3)
    first = _search_total(P, 3, alpha, Budget(), largest_first=True, floor=alpha)
    assert first == (1, 1, 1, 1, 1, 1, 1, 0)
    assert member_of_symbolic(Monomial(first), P, 3)
    head = [g for g in symbolic_power(P, 3).generators if g.degree == alpha]
    assert len(head) == 8
    assert head[0].exponents == first
    assert head[-1].exponents == _search_total(P, 3, alpha, Budget(), floor=alpha)


def test_alpha_search_ends_match_symbolic_power():
    P = fano_complement()
    for m in (1, 2, 3):
        I = symbolic_power(P, m)
        alpha = I.min_degree()
        head = [g.exponents for g in I.generators if g.degree == alpha]
        assert _search_total(P, m, alpha, Budget(), largest_first=True, floor=alpha) == head[0]
        assert _search_total(P, m, alpha, Budget(), floor=alpha) == head[-1]


def test_alpha_search_ends_match_brute_force():
    # the brute-force members of least degree, sorted canonically
    # (descending lex): the largest-first search gives the first, the
    # 0-first search the last
    rng = Random(17)
    for _ in range(25):
        nv, sups = oracles.random_supports(rng)
        P = PrimeDecomposition(nv, tuple(sups))
        for m in (1, 2, 3):
            degree = 0
            while not (want := oracles.brute_symbolic_members(P.supports, nv, m, degree)):
                degree += 1
            want = sorted(want, key=lambda w: tuple(-e for e in w))
            high = _search_total(P, m, degree, Budget(), largest_first=True, floor=degree)
            assert high == want[0]
            assert _search_total(P, m, degree, Budget(), floor=degree) == want[-1]


def test_alpha_search_prunings_are_admissible():
    # Mixed support sizes make the largest support count on the variables
    # still free change along the variable order, and m = 4 lets the
    # exponent cap bind.  The oracle enumerates every monomial up to the
    # claimed alpha, so it sees members of any lower degree too.
    rng = Random(2024)
    checked = 0
    while checked < 30:
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4, max_size=4)
        P = PrimeDecomposition(nv, tuple(sups))
        if len({len(s) for s in P.supports}) < 2:
            continue
        checked += 1
        for m in (1, 2, 3, 4):
            alpha = initial_degree(P, m)
            members = oracles.brute_symbolic_members(P.supports, nv, m, alpha)
            assert min(sum(w) for w in members) == alpha
            want = sorted((w for w in members if sum(w) == alpha), key=lambda w: tuple(-e for e in w))
            assert _search_total(P, m, alpha, Budget(), largest_first=True, floor=alpha) == want[0]
            assert _search_total(P, m, alpha, Budget(), floor=alpha) == want[-1]


def test_alpha_search_root_cut_is_the_counting_bound():
    # the counting bound max(m, ceil(m * #supports / f_max)), the least
    # lower bound of initial_degree, is the search's root cut: each
    # degree below it is refuted by the root node alone, and at that
    # bound the root does not cut
    rng = Random(20261018)
    cases = [
        fano_complement(),
        sqs8_complement(),
        cover_ideal(builtin_fano().hypergraph()),
        cover_ideal(builtin_sqs8().hypergraph()),
    ]
    for _ in range(30):
        nv, sups = oracles.random_supports(rng)
        cases.append(PrimeDecomposition(nv, tuple(sups)))
    for P in cases:
        fmax = max(sum(i in s for s in P.supports) for i in range(1, P.variable_count + 1))
        for m in (1, 2, 3, 4):
            bound = max(m, -(-m * P.support_count // fmax))
            for degree in range(bound + 1):
                budget = CountingBudget()
                hit = _search_total(P, m, degree, budget, floor=degree)
                if degree < bound:
                    assert hit is None and budget.calls == 1
                else:
                    assert budget.calls > 1


def test_alpha_search_tree_is_pinned():
    # one budget check per search's root and per frontier chunk popped:
    # these counts fix the number of chunks, and so the shape of the
    # pruned search tree and how it is cut into chunks
    cases = (
        (lambda b: alpha_table(ContainmentEngine(fano_complement(), budget=b), 6), 38),
        (lambda b: alpha_table(ContainmentEngine(sqs8_complement(), budget=b), 6), 55),
    )
    for run, checks in cases:
        budget = CountingBudget()
        run(budget)
        assert budget.calls == checks
    # the alpha search of the SQS(8) cover at m = 3, then the largest-first
    # search at alpha that the degree obstruction's witness comes from
    P = cover_ideal(builtin_sqs8().hypergraph())
    budget = CountingBudget()
    alpha = initial_degree(P, 3, budget=budget)
    first = _search_total(P, 3, alpha, budget, largest_first=True, floor=alpha)
    assert first == (1, 1, 1, 1, 1, 1, 1, 0)
    assert budget.calls == 27


def test_alpha_search_matches_the_reference_search():
    # the chunked search cuts the same tree as the node-at-a-time
    # recursive search in oracles, whose collect mode lists the vectors
    # of one degree in ascending lex order: at alpha the 0-first search
    # returns the first of them and the largest-first search the last,
    # and below alpha both return None
    rng = Random(13)
    cases = [
        fano_complement(),
        sqs8_complement(),
        cover_ideal(builtin_fano().hypergraph()),
        cover_ideal(builtin_sqs8().hypergraph()),
    ]
    for _ in range(30):
        nv, sups = oracles.random_supports(rng)
        cases.append(PrimeDecomposition(nv, tuple(sups)))
    for P in cases:
        for m in (1, 2, 3, 4):
            alpha = initial_degree(P, m)
            for degree in range(m, alpha + 1):
                assert oracles.search_total(P, m, degree, False) == (degree == alpha)
                vecs = oracles.search_total(P, m, degree, True)
                low = _search_total(P, m, degree, Budget(), floor=degree)
                high = _search_total(P, m, degree, Budget(), largest_first=True, floor=degree)
                if degree < alpha:
                    assert vecs == [] and low is None and high is None
                else:
                    assert (low, high) == (vecs[0], vecs[-1])


def test_engine_alpha_matches_the_reference_search_in_any_order():
    # the engine bounds each search by the alphas it has cached, so the
    # bounds depend on the order the m are asked in; alpha must not
    rng = Random(37)
    cases = [
        build(S)
        for S in (builtin_fano(), builtin_sqs8(), oracles.ag23())
        for build in (complement_ideal, lambda S: cover_ideal(S.hypergraph()))
    ]
    for _ in range(150):
        nv, sups = oracles.random_supports(rng)
        cases.append(PrimeDecomposition(nv, tuple(sups)))
    ms = list(range(1, 6))
    for P in cases:
        want = {}
        for m in ms:
            # the least degree the reference search accepts
            alpha = initial_degree(P, m)
            assert oracles.search_total(P, m, alpha, False), (P.supports, m)
            assert not oracles.search_total(P, m, alpha - 1, False), (P.supports, m)
            last = oracles.search_total(P, m, alpha, True)[-1]
            assert _search_total(P, m, alpha, Budget(), largest_first=True, floor=alpha) == last
            want[m] = alpha
        for _ in range(3):
            rng.shuffle(ms)
            engine = ContainmentEngine(P)
            assert {m: engine.alpha(m) for m in ms} == want, (P.supports, ms)
    # crossed bounds: a "known" alpha(3) = 5 caps alpha(2) at 4, below
    # the counting bound 5 of the Fano complement at m = 2
    with pytest.raises(InternalInconsistency, match="bounds cross"):
        initial_degree(fano_complement(), 2, known={3: 5})


def test_alpha_search_splits_a_row_with_too_many_children(monkeypatch):
    # with one need entry per chunk, every row is expanded one child at
    # a time, as a row with more than _CHUNK_CELLS // #supports children
    # is; the vectors found must not change, also when the bound drops
    # between two pops of one row
    monkeypatch.setattr(symbolic, "_CHUNK_CELLS", 1)
    rng = Random(31)
    cases = [fano_complement(), cover_ideal(builtin_sqs8().hypergraph())]
    for _ in range(10):
        nv, sups = oracles.random_supports(rng)
        cases.append(PrimeDecomposition(nv, tuple(sups)))
    for P in cases:
        alphas = {m: initial_degree(P, m) for m in (1, 2, 3)}
        for m, alpha in alphas.items():
            known = {k: a for k, a in alphas.items() if k != m}
            assert initial_degree(P, m, known=known) == alpha
            assert not oracles.search_total(P, m, alpha - 1, False)
            vecs = oracles.search_total(P, m, alpha, True)
            for degree, floor in ((alpha, alpha), (m * P.variable_count, m)):
                for largest_first, want in ((False, vecs[0]), (True, vecs[-1])):
                    got = _search_total(P, m, degree, Budget(), largest_first, floor=floor)
                    assert got == want
    P = PrimeDecomposition(2, ((1,), (2,)))
    budget = CountingBudget()
    assert initial_degree(P, 3, budget=budget) == 6
    # the counting bound meets the upper bound 3 * 2, so nothing is searched
    assert budget.calls == 0
    budget = CountingBudget()
    assert _search_total(P, 3, 6, budget, floor=6) == (3, 3)
    # the 0-first search checks at the root and at every child of x1 and
    # of x2, one chunk each: 1 + 4 + 4
    assert budget.calls == 9
    budget = CountingBudget()
    assert _search_total(P, 3, 6, budget, largest_first=True, floor=6) == (3, 3)
    # the largest-first search's first child of x1, then of x2, is (3, 3):
    # it checks at the root and at one chunk of each
    assert budget.calls == 3


def test_alpha_search_past_the_int8_range():
    # chunks hold need and exponents as int8 up to m = 127 and as int64
    # above
    P = PrimeDecomposition(2, ((1,), (2,)))
    for m in (127, 128, 1000):
        assert initial_degree(P, m) == 2 * m
        for largest_first in (False, True):
            assert _search_total(P, m, 2 * m, Budget(), largest_first, floor=2 * m) == (m, m)


# Waldschmidt tables


def test_waldschmidt_lower_values():
    # v / n from the Steiner provenance, None without it
    for P, want in (
        (fano_complement(), Fraction(7, 3)),
        (sqs8_complement(), Fraction(2)),
        (tiny_complement(), Fraction(2)),
        (cover_ideal(builtin_fano().hypergraph()), None),
    ):
        assert alpha_table(ContainmentEngine(P), 1).waldschmidt_lower == want


def test_fano_alpha_table():
    table = alpha_table(ContainmentEngine(fano_complement()), 6)
    assert table.entries == ((1, 4), (2, 6), (3, 7), (4, 11), (5, 13), (6, 14))
    assert table.waldschmidt_upper == Fraction(7, 3)
    assert table.waldschmidt_lower == Fraction(7, 3)
    assert table.attained_at() == (3, 6)
    doc = table.to_dict()
    assert doc["entries"]["6"] == 14
    assert doc["waldschmidt_upper"] == "7/3"
    assert doc["attained"] == [3, 6]


def test_sqs8_alpha_table():
    table = alpha_table(ContainmentEngine(sqs8_complement()), 4)
    assert [a for _, a in table.entries] == [4, 6, 7, 8]
    assert table.waldschmidt_upper == Fraction(2)
    assert table.attained_at() == (4,)


def test_tiny_alpha_table():
    table = alpha_table(ContainmentEngine(tiny_complement()), 4)
    assert [a for _, a in table.entries] == [2, 4, 6, 8]
    assert table.waldschmidt_upper == Fraction(2)
    assert table.attained_at() == (1, 2, 3, 4)


def test_alpha_search_matches_the_closed_form_on_the_ladder():
    # the engine raises InternalInconsistency when the search and
    # complement_alpha_formula disagree
    for S, M in ((oracles.ag23(), 5), (oracles.cyclic_sts13(), 4), (oracles.pg23(), 2)):
        table = alpha_table(ContainmentEngine(complement_ideal(S)), M)
        assert table.entries == tuple(
            (m, complement_alpha_formula(S.v, S.n, m)) for m in range(1, M + 1)
        )


@pytest.mark.slow
def test_alpha_search_matches_the_closed_form_on_pg24():
    # 20,328 complement supports; the closed form gives alpha(1) = 21 - 5
    assert alpha_table(ContainmentEngine(complement_ideal(oracles.pg24())), 1).entries == ((1, 16),)


def test_alpha_search_matches_the_fold_on_the_ladder_covers():
    for S in (oracles.ag23(), oracles.cyclic_sts13(), oracles.pg23()):
        P = cover_ideal(S.hypergraph())
        for m in (1, 2):
            assert initial_degree(P, m) == symbolic_power(P, m).min_degree()


# generator counts and sha256 of the exchange-format text of I^(m), as
# computed by the fold that minimalized every candidate row of each step
_LADDER_DIGESTS = {
    "sts13-cover-m3": (
        lambda: cover_ideal(oracles.cyclic_sts13().hypergraph()),
        3,
        4746,
        "21f0b92aa5d370586c01f2b47bfcb011afae5ed4b186d4eca2606170bb60774f",
    ),
    "pg23-cover-m3": (
        lambda: cover_ideal(oracles.pg23().hypergraph()),
        3,
        13026,
        "8a2f3f1b785577fb42d89eec8c2252ac2c68e302ff57258e26968e54381e7afc",
    ),
    "pg23-complement-m1": (
        lambda: complement_ideal(oracles.pg23()),
        1,
        247,
        "660a419a5c109ae6fcac2fffc56825e0a035b576f1a6cb28338aeb7e60986ba7",
    ),
    # 20,328 fold steps, each with a few todo rows and a few dominators
    "pg24-complement-m1": (
        lambda: complement_ideal(oracles.pg24()),
        1,
        5901,
        "b658fc6f1563a0d418167f1117cf1650bfbacc2507a8f905895548417db2eed4",
    ),
    "pg24-complement-m2": (
        lambda: complement_ideal(oracles.pg24()),
        2,
        7231,
        "b5992a604dc3adddaee353d4bf4c17e7f155a4e445bf4915970561de1beae52a",
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(_LADDER_DIGESTS))
def test_symbolic_power_digests_on_the_ladder(case, tmp_path):
    build, m, count, digest = _LADDER_DIGESTS[case]
    I = symbolic_power(build(), m)
    path = tmp_path / "generators.txt"
    dump_monomials(path, I)
    assert I.generator_count == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize(
    "build, m",
    [
        (lambda: cover_ideal(oracles.cyclic_sts13().hypergraph()), 3),
        (lambda: cover_ideal(oracles.pg23().hypergraph()), 3),
        (lambda: complement_ideal(oracles.pg23()), 2),
        (lambda: cover_ideal(oracles.ag23().hypergraph()), 4),
        (lambda: complement_ideal(oracles.ag23()), 4),
    ],
    ids=["sts13-cover-3", "pg23-cover-3", "pg23-complement-2", "ag23-cover-4", "ag23-complement-4"],
)
def test_symbolic_power_matches_the_reference_fold_on_the_ladder(build, m):
    # the reference fold builds and queries every lift of every step
    P = build()
    assert symbolic_power(P, m) == oracles.symbolic_power(P, m)


def test_alpha_table_rejects_inconsistent_data():
    with pytest.raises(InternalInconsistency):
        AlphaTable(((1, 4), (2, 4)), None)
    with pytest.raises(InternalInconsistency):
        AlphaTable(((1, 2), (2, 5)), None)
    with pytest.raises(InternalInconsistency):
        AlphaTable(((1, 2), (2, 4)), Fraction(3))
    with pytest.raises(ValueError):
        AlphaTable(((2, 4),), None)
    with pytest.raises(ValueError):
        AlphaTable(((1, 2), (3, 7)), None)
    with pytest.raises(ValueError):
        AlphaTable((), None)
    with pytest.raises(ValueError):
        alpha_table(ContainmentEngine(fano_complement()), 0)
