"""Containment decisions, conjecture scans, and the resurgence region."""

import dataclasses
import re
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from steinerideals import containment, symbolic
from steinerideals import (
    Budget,
    ConjectureInstance,
    ConjectureVerdict,
    ContainmentEngine,
    ContainmentReport,
    DegenerateRegion,
    InternalInconsistency,
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    ResourceLimit,
    alpha_table,
    builtin_fano,
    builtin_sqs8,
    chudnovsky_check,
    complement_alpha_formula,
    complement_ideal,
    cover_ideal,
    demailly_check,
    els_scan,
    harbourne_huneke_scan,
    is_colourable,
    is_coverable,
    member_of_power,
    member_of_symbolic,
    power,
    resurgence_region,
    resurgence_search,
    stable_harbourne_scan,
    symbolic_power,
    validate_steiner,
)
from steinerideals.designs import FANO_BLOCKS

import oracles


@pytest.fixture(scope="module")
def fano_c():
    return ContainmentEngine(complement_ideal(builtin_fano()))


@pytest.fixture(scope="module")
def fano_j():
    return ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))


@pytest.fixture(scope="module")
def sqs8_j():
    return ContainmentEngine(cover_ideal(builtin_sqs8().hypergraph()))


# single checks


def test_degree_obstruction_failure(fano_c):
    rep = fano_c.check(2, 2)
    assert not rep.holds
    assert rep.method == "degree-obstruction"
    assert (rep.alpha_m, rep.alpha_r, rep.omega_r) == (6, 8, 8)
    assert rep.witness == fano_c.symbolic(2).generators[0]
    assert rep.witness.degree == 6


def test_degree_obstruction_reuses_the_cached_alpha(monkeypatch):
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    first = engine.check(2, 2)
    calls = []
    real = symbolic.initial_degree
    monkeypatch.setattr(symbolic, "initial_degree", lambda *a, **k: calls.append(a) or real(*a, **k))
    again = engine.check(2, 2)
    assert again.method == "degree-obstruction" and again.witness == first.witness
    assert calls == []


def test_regularity_threshold_shortcut(fano_c):
    for m, r in ((4, 2), (6, 2), (7, 3)):
        rep = fano_c.check(m, r)
        assert rep.holds and rep.witness is None
        assert rep.method == "regularity-threshold"


def test_symbolic_descent_shortcut(fano_c):
    rep = fano_c.check(5, 1)
    assert rep.holds and rep.method == "symbolic-descent"


def test_slack_containments_hold_by_scan(fano_c):
    rep = fano_c.check(3, 1, slack=3)
    assert rep.holds and rep.method == "generator-scan"
    rep = fano_c.check(6, 2, slack=6)
    assert rep.holds and rep.method == "generator-scan"


def test_slack_failure_with_witness(fano_c):
    rep = fano_c.check(2, 1, slack=3)
    assert not rep.holds
    assert rep.method == "degree-obstruction"
    assert rep.witness.degree == 6  # alpha(I^(2)) = 6 < alpha(I) + 3 = 7


def test_fano_cover_noncontainment_witness(fano_j):
    rep = fano_j.check(3, 2)
    assert not rep.holds
    assert rep.witness == Monomial((1,) * 7)
    assert rep.method == "generator-scan"
    # independent re-verification of the witness
    P = fano_j.decomposition
    assert member_of_symbolic(rep.witness, P, 3)
    base = [g.exponents for g in fano_j.base_ideal().generators]
    assert not oracles.brute_member_of_power(rep.witness.exponents, base, 2, 0)


def test_sqs8_cover_noncontainment_witnesses(sqs8_j):
    rep = sqs8_j.check(3, 2)
    assert not rep.holds
    assert rep.witness == Monomial((1, 1, 1, 1, 1, 1, 1, 0))
    rep = sqs8_j.check(4, 3)
    assert not rep.holds
    assert rep.witness == Monomial((1,) * 8)


def test_exact_search_decides_the_rows_the_greedy_path_leaves(fano_j, monkeypatch):
    decided = []

    def spy(w, I, r, slack=0, **kwargs):
        decided.append(member_of_power(w, I, r, slack, **kwargs))
        return decided[-1]

    monkeypatch.setattr(containment, "member_of_power", spy)
    rep = fano_j.check(5, 3)
    assert rep.holds and rep.method == "generator-scan"
    # the greedy path certifies 451 of the 462 generators
    assert decided == [True] * 11


@pytest.mark.parametrize("design", [builtin_fano, oracles.ag23])
def test_scan_cells_match_a_per_generator_search(design):
    # every cell of `scan --m-max 4 --r-max 2`: the witness is the first
    # generator of I^(m), in canonical order, outside I^r
    engine = ContainmentEngine(cover_ideal(design().hypergraph()))
    base = engine.base_ideal()
    for rep in resurgence_search(engine, 4, 2).cells:
        gens = engine.symbolic(rep.m).generators
        want = next((g for g in gens if not member_of_power(g, base, rep.r)), None)
        assert (rep.holds, rep.witness) == (want is None, want), (rep.m, rep.r)


@pytest.mark.slow
@pytest.mark.parametrize(
    "design, m_max", [(oracles.ag23, 4), (oracles.cyclic_sts13, 4), (oracles.pg23, 3)]
)
def test_obstruction_witness_is_the_first_generator_on_the_ladder(design, m_max):
    # a slack of alpha(I^(m)) - alpha(I) + 1 forces the degree obstruction
    # at every m; its witness, found without building I^(m), is the
    # canonically first generator of the fold
    engine = ContainmentEngine(cover_ideal(design().hypergraph()))
    P = engine.decomposition
    for m in range(1, m_max + 1):
        rep = engine.check(m, 1, slack=engine.alpha(m) - engine.alpha(1) + 1)
        assert rep.method == "degree-obstruction" and not rep.holds
        assert rep.witness == symbolic_power(P, m).generators[0], m


@pytest.mark.slow
def test_pg23_cover_containment_holds_by_the_scan():
    # 13,026 generators of I^(3) over a 247-generator base ideal
    budget = Budget(deadline=time.monotonic() + 30)
    engine = ContainmentEngine(cover_ideal(oracles.pg23().hypergraph()), budget=budget)
    rep = engine.check(3, 2)
    assert rep.holds and rep.method == "generator-scan"


# the witness check: membership predicate, then an exhaustive multiset search


@pytest.fixture
def triangle():
    # I = (x1x2, x1x3, x2x3); its 2-multisets run from (x1x2)^2 to (x2x3)^2
    engine = ContainmentEngine(PrimeDecomposition(3, ((1, 2), (2, 3), (1, 3))))
    assert engine.base_ideal().rows.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    return engine


def test_confirm_witness_rejects_a_candidate_outside_the_symbolic_power(triangle):
    with pytest.raises(InternalInconsistency, match="not in the symbolic power"):
        triangle._confirm_witness(Monomial((0, 2, 2)), 3, 2, 0)


@pytest.mark.parametrize(
    ("w", "slack"),
    [((2, 2, 0), 0), ((0, 2, 2), 0), ((1, 2, 1), 0), ((0, 3, 2), 1), ((1, 3, 3), 2)],
)
def test_confirm_witness_rejects_a_candidate_divisible_by_a_product(triangle, w, slack):
    with pytest.raises(InternalInconsistency, match="divisible by a generator product"):
        triangle._confirm_witness(Monomial(w), 2, 2, slack)


def test_confirm_witness_accepts_a_product_without_enough_slack(triangle):
    # (x2x3)^2 divides x2^3*x3^2 with one degree to spare, not two
    triangle._confirm_witness(Monomial((0, 3, 2)), 2, 2, 2)


@pytest.mark.parametrize("chunk", [1, 8, 10])
def test_confirm_witness_enumerates_the_last_chunk(triangle, monkeypatch, chunk):
    # (0, 2, 2) is divisible only by (x2x3)^2, the last of the six
    # multisets; x2x3 is the one base row dividing it, so in chunks of
    # any size the search reaches that product through the prefix x2x3
    monkeypatch.setattr(containment, "_RECHECK_CHUNK", chunk)
    with pytest.raises(InternalInconsistency, match="divisible by a generator product"):
        triangle._confirm_witness(Monomial((0, 2, 2)), 2, 2, 0)


def test_confirm_witness_tests_the_symbolic_power_before_the_enumeration(triangle):
    # x1x2x3 lies in I^(2) but not in I^2, whose generators have degree 4:
    # one chunk rules out every multiset; x2^2x3^2 is not in I^(3), and
    # that raises before any enumeration
    stages = []
    triangle.budget.progress = lambda stage, partial: stages.append(stage)
    triangle._confirm_witness(Monomial((1, 1, 1)), 2, 2, 0)
    assert stages == ["witness-enumeration"]
    stages.clear()
    with pytest.raises(InternalInconsistency, match="not in the symbolic power"):
        triangle._confirm_witness(Monomial((0, 2, 2)), 3, 2, 0)
    assert stages == []


def _symbolic_exponent(P, w):
    """The largest m with w in I^(m): w's least support degree."""
    return min(sum(int(w[i - 1]) for i in s) for s in P.supports)


@pytest.mark.parametrize("chunk", [1, 7, containment._RECHECK_CHUNK])
def test_confirm_witness_raises_exactly_when_the_multiset_oracle_finds_a_product(
    monkeypatch, chunk
):
    # w is random, r times the last base row (divisible only by the
    # lex-last multiset, at slack 0), or r - 1 base rows plus a random
    # 0/1 vector, where a prefix fits and a full product may not; a search
    # that ends without a product has ruled out every multiset
    monkeypatch.setattr(containment, "_RECHECK_CHUNK", chunk)
    rng = Random(32)
    seen = set()
    for _ in range(200):
        nv, sups = oracles.random_supports(rng)
        engine = ContainmentEngine(PrimeDecomposition(nv, tuple(sups)))
        rows = engine.base_ideal().rows
        r, slack = rng.randint(1, 4), rng.randint(0, 3)
        kind = rng.choice(["random", "last", "prefix"])
        if kind == "last":
            w, slack = r * rows[-1], 0
        elif kind == "prefix":
            w = rows[[rng.randrange(len(rows)) for _ in range(r - 1)]].sum(axis=0)
            w += [rng.randint(0, 1) for _ in range(nv)]
        else:
            w = np.array([rng.randint(0, 3) for _ in range(nv)])
        if _symbolic_exponent(engine.decomposition, w) == 0:
            w += rows[rng.randrange(len(rows))]
        m = _symbolic_exponent(engine.decomposition, w)
        want = oracles.divisible_by_product(rows, w, r, slack)
        kept = []
        engine.budget.progress = lambda stage, partial: kept.append(partial)
        witness = Monomial(tuple(w.tolist()))
        if want:
            with pytest.raises(InternalInconsistency, match="divisible by a generator product"):
                engine._confirm_witness(witness, m, r, slack)
        else:
            engine._confirm_witness(witness, m, r, slack)
            # the sink's partial is the search's own dict, so after the
            # search it holds the final count
            assert kept[-1]["multisets_checked"] == kept[-1]["multisets_total"]
        seen.add((kind, want))
    assert seen == {(kind, want) for kind in ("random", "prefix") for want in (True, False)} | {
        ("last", True)
    }


def test_confirm_witness_in_chunks_of_one_never_lowers_its_count(monkeypatch):
    # x_V lies in J^(4) of the PG(2,3) cover, not in J^3: the search
    # takes the 13 lines, one chunk each, and no two lines are disjoint
    monkeypatch.setattr(containment, "_RECHECK_CHUNK", 1)
    engine = ContainmentEngine(cover_ideal(oracles.pg23().hypergraph()))
    engine.base_ideal()
    partials = []
    engine.budget.progress = lambda stage, partial: partials.append(dict(partial))
    engine._confirm_witness(Monomial((1,) * 13), 4, 3, 0)
    counts = [p["multisets_checked"] for p in partials]
    assert len(counts) == 14 and counts[0] == 0
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] < partials[-1]["multisets_total"] == comb(249, 3)


def test_confirm_witness_at_a_large_r_rules_out_every_multiset():
    # a degree obstruction at r = 10^6 on the Fano cover, whose ideal has
    # 7 generators: the search ends at the root, having ruled out all of
    # the C(10^6 + 6, 10^6) multisets, far more than 2^63
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    seen = []
    engine.budget.progress = lambda stage, partial: seen.append((stage, partial))
    t0 = time.monotonic()
    report = engine.check(2, 10**6)
    assert time.monotonic() - t0 < 1.0
    assert report.method == "degree-obstruction" and report.witness == Monomial((2, 2, 2, 0, 0, 0, 0))
    # the sink's partial is the search's own dict, so it holds the final count
    final = [partial for stage, partial in seen if stage == "witness-enumeration"][-1]
    assert final["multisets_checked"] == final["multisets_total"] == comb(10**6 + 6, 10**6)


@pytest.mark.slow
def test_pg23_cover_witnesses_are_confirmed_by_a_search_that_runs_to_the_end():
    engine = ContainmentEngine(cover_ideal(oracles.pg23().hypergraph()))
    seen = []
    engine.budget.progress = lambda stage, partial: (
        seen.append((dict(partial), partial)) if stage == "witness-enumeration" else None
    )
    for m, r in ((4, 3), (5, 4)):
        seen.clear()
        rep = engine.check(m, r)
        assert not rep.holds and rep.method == "generator-scan"
        counts = [copy["multisets_checked"] for copy, _ in seen]
        assert counts == sorted(counts) and counts[-1] <= seen[-1][0]["multisets_total"]
        # the sink's partial is the search's own dict: once the search
        # has ended it holds every multiset ruled out
        final = seen[-1][1]
        assert final["multisets_checked"] == final["multisets_total"] == comb(247 + r - 1, r)
    # a product of 4 base rows lies in I^4, so in I^(4): among the
    # C(250, 4) multisets the search finds the product
    rows = engine.base_ideal().rows
    w = Monomial(tuple(rows[[0, 5, 77, 200]].sum(axis=0).tolist()))
    with pytest.raises(InternalInconsistency, match="divisible by a generator product"):
        engine._confirm_witness(w, 4, 4, 0)


@pytest.mark.parametrize("source", ["cover", "complement"])
@pytest.mark.parametrize("design", [builtin_fano, builtin_sqs8, oracles.ag23])
def test_every_ladder_witness_is_certified_by_a_search_that_runs_to_the_end(design, source):
    # the witness search has no limit of its own: on every failing cell
    # of the box m <= 5, r <= 3 it rules out all r-multisets
    D = design()
    engine = ContainmentEngine(
        cover_ideal(D.hypergraph()) if source == "cover" else complement_ideal(D)
    )
    searches = []  # each search's own partial dict, once
    engine.budget.progress = lambda stage, partial: (
        searches.append(partial)
        if stage == "witness-enumeration" and not any(p is partial for p in searches)
        else None
    )
    failures = 0
    for r in range(1, 4):
        for m in range(1, 6):
            searches.clear()
            rep = engine.check(m, r)
            if rep.holds:
                assert searches == []
                continue
            failures += 1
            [final] = searches
            assert (final["m"], final["r"]) == (m, r)
            assert final["multisets_checked"] == final["multisets_total"]
    assert failures >= 3


def test_report_dict_schema(fano_c):
    doc = fano_c.check(3, 2).to_dict()
    assert set(doc) == {
        "m", "r", "slack", "holds", "witness",
        "alpha_m", "alpha_r", "omega_r", "method", "elapsed_ms",
    }
    assert doc["witness"].count(" ") == 6
    held = fano_c.check(4, 2).to_dict()
    assert held["holds"] is True and held["witness"] is None


def test_audit_agrees_with_shortcuts():
    P = complement_ideal(builtin_fano())
    fast = ContainmentEngine(P)
    slow = ContainmentEngine(P)
    for m in range(1, 7):
        for r in range(1, 4):
            a = fast.check(m, r)
            b = slow.check(m, r, audit=True)
            assert a.holds == b.holds, (m, r)
            if not a.holds:
                assert a.witness == b.witness, (m, r)


@pytest.mark.slow
def test_every_shortcut_agrees_with_the_audit_on_the_ladder():
    # every cell a shortcut decides is re-decided by the generator scan;
    # the audit also checks omega(I^r) against the built I^r, and the
    # engine checks each complement alpha against the closed form
    fired = {"symbolic-descent": 0, "regularity-threshold": 0}
    for design in (builtin_fano, builtin_sqs8, oracles.ag23, oracles.cyclic_sts13, oracles.pg23):
        S = design()
        # PG(2,3) stops at r = 2: its (9, 3) cell alone takes seconds
        r_top = 2 if design is oracles.pg23 else 3
        cells = [(m, 1) for m in range(1, 4)]
        comp = [(m, r) for r in range(2, r_top + 1) for m in range(r + 1, 3 * r + 1)]
        for P, grid in ((cover_ideal(S.hypergraph()), cells), (complement_ideal(S), cells + comp)):
            engine = ContainmentEngine(P)
            for m, r in grid:
                fast = engine.check(m, r)
                if fast.method not in fired:
                    continue
                fired[fast.method] += 1
                audit = engine.check(m, r, audit=True)
                assert audit.method == "generator-scan", (design.__name__, P.steiner, m, r)
                assert audit.holds == fast.holds, (design.__name__, P.steiner, m, r)
    assert all(fired.values()), fired


def test_check_validation(fano_c):
    for bad in ((0, 1, 0), (1, 0, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            fano_c.check(*bad)
    # numpy integers are integers, and the report holds Python ints
    got = fano_c.check(np.int64(3), np.int32(2), np.int64(0)).to_dict()
    assert {**got, "elapsed_ms": 0} == {**fano_c.check(3, 2, 0).to_dict(), "elapsed_ms": 0}
    assert type(got["slack"]) is int


@pytest.mark.parametrize(
    "call",
    [
        lambda e, x_v: e.check(3, 2, 0.5),
        lambda e, x_v: e.check(2.5, 1),
        lambda e, x_v: e.check(3, 2.0),
        lambda e, x_v: member_of_power(x_v, e.base_ideal(), 1.5),
        lambda e, x_v: member_of_power(x_v, e.base_ideal(), 1, 0.5),
    ],
    ids=["check-slack", "check-m", "check-r", "member-r", "member-slack"],
)
def test_check_and_member_of_power_take_only_integers(call):
    # int() or a numpy cast would round these, or reach a search with a
    # fractional slack; each is refused before any search runs
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    engine.base_ideal()
    stages = []
    engine.budget.progress = lambda stage, partial: stages.append(stage)
    with pytest.raises(TypeError):
        call(engine, Monomial((1,) * 7))
    assert stages == []


@pytest.mark.parametrize(
    "call",
    [
        lambda e: member_of_symbolic(Monomial((1,) * 7), e.decomposition, 1.5),
        lambda e: is_colourable(builtin_fano().hypergraph(), 3.0, budget=e.budget),
        lambda e: is_coverable(builtin_fano().hypergraph(), 1.0, budget=e.budget),
        lambda e: complement_alpha_formula(7, 3, 2.5),
        lambda e: complement_alpha_formula(7.0, 3, 2),
        lambda e: complement_alpha_formula(7, 3.0, 2),
        lambda e: resurgence_region(3.5, 3, 2, 2),
        lambda e: resurgence_region(3, 3.0, 2, 2),
        lambda e: resurgence_region(3, 3, 1.1, 2.9),
        lambda e: harbourne_huneke_scan(e, 1, 2, 1.0),
        lambda e: MonomialIdeal(2.0, [[1, 0]]),
        lambda e: PrimeDecomposition(7, e.decomposition.supports, steiner=(2, 3.0, 7)),
        lambda e: e.alpha(2.0),
        lambda e: e.symbolic(2.0),
        lambda e: e.ordinary_power(2.0),
        lambda e: symbolic_power(e.decomposition, 2.0, budget=e.budget),
        lambda e: symbolic.initial_degree(e.decomposition, 2.0, budget=e.budget),
        lambda e: demailly_check(e, 1.5, 3),
        lambda e: chudnovsky_check(e, 3, 2.0),
        lambda e: resurgence_region(3, 3, 2, 2).s_max(1.5),
        lambda e: Budget(generator_cap=2.5),
    ],
    ids=[
        "symbolic-m", "colour-m", "cover-c", "formula-m", "formula-v", "formula-n",
        "region-height", "region-dim", "region-r1", "hh-form", "ideal-vars", "provenance-n",
        "engine-alpha", "engine-symbolic", "engine-power", "fold-m", "alpha-m", "demailly-m",
        "chudnovsky-dim", "region-s-max", "budget-cap",
    ],
)
def test_integer_parameters_take_only_integers(call):
    # each of these once answered as if the float were rounded or exact,
    # answered from a cache, or failed in numpy after a search began; the
    # engine holds I^(2) and I^2, so a cache lookup by 2.0 would hit
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    engine.symbolic(2), engine.ordinary_power(2)
    stages = []
    engine.budget.progress = lambda stage, partial: stages.append(stage)
    with pytest.raises(TypeError, match="must be"):  # an entry check's message, not numpy's
        call(engine)
    assert stages == []
    # numpy integers are integers, and Python ints once inside
    assert complement_alpha_formula(np.int64(7), np.int32(3), np.int64(2)) == 6
    assert resurgence_region(np.int64(3), np.int64(3), 2, 2).r_max == resurgence_region(3, 3, 2, 2).r_max
    assert resurgence_region(3, 3, 2, 2).s_max(np.int64(9)) == Fraction(18)
    S = validate_steiner(np.int64(7), np.int32(3), np.int64(2), FANO_BLOCKS)
    assert S == builtin_fano()
    assert [type(x) for x in (S.v, S.n, S.t)] == [int, int, int]


def test_engine_caches_are_shared(fano_c):
    assert fano_c.symbolic(3) is fano_c.symbolic(3)
    assert fano_c.ordinary_power(2) is fano_c.ordinary_power(2)
    assert fano_c.base_ideal() is fano_c.symbolic(1)


def test_a_scan_seeds_each_symbolic_power_from_the_largest_cached_one(monkeypatch):
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    folds = []  # (m, the k of the seed or None, the k cached before)
    real = containment.symbolic_power

    def fold(P, m, *, budget=None, _seed=None):
        cached = {id(ideal): k for k, ideal in engine._symbolic.items()}
        folds.append((m, None if _seed is None else cached[id(_seed)], sorted(cached.values())))
        return real(P, m, budget=budget, _seed=_seed)

    monkeypatch.setattr(containment, "symbolic_power", fold)
    scan = resurgence_search(engine, 6, 4)
    for m, seed, cached in folds:
        assert seed == max((k for k in cached if k < m), default=None)
    assert any(seed is not None for _, seed, _ in folds)
    # each power is folded once, and only when the base ideal or a
    # generator scan needs it, never just to seed another fold
    scanned = {rep.m for rep in scan.cells if rep.method == "generator-scan"}
    assert sorted(m for m, _, _ in folds) == sorted({1} | scanned)


def test_resurgence_search_builds_the_search_tables_once(monkeypatch):
    calls = []
    real = symbolic._search_tables
    monkeypatch.setattr(symbolic, "_search_tables", lambda P: calls.append(P) or real(P))
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    scan = resurgence_search(engine, 6, 3)
    # alpha for every m, and least-degree generators for the obstructions
    assert {rep.method for rep in scan.cells} >= {"degree-obstruction", "generator-scan"}
    assert len(calls) == 1


def test_omega_formula_and_audit(fano_c, fano_j):
    assert fano_c.omega_r(1) == 4
    assert fano_c.omega_r(2) == 8
    assert fano_c.omega_r(2, audit=True) == 8
    # with or without provenance, omega(I^r) is r * omega(I)
    assert fano_j.omega_r(1) == fano_j.base_ideal().max_degree()


def test_omega_is_r_times_omega_of_the_base_on_random_decompositions():
    rng = Random(16)
    for _ in range(40):
        nv, sups = oracles.random_supports(rng)
        engine = ContainmentEngine(PrimeDecomposition(nv, tuple(sups)))
        for r in (1, 2, 3):
            assert engine.omega_r(r) == power(engine.base_ideal(), r).max_degree(), (sups, r)


def test_omega_identity_needs_a_squarefree_ideal():
    # I = (x^2, y^2, xyz): the generators of I^2 are x^4, x^2y^2, y^4,
    # x^3yz and xy^3z, since x^2y^2 divides (xyz)^2; so omega(I^2) = 5 < 6
    I = MonomialIdeal.from_rows(3, [[2, 0, 0], [0, 2, 0], [1, 1, 1]])
    assert I.max_degree() == 3
    assert power(I, 2).max_degree() == 5


def test_omega_on_the_pg23_complement():
    # its base ideal has generators of degree 9 = v - n and 10
    engine = ContainmentEngine(complement_ideal(oracles.pg23()))
    assert engine.omega_r(1) == 10
    assert engine.omega_r(2, audit=True) == 20
    assert engine.check(2, 1).omega_r == 10


def test_a_check_outside_audit_mode_never_builds_the_ordinary_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("power called outside audit mode")

    monkeypatch.setattr(containment, "power", refuse)
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    scan = resurgence_search(engine, 6, 4)
    assert [rep.omega_r for rep in scan.cells] == [3 * rep.r for rep in scan.cells]
    assert engine.check(2, 2, slack=1).method == "degree-obstruction"
    assert not engine._ordinary
    with pytest.raises(AssertionError, match="outside audit mode"):
        engine.check(4, 2, audit=True)


@pytest.mark.slow
@pytest.mark.parametrize("design", [oracles.ag23, oracles.cyclic_sts13, oracles.pg23])
def test_omega_agrees_with_audit_on_the_ladder(design):
    S = design()
    for P in (cover_ideal(S.hypergraph()), complement_ideal(S)):
        engine = ContainmentEngine(P)
        for r in (1, 2):
            assert engine.omega_r(r, audit=True) == engine.omega_r(r)


# resource limits


def test_time_budget_stops_symbolic_materialization():
    P = complement_ideal(builtin_fano())
    engine = ContainmentEngine(P)
    engine.alpha(1), engine.alpha(4)  # the alpha search obeys the budget too
    engine.budget.deadline = time.monotonic()
    with pytest.raises(ResourceLimit) as ei:
        engine.check(4, 2, audit=True)
    assert ei.value.stage == "symbolic-power"


def test_time_budget_stops_membership_scan():
    P = complement_ideal(builtin_fano())
    engine = ContainmentEngine(P)
    assert engine.check(3, 1, slack=3).holds  # warm the caches
    engine.budget.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimit) as ei:
        engine.check(3, 1, slack=3)
    exc = ei.value
    assert exc.stage == "membership-scan"
    assert exc.partial["generators_checked"] == 0
    assert exc.partial["generators_total"] == 29
    assert exc.partial["holds_so_far"] is True


def test_time_budget_stops_the_exact_search():
    class StopAtSecondCheck(Budget):
        calls = 0

        def check(self, stage, partial, candidate=0):
            self.calls += 1
            if self.calls == 2:
                raise ResourceLimit(stage, "stop", partial)

    # with the caches warm, the scan's one chunk check comes first and
    # the first search node of a row the greedy path left comes second
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    assert engine.check(5, 3).holds
    engine.budget = StopAtSecondCheck()
    with pytest.raises(ResourceLimit) as ei:
        engine.check(5, 3)
    exc = ei.value
    assert exc.stage == "membership-scan"
    assert 0 < exc.partial["generators_checked"] < exc.partial["generators_total"] == 462
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    assert frames[frames.index("check") + 1] == "member_of_power"


def test_time_budget_stops_the_ordinary_power():
    # (x1, x2)^r has r + 1 generators; its r - 1 multiply steps at
    # r = 3000 take seconds, and audit mode materializes that power
    engine = ContainmentEngine(PrimeDecomposition(2, ((1, 2),)))
    engine.alpha(1)  # the alpha search obeys the budget too
    engine.budget.deadline = time.monotonic() + 0.3
    with pytest.raises(ResourceLimit) as ei:
        engine.check(1, 3000, audit=True)
    late = time.monotonic() - engine.budget.deadline
    assert ei.value.stage == "ordinary-power"
    assert ei.value.partial["r"] == 3000
    assert 1 <= ei.value.partial["factors_done"] < 3000
    assert late < 0.5


def test_time_budget_stops_the_witness_enumeration():
    engine = ContainmentEngine(PrimeDecomposition(2, ((1, 2),)))
    engine.base_ideal()
    engine.budget.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimit) as ei:
        engine._confirm_witness(Monomial((1, 0)), 1, 50, 0)
    assert ei.value.stage == "witness-enumeration"
    assert ei.value.partial == {
        "m": 1, "r": 50, "slack": 0, "multisets_checked": 0, "multisets_total": 51
    }


def test_every_long_loop_reports_progress_with_its_documented_partial():
    # FILE-FORMATS's stage table is the one progress schema: a recording
    # sink on one Budget sees exactly its stages, each with its keys
    doc = (Path(__file__).resolve().parents[1] / "FILE-FORMATS.md").read_text()
    table = {
        stage: set(re.findall(r"`(\w+)`", keys))
        for stage, keys in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", doc, re.M)
    }
    seen: dict[str, set] = {}
    budget = Budget(progress=lambda stage, partial: seen.setdefault(stage, set()).add(tuple(partial)))
    H = builtin_fano().hypergraph()
    # the cover ideal's (3, 2) cell fails, so the audited check folds,
    # searches alpha, builds I^2, scans and enumerates the witness
    assert not ContainmentEngine(cover_ideal(H), budget=budget).check(3, 2, audit=True).holds
    assert is_coverable(H, 2, budget=budget) is None
    complement_ideal(builtin_fano(), budget=budget)
    assert len(table) == 8 and set(seen) == set(table)
    for stage, key_tuples in seen.items():
        assert {frozenset(keys) for keys in key_tuples} == {frozenset(table[stage])}, stage


# conjecture families


def test_r_families_share_one_loop_and_the_engine_call_order():
    calls = []

    class Recording(ContainmentEngine):
        def check(self, m, r, slack=0, *, audit=False):
            calls.append((m, r, slack, audit))
            return super().check(m, r, slack, audit=audit)

    engine = Recording(complement_ideal(builtin_fano()))
    for verdict in (
        stable_harbourne_scan(engine, 1, 2),
        harbourne_huneke_scan(engine, 1, 2, 1),
        harbourne_huneke_scan(engine, 1, 2, 2),
        els_scan(engine, 1, 2),
    ):
        assert verdict.all_hold
    assert calls == [
        (1, 1, 0, False), (4, 2, 0, False),  # stable Harbourne
        (3, 1, 2, False), (6, 2, 4, False),  # HH form 1
        (1, 1, 0, False), (4, 2, 2, False),  # HH form 2
        (3, 1, 0, True), (6, 2, 0, True),  # ELS, audited
    ]
    for family in (
        lambda: stable_harbourne_scan(engine, 0, 1),
        lambda: harbourne_huneke_scan(engine, 2, 1, 2),
        lambda: els_scan(engine, 3, 2),
    ):
        with pytest.raises(ValueError, match="r_lo <= r_hi"):
            family()


def test_els_scan_raises_on_a_false_report():
    class Broken(ContainmentEngine):
        def check(self, m, r, slack=0, *, audit=False):
            rep = super().check(m, r, slack, audit=audit)
            return dataclasses.replace(rep, witness=Monomial((1,) * 7))

    with pytest.raises(InternalInconsistency, match="els containment"):
        els_scan(Broken(cover_ideal(builtin_fano().hypergraph())), 1, 1)


def test_els_sanity_checks():
    fano_h = builtin_fano().hypergraph()
    for P, r in (
        (cover_ideal(fano_h), 1),
        (cover_ideal(fano_h), 2),
        (complement_ideal(builtin_fano()), 1),
    ):
        (inst,) = els_scan(ContainmentEngine(P), r, r).instances
        assert inst.holds
        assert inst.params["m"] == P.big_height * r


def test_a_report_holds_exactly_when_it_has_no_witness(fano_c):
    held = fano_c.check(3, 1)
    assert held.holds and held.witness is None
    w = Monomial((1,) * 7)
    failed = ContainmentReport(
        m=3, r=2, slack=0, witness=w, alpha_m=6, alpha_r=8, omega_r=10,
        method="generator-scan", elapsed_ms=0.0,
    )
    assert not failed.holds
    assert failed.to_dict()["holds"] is False
    assert failed.to_dict()["witness"] == w.exponent_string()


def test_a_verdict_derives_all_hold_from_its_instances():
    ok = ConjectureInstance({"r": 1, "m": 3}, True)
    bad = ConjectureInstance({"r": 2, "m": 6, "slack": 0}, False, Monomial((1,) * 7))
    assert not ConjectureVerdict("els", (bad,)).all_hold
    assert not ConjectureVerdict("els", (ok, bad)).all_hold
    assert ConjectureVerdict("els", (ok,)).all_hold
    assert ConjectureVerdict("els", (ok, bad)).to_dict()["all_hold"] is False


def test_every_family_is_named_by_the_string_it_prints(fano_c):
    verdicts = (
        els_scan(fano_c, 1, 1),
        stable_harbourne_scan(fano_c, 1, 1),
        harbourne_huneke_scan(fano_c, 1, 1, 1),
        harbourne_huneke_scan(fano_c, 1, 1, 2),
        chudnovsky_check(fano_c, 2),
        demailly_check(fano_c, 2, 2),
    )
    for verdict in verdicts:
        assert type(verdict.name) is str
        assert verdict.name == verdict.to_dict()["conjecture"]
    assert [v.name for v in verdicts] == [
        "els", "stable-harbourne", "harbourne-huneke-1", "harbourne-huneke-2", "chudnovsky", "demailly",
    ]


def test_stable_harbourne_scan_fano():
    verdict = stable_harbourne_scan(ContainmentEngine(complement_ideal(builtin_fano())), 1, 3)
    assert verdict.all_hold
    assert verdict.threshold == Fraction(7, 2)
    assert [inst.params["m"] for inst in verdict.instances] == [1, 4, 7]
    assert verdict.name == "stable-harbourne"
    doc = verdict.to_dict()
    assert doc["threshold"] == "7/2"
    assert all(inst["holds"] for inst in doc["instances"])


def test_stable_harbourne_scan_has_no_threshold_without_provenance():
    verdict = stable_harbourne_scan(ContainmentEngine(cover_ideal(builtin_fano().hypergraph())), 1, 1)
    assert verdict.threshold is None
    assert "threshold" not in verdict.to_dict()


def test_harbourne_huneke_scans_fano():
    P = complement_ideal(builtin_fano())
    engine = ContainmentEngine(P)
    one = harbourne_huneke_scan(engine, 1, 2, 1)
    assert one.all_hold
    # form 1 slack is r*(h-1); the stronger slack r*h variants are
    # exercised separately in test_slack_containments_hold_by_scan
    assert [(i.params["m"], i.params["slack"]) for i in one.instances] == [(3, 2), (6, 4)]
    two = harbourne_huneke_scan(engine, 1, 2, 2)
    assert two.all_hold
    assert [(i.params["m"], i.params["slack"]) for i in two.instances] == [(1, 0), (4, 2)]
    with pytest.raises(ValueError):
        harbourne_huneke_scan(engine, 1, 2, 3)
    with pytest.raises(ValueError):
        stable_harbourne_scan(engine, 2, 1)


def test_chudnovsky_fano():
    verdict = chudnovsky_check(ContainmentEngine(complement_ideal(builtin_fano())), 6)
    assert verdict.all_hold
    for inst in verdict.instances:
        assert inst.params["rhs"] == "2"
        assert inst.params["ambient_dim"] == 3
    assert Fraction(verdict.instances[2].params["lhs"]) == Fraction(7, 3)


def test_chudnovsky_needs_ambient_without_provenance():
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    with pytest.raises(ValueError):
        chudnovsky_check(engine, 2)
    verdict = chudnovsky_check(engine, 2, ambient_dim=3)
    assert verdict.instances[0].params["ambient_dim"] == 3


def test_chudnovsky_and_demailly_with_another_ambient_dim_on_a_complement():
    # with N = 4 on the Fano complement (n = 3) the right sides are
    # (4+3)/4 and (6+3)/(2+3)
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    chud = chudnovsky_check(engine, 2, ambient_dim=4)
    assert [i.params for i in chud.instances] == [
        {"h": 1, "lhs": "4", "rhs": "7/4", "ambient_dim": 4},
        {"h": 2, "lhs": "3", "rhs": "7/4", "ambient_dim": 4},
    ]
    demailly = demailly_check(engine, 2, 2, ambient_dim=4)
    assert demailly.instances[0].params["rhs"] == "9/5"
    assert demailly.all_hold


def _same_bounds(a, b):
    return [i.params["lhs"] for i in a.instances] == [
        i.params["lhs"] for i in b.instances
    ] and a.instances[0].params["rhs"] == b.instances[0].params["rhs"]


def test_demailly_fano_exact_right_sides():
    P = complement_ideal(builtin_fano())
    engine = ContainmentEngine(P)
    expected = {1: Fraction(2), 3: Fraction(9, 5), 4: Fraction(13, 6), 6: Fraction(2)}
    for m, rhs in expected.items():
        verdict = demailly_check(engine, m, 6)
        assert verdict.all_hold, m
        assert Fraction(verdict.instances[0].params["rhs"]) == rhs
        assert rhs <= Fraction(7, 3)
    # m = 1 recovers the Chudnovsky bound exactly
    chud = chudnovsky_check(engine, 6)
    assert _same_bounds(chud, demailly_check(engine, 1, 6))


def test_demailly_validation():
    engine = ContainmentEngine(complement_ideal(builtin_fano()))
    with pytest.raises(ValueError):
        demailly_check(engine, 0, 2)
    with pytest.raises(ValueError):
        demailly_check(engine, 1, 0)


def test_the_engine_audits_every_initial_degree_of_a_complement(monkeypatch):
    # a closed form that disagrees with the search is caught on every
    # path that reads an initial degree, whatever the ambient dimension,
    # and never consulted for a decomposition without Steiner provenance
    formula = containment.complement_alpha_formula
    monkeypatch.setattr(containment, "complement_alpha_formula", lambda v, n, m: formula(v, n, m) + 1)
    calls = (
        lambda e: e.alpha(1),
        lambda e: alpha_table(e, 2),
        lambda e: demailly_check(e, 2, 2, ambient_dim=4),
        lambda e: e.check(2, 2),
    )
    for call in calls:
        with pytest.raises(InternalInconsistency, match="closed form"):
            call(ContainmentEngine(complement_ideal(builtin_fano())))
    for call in calls:
        call(ContainmentEngine(cover_ideal(builtin_fano().hypergraph())))


def test_the_engine_audits_each_symbolic_power_against_its_initial_degree(monkeypatch):
    # a search whose alpha is one above the fold's least degree is caught
    real = containment.initial_degree
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    assert engine.symbolic(1).min_degree() == engine.alpha(1)
    monkeypatch.setattr(containment, "initial_degree", lambda *a, **k: real(*a, **k) + 1)
    with pytest.raises(InternalInconsistency, match="m=2: min generator degree 6 != bound-and-search alpha 7"):
        engine.symbolic(2)


def test_the_omega_audit_builds_the_ordinary_power(monkeypatch):
    # an ordinary power one factor too high has the wrong top degree
    real = containment.power
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    assert engine.omega_r(2, audit=True) == 6
    monkeypatch.setattr(containment, "power", lambda I, r, **k: real(I, r + 1, **k))
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    with pytest.raises(InternalInconsistency, match=r"omega\(I\^2\) = 9 disagrees with r \* omega\(I\) = 6"):
        engine.omega_r(2, audit=True)


def test_resurgence_search_refuses_a_failure_after_a_hold():
    # I^(m) shrinks as m grows, so a column that holds at m = 2 cannot
    # fail at m = 3
    engine = ContainmentEngine(cover_ideal(builtin_fano().hypergraph()))
    engine.check = lambda m, r, slack: SimpleNamespace(m=m, r=r, holds=m == 2)
    with pytest.raises(InternalInconsistency, match="failed at m=3, r=1 after holding"):
        resurgence_search(engine, 3, 1)


# resurgence


def test_resurgence_region_exact():
    region = resurgence_region(3, 3, 2, 2)
    assert region.asymptotic == Fraction(3, 2)
    assert region.r_max == 9
    assert region.s_max(9) == Fraction(18)
    for r in range(1, 10):
        assert region.s_max(r) == Fraction(3 * (r + 3), 2)
    doc = region.to_dict()
    assert doc["r_max"] == 9
    assert doc["s_max_slope"] == "3/2"
    assert doc["s_max_intercept"] == "9/2"


def test_resurgence_region_degenerate_and_invalid():
    with pytest.raises(DegenerateRegion):
        resurgence_region(3, 3, 2, Fraction(3, 2))
    with pytest.raises(DegenerateRegion):
        resurgence_region(3, 3, 2, 1)
    with pytest.raises(ValueError):
        resurgence_region(3, 3, 1, 2)
    with pytest.raises(ValueError):
        resurgence_region(0, 3, 2, 2)


def test_resurgence_search_fano_cover(fano_j):
    scan = resurgence_search(fano_j, 4, 2)
    assert [(c.m, c.r) for c in scan.cells] == [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]
    assert [(f.m, f.r) for f in scan.failures] == [(3, 2)]
    assert scan.max_ratio == Fraction(3, 2)
    for f in scan.failures:
        assert f.m > f.r
    doc = scan.to_dict()
    assert doc["max_ratio"] == "3/2"
    assert doc["failures"] == 1


def test_resurgence_search_fano_complement(fano_c):
    # same box as the cover scan: (3,2) is the only failing cell here too
    scan = resurgence_search(fano_c, 4, 2)
    assert [(f.m, f.r) for f in scan.failures] == [(3, 2)]
    assert scan.max_ratio == Fraction(3, 2)
    with pytest.raises(ValueError):
        resurgence_search(fano_c, 0, 2)
