"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line, or
plain pytest (lines surface in the captured output of any failure).
Each criterion states its tolerance; timings are asserted where the
criterion carries a budget.
"""

import time
from fractions import Fraction
from math import comb
from random import Random

from steinerideals import (
    Budget,
    ContainmentEngine,
    Monomial,
    MonomialIdeal,
    ResourceLimit,
    alpha_table,
    builtin_fano,
    builtin_sqs8,
    chromatic_number,
    complement_blocks,
    complement_ideal,
    cover_ideal,
    els_scan,
    is_colourable,
    is_coverable,
    member_of_symbolic,
    member_of_power,
    min_edge_size,
    multiply,
    resurgence_region,
    stable_harbourne_scan,
    symbolic_power,
)
from steinerideals.symbolic import PrimeDecomposition

import oracles


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def test_criterion_01_fano_validation():
    t0 = time.perf_counter()
    S = builtin_fano()
    comp = complement_blocks(S)
    dt = time.perf_counter() - t0
    ok = (
        (S.v, S.n, S.t) == (7, 3, 2)
        and S.block_count == 7 == comb(7, 2) // comb(3, 2)
        and len(comp) == 28
        and dt < 1.0
    )
    _report("1-fano-validation", ok, f"7 blocks, 28 non-blocks, {dt:.3f}s")


def test_criterion_02_alpha_table():
    t0 = time.perf_counter()
    table = alpha_table(ContainmentEngine(complement_ideal(builtin_fano())), 6)
    dt = time.perf_counter() - t0
    got = [a for _, a in table.entries]
    ok = got == [4, 6, 7, 11, 13, 14] and dt < 60.0
    _report("2-alpha-table", ok, f"alpha(m)={got} for m=1..6, {dt:.1f}s")


def test_criterion_03_waldschmidt():
    P = complement_ideal(builtin_fano())
    table = alpha_table(ContainmentEngine(P), 6)
    ok = (
        table.waldschmidt_upper == Fraction(7, 3)
        and table.waldschmidt_lower == Fraction(7, 3)
        and table.attained_at() == (3, 6)
    )
    _report(
        "3-waldschmidt",
        ok,
        f"min alpha(m)/m = {table.waldschmidt_upper}, attained at {table.attained_at()}",
    )


def test_criterion_04_slack_containment_instances():
    budget = Budget(deadline=time.monotonic() + 600.0)
    engine = ContainmentEngine(complement_ideal(builtin_fano()), budget=budget)
    r1 = engine.check(3, 1, slack=3)
    if not r1.holds:
        _report("4-slack-containment", False, "I^(3) in M^3*I reported false")
    try:
        r2 = engine.check(6, 2, slack=6)
    except ResourceLimit as exc:
        # budget exhaustion with a partial report is an accepted outcome
        _report(
            "4-slack-containment",
            True,
            f"r=1 holds; r=2 hit the budget at {exc.partial.get('generators_checked')} generators",
        )
        return
    _report(
        "4-slack-containment",
        r2.holds,
        f"I^(3) in M^3*I and I^(6) in M^6*I^2 both hold ({r2.method})",
    )


def test_criterion_05_els_sanity():
    fano_h = builtin_fano().hypergraph()
    outcomes = []
    for P, r in (
        (cover_ideal(fano_h), 1),
        (cover_ideal(fano_h), 2),
        (complement_ideal(builtin_fano()), 1),
    ):
        outcomes.append(els_scan(ContainmentEngine(P), r, r).all_hold)
    _report("5-els-sanity", all(outcomes), f"holds for (cover,1),(cover,2),(complement,1): {outcomes}")


def test_criterion_06_colouring_coverability():
    fano = builtin_fano().hypergraph()
    sqs8 = builtin_sqs8().hypergraph()
    answers = []
    timings = []
    for label, fn, want in (
        ("chi(fano)", lambda: chromatic_number(fano), 3),
        ("fano colour m=2", lambda: is_colourable(fano, 2), None),
        ("fano cover c=2", lambda: is_coverable(fano, 2), None),
        ("fano cover c=3", lambda: is_coverable(fano, 3), None),
        ("sqs8 cover c=3", lambda: is_coverable(sqs8, 3), None),
    ):
        t0 = time.perf_counter()
        got = fn()
        dt = time.perf_counter() - t0
        answers.append(got == want and dt < 10.0)
        timings.append(f"{label} {dt:.2f}s")
    _report("6-colouring-coverability", all(answers), "; ".join(timings))


def test_criterion_07_noncontainment_witnesses():
    checks = []
    for system, m, r, expected in (
        (builtin_fano(), 3, 2, Monomial((1,) * 7)),
        (builtin_sqs8(), 3, 2, Monomial((1, 1, 1, 1, 1, 1, 1, 0))),
        (builtin_sqs8(), 4, 3, None),
    ):
        P = cover_ideal(system.hypergraph())
        engine = ContainmentEngine(P)
        rep = engine.check(m, r)
        good = not rep.holds and rep.witness is not None
        if expected is not None:
            good = good and rep.witness == expected
        if good:
            # independent re-verification: linear predicate in, brute force out
            w = rep.witness
            base = [g.exponents for g in engine.base_ideal().generators]
            good = member_of_symbolic(w, P, m) and not oracles.brute_member_of_power(
                w.exponents, base, r, 0
            )
        checks.append(good)
    _report(
        "7-noncontainment-witnesses",
        all(checks),
        "fano (3,2) and sqs8 (3,2),(4,3) fail with re-verified witnesses",
    )


def test_criterion_08_chudnovsky_demailly():
    P = complement_ideal(builtin_fano())
    engine = ContainmentEngine(P)
    v, n = 7, 3
    ok = True
    rhs_seen = {}
    for m in (1, 3, 4, 6):
        rhs = Fraction(engine.alpha(m) + n - 1, m + n - 1)
        # closed-form case analysis, derived independently of the engine
        p, q = divmod(m, n)
        if q == 0:
            expect = Fraction(p * v + n - 1, p * n + n - 1)
        elif q == 1:
            expect = Fraction((p + 1) * v - 1, (p + 1) * n)
        else:
            expect = Fraction((p + 1) * v + q - 1, (p + 1) * n + q - 1)
        ok = ok and rhs == expect and rhs <= Fraction(v, n)
        rhs_seen[m] = str(rhs)
        for h in range(1, 7):
            ok = ok and Fraction(engine.alpha(h), h) >= rhs
    chud_rhs = Fraction(engine.alpha(1) + n - 1, n)
    ok = ok and chud_rhs == Fraction(2)
    _report(
        "8-chudnovsky-demailly",
        ok,
        f"rhs per m: {rhs_seen}, all <= 7/3, all alpha(h)/h above, h<=6",
    )


def test_criterion_09_resurgence_region():
    region = resurgence_region(3, 3, 2, 2)
    ok = region.r_max == 9 and all(
        region.s_max(r) == Fraction(3 * (r + 3), 2) for r in range(1, 10)
    )
    _report(
        "9-resurgence-region",
        ok,
        f"r_max={region.r_max}, s_max(r)=3(r+3)/2, s_max(9)={region.s_max(9)}",
    )


def test_criterion_10_property_suites():
    rng = Random(2026)
    arithmetic = 0
    for _ in range(200):
        nv, gA = oracles.random_generators(rng, max_vars=5, max_gens=6, max_degree=4)
        _, gB = oracles.random_generators(rng, max_vars=nv, max_gens=6, max_degree=4)
        gB = [g[:nv] + (0,) * (nv - len(g)) for g in gB]
        I = MonomialIdeal.from_rows(nv, gA)
        J = MonomialIdeal.from_rows(nv, gB)
        K, L = oracles.intersect(I, J), multiply(I, J)
        D = 5
        wantK = oracles.members_up_to(gA, nv, D) & oracles.members_up_to(gB, nv, D)
        wantL = oracles.product_members_up_to(gA, gB, nv, D)
        for w in oracles.iter_monomials(nv, D):
            mono = Monomial(w)
            assert member_of_power(mono, K, 1) == (w in wantK)
            assert member_of_power(mono, L, 1) == (w in wantL)
        arithmetic += 1

    predicate = 0
    for m in (1, 2, 3, 4):
        P = complement_ideal(builtin_fano())
        for g in symbolic_power(P, m).generators:
            assert member_of_symbolic(g, P, m)
            predicate += 1
    for _ in range(20):
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4)
        P = PrimeDecomposition(nv, tuple(sups))
        for m in (1, 2):
            for g in symbolic_power(P, m).generators:
                assert member_of_symbolic(g, P, m)
                predicate += 1

    implication = 0
    for _ in range(100):
        H = oracles.random_hypergraph(rng, max_vertices=8)
        for c in (2, 3):
            if c > min_edge_size(H):
                continue
            if is_coverable(H, c) is not None:
                assert is_colourable(H, c) is not None
                implication += 1

    verdict = stable_harbourne_scan(ContainmentEngine(complement_ideal(builtin_fano())), 1, 3)
    threshold_ok = verdict.threshold == Fraction(7, 2) and verdict.all_hold

    _report(
        "10-property-suites",
        arithmetic == 200 and threshold_ok,
        f"{arithmetic} arithmetic instances, {predicate} generator-predicate checks, "
        f"{implication} cover=>colour confirmations, threshold {verdict.threshold}",
    )
