"""Built-in reproduction manifest for the documented worked examples.

Each claim computes one published-style statement about the built-in
designs and compares it against the expected exact value.  A claim takes
the run's engine factory: ``engines(design, source)`` is the one
ContainmentEngine of that built-in design's cover or complement
decomposition, made on first use, so a symbolic power or an initial
degree that several claims need is computed once per run.  Nothing is
shared between runs.  Claims return (ok, detail); the CLI renders them
as a delimited table.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import Callable

from .containment import (
    ContainmentEngine,
    alpha_table,
    chudnovsky_check,
    demailly_check,
    els_scan,
    harbourne_huneke_scan,
    resurgence_region,
    stable_harbourne_scan,
)
from .designs import (
    BUILTIN_DESIGNS,
    builtin_fano,
    builtin_sqs8,
    chromatic_number,
    is_colourable,
    is_coverable,
)
from .errors import ResourceLimit
from .symbolic import complement_ideal, cover_ideal

Engines = Callable[[str, str], ContainmentEngine]
ClaimFn = Callable[[Engines], tuple[bool, str]]

_REGISTRY: list[tuple[str, str, ClaimFn]] = []


def _claim(cid: str, description: str):
    def wrap(fn: ClaimFn) -> ClaimFn:
        _REGISTRY.append((cid, description, fn))
        return fn

    return wrap


@_claim("fano-validate", "Fano plane validates as S(2,3,7) with 7 blocks, 28 non-blocks")
def _fano_validate(engines: Engines):
    S = builtin_fano()
    comp = engines("fano", "complement").decomposition
    ok = S.block_count == 7 and comp.support_count == 28
    return ok, f"blocks={S.block_count} complement_supports={comp.support_count}"


@_claim("alpha-fano", "Fano complement initial degrees 4,6,7,11,13,14 for m=1..6")
def _alpha_fano(engines: Engines):
    table = alpha_table(engines("fano", "complement"), 6)
    got = [a for _, a in table.entries]
    return got == [4, 6, 7, 11, 13, 14], f"alpha={got}"


@_claim("waldschmidt-fano", "Fano complement Waldschmidt constant 7/3, attained at m=3,6")
def _waldschmidt_fano(engines: Engines):
    table = alpha_table(engines("fano", "complement"), 6)
    ok = (
        table.waldschmidt_upper == Fraction(7, 3)
        and table.waldschmidt_lower == Fraction(7, 3)
        and table.attained_at() == (3, 6)
    )
    return ok, (
        f"upper={table.waldschmidt_upper} lower={table.waldschmidt_lower} "
        f"attained={table.attained_at()}"
    )


@_claim("waldschmidt-sqs8", "S(3,4,8) complement Waldschmidt constant 2, attained at m=4")
def _waldschmidt_sqs8(engines: Engines):
    table = alpha_table(engines("sqs8", "complement"), 4)
    got = [a for _, a in table.entries]
    ok = (
        got == [4, 6, 7, 8]
        and table.waldschmidt_upper == Fraction(2)
        and table.attained_at() == (4,)
    )
    return ok, f"alpha={got} upper={table.waldschmidt_upper} attained={table.attained_at()}"


@_claim("hh-fano", "Fano complement: I^(3) in M^3*I holds; I^(6) in M^6*I^2")
def _hh_fano(engines: Engines):
    engine = engines("fano", "complement")
    r1 = engine.check(3, 1, 3)
    if not r1.holds:
        return False, f"r=1 I^(3) in M^3*I failed, witness {r1.witness}"
    try:
        r2 = engine.check(6, 2, 6)
    except ResourceLimit as exc:
        return False, f"r=1 holds; r=2 not computed, resource limit with partial {exc.partial}"
    if not r2.holds:
        return False, f"r=2 I^(6) in M^6*I^2 failed, witness {r2.witness}"
    return True, "r=1 and r=2 slack containments hold"


@_claim("els-fano", "ELS containments hold: Fano cover r=1,2 and Fano complement r=1")
def _els_fano(engines: Engines):
    cover = els_scan(engines("fano", "cover"), 1, 2)
    comp = els_scan(engines("fano", "complement"), 1, 1)
    insts = cover.instances + comp.instances
    ok = all(i.holds for i in insts)
    return ok, "; ".join(
        f"h*r={i.params['m']},r={i.params['r']}:{'ok' if i.holds else 'FAIL'}" for i in insts
    )


@_claim("colouring-fano", "Fano plane: chromatic number 3, not weakly 2-colourable")
def _colouring_fano(engines: Engines):
    H = builtin_fano().hypergraph()
    chi = chromatic_number(H)
    two = is_colourable(H, 2)
    return chi == 3 and two is None, f"chi={chi} two_colourable={two is not None}"


@_claim("coverability-fano", "Fano plane is not 2-coverable and not 3-coverable")
def _coverability_fano(engines: Engines):
    H = builtin_fano().hypergraph()
    c2, c3 = is_coverable(H, 2), is_coverable(H, 3)
    return c2 is None and c3 is None, f"cover2={c2 is not None} cover3={c3 is not None}"


@_claim("coverability-sqs8", "S(3,4,8) is not 3-coverable, yet weakly 2-colourable")
def _coverability_sqs8(engines: Engines):
    H = builtin_sqs8().hypergraph()
    c3 = is_coverable(H, 3)
    chi = chromatic_number(H)
    return c3 is None and chi == 2, f"cover3={c3 is not None} chi={chi}"


@_claim("noncontainment-fano", "Fano cover ideal: J^(3) not in J^2 with witness x1*...*x7")
def _noncontainment_fano(engines: Engines):
    rep = engines("fano", "cover").check(3, 2, 0)
    want = "1 1 1 1 1 1 1"
    ok = not rep.holds and rep.witness is not None and rep.witness.exponent_string() == want
    return ok, f"holds={rep.holds} witness={None if rep.witness is None else rep.witness}"


@_claim(
    "noncontainment-sqs8",
    "S(3,4,8) cover ideal: J^(3) not in J^2 (witness x1*...*x7) and J^(4) not in J^3",
)
def _noncontainment_sqs8(engines: Engines):
    engine = engines("sqs8", "cover")
    a = engine.check(3, 2, 0)
    b = engine.check(4, 3, 0)
    ok = (
        not a.holds
        and a.witness is not None
        and a.witness.exponent_string() == "1 1 1 1 1 1 1 0"
        and not b.holds
        and b.witness is not None
        and b.witness.exponent_string() == "1 1 1 1 1 1 1 1"
    )
    return ok, f"(3,2): holds={a.holds} w={a.witness}; (4,3): holds={b.holds} w={b.witness}"


@_claim("stable-harbourne-fano", "Stable Harbourne instances hold for r=2,3; threshold 7/2")
def _stable_harbourne_fano(engines: Engines):
    verdict = stable_harbourne_scan(engines("fano", "complement"), 2, 3)
    ok = verdict.all_hold and verdict.threshold == Fraction(7, 2)
    return ok, f"all_hold={verdict.all_hold} threshold={verdict.threshold}"


@_claim("harbourne-huneke-fano", "Harbourne-Huneke form 1 and 2 instances hold for r=1,2")
def _harbourne_huneke_fano(engines: Engines):
    engine = engines("fano", "complement")
    v1 = harbourne_huneke_scan(engine, 1, 2, 1)
    v2 = harbourne_huneke_scan(engine, 1, 2, 2)
    return v1.all_hold and v2.all_hold, f"form1={v1.all_hold} form2={v2.all_hold}"


@_claim("chudnovsky-fano", "Chudnovsky bound holds for the Fano complement up to h=6")
def _chudnovsky_fano(engines: Engines):
    verdict = chudnovsky_check(engines("fano", "complement"), 6)
    return verdict.all_hold, f"all_hold={verdict.all_hold} (h<=6, rhs=(4+3-1)/3=2)"


@_claim("demailly-fano", "Demailly bound holds for the Fano complement, m in {1,3,4,6}, h<=6")
def _demailly_fano(engines: Engines):
    engine = engines("fano", "complement")
    bad = []
    for m in (1, 3, 4, 6):
        verdict = demailly_check(engine, m, 6)
        if not verdict.all_hold:
            bad.append(m)
    return not bad, f"failing_m={bad}" if bad else "all m in {1,3,4,6} hold for h<=6"


@_claim("resurgence-region-example", "Region for (h,N,r1,ratio)=(3,3,2,2): r_max=9, s_max=3(r+3)/2")
def _resurgence_region_example(engines: Engines):
    reg = resurgence_region(3, 3, 2, 2)
    ok = (
        reg.asymptotic == Fraction(3, 2)
        and reg.r_max == 9
        and reg.s_max(1) == Fraction(6)
        and reg.s_max(9) == Fraction(18)
    )
    return ok, f"asymptotic={reg.asymptotic} r_max={reg.r_max} s_max(9)={reg.s_max(9)}"


def claim_ids() -> list[str]:
    return [cid for cid, _, _ in _REGISTRY]


def run_claims(only: str | None = None):
    """Yield (claim_id, description, ok, detail, seconds) for each claim.

    The claims of one call share one engine per (design, source);
    separate calls share nothing.
    """

    @functools.cache
    def engines(design: str, source: str) -> ContainmentEngine:
        S = BUILTIN_DESIGNS[design]()
        P = complement_ideal(S) if source == "complement" else cover_ideal(S.hypergraph())
        return ContainmentEngine(P)

    for cid, desc, fn in _REGISTRY:
        if only is not None and cid != only:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn(engines)
        except Exception as exc:  # a crash is a failed claim, not a crashed report
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        yield cid, desc, ok, detail, time.perf_counter() - t0
