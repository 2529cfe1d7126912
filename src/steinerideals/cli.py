"""Command-line interface.

Structured results go to stdout as single-line JSON (JSON-lines for
scans); progress and diagnostics go to stderr.  Exit codes: 0 for a
completed computation (including holds=false and NotCoverable answers),
2 for invalid designs or invalid mathematical input, 3 for I/O and parse
problems, 4 when a resource cap stopped the run (after emitting a
partial report).  Repeated runs on the same input emit byte-identical
output except for the elapsed_ms timing fields.

main() builds one argument parser per process, on its first call, and
reuses it on every later call without mutating it (see build_parser).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import claims as claims_mod
from .budget import DEFAULT_GENERATOR_CAP, Budget
from .containment import (
    ContainmentEngine,
    alpha_table,
    chudnovsky_check,
    demailly_check,
    demailly_dimension,
    els_scan,
    harbourne_huneke_scan,
    resurgence_region,
    resurgence_search,
    stable_harbourne_scan,
)
from .designs import (
    SteinerSystem,
    chromatic_number,
    complement_blocks,
    is_colourable,
    is_coverable,
    resolve_input,
)
from .errors import (
    DegenerateRegion,
    DesignError,
    FormatError,
    ResourceLimit,
    SteinerIdealsError,
    TSubsetMultiplyCovered,
    TSubsetUncovered,
    Uncolourable,
)
from .monomials import dump_monomials
from .symbolic import (
    complement_ideal,
    cover_ideal,
    symbolic_power,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_RESOURCE = 4


def _budget(args) -> Budget:
    """The Budget of a long command, from its limit flags.

    The time cap starts counting here, before the input is loaded.  A
    command without --generator-cap (nothing it runs counts candidate
    rows) gets the default cap.
    """
    cap, tcap = getattr(args, "generator_cap", DEFAULT_GENERATOR_CAP), args.time_cap
    if tcap is not None and not 0 < tcap < math.inf:
        raise ValueError(f"time cap must be positive and finite, not {tcap}")
    deadline = None if tcap is None else time.monotonic() + tcap
    return Budget(cap, deadline, _progress_printer(args.progress_interval))


def _progress_printer(interval: float):
    """A Budget progress sink printing at most one stderr line per interval
    seconds: ``progress: <stage> <partial as compact JSON>``."""
    if not 0 <= interval < math.inf:
        raise ValueError(f"progress interval must be finite and >= 0, not {interval}")
    if interval == 0:
        return None
    last = 0.0

    def fn(stage: str, partial: dict) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= interval:
            last = now
            line = json.dumps(partial, separators=(",", ":"))
            print(f"progress: {stage} {line}", file=sys.stderr, flush=True)

    return fn


def _emit(doc: dict, output: str | None = None) -> None:
    line = json.dumps(doc, separators=(",", ":"))
    if output:
        with open(output, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)


def _design(spec: str) -> SteinerSystem:
    """The design an input spec names; a hypergraph document is a FormatError."""
    S, _ = resolve_input(spec)
    if S is None:
        raise FormatError(
            f"{spec} is a hypergraph document; validate, complement and "
            "--source complement need a Steiner design"
        )
    return S


def _decomposition(args, budget: Budget):
    """Build the requested PrimeDecomposition from CLI input, under the command's budget."""
    if args.source == "complement":
        return complement_ideal(_design(args.input), budget=budget)
    return cover_ideal(resolve_input(args.input)[1])


def _engine(args) -> ContainmentEngine:
    """The engine of a command with --source, under the command's budget."""
    budget = _budget(args)
    return ContainmentEngine(_decomposition(args, budget), budget=budget)


def cmd_validate(args) -> int:
    try:
        S = _design(args.design)
    except (DesignError, ValueError) as exc:
        doc = {"valid": False, "error": type(exc).__name__}
        if isinstance(exc, (TSubsetUncovered, TSubsetMultiplyCovered)):
            doc["t_subset"] = list(exc.tsubset)
        else:
            doc["detail"] = str(exc)
        _emit(doc)
        return EXIT_INVALID
    _emit(
        {
            "valid": True,
            "v": S.v,
            "n": S.n,
            "t": S.t,
            "block_count": S.block_count,
        }
    )
    return EXIT_OK


def cmd_complement(args) -> int:
    S = _design(args.design)
    comp = complement_blocks(S)
    doc = {
        "vertices": S.v,
        "edges": [list(c) for c in comp],
        "count": len(comp),
    }
    _emit(doc, args.output)
    return EXIT_OK


def cmd_coverability(args) -> int:
    budget = _budget(args)
    _, H = resolve_input(args.input)
    if args.chromatic:
        try:
            chi = chromatic_number(H, budget=budget)
        except Uncolourable as exc:
            _emit({"query": "chromatic", "error": "Uncolourable", "detail": str(exc)})
            return EXIT_INVALID
        _emit({"query": "chromatic", "chromatic_number": chi})
        return EXIT_OK
    if args.cover is not None:
        query, key, count, answer, search = "cover", "c", args.cover, "coverable", is_coverable
    else:
        query, key, count, answer, search = "colour", "m", args.colour, "colourable", is_colourable
    part = search(H, count, budget=budget)
    doc = {"query": query, key: count, answer: part is not None}
    if part is not None:
        doc["classes"] = [list(c) for c in part.classes]
    else:
        doc["exhaustive"] = True
    _emit(doc)
    return EXIT_OK


def cmd_symbolic(args) -> int:
    budget = _budget(args)
    P = _decomposition(args, budget)
    ideal = symbolic_power(P, args.m, budget=budget)
    out_path = args.generators_out
    if out_path:
        dump_monomials(out_path, ideal)
    _emit(
        {
            "m": args.m,
            "alpha": ideal.min_degree(),
            "generator_count": ideal.generator_count,
            "generators": out_path or None,
        }
    )
    return EXIT_OK


def cmd_alpha(args) -> int:
    _emit(alpha_table(_engine(args), args.max_m).to_dict())
    return EXIT_OK


def cmd_containment(args) -> int:
    report = _engine(args).check(args.m, args.r, args.slack, audit=args.audit)
    _emit(report.to_dict())
    return EXIT_OK


def cmd_scan(args) -> int:
    # every cell is computed before any is printed, so a capped scan
    # prints only the resource-limit report
    scan = resurgence_search(_engine(args), args.m_max, args.r_max)
    for rep in scan.cells:
        _emit(rep.to_dict())
    _emit({"summary": scan.to_dict()})
    return EXIT_OK


def cmd_resurgence_region(args) -> int:
    try:
        r1 = Fraction(args.r1)
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational argument: {exc}") from exc
    try:
        region = resurgence_region(args.big_height, args.ambient_dim, r1, ratio)
    except DegenerateRegion as exc:
        _emit({"degenerate": True, "reason": str(exc)})
        return EXIT_OK
    _emit(region.to_dict())
    return EXIT_OK


# conjecture family -> verdict from (engine, parsed args), in the order
# "applicable" runs them
_CONJECTURES = {
    "stable-harbourne": lambda e, a: stable_harbourne_scan(e, a.r_lo, a.r_hi),
    "harbourne-huneke-1": lambda e, a: harbourne_huneke_scan(e, a.r_lo, a.r_hi, 1),
    "harbourne-huneke-2": lambda e, a: harbourne_huneke_scan(e, a.r_lo, a.r_hi, 2),
    "els": lambda e, a: els_scan(e, a.r_lo, a.r_hi),
    "chudnovsky": lambda e, a: chudnovsky_check(e, a.h_max, a.ambient_dim),
    "demailly": lambda e, a: demailly_check(e, a.m, a.h_max, a.ambient_dim),
}
_NEEDS_AMBIENT = ("chudnovsky", "demailly")


def cmd_conjectures(args) -> int:
    engine = _engine(args)
    if args.which != "applicable":
        names = [args.which]
    elif engine.decomposition.steiner is not None or args.ambient_dim is not None:
        names = list(_CONJECTURES)
    else:
        names = [n for n in _CONJECTURES if n not in _NEEDS_AMBIENT]
        print(
            "note: skipping chudnovsky/demailly (no Steiner provenance; "
            "pass --ambient-dim to include them)",
            file=sys.stderr,
        )
    if "chudnovsky" in names or "demailly" in names:
        # the alpha bounds' parameters are checked before any family
        # runs; chudnovsky is demailly at m = 1
        m = args.m if "demailly" in names else 1
        demailly_dimension(engine.decomposition, m, args.h_max, args.ambient_dim)
    # as in scan, every verdict is computed before any is printed, so a
    # capped run prints no verdict
    verdicts = [_CONJECTURES[name](engine, args) for name in names]
    for verdict in verdicts:
        _emit(verdict.to_dict())
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.list:
        for cid in claims_mod.claim_ids():
            print(cid)
        return EXIT_OK
    only = args.only
    if only is not None and only not in claims_mod.claim_ids():
        print(f"unknown claim id {only!r}; use --list", file=sys.stderr)
        return EXIT_IO
    rows = []
    for cid, desc, ok, detail, seconds in claims_mod.run_claims(only):
        status = "PASS" if ok else "FAIL"
        print(f"{cid}\t{status}\t{detail}")
        print(f"{cid}\t{seconds:.3f} s", file=sys.stderr)
        rows.append(ok)
    passed = sum(rows)
    print(f"summary\t{passed}/{len(rows)} passed")
    return EXIT_OK if passed == len(rows) else 1


def _add_limits(p: argparse.ArgumentParser, generator_cap: bool = True) -> None:
    """The limit flags of a long command; --generator-cap only where a loop counts rows."""
    if generator_cap:
        p.add_argument(
            "--generator-cap",
            type=int,
            default=DEFAULT_GENERATOR_CAP,
            help="abort with a partial report beyond this many generators (default: %(default)s)",
        )
    p.add_argument(
        "--time-cap",
        type=float,
        default=None,
        help="wall-clock budget in seconds (default: none)",
    )
    p.add_argument(
        "--progress-interval",
        type=float,
        default=0.0,
        help="seconds between stderr progress lines (0 disables)",
    )


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="builtin:<name> or a design/hypergraph JSON file")
    p.add_argument(
        "--source",
        choices=("cover", "complement"),
        required=True,
        help="cover: edge supports of the input; complement: non-blocks of a design",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared.

    main() reuses it on every call and never mutates it; callers must
    not mutate it either (no add_argument, set_defaults or the like),
    since every later main() call in the process would see the change.
    """
    ap = argparse.ArgumentParser(
        prog="steinerideals",
        description="Exact computations on Steiner systems and their "
        "cover/complement squarefree ideals.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the S(t,n,v) axioms of a design")
    p.add_argument("design", help="builtin:<name> or a design JSON file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("complement", help="emit the non-blocks as a hypergraph document")
    p.add_argument("design")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("coverability", help="coverability, colourability, chromatic number")
    p.add_argument("input", help="builtin:<name> or a design/hypergraph JSON file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cover", type=int, metavar="C", help="partition meeting every edge")
    g.add_argument("--colour", type=int, metavar="M", help="weak colouring with M classes")
    g.add_argument("--chromatic", action="store_true", help="compute the chromatic number")
    _add_limits(p, generator_cap=False)
    p.set_defaults(fn=cmd_coverability)

    p = sub.add_parser("symbolic", help="minimal generators of a symbolic power")
    _add_source(p)
    p.add_argument("-m", type=int, required=True, help="symbolic power exponent")
    p.add_argument(
        "--generators-out", default=None, help="write generators to this text file"
    )
    _add_limits(p)
    p.set_defaults(fn=cmd_symbolic)

    p = sub.add_parser("alpha", help="initial degree table and Waldschmidt bounds")
    _add_source(p)
    p.add_argument("-M", "--max-m", type=int, required=True, help="table up to this m")
    _add_limits(p, generator_cap=False)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("containment", help="decide I^(m) <= M^slack * I^r")
    _add_source(p)
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--slack", type=int, default=0)
    p.add_argument(
        "--audit",
        action="store_true",
        help="disable shortcuts; force the generator scan and check omega_r against I^r",
    )
    _add_limits(p)
    p.set_defaults(fn=cmd_containment)

    p = sub.add_parser("scan", help="containment scan over a (m, r) box, JSON-lines")
    _add_source(p)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    _add_limits(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser(
        "resurgence-region", help="bound the search region for resurgence failures"
    )
    p.add_argument("big_height", type=int)
    p.add_argument("ambient_dim", type=int)
    p.add_argument("r1", help="rational like 2 or 3/2, must be > 1")
    p.add_argument("ratio", help="failing ratio s0/r0 as a rational")
    p.set_defaults(fn=cmd_resurgence_region)

    p = sub.add_parser("conjectures", help="scan the documented conjecture families")
    _add_source(p)
    p.add_argument(
        "--which",
        default="applicable",
        choices=("applicable", *_CONJECTURES),
    )
    p.add_argument("--r-lo", type=int, default=1)
    p.add_argument("--r-hi", type=int, default=2)
    p.add_argument("--h-max", type=int, default=6, help="chudnovsky/demailly h range")
    p.add_argument("-m", type=int, default=2, help="demailly symbolic exponent")
    p.add_argument(
        "--ambient-dim",
        type=int,
        default=None,
        help="ambient dimension when the input has no Steiner provenance",
    )
    _add_limits(p)
    p.set_defaults(fn=cmd_conjectures)

    p = sub.add_parser("reproduce", help="re-run the documented worked examples")
    p.add_argument("--only", default=None, help="run a single claim id")
    p.add_argument("--list", action="store_true", help="list claim ids and exit")
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as exc:
        _emit({"error": "resource-limit", "stage": exc.stage, "partial": exc.partial})
        return EXIT_RESOURCE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SteinerIdealsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
