"""The benchmark workloads, as fixed lists of operations.

An operation is either a CLI call, ``steinerideals.cli.main(argv)`` with
stdout captured, or a direct library call.  ``{name}`` in an argv stands
for the generated design file of ladder design ``name``; ``{out}`` for the
pass's output directory.  Each operation names the check that judges its
output (see checks.py) and carries a stable id, which keys its recorded
answer in expected.json and its seconds in every run's detail line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    id: str
    check: str
    argv: tuple[str, ...] = ()
    lib: str | None = None  # "complement_ideal" or "cover_ideal"
    design: str | None = None  # the one design the operation reads, if any
    source: str | None = None  # "cover" or "complement", for witness checks


def _design_of(argv) -> str | None:
    for a in argv:
        if a.startswith("{") and a != "{out}":
            return a.strip("{}")
    return None


def cli(op_id: str, check: str, *argv: str) -> Op:
    source = argv[argv.index("--source") + 1] if "--source" in argv else None
    return Op(op_id, check, tuple(argv), design=_design_of(argv), source=source)


def lib(fn: str, design: str) -> Op:
    source = "complement" if fn == "complement_ideal" else "cover"
    return Op(f"lib.{fn}.{design}", "decomposition", lib=fn, design=design, source=source)


def _alpha(design: str, source: str, M: int) -> Op:
    return cli(f"alpha.{design}.{source}.M{M}", "alpha", "alpha", f"{{{design}}}", "--source", source, "-M", str(M))


def _symbolic(design: str, source: str, m: int, out: bool = False) -> Op:
    argv = ["symbolic", f"{{{design}}}", "--source", source, "-m", str(m)]
    if out:
        argv += ["--generators-out", f"{{out}}/{design}.{source}.m{m}.txt"]
    return cli(f"symbolic.{design}.{source}.m{m}", "symbolic", *argv)


ALPHA_SEARCH = (
    _alpha("sts9", "complement", 5),
    _alpha("sts9", "cover", 5),
    _alpha("sqs8", "complement", 6),
    _alpha("sqs8", "cover", 6),
    _alpha("fano", "complement", 6),
    _alpha("fano", "cover", 6),
    _alpha("pg23", "cover", 2),
    cli(
        "conjectures.sts9.complement.demailly",
        "conjectures",
        "conjectures", "{sts9}", "--source", "complement", "--which", "demailly", "--h-max", "4",
    ),
)

SYMBOLIC_FOLD = (
    _symbolic("sts13", "cover", 2, out=True),
    _symbolic("sts9", "cover", 4, out=True),
    _symbolic("sqs8", "cover", 4),
    _symbolic("pg23", "cover", 2),
    _symbolic("fano", "cover", 5),
    _symbolic("sqs8", "complement", 6),
    _symbolic("pg23", "complement", 1),
)

CONTAINMENT_MIX = (
    cli("scan.sts9.cover.m4r2", "scan", "scan", "{sts9}", "--source", "cover", "--m-max", "4", "--r-max", "2"),
    cli("scan.fano.cover.m6r4", "scan", "scan", "{fano}", "--source", "cover", "--m-max", "6", "--r-max", "4"),
    cli("containment.sqs8.cover.4.3", "containment", "containment", "{sqs8}", "--source", "cover", "4", "3"),
    cli(
        "containment.fano.complement.9.3.slack6",
        "containment",
        "containment", "{fano}", "--source", "complement", "9", "3", "--slack", "6",
    ),
    cli("conjectures.fano.complement", "conjectures", "conjectures", "{fano}", "--source", "complement", "--r-hi", "3"),
    cli("reproduce", "reproduce", "reproduce"),
    # a small slice of design handling, so validation, complements, the
    # partition search and the antichain check of a large decomposition
    # are measured somewhere
    cli("validate.pg24", "validate", "validate", "{pg24}"),
    cli("complement.pg24", "complement", "complement", "{pg24}"),
    cli("validate.sts31", "validate", "validate", "{sts31}"),
    cli("complement.sts31", "complement", "complement", "{sts31}"),
    cli("coverability.sts31.cover2", "coverability", "coverability", "{sts31}", "--cover", "2"),
    cli("coverability.sqs16.cover2", "coverability", "coverability", "{sqs16}", "--cover", "2"),
    lib("complement_ideal", "sqs16"),
)

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "alpha-search": ALPHA_SEARCH,
    "symbolic-fold": SYMBOLIC_FOLD,
    "containment-mix": CONTAINMENT_MIX,
}

# How strongly each workload's time follows the speed of the Python
# interpreter, as measured by the reference loop (see reference.py): the
# alpha search is pure Python; the fold spends much of its time in numpy;
# the mix is between.  Each is the exponent that gave the smallest spread
# between runs over fourteen seeds on the tuning host.
SPEED_EXPONENT: dict[str, float] = {
    "alpha-search": 1.0,
    "symbolic-fold": 0.5,
    "containment-mix": 0.5,
}


def designs_used(ops) -> list[str]:
    return sorted({op.design for op in ops if op.design})
