"""End-to-end CLI tests: JSON output, exit codes, determinism."""

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from steinerideals import (
    ContainmentEngine,
    Monomial,
    ResourceLimit,
    builtin_fano,
    complement_ideal,
    load_monomials,
    member_of_symbolic,
)
import steinerideals
from steinerideals import containment, symbolic
from steinerideals.claims import claim_ids, run_claims
from steinerideals.cli import build_parser, main
from steinerideals.designs import FANO_BLOCKS

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def without_timing(doc):
    return {k: v for k, v in doc.items() if k != "elapsed_ms"}


def masked(out):
    """Stdout with every containment report's elapsed_ms field stripped."""
    return re.sub(r',"elapsed_ms":[0-9.e+-]+', "", out)


# exact stdout of two commands, pinned before the scan and conjecture
# commands were routed through the library; the scan lines have their
# elapsed_ms fields stripped
CONJECTURES_FANO_COMPLEMENT_R2 = (
    '{"conjecture":"stable-harbourne","all_hold":true,"instances":[{"params":{"r":1,"m":1,"slack":0},"holds":true},{"params":{"r":2,"m":4,"slack":0},"holds":true}],"threshold":"7/2"}',
    '{"conjecture":"harbourne-huneke-1","all_hold":true,"instances":[{"params":{"r":1,"m":3,"slack":2},"holds":true},{"params":{"r":2,"m":6,"slack":4},"holds":true}]}',
    '{"conjecture":"harbourne-huneke-2","all_hold":true,"instances":[{"params":{"r":1,"m":1,"slack":0},"holds":true},{"params":{"r":2,"m":4,"slack":2},"holds":true}]}',
    '{"conjecture":"els","all_hold":true,"instances":[{"params":{"r":1,"m":3},"holds":true},{"params":{"r":2,"m":6},"holds":true}]}',
    '{"conjecture":"chudnovsky","all_hold":true,"instances":[{"params":{"h":1,"lhs":"4","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":2,"lhs":"3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":3,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":4,"lhs":"11/4","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":5,"lhs":"13/5","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":6,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true}]}',
    '{"conjecture":"demailly","all_hold":true,"instances":[{"params":{"h":1,"m":2,"lhs":"4","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":2,"m":2,"lhs":"3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":3,"m":2,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":4,"m":2,"lhs":"11/4","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":5,"m":2,"lhs":"13/5","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":6,"m":2,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true}]}',
)

# exact stdout of the non-Steiner conjecture path (no threshold, ELS on a
# cover ideal, Chudnovsky and Demailly with an explicit ambient dimension),
# pinned before the conjecture families shared one code path
CONJECTURES_FANO_COVER_R2_N3 = (
    '{"conjecture":"stable-harbourne","all_hold":true,"instances":[{"params":{"r":1,"m":1,"slack":0},"holds":true},{"params":{"r":2,"m":4,"slack":0},"holds":true}]}',
    '{"conjecture":"harbourne-huneke-1","all_hold":true,"instances":[{"params":{"r":1,"m":3,"slack":2},"holds":true},{"params":{"r":2,"m":6,"slack":4},"holds":true}]}',
    '{"conjecture":"harbourne-huneke-2","all_hold":true,"instances":[{"params":{"r":1,"m":1,"slack":0},"holds":true},{"params":{"r":2,"m":4,"slack":2},"holds":true}]}',
    '{"conjecture":"els","all_hold":true,"instances":[{"params":{"r":1,"m":3},"holds":true},{"params":{"r":2,"m":6},"holds":true}]}',
    '{"conjecture":"chudnovsky","all_hold":true,"instances":[{"params":{"h":1,"lhs":"3","rhs":"5/3","ambient_dim":3},"holds":true},{"params":{"h":2,"lhs":"3","rhs":"5/3","ambient_dim":3},"holds":true},{"params":{"h":3,"lhs":"7/3","rhs":"5/3","ambient_dim":3},"holds":true},{"params":{"h":4,"lhs":"5/2","rhs":"5/3","ambient_dim":3},"holds":true},{"params":{"h":5,"lhs":"13/5","rhs":"5/3","ambient_dim":3},"holds":true},{"params":{"h":6,"lhs":"7/3","rhs":"5/3","ambient_dim":3},"holds":true}]}',
    '{"conjecture":"demailly","all_hold":true,"instances":[{"params":{"h":1,"m":2,"lhs":"3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":2,"m":2,"lhs":"3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":3,"m":2,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":4,"m":2,"lhs":"5/2","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":5,"m":2,"lhs":"13/5","rhs":"2","ambient_dim":3},"holds":true},{"params":{"h":6,"m":2,"lhs":"7/3","rhs":"2","ambient_dim":3},"holds":true}]}',
)

SCAN_FANO_COVER_M6_R4 = (
    '{"m":2,"r":1,"slack":0,"holds":true,"witness":null,"alpha_m":6,"alpha_r":3,"omega_r":3,"method":"symbolic-descent"}',
    '{"m":3,"r":1,"slack":0,"holds":true,"witness":null,"alpha_m":7,"alpha_r":3,"omega_r":3,"method":"symbolic-descent"}',
    '{"m":4,"r":1,"slack":0,"holds":true,"witness":null,"alpha_m":10,"alpha_r":3,"omega_r":3,"method":"symbolic-descent"}',
    '{"m":5,"r":1,"slack":0,"holds":true,"witness":null,"alpha_m":13,"alpha_r":3,"omega_r":3,"method":"symbolic-descent"}',
    '{"m":6,"r":1,"slack":0,"holds":true,"witness":null,"alpha_m":14,"alpha_r":3,"omega_r":3,"method":"symbolic-descent"}',
    '{"m":3,"r":2,"slack":0,"holds":false,"witness":"1 1 1 1 1 1 1","alpha_m":7,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    '{"m":4,"r":2,"slack":0,"holds":true,"witness":null,"alpha_m":10,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    '{"m":5,"r":2,"slack":0,"holds":true,"witness":null,"alpha_m":13,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    '{"m":6,"r":2,"slack":0,"holds":true,"witness":null,"alpha_m":14,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    '{"m":4,"r":3,"slack":0,"holds":false,"witness":"2 2 2 1 1 1 1","alpha_m":10,"alpha_r":9,"omega_r":9,"method":"generator-scan"}',
    '{"m":5,"r":3,"slack":0,"holds":true,"witness":null,"alpha_m":13,"alpha_r":9,"omega_r":9,"method":"generator-scan"}',
    '{"m":6,"r":3,"slack":0,"holds":true,"witness":null,"alpha_m":14,"alpha_r":9,"omega_r":9,"method":"generator-scan"}',
    '{"m":5,"r":4,"slack":0,"holds":false,"witness":"3 3 3 1 1 1 1","alpha_m":13,"alpha_r":12,"omega_r":12,"method":"generator-scan"}',
    '{"m":6,"r":4,"slack":0,"holds":true,"witness":null,"alpha_m":14,"alpha_r":12,"omega_r":12,"method":"generator-scan"}',
    '{"summary":{"m_max":6,"r_max":4,"cells":14,"failures":3,"max_ratio":"3/2"}}',
)


@pytest.fixture
def sts31_file(tmp_path):
    path = tmp_path / "sts31.json"
    path.write_text(json.dumps(oracles.pg42().to_dict()))
    return str(path)


@pytest.fixture
def pg25_file(tmp_path):
    path = tmp_path / "pg25.json"
    path.write_text(json.dumps(oracles.pg25().to_dict()))
    return str(path)


@pytest.fixture
def pg27_file(tmp_path):
    path = tmp_path / "pg27.json"
    path.write_text(json.dumps(oracles.pg27().to_dict()))
    return str(path)


@pytest.fixture
def fano_file(tmp_path):
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(builtin_fano().to_dict()))
    return str(path)


@pytest.fixture
def broken_fano_file(tmp_path):
    doc = builtin_fano().to_dict()
    doc["blocks"] = [b for b in doc["blocks"] if b != [1, 5, 6]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


# exact stdout of validate, complement, symbolic, alpha, containment,
# resurgence-region and reproduce, pinned before every command resolved
# its input through one function and printed its result's to_dict()
FANO_DOC = {"v": 7, "n": 3, "t": 2, "blocks": [list(b) for b in FANO_BLOCKS]}

VALIDATE_GOLDEN = {
    "valid": (
        {},
        0,
        '{"valid":true,"v":7,"n":3,"t":2,"block_count":7}',
    ),
    "block-size": (
        {"blocks": [[1, 2]] + FANO_DOC["blocks"][1:]},
        2,
        '{"valid":false,"error":"BlockSizeMismatch","detail":"block (1, 2) is not a 3-subset of the point set"}',
    ),
    "count": (
        {"v": 8},
        2,
        '{"valid":false,"error":"CountMismatch","detail":"block count 7 != required C(v,t)/C(n,t) = 28/3 (non-integer block count)"}',
    ),
    "t-equals-n": (
        {"t": 3},
        2,
        '{"valid":false,"error":"ValueError","detail":"need 1 <= t < n <= v, got t=3, n=3, v=7"}',
    ),
    "uncovered": (
        {"blocks": FANO_DOC["blocks"][:-1]},
        2,
        '{"valid":false,"error":"TSubsetUncovered","t_subset":[1,5]}',
    ),
    "multiply-covered": (
        {"blocks": FANO_DOC["blocks"] + [[1, 2, 3]]},
        2,
        '{"valid":false,"error":"TSubsetMultiplyCovered","t_subset":[1,2]}',
    ),
}

COMPLEMENT_FANO = (
    '{"vertices":7,"edges":[[1,2,4],[1,2,5],[1,2,6],[1,2,7],[1,3,4],[1,3,5],[1,3,6],'
    "[1,3,7],[1,4,5],[1,4,6],[1,5,7],[1,6,7],[2,3,4],[2,3,5],[2,3,6],[2,3,7],[2,4,5],"
    "[2,4,7],[2,5,6],[2,6,7],[3,4,6],[3,4,7],[3,5,6],[3,5,7],[4,5,6],[4,5,7],[4,6,7],"
    '[5,6,7]],"count":28}\n'
)

CONTAINMENT_GOLDEN = [
    (
        ("--source", "cover", "3", "2"),
        '{"m":3,"r":2,"slack":0,"holds":false,"witness":"1 1 1 1 1 1 1","alpha_m":7,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    ),
    (
        ("--source", "cover", "3", "2", "--audit"),
        '{"m":3,"r":2,"slack":0,"holds":false,"witness":"1 1 1 1 1 1 1","alpha_m":7,"alpha_r":6,"omega_r":6,"method":"generator-scan"}',
    ),
    (
        ("--source", "complement", "3", "1", "--slack", "3"),
        '{"m":3,"r":1,"slack":3,"holds":true,"witness":null,"alpha_m":7,"alpha_r":4,"omega_r":4,"method":"generator-scan"}',
    ),
    (
        ("--source", "complement", "4", "2", "--audit"),
        '{"m":4,"r":2,"slack":0,"holds":true,"witness":null,"alpha_m":11,"alpha_r":8,"omega_r":8,"method":"generator-scan"}',
    ),
]

# a cover input with one Fano line repeated in another order and a
# superset of another line, and the outputs it gave before the prime
# decomposition kept its supports as one 0/1 matrix; the generator file
# is pinned by its SHA-256
MESSY_FANO_COVER = {
    "vertices": 7,
    "edges": [list(b) for b in FANO_BLOCKS] + [[5, 4, 3], [2, 4, 6, 7]],
}
MESSY_FANO_SYMBOLIC = '{{"m":3,"alpha":7,"generator_count":106,"generators":{}}}'
MESSY_FANO_GENERATORS_SHA256 = "dab135991234eb1908b636f9d16b177ad2b1e836d282e2cc221a5c3235194a44"
MESSY_FANO_GOLDEN = {
    ("alpha", "-M", "4"): (
        '{"entries":{"1":3,"2":6,"3":7,"4":10},"waldschmidt_upper":"7/3",'
        '"waldschmidt_lower":null,"attained":[3]}'
    ),
    ("containment", "3", "2"): (
        '{"m":3,"r":2,"slack":0,"holds":false,"witness":"1 1 1 1 1 1 1",'
        '"alpha_m":7,"alpha_r":6,"omega_r":6,"method":"generator-scan"}'
    ),
}

RESURGENCE_REGION_GOLDEN = {
    ("3", "3", "2", "2"): (
        '{"big_height":3,"ambient_dim":3,"r1":"2","failing_ratio":"2",'
        '"asymptotic_resurgence":"3/2","r_max":9,"s_max_slope":"3/2","s_max_intercept":"9/2",'
        '"degenerate":false,"s_max":{"1":"6","2":"15/2","3":"9","4":"21/2","5":"12",'
        '"6":"27/2","7":"15","8":"33/2","9":"18"}}'
    ),
    ("4", "2", "3/2", "7/2"): (
        '{"big_height":4,"ambient_dim":2,"r1":"3/2","failing_ratio":"7/2",'
        '"asymptotic_resurgence":"4/3","r_max":2,"s_max_slope":"4/3","s_max_intercept":"8/3",'
        '"degenerate":false,"s_max":{"1":"4","2":"16/3"}}'
    ),
    ("3", "3", "2", "3/2"): (
        '{"degenerate":true,"reason":"failing ratio 3/2 does not exceed the asymptotic value 3/2"}'
    ),
}

REPRODUCE_STDOUT = (
    "fano-validate\tPASS\tblocks=7 complement_supports=28",
    "alpha-fano\tPASS\talpha=[4, 6, 7, 11, 13, 14]",
    "waldschmidt-fano\tPASS\tupper=7/3 lower=7/3 attained=(3, 6)",
    "waldschmidt-sqs8\tPASS\talpha=[4, 6, 7, 8] upper=2 attained=(4,)",
    "hh-fano\tPASS\tr=1 and r=2 slack containments hold",
    "els-fano\tPASS\th*r=3,r=1:ok; h*r=6,r=2:ok; h*r=3,r=1:ok",
    "colouring-fano\tPASS\tchi=3 two_colourable=False",
    "coverability-fano\tPASS\tcover2=False cover3=False",
    "coverability-sqs8\tPASS\tcover3=False chi=2",
    "noncontainment-fano\tPASS\tholds=False witness=x1*x2*x3*x4*x5*x6*x7",
    "noncontainment-sqs8\tPASS\t(3,2): holds=False w=x1*x2*x3*x4*x5*x6*x7; (4,3): holds=False w=x1*x2*x3*x4*x5*x6*x7*x8",
    "stable-harbourne-fano\tPASS\tall_hold=True threshold=7/2",
    "harbourne-huneke-fano\tPASS\tform1=True form2=True",
    "chudnovsky-fano\tPASS\tall_hold=True (h<=6, rhs=(4+3-1)/3=2)",
    "demailly-fano\tPASS\tall m in {1,3,4,6} hold for h<=6",
    "resurgence-region-example\tPASS\tasymptotic=3/2 r_max=9 s_max(9)=18",
    "summary\t16/16 passed",
)

# validate


@pytest.mark.parametrize("case", VALIDATE_GOLDEN)
def test_validate_golden_stdout(capsys, tmp_path, case):
    changes, code, line = VALIDATE_GOLDEN[case]
    path = tmp_path / "design.json"
    path.write_text(json.dumps(dict(FANO_DOC, **changes)))
    assert run(capsys, "validate", str(path)) == (code, line + "\n", "")


def test_validate_and_complement_refuse_a_hypergraph_document(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(builtin_fano().hypergraph().to_dict()))
    for argv in (("validate",), ("complement",), ("symbolic", "--source", "complement", "-m", "1")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err == f"error: {path} is a hypergraph document; validate, complement and --source complement need a Steiner design\n"


def test_validate_builtin(capsys):
    code, doc, _ = run_json(capsys, "validate", "builtin:fano")
    assert code == 0
    assert doc == {"valid": True, "v": 7, "n": 3, "t": 2, "block_count": 7}


def test_validate_file(capsys, fano_file):
    code, doc, _ = run_json(capsys, "validate", fano_file)
    assert code == 0 and doc["valid"]


def test_validate_reports_uncovered_pair(capsys, broken_fano_file):
    code, doc, _ = run_json(capsys, "validate", broken_fano_file)
    assert code == 2
    assert doc == {"valid": False, "error": "TSubsetUncovered", "t_subset": [1, 5]}


def test_validate_reports_a_repeated_block(capsys, tmp_path):
    path = tmp_path / "repeated.json"
    blocks = [list(b) for b in FANO_BLOCKS] + [[1, 2, 3]]
    path.write_text(json.dumps({"v": 7, "n": 3, "t": 2, "blocks": blocks}))
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out) == (2, '{"valid":false,"error":"TSubsetMultiplyCovered","t_subset":[1,2]}\n')


def test_validate_reports_bad_parameters(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 7, "n": 3, "t": 3, "blocks": [list(b) for b in FANO_BLOCKS]}))
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 2
    assert doc["valid"] is False and doc["error"] == "ValueError"


def test_validate_io_errors(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 3 and "error" in err
    code, out, err = run(capsys, "validate", "builtin:nope")
    assert code == 3 and "unknown builtin" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ not json")
    assert run(capsys, "validate", str(garbage))[0] == 3


# complement and coverability


def test_complement_golden_stdout(capsys):
    assert run(capsys, "complement", "builtin:fano") == (0, COMPLEMENT_FANO, "")


def test_complement_has_no_output_flag(capsys, tmp_path):
    # the document goes to stdout like every other command's; > saves it
    with pytest.raises(SystemExit) as exc:
        main(["complement", "builtin:fano", "--output", str(tmp_path / "x")])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_complement_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "complement", "builtin:fano")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 28 and len(doc["edges"]) == 28
    out_file = tmp_path / "comp.json"
    out_file.write_text(out)
    # the emitted document is valid CLI input
    code, doc, _ = run_json(capsys, "coverability", str(out_file), "--chromatic")
    assert code == 0
    assert doc["chromatic_number"] == 3


def test_coverability_answers(capsys):
    code, doc, _ = run_json(capsys, "coverability", "builtin:fano", "--chromatic")
    assert code == 0 and doc["chromatic_number"] == 3
    code, doc, _ = run_json(capsys, "coverability", "builtin:fano", "--colour", "2")
    assert code == 0
    assert doc == {"query": "colour", "m": 2, "colourable": False, "exhaustive": True}
    code, doc, _ = run_json(capsys, "coverability", "builtin:fano", "--cover", "3")
    assert code == 0 and doc["coverable"] is False
    code, doc, _ = run_json(capsys, "coverability", "builtin:fano", "--cover", "1")
    assert doc["classes"] == [[1, 2, 3, 4, 5, 6, 7]]
    code, doc, _ = run_json(capsys, "coverability", "builtin:sqs8", "--cover", "2")
    assert code == 0 and doc["coverable"] is True and len(doc["classes"]) == 2


@pytest.mark.parametrize(
    ("argv", "line"),
    [
        (("builtin:sqs8", "--cover", "2"), '{"query":"cover","c":2,"coverable":true,"classes":[[1,2,3,5],[4,6,7,8]]}'),
        (("builtin:fano", "--cover", "3"), '{"query":"cover","c":3,"coverable":false,"exhaustive":true}'),
        (("builtin:sqs8", "--colour", "2"), '{"query":"colour","m":2,"colourable":true,"classes":[[1,2,3,5],[4,6,7,8]]}'),
        (("builtin:fano", "--colour", "2"), '{"query":"colour","m":2,"colourable":false,"exhaustive":true}'),
    ],
)
def test_coverability_documents_keep_their_keys_in_order(capsys, argv, line):
    assert run(capsys, "coverability", *argv) == (0, line + "\n", "")


def test_coverability_hypergraph_input(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 3]]}))
    code, doc, _ = run_json(capsys, "coverability", str(path), "--colour", "2")
    assert code == 0 and doc["colourable"] is True
    # the triangle needs three classes
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, doc, _ = run_json(capsys, "coverability", str(tri), "--chromatic")
    assert code == 0 and doc["chromatic_number"] == 3


def test_coverability_uncolourable_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[1], [1, 2]]}))
    code, doc, _ = run_json(capsys, "coverability", str(path), "--chromatic")
    assert code == 2
    assert doc["error"] == "Uncolourable"
    code, _, err = run(capsys, "coverability", str(path), "--cover", "0")
    assert code == 2


# symbolic and alpha


# the generator file of `symbolic builtin:fano --source complement -m 3`,
# captured before ideals were stored as row matrices
FANO_COMPLEMENT_M3_GENERATORS = (
    "vars: 7\n"
    "1 1 1 1 1 1 1\n"
    "2 2 1 2 2 1 0\n"
    "2 2 1 2 2 0 1\n"
    "2 2 1 1 0 2 2\n"
    "2 2 1 0 1 2 2\n"
    "2 2 0 2 2 1 1\n"
    "2 2 0 1 1 2 2\n"
    "2 1 2 2 1 2 0\n"
    "2 1 2 2 0 2 1\n"
    "2 1 2 1 2 0 2\n"
    "2 1 2 0 2 1 2\n"
    "2 0 2 2 1 2 1\n"
    "2 0 2 1 2 1 2\n"
    "1 2 2 2 1 0 2\n"
    "1 2 2 2 0 1 2\n"
    "1 2 2 1 2 2 0\n"
    "1 2 2 0 2 2 1\n"
    "1 1 0 2 2 2 2\n"
    "1 0 1 2 2 2 2\n"
    "0 2 2 2 1 1 2\n"
    "0 2 2 1 2 2 1\n"
    "0 1 1 2 2 2 2\n"
    "3 3 0 3 3 0 0\n"
    "3 3 0 0 0 3 3\n"
    "3 0 3 3 0 3 0\n"
    "3 0 3 0 3 0 3\n"
    "0 3 3 3 0 0 3\n"
    "0 3 3 0 3 3 0\n"
    "0 0 0 3 3 3 3\n"
)


def test_symbolic_command(capsys, tmp_path):
    code, doc, _ = run_json(
        capsys, "symbolic", "builtin:fano", "--source", "complement", "-m", "2"
    )
    assert code == 0
    assert doc == {"m": 2, "alpha": 6, "generator_count": 14, "generators": None}
    gen_file = str(tmp_path / "gens.txt")
    code, doc, _ = run_json(
        capsys,
        "symbolic", "builtin:fano", "--source", "complement", "-m", "2",
        "--generators-out", gen_file,
    )
    assert code == 0 and doc["generators"] == gen_file
    nv, monos = load_monomials(gen_file)
    assert nv == 7 and len(monos) == 14
    P = complement_ideal(builtin_fano())
    assert all(member_of_symbolic(g, P, 2) for g in monos)


def test_symbolic_golden_stdout_and_generator_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("symbolic", "builtin:fano", "--source", "complement", "-m", "3", "--generators-out", "gens.txt")
    line = '{"m":3,"alpha":7,"generator_count":29,"generators":"gens.txt"}\n'
    assert run(capsys, *argv) == (0, line, "")
    assert (tmp_path / "gens.txt").read_bytes() == FANO_COMPLEMENT_M3_GENERATORS.encode()


def test_alpha_golden_stdout(capsys):
    line = (
        '{"entries":{"1":4,"2":6,"3":7,"4":11,"5":13,"6":14},'
        '"waldschmidt_upper":"7/3","waldschmidt_lower":"7/3","attained":[3,6]}\n'
    )
    assert run(capsys, "alpha", "builtin:fano", "--source", "complement", "-M", "6") == (0, line, "")


def test_symbolic_generators_out_builds_no_monomials(capsys, tmp_path, monkeypatch):
    built = []
    real = Monomial.__post_init__
    monkeypatch.setattr(Monomial, "__post_init__", lambda self: built.append(self) or real(self))
    gen_file = tmp_path / "F"
    code, doc, _ = run_json(
        capsys,
        "symbolic", "builtin:fano", "--source", "complement", "-m", "3",
        "--generators-out", str(gen_file),
    )
    assert code == 0 and doc["generator_count"] == 29
    assert built == []
    assert gen_file.read_text() == FANO_COMPLEMENT_M3_GENERATORS


def test_symbolic_cover_source(capsys):
    code, doc, _ = run_json(
        capsys, "symbolic", "builtin:fano", "--source", "cover", "-m", "1"
    )
    assert code == 0 and doc["generator_count"] == 7 and doc["alpha"] == 3


def test_symbolic_generator_cap(capsys):
    code, doc, _ = run_json(
        capsys,
        "symbolic", "builtin:fano", "--source", "complement", "-m", "3",
        "--generator-cap", "1",
    )
    assert code == 4
    assert doc["error"] == "resource-limit"
    assert doc["stage"] == "symbolic-power"
    assert doc["partial"]["supports_total"] == 28


def test_bad_resource_flags(capsys):
    code, _, err = run(
        capsys,
        "symbolic", "builtin:fano", "--source", "complement", "-m", "2",
        "--generator-cap", "0",
    )
    assert (code, err) == (2, "error: generator cap must be positive\n")
    code, _, err = run(
        capsys,
        "symbolic", "builtin:fano", "--source", "complement", "-m", "2",
        "--time-cap", "-5",
    )
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_limits_exit_2(capsys, value):
    # time.monotonic() > nan is never true and an inf cap never expires,
    # so either would silently mean "no cap"; a nan or inf progress
    # interval would never print
    argv = ("alpha", "builtin:fano", "--source", "complement", "-M", "2")
    for extra in (("--time-cap", value), ("--progress-interval", value)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == "", extra
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "finite" in err and "Traceback" not in err


def test_a_negative_progress_interval_exits_2(capsys):
    # 0 is the one value that turns progress off
    argv = ("alpha", "builtin:fano", "--source", "complement", "-M", "2", "--progress-interval", "-1")
    assert run(capsys, *argv) == (
        2, "", "error: progress interval must be finite and >= 0, not -1.0\n"
    )


def _progress_stages(err):
    """The stages of err's progress lines, each of which must carry a JSON partial."""
    stages = []
    for line in err.splitlines():
        prefix, stage, partial = line.split(" ", 2)
        assert prefix == "progress:" and isinstance(json.loads(partial), dict), line
        stages.append(stage)
    return set(stages)


@pytest.mark.parametrize(
    "argv, stages",
    [
        (("alpha", "builtin:sqs8", "--source", "cover", "-M", "6"), {"initial-degree"}),
        (
            ("containment", "builtin:fano", "--source", "cover", "3", "2"),
            {"symbolic-power", "initial-degree", "membership-scan", "witness-enumeration"},
        ),
        (("coverability", "builtin:fano", "--chromatic"), {"partition-search"}),
    ],
)
def test_progress_lines_come_from_every_long_loop(capsys, argv, stages):
    # every Budget check reports, so a short interval shows each stage the
    # command runs; stdout does not change
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, out_progress, err = run(capsys, *argv, "--progress-interval", "1e-9")
    assert code == 0 and _progress_stages(err) == stages
    assert without_timing(json.loads(out_progress)) == without_timing(json.loads(out))
    if argv[0] in ("alpha", "coverability"):
        assert out_progress == out


def test_limit_flags_sit_on_the_long_commands():
    # every long command takes --time-cap and --progress-interval, and
    # --generator-cap only where a loop counts candidate rows (a fold
    # step or an ordinary-power multiply); no other command takes them
    long_commands = {"symbolic", "alpha", "containment", "scan", "conjectures", "coverability"}
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    for flag in ("--time-cap", "--progress-interval"):
        assert {name for name, opts in options.items() if flag in opts} == long_commands, flag
    assert {name for name, opts in options.items() if "--generator-cap" in opts} == {
        "symbolic", "containment", "scan", "conjectures"
    }


def _first_call(argv):
    """(exit code, stdout) of argv as the first main() call of a fresh process."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "steinerideals", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def test_the_cli_imports_no_logging():
    # results leave by stdout, a --generators-out file or stderr; the
    # package keeps no logger, so importing the CLI loads no logging
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    probe = "import sys, steinerideals.cli; print('logging' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_main_shares_one_parser_that_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    plain = ("symbolic", "builtin:fano", "--source", "complement", "-m", "2")
    limited = (*plain, "--generator-cap", "20", "--time-cap", "60", "--progress-interval", "1e-9")
    first = {argv: _first_call(argv) for argv in (plain, limited)}
    assert first[plain][0] == 0 and first[limited][0] == 4
    # a call with every limit flag set, then one without them, in both
    # orders, with a call refused for an unknown flag in between
    for argv in (limited, plain, (*plain, "--no-such-flag"), plain, limited):
        if argv not in first:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2 and capsys.readouterr().out == ""
            continue
        code, out, _ = run(capsys, *argv)
        assert (code, out) == first[argv], argv


@pytest.mark.parametrize("argv", [("--help",), ("conjectures", "--help")])
def test_help_is_the_same_on_every_call(capsys, argv):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("usage: steinerideals")


def test_alpha_takes_no_generator_cap(capsys):
    # no loop under alpha counts candidate rows, so the flag would do nothing
    argv = ["alpha", "builtin:fano", "--source", "complement", "-M", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--generator-cap", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --generator-cap 1" in captured.err


def test_exponent_past_the_limit_exits_2(capsys, tmp_path):
    # m = EXPONENT_LIMIT + 1 is refused before the fold, before the alpha
    # search and before an alpha table or a scan computes its first
    # entry, and r past the ordinary-power limit before the audit
    # builds I^r; the time cap turns a search that would not end into
    # exit 4, so a regression fails here rather than hangs
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[1], [2, 3]]}))
    for argv in (
        ("symbolic", str(path), "--source", "cover", "-m", "1048577"),
        ("containment", "builtin:fano", "--source", "cover", "1", "1048577", "--audit"),
        ("containment", "builtin:fano", "--source", "complement", "1048577", "1", "--time-cap", "5"),
        ("containment", "builtin:fano", "--source", "cover", "1048577", "2", "--time-cap", "5"),
        ("alpha", "builtin:fano", "--source", "cover", "-M", "1048577", "--time-cap", "5"),
        ("scan", "builtin:fano", "--source", "cover", "--m-max", "1048577", "--r-max", "1",
         "--time-cap", "5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "exceeds limit 1048576" in err and "Traceback" not in err


def test_alpha_command_deterministic(capsys):
    args = ("alpha", "builtin:fano", "--source", "complement", "-M", "6")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["entries"] == {"1": 4, "2": 6, "3": 7, "4": 11, "5": 13, "6": 14}
    assert doc["waldschmidt_upper"] == "7/3"
    assert doc["waldschmidt_lower"] == "7/3"
    assert doc["attained"] == [3, 6]


def test_alpha_without_provenance(capsys):
    code, doc, _ = run_json(capsys, "alpha", "builtin:fano", "--source", "cover", "-M", "2")
    assert code == 0
    assert doc["entries"]["1"] == 3
    assert doc["waldschmidt_lower"] is None


# containment and scans


@pytest.mark.parametrize(("argv", "line"), CONTAINMENT_GOLDEN)
def test_containment_golden_stdout(capsys, argv, line):
    code, out, err = run(capsys, "containment", "builtin:fano", *argv)
    assert (code, masked(out), err) == (0, line + "\n", "")


def test_messy_cover_input_golden_output(capsys, tmp_path):
    path = tmp_path / "messy.json"
    path.write_text(json.dumps(MESSY_FANO_COVER))
    gens = tmp_path / "gens.txt"
    argv = ("symbolic", str(path), "--source", "cover", "-m", "3", "--generators-out", str(gens))
    line = MESSY_FANO_SYMBOLIC.format(json.dumps(str(gens)))
    assert run(capsys, *argv) == (0, line + "\n", "")
    assert hashlib.sha256(gens.read_bytes()).hexdigest() == MESSY_FANO_GENERATORS_SHA256
    for (command, *args), line in MESSY_FANO_GOLDEN.items():
        code, out, err = run(capsys, command, str(path), "--source", "cover", *args)
        assert (code, masked(out), err) == (0, line + "\n", "")


def test_containment_at_a_large_r_prints_the_degree_obstruction(capsys):
    # the witness check builds its suffix counts only for the levels its
    # search visits, not for all r + 1 of them
    t0 = time.monotonic()
    code, out, err = run(capsys, "containment", "builtin:fano", "--source", "cover", "2", "1000000")
    wall = time.monotonic() - t0
    line = (
        '{"m":2,"r":1000000,"slack":0,"holds":false,"witness":"2 2 2 0 0 0 0","alpha_m":6,'
        '"alpha_r":3000000,"omega_r":3000000,"method":"degree-obstruction"}'
    )
    assert (code, masked(out), err) == (0, line + "\n", "")
    assert wall < 1.0


def test_containment_holds(capsys):
    args = (
        "containment", "builtin:fano", "--source", "complement", "3", "1", "--slack", "3"
    )
    code, doc1, _ = run_json(capsys, *args)
    assert code == 0
    assert doc1["holds"] is True and doc1["witness"] is None
    _, doc2, _ = run_json(capsys, *args)
    assert without_timing(doc1) == without_timing(doc2)


def test_containment_failure_is_exit_zero(capsys):
    code, doc, _ = run_json(
        capsys, "containment", "builtin:fano", "--source", "cover", "3", "2"
    )
    assert code == 0
    assert doc["holds"] is False
    assert doc["witness"] == "1 1 1 1 1 1 1"


def test_containment_audit_flag(capsys):
    code, doc, _ = run_json(
        capsys, "containment", "builtin:fano", "--source", "complement", "4", "2", "--audit"
    )
    assert code == 0
    assert doc["holds"] is True and doc["method"] == "generator-scan"


def test_containment_reports_omega_of_the_pg23_complement(capsys, tmp_path):
    # PG(2,3) = S(2,4,13): its complement ideal has generators of degree
    # 10, above v - n = 9, so omega(I) is 10, with or without --audit
    path = tmp_path / "pg23.json"
    path.write_text(json.dumps(oracles.pg23().to_dict()))
    for audit in ((), ("--audit",)):
        code, doc, _ = run_json(
            capsys, "containment", str(path), "--source", "complement", "2", "1", *audit
        )
        assert code == 0
        assert doc["holds"] is True and doc["omega_r"] == 10


def test_containment_invalid_parameters(capsys):
    code, _, err = run(
        capsys, "containment", "builtin:fano", "--source", "complement", "0", "1"
    )
    assert code == 2


def test_design_documents_report_their_own_errors(capsys, tmp_path):
    # a document with "blocks" is read as a design only, so its own error
    # is reported, not the hypergraph schema's
    doc = builtin_fano().to_dict()
    del doc["t"]
    no_t = tmp_path / "no_t.json"
    no_t.write_text(json.dumps(doc))
    code, out, err = run(capsys, "coverability", str(no_t), "--colour", "2")
    assert (code, out, err) == (3, "", "error: bad design document: 't'\n")
    doc = builtin_fano().to_dict()
    doc["blocks"][0] = [1, 2, "x"]
    bad_block = tmp_path / "bad_block.json"
    bad_block.write_text(json.dumps(doc))
    code, out, err = run(capsys, "symbolic", str(bad_block), "--source", "cover", "-m", "1")
    assert (code, out, err) == (3, "", 'error: bad design document: "x" is not an integer\n')
    # int(7.9) is 7, which would validate the Fano blocks as S(2,3,7)
    path = tmp_path / "float_v.json"
    path.write_text(json.dumps(dict(builtin_fano().to_dict(), v=7.9)))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (3, "", "error: bad design document: 7.9 is not an integer\n")


def test_complement_source_needs_a_design(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, _, err = run(
        capsys, "containment", str(path), "--source", "complement", "2", "1"
    )
    assert code == 3 and "complement" in err


def test_library_errors_exit_2_with_their_class_name(capsys, tmp_path):
    # S(2,3,3) is a valid design whose one block is every 3-subset
    path = tmp_path / "s233.json"
    path.write_text(json.dumps({"v": 3, "n": 3, "t": 2, "blocks": [[1, 2, 3]]}))
    code, out, err = run(capsys, "symbolic", str(path), "--source", "complement", "-m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ComplementEmpty: ")


def test_an_empty_complement_exits_2_from_every_command(capsys, tmp_path):
    # a hypergraph with no edges is not a document any command reads
    path = tmp_path / "s233.json"
    path.write_text(json.dumps({"v": 3, "n": 3, "t": 2, "blocks": [[1, 2, 3]]}))
    for argv in (("complement",), ("alpha", "--source", "complement", "-M", "1")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: ComplementEmpty: S(2,3,3) uses every 3-subset")


def test_scan_jsonl(capsys):
    code, out, _ = run(
        capsys,
        "scan", "builtin:fano", "--source", "cover", "--m-max", "4", "--r-max", "2",
    )
    assert code == 0
    docs = jsonl(out)
    assert len(docs) == 6  # 5 cells plus the summary
    summary = docs[-1]["summary"]
    assert summary == {
        "m_max": 4, "r_max": 2, "cells": 5, "failures": 1, "max_ratio": "3/2"
    }
    failing = [d for d in docs[:-1] if not d["holds"]]
    assert [(d["m"], d["r"]) for d in failing] == [(3, 2)]


def test_scan_golden_stdout(capsys):
    code, out, _ = run(
        capsys,
        "scan", "builtin:fano", "--source", "cover", "--m-max", "6", "--r-max", "4",
    )
    assert code == 0
    assert masked(out).splitlines() == list(SCAN_FANO_COVER_M6_R4)


def test_scan_rejects_an_empty_box(capsys):
    code, out, err = run(
        capsys,
        "scan", "builtin:fano", "--source", "cover", "--m-max", "0", "--r-max", "2",
    )
    assert code == 2 and out == "" and "m_max" in err


# resource caps on the long commands


@pytest.mark.parametrize(
    "argv",
    [
        ("alpha", "{sts31}", "--source", "complement", "-M", "2"),
        ("containment", "{sts31}", "--source", "complement", "2", "1"),
    ],
)
def test_time_cap_stops_the_alpha_search(capsys, sts31_file, argv):
    # alpha(I^(2)) of the STS(31) complement takes well over a minute
    argv = [sts31_file if a == "{sts31}" else a for a in argv]
    t0 = time.monotonic()
    code, out, _ = run(capsys, *argv, "--time-cap", "0.3")
    wall = time.monotonic() - t0
    assert code == 4
    assert '"stage":"initial-degree"' in out
    doc = json.loads(out)
    assert doc["error"] == "resource-limit"
    assert set(doc["partial"]) == {"m", "degree_tried"}
    assert wall < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("symbolic", "-m", "1"),
        ("alpha", "-M", "1"),
        ("containment", "2", "1"),
        ("scan", "--m-max", "2", "--r-max", "1"),
        ("conjectures",),
    ],
)
def test_time_cap_stops_the_complement_enumeration(capsys, pg27_file, argv):
    # PG(2,7) has C(57,8) = 1,652,411,475 eight-subsets, far too many to
    # hold.  A small cap keeps the subsets enumerated before it, held in
    # memory, to about 1 M.
    t0 = time.monotonic()
    code, doc, _ = run_json(
        capsys, argv[0], pg27_file, "--source", "complement", *argv[1:], "--time-cap", "0.3"
    )
    wall = time.monotonic() - t0
    assert code == 4
    assert doc["error"] == "resource-limit" and doc["stage"] == "complement"
    assert doc["partial"]["subsets_total"] == 1_652_411_475
    assert set(doc["partial"]) == {"subsets_checked", "subsets_total"}
    assert wall < 2.0


@pytest.mark.slow
def test_time_cap_stops_the_support_normalization(capsys, pg25_file):
    # the PG(2,5) complement has 736,250 supports: enumerating them takes
    # about 0.3 s and normalizing them about 0.4 s, checked once per 2^16,
    # so the cap may lapse in either stage or in the fold that follows
    keys = {
        "complement": {"subsets_checked", "subsets_total"},
        "decomposition": {"supports_checked", "supports_total"},
        "symbolic-power": {"supports_folded", "supports_total", "kept"},
    }
    t0 = time.monotonic()
    code, doc, _ = run_json(
        capsys, "symbolic", pg25_file, "--source", "complement", "-m", "1", "--time-cap", "1"
    )
    wall = time.monotonic() - t0
    assert code == 4
    assert doc["error"] == "resource-limit" and set(doc["partial"]) == keys[doc["stage"]]
    assert wall < 2.5


def test_time_cap_stops_the_decomposition(capsys, monkeypatch):
    # the Fano complement's 28 supports are converted in one run, so the
    # deadline is made to lapse at the decomposition's first check
    real = steinerideals.Budget.check

    def check(self, stage, partial, candidate=0):
        if stage == "decomposition":
            self.deadline = time.monotonic() - 1.0
        real(self, stage, partial, candidate)

    monkeypatch.setattr(steinerideals.Budget, "check", check)
    code, doc, _ = run_json(
        capsys, "symbolic", "builtin:fano", "--source", "complement", "-m", "1", "--time-cap", "60"
    )
    assert code == 4
    assert doc["error"] == "resource-limit" and doc["stage"] == "decomposition"
    assert doc["partial"] == {"supports_checked": 0, "supports_total": 28}


def test_time_cap_stops_the_witness_search(capsys, monkeypatch):
    # the search confirms the Fano cover's (3, 2) witness in well under a
    # millisecond, so the deadline is made to lapse as the search begins
    real = steinerideals.Budget.check

    def check(self, stage, partial, candidate=0):
        if stage == "witness-enumeration":
            self.deadline = time.monotonic() - 1.0
        real(self, stage, partial, candidate)

    monkeypatch.setattr(steinerideals.Budget, "check", check)
    code, doc, _ = run_json(
        capsys, "containment", "builtin:fano", "--source", "cover", "3", "2", "--time-cap", "60"
    )
    assert code == 4
    assert doc["error"] == "resource-limit" and doc["stage"] == "witness-enumeration"
    assert doc["partial"] == {
        "m": 3, "r": 2, "slack": 0, "multisets_checked": 0, "multisets_total": 28
    }


def test_time_cap_stops_the_partition_search(capsys, sts31_file):
    # the weak chromatic number of PG(4,2) = STS(31) takes 46-49 s
    # (one process, 2-core x86-64 host, Python 3.11)
    t0 = time.monotonic()
    code, doc, _ = run_json(capsys, "coverability", sts31_file, "--chromatic", "--time-cap", "0.3")
    wall = time.monotonic() - t0
    assert code == 4
    assert doc["error"] == "resource-limit" and doc["stage"] == "partition-search"
    assert set(doc["partial"]) == {"mode", "classes", "nodes"}
    assert doc["partial"]["mode"] == "colour" and doc["partial"]["nodes"] > 0
    assert wall < 2.0
    code, _, err = run(capsys, "coverability", sts31_file, "--cover", "2", "--time-cap", "0")
    assert code == 2 and "time cap" in err


# resurgence region


@pytest.mark.parametrize("argv", RESURGENCE_REGION_GOLDEN)
def test_resurgence_region_golden_stdout(capsys, argv):
    line = RESURGENCE_REGION_GOLDEN[argv]
    assert run(capsys, "resurgence-region", *argv) == (0, line + "\n", "")


def test_resurgence_region_command(capsys):
    code, doc, _ = run_json(capsys, "resurgence-region", "3", "3", "2", "2")
    assert code == 0
    assert doc["degenerate"] is False
    assert doc["r_max"] == 9
    assert doc["s_max_slope"] == "3/2"
    assert doc["s_max_intercept"] == "9/2"
    assert doc["s_max"]["9"] == "18"
    assert len(doc["s_max"]) == 9


def test_resurgence_region_degenerate(capsys):
    code, doc, _ = run_json(capsys, "resurgence-region", "3", "3", "2", "3/2")
    assert code == 0 and doc["degenerate"] is True


def test_resurgence_region_invalid(capsys):
    assert run(capsys, "resurgence-region", "3", "3", "1", "2")[0] == 2
    assert run(capsys, "resurgence-region", "3", "3", "abc", "2")[0] == 3


# conjectures


def test_conjectures_applicable_with_provenance(capsys):
    code, out, err = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "complement", "--r-hi", "2",
    )
    assert code == 0
    docs = jsonl(out)
    assert [d["conjecture"] for d in docs] == [
        "stable-harbourne", "harbourne-huneke-1", "harbourne-huneke-2",
        "els", "chudnovsky", "demailly",
    ]
    assert all(d["all_hold"] for d in docs)
    assert docs[0]["threshold"] == "7/2"


def test_conjectures_golden_stdout(capsys):
    code, out, _ = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "complement", "--r-hi", "2",
    )
    assert code == 0
    assert out.splitlines() == list(CONJECTURES_FANO_COMPLEMENT_R2)


def test_conjectures_golden_stdout_without_provenance(capsys):
    code, out, _ = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "cover", "--r-hi", "2", "--ambient-dim", "3",
    )
    assert code == 0
    assert out.splitlines() == list(CONJECTURES_FANO_COVER_R2_N3)


@pytest.mark.parametrize("family", ["els", "stable-harbourne", "harbourne-huneke-1"])
def test_conjectures_reject_an_empty_r_range(capsys, family):
    code, out, err = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "complement",
        "--which", family, "--r-lo", "3", "--r-hi", "2",
    )
    assert code == 2
    assert out == ""
    assert "need 1 <= r_lo <= r_hi" in err


@pytest.mark.parametrize(
    ("flag", "message"),
    [
        ("--ambient-dim", "error: ambient_dim must be >= 1\n"),
        ("--h-max", "error: h_max must be >= 1\n"),
        ("-m", "error: m must be >= 1\n"),
    ],
    ids=["ambient-dim", "h-max", "m"],
)
def test_conjectures_print_no_verdict_before_a_bad_parameter(capsys, monkeypatch, flag, message):
    # the alpha bounds' parameters are checked before any family runs, so
    # a refused value costs no alpha search and no fold
    calls = []
    for name in ("initial_degree", "symbolic_power"):
        fn = getattr(containment, name)
        monkeypatch.setattr(
            containment, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    argv = ("conjectures", "builtin:fano", "--source", "complement", flag)
    assert run(capsys, *argv, "0") == (2, "", message)
    assert calls == []
    # the same run with a valid value does call them
    assert run(capsys, *argv, "1")[0] == 0
    assert set(calls) == {"initial_degree", "symbolic_power"}


def test_a_capped_conjectures_run_prints_only_the_resource_limit_report(capsys):
    # stable-harbourne holds under the cap; a later family's fold passes it
    code, out, _ = run(
        capsys, "conjectures", "builtin:fano", "--source", "complement", "--generator-cap", "20"
    )
    assert (code, out) == (
        4,
        '{"error":"resource-limit","stage":"symbolic-power",'
        '"partial":{"supports_folded":0,"supports_total":28,"kept":7}}\n',
    )


def test_conjectures_skips_alpha_bounds_without_ambient(capsys):
    code, out, err = run(
        capsys, "conjectures", "builtin:fano", "--source", "cover", "--r-hi", "1"
    )
    assert code == 0
    assert len(jsonl(out)) == 4
    assert "skipping chudnovsky/demailly" in err


def test_conjectures_single_family(capsys):
    code, out, _ = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "complement",
        "--which", "demailly", "-m", "3", "--h-max", "3",
    )
    assert code == 0
    (doc,) = jsonl(out)
    assert doc["conjecture"] == "demailly"
    assert doc["instances"][0]["params"]["rhs"] == "9/5"
    code, out, _ = run(
        capsys,
        "conjectures", "builtin:fano", "--source", "complement",
        "--which", "els", "--r-hi", "2",
    )
    (doc,) = jsonl(out)
    assert doc["conjecture"] == "els" and doc["all_hold"]
    assert [i["params"]["r"] for i in doc["instances"]] == [1, 2]


# reproduce


def test_reproduce_list(capsys):
    code, out, _ = run(capsys, "reproduce", "--list")
    assert code == 0
    ids = out.strip().splitlines()
    assert len(ids) == 16
    assert "alpha-fano" in ids and "resurgence-region-example" in ids


def test_reproduce_single_claim(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "alpha-fano")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha-fano\tPASS")
    assert lines[-1] == "summary\t1/1 passed"


def test_reproduce_unknown_claim(capsys):
    code, _, err = run(capsys, "reproduce", "--only", "nope")
    assert code == 3 and "unknown claim" in err


def test_hh_fano_fails_when_the_budget_stops_it(monkeypatch):
    real_check = ContainmentEngine.check
    calls = []

    def check(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ResourceLimit("membership-scan", "time budget exhausted", {"generators_checked": 5})
        return real_check(self, *args, **kwargs)

    monkeypatch.setattr(ContainmentEngine, "check", check)
    ((cid, _, ok, detail, _),) = run_claims("hh-fano")
    assert cid == "hh-fano" and len(calls) == 2
    assert ok is False
    assert "generators_checked" in detail


def test_reproduce_all_claims_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.splitlines() == list(REPRODUCE_STDOUT)


def test_reproduce_prints_each_claims_seconds_to_stderr(capsys):
    code, out, err = run(capsys, "reproduce")
    assert code == 0
    ids = [line.split("\t")[0] for line in out.splitlines()[:-1]]
    timings = [line.split("\t") for line in err.splitlines()]
    assert [cid for cid, _ in timings] == ids == claim_ids()
    assert all(re.fullmatch(r"\d+\.\d{3} s", seconds) for _, seconds in timings)


@pytest.mark.parametrize("cid", claim_ids())
def test_each_claim_passes_on_its_own(cid):
    ((got, _, ok, detail, _),) = run_claims(cid)
    assert got == cid and ok, detail


def record_claim_work(monkeypatch):
    """Log each (decomposition, m) the engines fold or search the alpha of.

    Every search for alpha(I^(m)), on any path, is one 0-first search, so
    searching one initial degree twice logs some (decomposition, m)
    twice.  A largest-first search finds a witness at a known alpha and
    is not logged.
    """
    folds, alphas = [], []
    fold, search = containment.symbolic_power, symbolic._search_total

    def logged_search(P, m, degree, budget, largest_first=False, *, floor):
        if not largest_first:
            alphas.append((P, m))
        return search(P, m, degree, budget, largest_first, floor=floor)

    monkeypatch.setattr(
        containment, "symbolic_power", lambda P, m, **kw: folds.append((P, m)) or fold(P, m, **kw)
    )
    monkeypatch.setattr(symbolic, "_search_total", logged_search)
    return folds, alphas


def test_one_run_of_the_claims_folds_each_power_and_searches_each_initial_degree_once(monkeypatch):
    folds, alphas = record_claim_work(monkeypatch)
    assert all(ok for _, _, ok, _, _ in run_claims())
    assert folds and len(set(folds)) == len(folds)
    assert alphas and len(set(alphas)) == len(alphas)


def test_separate_runs_of_the_claims_share_nothing(monkeypatch):
    folds, alphas = record_claim_work(monkeypatch)
    list(run_claims())
    first = list(folds), list(alphas)
    folds.clear()
    alphas.clear()
    list(run_claims())
    assert (folds, alphas) == first


# the benchmark tracer wraps the package's public functions and engine
# methods by name; it patches globally, so it runs in its own process
TRACER_SMOKE = """
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_metrics
from steinerideals import cli

tracer = Tracer()
tracer.install()
code = cli.main(["conjectures", "builtin:fano", "--source", "complement", "--r-hi", "1"])
metrics = layer_metrics(tracer.spans, 0.0, 1.0)
print(code, metrics["containment.check.calls"])
"""


def test_benchmark_tracer_wraps_the_package():
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_SMOKE, str(root / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, calls = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert int(calls) > 0


def test_readme_library_example_runs():
    # the README's one python block documents the library API
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    # every steinerideals line of the README's "Command line" block exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## Command line.*?```sh\n(.*?)```", readme, re.S)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("steinerideals ")]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_every_public_name_is_used_or_documented():
    # each exported name is used by the CLI, the claims or the benchmark,
    # or documented in the README; a name found in none of them is dead API
    root = Path(__file__).resolve().parents[1]
    files = [root / "src/steinerideals/cli.py", root / "src/steinerideals/claims.py", root / "README.md"]
    files += sorted((root / "perfbench").glob("*.py"))
    text = "\n".join(f.read_text() for f in files)
    unused = [name for name in steinerideals.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_every_public_method_is_used_or_documented():
    # each public method or property of an exported class is called by the
    # package or the benchmark, or named in a code span of the README;
    # dataclass fields, dunders and enum members are data, not methods
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    code = "\n".join(f.read_text() for f in files)
    spans = "\n".join(re.findall(r"`([^`\n]+)`", (root / "README.md").read_text()))
    unused = []
    for cls in (getattr(steinerideals, name) for name in steinerideals.__all__):
        if not isinstance(cls, type):
            continue
        data = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        if issubclass(cls, enum.Enum):
            data |= set(cls.__members__)
        for name in vars(cls):
            if name.startswith("_") or name in data:
                continue
            if not re.search(rf"\.{name}\b", code) and not re.search(rf"\b{name}\b", spans):
                unused.append(f"{cls.__name__}.{name}")
    assert unused == []
