"""Design validation, hypergraph partitions, and the JSON loaders."""

import json
import re
import time
from random import Random

import numpy as np
import pytest

from steinerideals import (
    BlockSizeMismatch,
    Budget,
    ComplementEmpty,
    CountMismatch,
    FormatError,
    Hypergraph,
    Monomial,
    MonomialIdeal,
    Partition,
    PrimeDecomposition,
    ResourceLimit,
    TSubsetMultiplyCovered,
    TSubsetUncovered,
    Uncolourable,
    builtin_fano,
    builtin_sqs8,
    chromatic_number,
    complement_blocks,
    complement_ideal,
    is_colourable,
    is_coverable,
    min_edge_size,
    validate_steiner,
)
from steinerideals import designs
from steinerideals.designs import (
    FANO_BLOCKS,
    design_from_dict,
    hypergraph_from_dict,
    load_design,
    resolve_input,
)

import oracles


# validation


def test_builtin_fano_validates():
    S = builtin_fano()
    assert (S.v, S.n, S.t) == (7, 3, 2)
    assert S.block_count == 7
    assert len(complement_blocks(S)) == 28


def test_builtin_sqs8_validates_and_is_complement_closed():
    S = builtin_sqs8()
    assert (S.v, S.n, S.t) == (8, 4, 3)
    assert S.block_count == 14
    full = set(range(1, 9))
    for b in S.blocks:
        assert tuple(sorted(full - set(b))) in S.blocks


def test_alternative_triple_system_validates():
    blocks = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    S = validate_steiner(7, 3, 2, blocks)
    assert S.block_count == 7


def test_tiny_systems_validate():
    S = validate_steiner(4, 2, 1, [(1, 2), (3, 4)])
    assert complement_blocks(S) == ((1, 3), (1, 4), (2, 3), (2, 4))
    # every 3-subset of a 3-set is the single block
    assert validate_steiner(3, 3, 2, [(1, 2, 3)]).block_count == 1


def test_deleted_block_raises_uncovered_pair():
    blocks = [b for b in FANO_BLOCKS if b != (1, 5, 6)]
    with pytest.raises(TSubsetUncovered) as ei:
        validate_steiner(7, 3, 2, blocks)
    assert ei.value.tsubset == (1, 5)


def test_overlapping_blocks_raise_multiply_covered():
    with pytest.raises(TSubsetMultiplyCovered) as ei:
        validate_steiner(4, 3, 2, [(1, 2, 3), (1, 2, 4)])
    assert ei.value.tsubset == (1, 2)
    assert ei.value.blocks == ((1, 2, 3), (1, 2, 4))


def test_wrong_block_size_and_range():
    with pytest.raises(BlockSizeMismatch):
        validate_steiner(7, 3, 2, FANO_BLOCKS[:-1] + ((1, 5, 6, 7),))
    with pytest.raises(BlockSizeMismatch):
        validate_steiner(7, 3, 2, FANO_BLOCKS[:-1] + ((1, 5, 9),))


def test_parameter_order_enforced():
    with pytest.raises(ValueError):
        validate_steiner(7, 3, 3, FANO_BLOCKS)
    with pytest.raises(ValueError):
        validate_steiner(2, 3, 1, [(1, 2, 3)])


def test_impossible_parameters_raise_count_mismatch():
    # C(8,2)/C(3,2) = 28/3 is not an integer, so no S(2,3,8) exists
    with pytest.raises(CountMismatch) as ei:
        validate_steiner(8, 3, 2, [(1, 2, 3)])
    assert ei.value.expected == "28/3"


def test_a_repeated_block_covers_its_t_subsets_twice():
    for blocks in (FANO_BLOCKS[:1] + FANO_BLOCKS[:1], FANO_BLOCKS + FANO_BLOCKS[:1]):
        with pytest.raises(TSubsetMultiplyCovered) as ei:
            validate_steiner(7, 3, 2, blocks)
        assert ei.value.tsubset == (1, 2)
        assert ei.value.blocks == ((1, 2, 3), (1, 2, 3))


def test_complement_blocks_refuses_an_empty_complement():
    # the one 3-subset of {1,2,3} is the block of this S(2,3,3)
    with pytest.raises(ComplementEmpty, match=r"^S\(2,3,3\) uses every 3-subset"):
        complement_blocks(validate_steiner(3, 3, 2, [(1, 2, 3)]))


def test_complement_blocks_checks_the_budget_once_per_65536_subsets():
    seen = []

    def stop_at_third_check(stage, partial):
        seen.append((stage, dict(partial)))
        if len(seen) == 3:
            raise ResourceLimit(stage, "stop", partial)

    # PG(2,7) has C(57,8) = 1,652,411,475 eight-subsets; the sink stops
    # the enumeration after two runs of 2^16
    with pytest.raises(ResourceLimit) as ei:
        complement_ideal(oracles.pg27(), budget=Budget(progress=stop_at_third_check))
    assert ei.value.stage == "complement"
    assert seen == [
        ("complement", {"subsets_checked": k << 16, "subsets_total": 1_652_411_475}) for k in range(3)
    ]
    expired = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(ResourceLimit) as ei:
        complement_blocks(builtin_fano(), budget=expired)
    assert (ei.value.stage, ei.value.partial) == ("complement", {"subsets_checked": 0, "subsets_total": 35})
    # fewer than 2^16 subsets are one run and one check
    seen.clear()
    comp = complement_blocks(builtin_fano(), budget=Budget(progress=lambda *a: seen.append(a)))
    assert seen == [("complement", {"subsets_checked": 0, "subsets_total": 35})]
    assert list(comp) == sorted(comp) and len(comp) == 28


# hypergraphs and partitions


def test_hypergraph_normalization():
    H = Hypergraph(4, ((3, 2, 1), (4, 3), (2, 1, 3)))
    assert H.edges == ((3, 4), (1, 2, 3))
    assert min_edge_size(H) == 2


def test_hypergraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 2),))  # vertex 3 uncovered
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 2, 4),))
    with pytest.raises(ValueError):
        Hypergraph(3, ())
    with pytest.raises(ValueError):
        Hypergraph(0, ((1,),))


def test_partition_round_trip():
    p = Partition(((3, 1), (2,), (4,)))
    assert p.classes == ((1, 3), (2,), (4,))
    assert Partition.from_assignment([1, 2, 1, 3]) == p
    with pytest.raises(ValueError):
        Partition(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Partition(((1, 2), (4,)))


def test_fano_chromatic_number_and_witness():
    H = builtin_fano().hypergraph()
    assert chromatic_number(H) == 3
    w = is_colourable(H, 3)
    assert w.classes == ((1, 2, 4, 5), (3, 6), (7,))
    assert is_colourable(H, 2) is None


def test_fano_not_coverable_at_2_or_3():
    H = builtin_fano().hypergraph()
    assert is_coverable(H, 2) is None
    assert is_coverable(H, 3) is None
    # c beyond the smallest edge is impossible without search
    assert is_coverable(H, 4) is None
    assert is_coverable(H, 8) is None


def test_sqs8_partition_facts():
    H = builtin_sqs8().hypergraph()
    assert chromatic_number(H) == 2
    assert is_coverable(H, 3) is None
    two = is_coverable(H, 2)
    assert two is not None
    for e in H.edges:
        for c in two.classes:
            assert set(e) & set(c)


def test_cover_with_one_class_is_trivial():
    H = builtin_fano().hypergraph()
    assert is_coverable(H, 1).classes == ((1, 2, 3, 4, 5, 6, 7),)
    with pytest.raises(ValueError):
        is_coverable(H, 0)
    with pytest.raises(ValueError):
        is_colourable(H, 0)


def test_singleton_edge_blocks_colouring():
    H = Hypergraph(2, ((1,), (1, 2)))
    assert is_colourable(H, 2) is None
    with pytest.raises(Uncolourable):
        chromatic_number(H)


def test_witnesses_are_deterministic():
    H = builtin_sqs8().hypergraph()
    assert is_colourable(H, 2) == is_colourable(H, 2)
    assert is_coverable(H, 2) == is_coverable(H, 2)


@pytest.mark.parametrize(
    ("H", "k", "mode", "witness"),
    [
        # Steiner systems are vertex-regular
        (builtin_sqs8().hypergraph(), 2, "colour", ((1, 2, 3, 5), (4, 6, 7, 8))),
        (builtin_fano().hypergraph(), 3, "colour", ((1, 2, 4, 5), (3, 6), (7,))),
        # vertex 2 has the most edges
        (Hypergraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (2, 5))), 2, "colour", ((1, 3, 5), (2, 4))),
        (Hypergraph(5, ((1, 2, 3), (2, 4, 5), (2, 3, 5))), 2, "cover", ((1, 2, 4), (3, 5))),
    ],
)
def test_one_natural_order_search_gives_the_canonical_witness(monkeypatch, H, k, mode, witness):
    # the witness is the least label vector, regular hypergraph or not
    real = designs._search_partition
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(designs, "_search_partition", counting)
    search = is_colourable if mode == "colour" else is_coverable
    assert search(H, k) == Partition(witness)
    assert len(calls) == 1


def _check_cover(H, part, c):
    assert len(part.classes) == c
    for e in H.edges:
        for cl in part.classes:
            assert set(e) & set(cl), (e, part)


def _check_colour(H, part, m):
    assert len(part.classes) <= m
    for e in H.edges:
        assert not any(set(e) <= set(cl) for cl in part.classes), (e, part)


def test_partition_searches_match_brute_force():
    rng = Random(20260822)
    for _ in range(40):
        H = oracles.random_hypergraph(rng)
        for k in (2, 3):
            cov = is_coverable(H, k)
            col = is_colourable(H, k)
            if k <= min_edge_size(H):
                assert (cov is not None) == oracles.brute_coverable(
                    H.vertex_count, H.edges, k
                )
            assert (col is not None) == oracles.brute_colourable(
                H.vertex_count, H.edges, k
            )
            if cov is not None:
                _check_cover(H, cov, k)
                # a partition meeting every edge twice over is never monochromatic
                assert col is not None
            if col is not None:
                _check_colour(H, col, k)


def _searched(search, H, k, mode):
    """The search's answer and the last ``nodes`` its budget checks report."""
    seen = {}
    found = search(H, k, mode, Budget(progress=lambda stage, partial: seen.update(partial)))
    return found, seen["nodes"]


def test_partition_search_matches_the_reference_search_node_for_node():
    # the one per-edge test prunes exactly where the reference's full
    # edge rescans and its cover-only class cut do, so both walk one tree
    rng = Random(20261019)
    ladder = (builtin_fano, builtin_sqs8, oracles.ag23, oracles.cyclic_sts13, oracles.pg23, oracles.pg24)
    graphs = [design().hypergraph() for design in ladder]
    graphs += [oracles.random_hypergraph(rng, max_vertices=rng.choice((8, 12))) for _ in range(400)]
    for H in graphs:
        for mode in ("colour", "cover"):
            for k in range(1, 5):
                assert _searched(designs._search_partition, H, k, mode) == _searched(
                    oracles.search_partition, H, k, mode
                ), (H, k, mode)


@pytest.mark.slow
def test_partition_search_matches_the_reference_on_sts31():
    # the 3-colouring of PG(4,2) = STS(31) is refuted after 181,933 nodes
    H = oracles.pg42().hypergraph()
    ours = _searched(designs._search_partition, H, 3, "colour")
    assert ours == _searched(oracles.search_partition, H, 3, "colour") == (None, 181933)


def test_chromatic_number_monotone_under_edge_removal():
    rng = Random(7)
    for _ in range(25):
        H = oracles.random_hypergraph(rng)
        if len(H.edges) < 2:
            continue
        chi = chromatic_number(H)
        for drop in range(len(H.edges)):
            rest = H.edges[:drop] + H.edges[drop + 1 :]
            covered = set().union(*map(set, rest)) if rest else set()
            if covered != set(range(1, H.vertex_count + 1)):
                continue
            assert chromatic_number(Hypergraph(H.vertex_count, rest)) <= chi


def test_partition_searches_are_not_bounded_by_the_recursion_limit():
    # the search visits one node per vertex on the way down, so a path
    # of 5,000 vertices is deeper than Python's default recursion limit
    H = Hypergraph(5000, tuple((i, i + 1) for i in range(1, 5000)))
    alternate = Partition((tuple(range(1, 5001, 2)), tuple(range(2, 5001, 2))))
    assert is_colourable(H, 2) == alternate
    assert is_coverable(H, 2) == alternate
    assert chromatic_number(H) == 2


def test_partition_searches_obey_the_budget():
    H = builtin_fano().hypergraph()
    expired = Budget(deadline=time.monotonic() - 1.0)
    for search, k, mode in (
        (is_coverable, 2, "cover"),
        (is_colourable, 2, "colour"),
        (chromatic_number, None, "colour"),
    ):
        with pytest.raises(ResourceLimit) as ei:
            search(H, budget=expired) if k is None else search(H, k, budget=expired)
        exc = ei.value
        assert exc.stage == "partition-search"
        assert exc.partial == {"mode": mode, "classes": k or 1, "nodes": 1}
    # answers that need no search do not check
    assert is_coverable(H, 1, budget=expired) is not None
    assert is_coverable(H, 4, budget=expired) is None
    assert chromatic_number(H, budget=Budget(deadline=time.monotonic() + 60)) == 3


# loaders


def test_design_document_round_trip(tmp_path):
    S = builtin_fano()
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(S.to_dict()))
    assert load_design(path) == S
    assert design_from_dict(S.to_dict()) == S


def test_design_document_errors():
    with pytest.raises(FormatError):
        design_from_dict({"v": 7, "n": 3, "blocks": []})  # missing t
    with pytest.raises(FormatError):
        design_from_dict({"v": "seven", "n": 3, "t": 2, "blocks": []})
    # well-formed document, mathematically invalid design: DesignError
    doc = {"v": 7, "n": 3, "t": 2, "blocks": [list(b) for b in FANO_BLOCKS[:-1]]}
    with pytest.raises(TSubsetUncovered):
        design_from_dict(doc)


def test_hypergraph_document_round_trip_and_errors(tmp_path):
    H = builtin_fano().hypergraph()
    path = tmp_path / "h.json"
    path.write_text(json.dumps(H.to_dict()))
    assert resolve_input(str(path)) == (None, H)
    with pytest.raises(FormatError):
        hypergraph_from_dict({"vertices": 3})
    with pytest.raises(FormatError):
        hypergraph_from_dict({"vertices": 3, "edges": [[1, 2, 4]]})


def _fano_doc(**changes):
    return {"v": 7, "n": 3, "t": 2, "blocks": [list(b) for b in FANO_BLOCKS], **changes}


def _fano_doc_with_first_block(block):
    return _fano_doc(blocks=[block] + [list(b) for b in FANO_BLOCKS[1:]])


@pytest.mark.parametrize(
    "doc, bad",
    [
        (_fano_doc(v=7.9), "7.9"),
        (_fano_doc(n="3"), '"3"'),
        (_fano_doc(t=True), "true"),
        (_fano_doc_with_first_block([1, 2, 3.7]), "3.7"),
        (_fano_doc_with_first_block([1, "2", 3]), '"2"'),
        (_fano_doc_with_first_block([True, 2, 3]), "true"),
    ],
)
def test_design_documents_take_only_json_integers(doc, bad):
    # int() would read each of these as an integer, some as the Fano plane
    with pytest.raises(FormatError, match=f"^bad design document: {re.escape(bad)} is not an integer$"):
        design_from_dict(doc)


@pytest.mark.parametrize(
    "doc, bad",
    [
        ({"vertices": 3.0, "edges": [[1, 2], [2, 3]]}, "3.0"),
        ({"vertices": "3", "edges": [[1, 2], [2, 3]]}, '"3"'),
        ({"vertices": 3, "edges": [[True, 2], [2, 3]]}, "true"),
        ({"vertices": 3, "edges": [[1, 2.5], [2, 3]]}, "2.5"),
        ({"vertices": 3, "edges": [[1, 2], ["2", 3]]}, '"2"'),
    ],
)
def test_hypergraph_documents_take_only_json_integers(doc, bad):
    with pytest.raises(FormatError, match=f"^bad hypergraph document: {re.escape(bad)} is not an integer$"):
        hypergraph_from_dict(doc)


# Each builder puts x where the integer k belongs: an exponent, an edge's
# vertex, each Fano block's point k, a support's variable, a partition
# class's vertex.  Then come the error a non-integer x raises and what of
# x its message shows: the Monomial's is operator.index's own TypeError,
# which names x's type; the others name the edge, block, support or
# partition classes that hold x.
_BUILDERS = {
    "Monomial": (lambda x, k: Monomial((x, 2)), TypeError, lambda x: type(x).__name__),
    "Hypergraph": (lambda x, k: Hypergraph(3, ((x, 3), (1, 2), (2, 3))), ValueError, repr),
    "validate_steiner": (
        lambda x, k: validate_steiner(7, 3, 2, [[x if p == k else p for p in b] for b in FANO_BLOCKS]),
        BlockSizeMismatch,
        repr,
    ),
    "PrimeDecomposition": (lambda x, k: PrimeDecomposition(3, [(x, 3)]), ValueError, repr),
    "Partition": (lambda x, k: Partition(((x, 3), (3 - k,))), ValueError, repr),
    "MonomialIdeal": (lambda x, k: MonomialIdeal(2, [[x, 0]]), TypeError, lambda x: type(x).__name__),
    "MonomialIdeal.from_rows": (
        lambda x, k: MonomialIdeal.from_rows(2, [[x, 0], [0, 3]]),
        TypeError,
        lambda x: type(x).__name__,
    ),
}


@pytest.mark.parametrize("value, k", [(1.5, 1), ("2", 2), (2.0, 2)], ids=["float", "string", "whole-float"])
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_constructors_take_only_integers(name, value, k):
    # int() would read 1.5 as 1 and "2" and 2.0 as 2, so each of these
    # would build the object that k builds; Python and numpy integers do
    build, error, shown = _BUILDERS[name]
    assert build(np.int64(k), k) == build(np.int32(k), k) == build(k, k)
    with pytest.raises(error) as ei:
        build(value, k)
    assert shown(value) in str(ei.value)


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(FormatError):
        load_design(bad)
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_design(listdoc)
    with pytest.raises(FormatError):
        load_design(tmp_path / "missing.json")


def test_resolve_design():
    fano, sqs8 = builtin_fano(), builtin_sqs8()
    assert resolve_input("builtin:fano") == (fano, fano.hypergraph())
    assert resolve_input("builtin:sqs8") == (sqs8, sqs8.hypergraph())
    with pytest.raises(FormatError):
        resolve_input("builtin:unknown")
