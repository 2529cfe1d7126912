"""Design validation, hypergraph partitions, and the JSON loaders."""

import json
import time
from random import Random

import pytest

from steinerideals import (
    BlockSizeMismatch,
    Budget,
    CountMismatch,
    FormatError,
    Hypergraph,
    Partition,
    ResourceLimit,
    TSubsetMultiplyCovered,
    TSubsetUncovered,
    Uncolourable,
    builtin_fano,
    builtin_sqs8,
    chromatic_number,
    complement_blocks,
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
    load_hypergraph,
    resolve_design,
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


def test_duplicate_blocks_are_collapsed_before_counting():
    with pytest.raises(TSubsetUncovered):
        validate_steiner(7, 3, 2, FANO_BLOCKS[:1] + FANO_BLOCKS[:1])


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
    assert Partition.from_assignment(p.assignment_vector()) == p
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
    ("H", "k", "mode", "searches"),
    [
        # a Steiner system is vertex-regular: degree order is natural order
        (builtin_sqs8().hypergraph(), 2, "colour", 1),
        (builtin_fano().hypergraph(), 3, "colour", 1),
        # vertex 2 has the most edges, so the decision pass starts there
        (Hypergraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (2, 5))), 2, "colour", 2),
        (Hypergraph(5, ((1, 2, 3), (2, 4, 5), (2, 3, 5))), 2, "cover", 2),
    ],
)
def test_witness_search_runs_once_when_the_orders_coincide(monkeypatch, H, k, mode, searches):
    canonical = Partition.from_assignment(
        designs._search_partition(H, k, mode, range(H.vertex_count))
    )
    real = designs._search_partition
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(designs, "_search_partition", counting)
    search = is_colourable if mode == "colour" else is_coverable
    assert search(H, k) == canonical
    assert len(calls) == searches


def _check_cover(H, part, c):
    assert part.class_count == c
    for e in H.edges:
        for cl in part.classes:
            assert set(e) & set(cl), (e, part)


def _check_colour(H, part, m):
    assert part.class_count <= m
    vec = part.assignment_vector()
    for e in H.edges:
        assert len({vec[x - 1] for x in e}) > 1, (e, part)


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
    assert load_hypergraph(path) == H
    with pytest.raises(FormatError):
        hypergraph_from_dict({"vertices": 3})
    with pytest.raises(FormatError):
        hypergraph_from_dict({"vertices": 3, "edges": [[1, 2, 4]]})


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
    assert resolve_design("builtin:fano") == builtin_fano()
    assert resolve_design("builtin:sqs8") == builtin_sqs8()
    with pytest.raises(FormatError):
        resolve_design("builtin:unknown")
