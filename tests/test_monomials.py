"""Monomial ideal arithmetic cross-checked against exhaustive oracles."""

import io
import itertools
import re
import time
import traceback
from dataclasses import FrozenInstanceError
from random import Random

import numpy as np
import pytest

from steinerideals import (
    Budget,
    FormatError,
    MixedAmbient,
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    ResourceLimit,
    dump_monomials,
    load_monomials,
    member_of_power,
    multiply,
    power,
    symbolic_power,
)
from steinerideals import bitsets, monomials
from steinerideals.budget import DEFAULT_GENERATOR_CAP
from steinerideals.bitsets import (
    _canonical_order,
    _minimal_rows,
    _surviving_lifts,
    _table_bits,
    _threshold_table,
    _undominated,
)
from steinerideals.monomials import EXPONENT_LIMIT, _greedy_members

import oracles


def M(*exps):
    return Monomial(tuple(exps))


def test_monomial_basics():
    m = M(1, 0, 2)
    assert m.degree == 3
    assert m.variable_count == 3
    assert str(m) == "x1*x3^2"
    assert m.exponent_string() == "1 0 2"
    assert str(M(0, 0, 0)) == "1"


def test_monomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        M(1, -1)
    with pytest.raises(OverflowError):
        M(EXPONENT_LIMIT + 1)


def test_from_rows_minimalizes_in_canonical_order():
    I = MonomialIdeal.from_rows(2, [[2, 0], [1, 1], [2, 1], [0, 3]])
    # degree ascending, then exponent tuple descending
    assert I.generators == (M(2, 0), M(1, 1), M(0, 3))
    assert I.min_degree() == 2 and I.max_degree() == 3
    assert MonomialIdeal.from_rows(2, [[0, 0], [1, 2]]).is_unit
    for empty in ([], np.zeros((0, 4)), np.zeros(0, dtype=np.int64)):
        Z = MonomialIdeal.from_rows(4, empty)
        assert Z.is_zero and Z == MonomialIdeal.zero(4)


def test_from_rows_rejects_rows_of_the_wrong_shape():
    # only an empty input is reshaped; a wrong width is never read as
    # rows of another width, and out-of-range entries fail before the sort
    for bad, err in (
        (np.array([[1, 0, 0], [0, 1, 0]]), "shape (2, 3) for 2 variables"),
        (np.array([[1], [0], [0], [1]]), "shape (4, 1) for 2 variables"),
        (np.array([1, 0]), "shape (2,) for 2 variables"),
        (np.array([[[1, 0]]]), "shape (1, 1, 2) for 2 variables"),
        (np.array([[1, -1], [0, 2]]), "negative exponent"),
    ):
        with pytest.raises(ValueError, match=re.escape(err)):
            MonomialIdeal.from_rows(2, bad)
    with pytest.raises(OverflowError):
        MonomialIdeal.from_rows(2, [[EXPONENT_LIMIT + 1, 0], [0, 1]])


def _assert_canonical(I):
    """rows is a read-only int64 antichain in canonical order."""
    assert I.rows.dtype == np.int64 and I.rows.shape == (I.generator_count, I.variable_count)
    assert not I.rows.flags.writeable
    assert list(map(tuple, I.rows.tolist())) == _reference_minimal(I.rows)
    assert I.generators == tuple(Monomial(tuple(r)) for r in I.rows.tolist())


def test_rows_are_the_read_only_stored_form():
    src = np.array([[0, 3], [2, 0], [1, 1], [2, 1]])
    I = MonomialIdeal.from_rows(2, src)
    assert I.rows.tolist() == [[2, 0], [1, 1], [0, 3]]
    with pytest.raises(ValueError):
        I.rows[0, 0] = 5
    with pytest.raises(ValueError):
        I.rows.flags.writeable = True
    with pytest.raises(FrozenInstanceError):
        I.rows = np.zeros((0, 2), dtype=np.int64)
    # the constructor keeps its own copy
    raw = np.array([[1, 1]])
    J = MonomialIdeal(2, raw)
    raw[0, 0] = 7
    assert J.rows.tolist() == [[1, 1]]
    for bad, err in (
        ([[1, -1]], ValueError),
        ([[EXPONENT_LIMIT + 1, 0]], OverflowError),
        ([1, 1], ValueError),
        ([[1, 1, 0]], ValueError),
    ):
        with pytest.raises(err):
            MonomialIdeal(2, np.array(bad))


def test_rows_are_canonical_on_every_route():
    rng = Random(17)
    for nv in (1, 3):
        _assert_canonical(MonomialIdeal.zero(nv))
        _assert_canonical(MonomialIdeal.unit(nv))
    for _ in range(30):
        nv, gA = oracles.random_generators(rng)
        _, gB = oracles.random_generators(rng, max_vars=nv)
        gB = [g[:nv] + (0,) * (nv - len(g)) for g in gB]
        I = MonomialIdeal.from_rows(nv, np.array(gA))
        J = MonomialIdeal.from_rows(nv, gB)
        for K in (I, J, multiply(I, J)):
            _assert_canonical(K)
    for _ in range(10):
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4)
        for m in (1, 2, 3):
            _assert_canonical(symbolic_power(PrimeDecomposition(nv, tuple(sups)), m))


def test_equality_across_construction_routes():
    rng = Random(19)
    for _ in range(20):
        nv, gens = oracles.random_generators(rng)
        rows = np.array(gens + gens[:2])
        I = MonomialIdeal.from_rows(nv, rows)
        assert I == MonomialIdeal.from_rows(nv, gens)
        assert I == MonomialIdeal.from_rows(nv, rows[::-1])
        assert I == MonomialIdeal(nv, I.rows)
        assert I == multiply(I, MonomialIdeal.unit(nv))
        assert I != MonomialIdeal.zero(nv) and I != I.generators
    # same rows, different rings
    assert MonomialIdeal.zero(2) != MonomialIdeal.zero(3)


def test_zero_and_unit_ideals():
    Z, U = MonomialIdeal.zero(3), MonomialIdeal.unit(3)
    assert Z.is_zero and not Z.is_unit and Z.generator_count == 0
    assert Z.min_degree() is None and Z.max_degree() is None
    assert Z.generators == ()
    assert not member_of_power(M(0, 0, 0), Z, 1) and not member_of_power(M(4, 4, 4), Z, 1)
    assert U.is_unit and not U.is_zero and U.generator_count == 1
    assert U.min_degree() == 0 and U.max_degree() == 0
    assert U.generators == (M(0, 0, 0),)
    assert member_of_power(M(0, 0, 0), U, 1) and member_of_power(M(0, 5, 1), U, 1)
    assert not MonomialIdeal.from_rows(3, [[0, 0, 1]]).is_unit
    with pytest.raises(MixedAmbient):
        member_of_power(M(0, 0), U, 1)


def _reference_minimal(rows):
    """Keep r unless some other row s is <= r; canonical order."""
    distinct = set(map(tuple, rows.tolist()))
    kept = [
        r
        for r in distinct
        if not any(s != r and all(a <= b for a, b in zip(s, r)) for s in distinct)
    ]
    return sorted(kept, key=lambda r: (sum(r), tuple(-e for e in r)))


def _check_kernel(rows):
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    got = _minimal_rows(rows)
    assert got.shape[1] == rows.shape[1]
    assert list(map(tuple, got.tolist())) == _reference_minimal(rows)


# _BROADCAST values that send every fold step down one form of
# _surviving_lifts: 0 selects _undominated and its threshold tables, the
# huge value the full-row broadcast whenever the dominators fit one block.
# _undominated itself, and so _minimal_rows, has only the tables.
BITSET_ONLY, BROADCAST_ONLY = 0, 1 << 62


def _random_rows(rng, n, nv, top):
    rows = [[rng.randint(0, top) for _ in range(nv)] for _ in range(n)]
    return rows + [rng.choice(rows) for _ in range(n // 4)]  # duplicates


def _layered_rows(nv, low, high):
    """All rows of degrees low..high with entries <= 2: long equal-degree runs."""
    return [w for w in oracles.iter_monomials(nv, high) if low <= sum(w) and max(w) <= 2]


def test_minimal_rows_matches_the_quadratic_filter():
    rng = Random(41)
    for _ in range(40):
        _check_kernel(_random_rows(rng, rng.randint(1, 150), rng.randint(1, 6), 3))
    _check_kernel([[3], [1], [1], [2]])
    _check_kernel(_random_rows(rng, 30, 1, 9))
    empty = _minimal_rows(np.zeros((0, 4), dtype=np.int64))
    assert empty.shape == (0, 4)
    big = [0, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, 2 * EXPONENT_LIMIT]
    _check_kernel([[rng.choice(big) for _ in range(4)] for _ in range(120)])


def test_minimal_rows_across_block_chunk_and_word_boundaries(monkeypatch):
    # Small blocks and chunks put many boundaries inside inputs the
    # quadratic filter can still check; 70 rows per block also splits
    # each block's bitsets across two uint64 words.
    monkeypatch.setattr(bitsets, "_BLOCK", 70)
    monkeypatch.setattr(bitsets, "_CHUNK", 9)
    rng = Random(43)
    for n in (63, 64, 65, 69, 70, 71, 139, 140, 141, 400):
        _check_kernel(_random_rows(rng, n, 5, 2))
    _check_kernel(_layered_rows(6, 3, 7))  # degree runs longer than a block
    _check_kernel(_layered_rows(5, 0, 6))  # the unit row dominates everything


def _reference_dominated(cands, doms):
    """Candidates above some dominator: <= on every column, strict < on the last."""
    return np.array(
        [
            any(all(a <= b for a, b in zip(d[:-1], c[:-1])) and d[-1] < c[-1] for d in doms)
            for c in cands.tolist()
        ],
        dtype=bool,
    )


def _lift_query(cands, doms, check=None):
    """The query as _surviving_lifts asks it: sigma is column 0 and every
    deficit is 0, so the lifts are the candidates themselves.  Its
    survivors are distinct and in no fixed order, so they come back sorted."""
    got = _surviving_lifts(cands, np.array([0]), np.zeros(len(cands), dtype=np.int64), doms, check)
    return sorted(map(tuple, got.tolist()))


@pytest.mark.parametrize("path", [BITSET_ONLY, BROADCAST_ONLY], ids=["bitset", "broadcast"])
def test_dominated_compares_the_last_column_strictly_on_both_paths(monkeypatch, path):
    # The dominance query with no sigma columns, and through
    # _surviving_lifts in the form that path selects.  Many candidates
    # equal a dominator but for the last column, which then decides:
    # equal is not dominated, one more is.  Huge exponents sit next to
    # small ones, and the 70-row blocks end mid-word.
    monkeypatch.setattr(bitsets, "_BLOCK", 70)
    monkeypatch.setattr(bitsets, "_CHUNK", 9)
    monkeypatch.setattr(bitsets, "_BROADCAST", path)
    rng = Random(61)
    values = [0, 1, 2, EXPONENT_LIMIT - 1, EXPONENT_LIMIT]
    for n in (1, 5, 69, 70, 71, 150):
        doms = np.array([[rng.choice(values) for _ in range(4)] for _ in range(n)])
        cands = doms[rng.choices(range(n), k=n)]
        cands[:, -1] += np.array([rng.choice((0, 1)) for _ in range(n)])
        cands = np.vstack([cands, [[rng.choice(values) for _ in range(4)] for _ in range(20)]])
        before = (cands.copy(), doms.copy())
        expected = np.flatnonzero(~_reference_dominated(cands, doms))
        kept, _ = _undominated(cands, np.arange(len(cands)), doms)
        assert kept.tolist() == expected.tolist()
        assert _lift_query(cands, doms) == sorted(set(map(tuple, cands[expected].tolist())))
        # the query compares the last column strictly on its own copies
        assert np.array_equal(cands, before[0]) and np.array_equal(doms, before[1])
        # a candidate left out of owner is not tested and stays out
        hit = np.zeros(len(cands), dtype=bool)
        hit[::3] = True
        expected = np.flatnonzero(~(_reference_dominated(cands, doms) | hit))
        kept, _ = _undominated(cands, np.flatnonzero(~hit), doms)
        assert kept.tolist() == expected.tolist()
        assert _lift_query(cands[~hit], doms) == sorted(set(map(tuple, cands[expected].tolist())))


@pytest.mark.parametrize("path", [BITSET_ONLY, BROADCAST_ONLY], ids=["bitset", "broadcast"])
def test_dominated_checks_once_per_block_on_both_paths(monkeypatch, path):
    # No candidate is dominated, so every block runs: three blocks of
    # 150 dominators, one of 70.  Both forms of _surviving_lifts check
    # once per block; the broadcast form takes only a single block.
    monkeypatch.setattr(bitsets, "_BLOCK", 70)
    monkeypatch.setattr(bitsets, "_BROADCAST", path)
    cands = np.zeros((10, 3), dtype=np.int64)
    for blocks, doms in ((3, np.ones((150, 3), dtype=np.int64)), (1, np.ones((70, 3), dtype=np.int64))):
        calls = []
        kept, _ = _undominated(cands, np.arange(10), doms, lambda: calls.append(1))
        assert len(kept) == 10 and len(calls) == blocks
        calls = []
        assert len(_lift_query(cands, doms, lambda: calls.append(1))) == 1
        assert len(calls) == blocks


def test_threshold_table_lookups_and_levels(monkeypatch):
    # _table_bits against a direct comparison: bit i of a lookup is set
    # iff block row i is <= the looked-up values in every column.  The
    # values include -1 (the strictly compared last column, minus one)
    # and values above every block entry.  Small values index the table
    # by value; entries up to 2 * EXPONENT_LIMIT rank it, and then each
    # column has at most (its distinct values + 1) levels, so the table
    # does not grow with the range.  A small _SLICE builds the bitsets
    # a few levels at a time and gathers one column at a time; the block
    # sizes end mid-word.
    monkeypatch.setattr(bitsets, "_SLICE", 1 << 12)
    rng = Random(73)
    wide = [0, 1, 2, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, 2 * EXPONENT_LIMIT]
    for n in (1, 5, 63, 64, 65, 130):
        for values, ranked in ((range(4), False), (wide, True)):
            block = np.array([[rng.choice(values) for _ in range(3)] for _ in range(n)])
            table = _threshold_table(block.T)
            assert (table.keys is not None) == ranked
            if ranked:
                assert len(table.bits) <= sum(len(set(col)) + 1 for col in block.T.tolist())
            probe = [-1, 0, 1, 3, 4, EXPONENT_LIMIT, 2 * EXPONENT_LIMIT, 3 * EXPONENT_LIMIT]
            looked = np.array([[rng.choice(probe) for _ in range(3)] for _ in range(40)])
            bits = _table_bits(table, looked.T)
            got = np.unpackbits(bits.view(np.uint8), axis=1)
            assert not got[:, n:].any()  # padding rows never match
            want = (block[None, :, :] <= looked[:, None, :]).all(axis=2)
            assert np.array_equal(got[:, :n].astype(bool), want)
            # a given accumulator is ANDed in place
            acc = np.zeros_like(bits)
            assert not _table_bits(table, looked.T, acc).any() and not acc.any()


def test_threshold_table_of_a_block_with_no_columns():
    # The empty-sigma case of the dominance query: a block with no
    # columns gives a table with no bitset rows, and a lookup of no
    # columns returns its accumulator unchanged, whatever it holds.
    rng = np.random.default_rng(79)
    for n in (1, 63, 64, 65, 130):
        table = _threshold_table(np.zeros((0, n), dtype=np.int64))
        words = -(-n // 64)
        assert table.bits.shape == (0, words)
        acc = rng.integers(0, 1 << 62, size=(9, words)).astype(np.uint64)
        before = acc.copy()
        assert _table_bits(table, np.zeros((0, 9), dtype=np.int64), acc) is acc
        assert np.array_equal(acc, before)


def test_canonical_order_paths_agree(monkeypatch):
    # The lexsort taken at or below _LEXSORT_ROWS rows and the packed-word
    # sort above it return the same stable indices: row counts around the
    # threshold, many ties, and rows wide enough to spill over several
    # packed words (21-bit keys, three per word).
    rng = Random(67)
    limit = bitsets._LEXSORT_ROWS
    cases = []
    for n in (1, 2, limit - 1, limit, limit + 1, 3 * limit):
        cases.append(np.array(_random_rows(rng, n, 5, 2)))  # ties from duplicates
    for nv in (9, 30):
        rows = [[rng.choice([0, 1, EXPONENT_LIMIT]) for _ in range(nv)] for _ in range(limit)]
        cases.append(np.array(rows + rows[: limit // 2]))
    cases.append(np.zeros((limit + 1, 4), dtype=np.int64))  # one long tie
    for rows in cases:
        want = sorted(range(len(rows)), key=lambda i: (int(rows[i].sum()), tuple(-rows[i]), i))
        got = {}
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(bitsets, "_LEXSORT_ROWS", threshold)
            got[threshold] = _canonical_order(rows)
        assert got[0].tolist() == want == got[1 << 62].tolist()


def test_minimal_rows_at_full_block_size():
    # one degree run of 4368 incomparable rows crosses the 4096-row block
    # and several 1024-candidate chunks, with a dominated layer above it
    layer = [w for w in oracles.iter_monomials(6, 11) if sum(w) == 11]
    rng = Random(47)
    above = [list(w) for w in rng.sample(layer, 600)]
    for w in above:
        w[rng.randrange(6)] += 1
    rows = np.array(layer + above + layer[:50], dtype=np.int64)
    got = _minimal_rows(rows)
    want = sorted(layer, key=lambda r: tuple(-e for e in r))
    assert list(map(tuple, got.tolist())) == want


def _brute_lifts(todo, idx, m):
    """Every row g + c, c a weak composition over idx of g's deficit."""
    out = set()
    for g in todo.tolist():
        d = m - sum(g[j] for j in idx)
        for c in itertools.product(range(d + 1), repeat=len(idx)):
            if sum(c) == d:
                w = list(g)
                for j, e in zip(idx, c):
                    w[j] += e
                out.add(tuple(w))
    return sorted(out, key=lambda r: (sum(r), tuple(-e for e in r)))


def _step(anti, idx, m):
    """One fold step's kernel inputs: the deficient rows, their deficits, the dominators.

    Every row gets its degree off the columns idx as one more column.
    The dominators are the rows of support-degree <= m, least offdeg
    first, as symbolic_power orders them.
    """
    anti = np.asarray(anti, dtype=np.int64).reshape(len(anti), -1)
    sdeg = anti[:, idx].sum(axis=1)
    ext = np.column_stack([anti, anti.sum(axis=1) - sdeg])
    doms = ext[sdeg <= m]
    return ext[sdeg < m], m - sdeg[sdeg < m], doms[np.argsort(doms[:, -1], kind="stable")]


def _canonical(rows):
    return rows[_canonical_order(rows)].tolist()


def test_fold_step_query_matches_full_minimalization(monkeypatch):
    # One fold step as symbolic_power takes it: keep the antichain's rows
    # of support-degree >= m, and add the lifts that _surviving_lifts
    # keeps.  That must equal minimalizing all kept and lifted rows.
    # Small blocks and chunks put many boundaries inside each query,
    # which runs once through each form of _surviving_lifts.
    monkeypatch.setattr(bitsets, "_BLOCK", 70)
    monkeypatch.setattr(bitsets, "_CHUNK", 9)
    for path in (BITSET_ONLY, BROADCAST_ONLY):
        monkeypatch.setattr(bitsets, "_BROADCAST", path)
        rng = Random(59)
        for _ in range(60):
            nv = rng.randint(1, 6)
            anti = _minimal_rows(np.array(_random_rows(rng, rng.randint(1, 150), nv, 3)))
            idx = sorted(rng.sample(range(nv), rng.randint(1, nv)))
            m = rng.randint(1, 4)
            sdeg = anti[:, idx].sum(axis=1)
            ok, todo = anti[sdeg >= m], anti[sdeg < m]
            lifted = _brute_lifts(todo, idx, m)
            want = _minimal_rows(np.array(ok.tolist() + lifted).reshape(-1, nv))
            step = ok
            if len(todo):
                todo, deficits, doms = _step(anti, idx, m)
                lifts = _surviving_lifts(todo, np.array(idx), deficits, doms)
                step = np.vstack([ok, lifts[:, :-1]])
            assert np.array_equal(step[_canonical_order(step)], want)
        # the whole fold, on supports of mixed sizes: its generators are the
        # minimal members, and a minimal generator has no exponent above m
        for _ in range(12):
            nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=5, max_size=4)
            P = PrimeDecomposition(nv, tuple(sups))
            for m in range(1, 5):
                members = oracles.brute_symbolic_members(P.supports, nv, m, m * nv)
                gens = {
                    w
                    for w in members
                    if max(w) <= m
                    and not any(w[:i] + (w[i] - 1,) + w[i + 1 :] in members for i in range(nv) if w[i])
                }
                got = symbolic_power(P, m).rows.tolist()
                assert list(map(tuple, got)) == sorted(gens, key=lambda r: (sum(r), tuple(-e for e in r)))


@pytest.mark.parametrize("path", [BITSET_ONLY, BROADCAST_ONLY], ids=["bitset", "broadcast"])
def test_surviving_lifts_match_the_reference_step(monkeypatch, path):
    # The kernel against oracles.fold_step, which builds, deduplicates
    # and queries every lift, and against a plain-Python filter of the
    # brute-force lifts: fold_step runs the same dominance query as the
    # kernel, so only that filter checks the query independently.
    # Blocks of 5 dominators and chunks of 2 parents or lifts put every
    # input across several blocks and chunks.
    monkeypatch.setattr(bitsets, "_BLOCK", 5)
    monkeypatch.setattr(bitsets, "_CHUNK", 2)
    monkeypatch.setattr(bitsets, "_BROADCAST", path)

    def agree(anti, idx, m):
        todo, deficits, doms = _step(anti, idx, m)
        if len(todo):
            got = _surviving_lifts(todo, np.array(idx), deficits, doms)
            want = oracles.fold_step(todo, np.array(idx), deficits, doms)
            assert _canonical(got) == want.tolist()
            # and the same lifts by a comparison in plain Python
            lifts = np.array(_brute_lifts(todo, idx, m), dtype=np.int64).reshape(-1, todo.shape[1])
            assert want.tolist() == lifts[~_reference_dominated(lifts, doms)].tolist()

    # one parent; parents of two deficits, one with an off-support
    # dominator (h) and one without; two parents with one off-support
    # part, whose lifts meet
    agree([[0, 0, 0, 0]], [0, 1], 3)
    agree([[0, 0, 1, 0], [0, 0, 0, 3], [1, 0, 0, 1]], [0, 1], 2)
    agree([[1, 0, 2], [0, 1, 2], [0, 0, 3]], [0, 1], 3)
    rng = Random(71)
    for _ in range(40):
        nv = rng.randint(1, 6)
        anti = _minimal_rows(np.array(_random_rows(rng, rng.randint(1, 60), nv, 3)))
        for _ in range(3):
            agree(anti, sorted(rng.sample(range(nv), rng.randint(1, nv))), rng.randint(1, 4))
    # seeded starts: I^(k) folded towards m > k, deficits 1 to m - k
    for _ in range(6):
        nv, sups = oracles.random_supports(rng, max_vars=5, max_supports=4, max_size=3)
        P = PrimeDecomposition(nv, tuple(sups))
        for k in (1, 2):
            seed = symbolic_power(P, k).rows
            for s in P.supports:
                agree(seed, [i - 1 for i in s], k + rng.randint(1, 2))
    # entries up to 2 * EXPONENT_LIMIT off the support: the off-support
    # tables are ranked, and the offdeg column is far above any exponent
    wide = [0, 0, 1, 2, 3, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, 2 * EXPONENT_LIMIT]
    for _ in range(30):
        nv = rng.randint(2, 6)
        rows = [[rng.choice(wide) for _ in range(nv)] for _ in range(rng.randint(1, 60))]
        anti = _minimal_rows(np.array(rows))
        for _ in range(3):
            agree(anti, sorted(rng.sample(range(nv), rng.randint(1, nv - 1))), rng.randint(1, 4))


@pytest.mark.parametrize("path", [BITSET_ONLY, BROADCAST_ONLY], ids=["bitset", "broadcast"])
def test_surviving_lifts_check_once_per_block_on_both_paths(monkeypatch, path):
    # no dominator has a smaller offdeg than the parent, so no lift is
    # dropped and every one of the three blocks runs
    monkeypatch.setattr(bitsets, "_BLOCK", 70)
    monkeypatch.setattr(bitsets, "_BROADCAST", path)
    todo = np.array([[0, 0, 1, 1]])
    doms = np.column_stack([np.ones((150, 3), dtype=np.int64), np.full(150, 1)])
    calls = []
    lifts = _surviving_lifts(todo, np.array([0]), np.array([2]), doms, lambda: calls.append(1))
    assert lifts.tolist() == [[2, 0, 1, 1]] and len(calls) == 3


def test_from_rows_idempotent_on_random_input():
    rng = Random(11)
    for _ in range(50):
        nv, gens = oracles.random_generators(rng)
        I = MonomialIdeal.from_rows(nv, gens)
        assert MonomialIdeal.from_rows(nv, I.rows) == I
        D = max(sum(g) for g in gens) + 2
        want = oracles.members_up_to(gens, nv, D)
        for w in oracles.iter_monomials(nv, D):
            assert member_of_power(Monomial(w), I, 1) == (w in want)


def test_intersect_matches_oracle():
    rng = Random(22)
    for _ in range(50):
        nv, gA = oracles.random_generators(rng)
        _, gB = oracles.random_generators(rng, max_vars=nv)
        gB = [g[:nv] + (0,) * (nv - len(g)) for g in gB]
        I = MonomialIdeal.from_rows(nv, gA)
        J = MonomialIdeal.from_rows(nv, gB)
        K = oracles.intersect(I, J)
        D = max(sum(g) for g in gA + gB) + 2
        want = oracles.members_up_to(gA, nv, D) & oracles.members_up_to(gB, nv, D)
        for w in oracles.iter_monomials(nv, D):
            assert member_of_power(Monomial(w), K, 1) == (w in want)


def test_multiply_matches_oracle():
    rng = Random(33)
    for _ in range(50):
        nv, gA = oracles.random_generators(rng)
        _, gB = oracles.random_generators(rng, max_vars=nv)
        gB = [g[:nv] + (0,) * (nv - len(g)) for g in gB]
        I = MonomialIdeal.from_rows(nv, gA)
        J = MonomialIdeal.from_rows(nv, gB)
        K = multiply(I, J)
        D = max(sum(g) for g in gA) + max(sum(g) for g in gB) + 1
        want = oracles.product_members_up_to(gA, gB, nv, D)
        for w in oracles.iter_monomials(nv, D):
            assert member_of_power(Monomial(w), K, 1) == (w in want)


def test_unit_and_zero_shortcuts():
    U = MonomialIdeal.unit(3)
    Z = MonomialIdeal.zero(3)
    I = MonomialIdeal.from_rows(3, [[1, 1, 0]])
    assert oracles.intersect(U, I) == I
    assert oracles.intersect(Z, I).is_zero
    assert multiply(U, I) == I
    assert multiply(Z, I).is_zero
    with pytest.raises(MixedAmbient):
        multiply(I, MonomialIdeal.unit(2))


def test_power_basics():
    I = MonomialIdeal.from_rows(2, [[1, 0], [0, 2]])
    assert power(I, 0).is_unit
    assert power(I, 1) == I
    assert power(I, 2) == multiply(I, I)
    assert power(I, 3) == multiply(multiply(I, I), I)
    with pytest.raises(ValueError):
        power(I, -1)


def test_multiply_refuses_a_product_above_the_exponent_limit():
    # the factors are within the limit, so only the product's row is refused
    I = MonomialIdeal.from_rows(2, [[EXPONENT_LIMIT, 0]])
    J = MonomialIdeal.from_rows(2, [[1, 0], [0, 1]])
    with pytest.raises(OverflowError, match="exponent 1048577 exceeds limit 1048576"):
        multiply(I, J)
    with pytest.raises(OverflowError, match="power exponent 1048577 exceeds limit 1048576"):
        power(J, EXPONENT_LIMIT + 1)


def test_power_checks_the_budget_before_each_multiply_step():
    I = MonomialIdeal.from_rows(2, [[1, 0], [0, 2]])
    expired = Budget(deadline=time.monotonic() - 1.0)
    assert power(I, 1, budget=expired) == I  # no multiply step, no check
    with pytest.raises(ResourceLimit) as ei:
        power(I, 3, budget=expired)
    assert ei.value.stage == "ordinary-power"
    assert ei.value.partial == {"r": 3, "factors_done": 1}


def test_power_checks_the_generator_cap_before_building_the_products(monkeypatch):
    # I has four generators and I^2 ten: the first step's 4 * 4 products
    # fit a cap of 16, the second step's 10 * 4 do not, and are never built
    I = MonomialIdeal.from_rows(4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    minimalized = []
    real = monomials._minimal_rows
    monkeypatch.setattr(
        monomials, "_minimal_rows", lambda rows, check=None: minimalized.append(len(rows)) or real(rows, check)
    )
    with pytest.raises(ResourceLimit) as ei:
        power(I, 3, budget=Budget(generator_cap=16))
    exc = ei.value
    assert exc.stage == "ordinary-power"
    assert exc.partial == {"r": 3, "factors_done": 2}
    assert "count 40 exceeds cap 16" in str(exc)
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    assert frames[frames.index("multiply") + 1] == "check"
    assert minimalized == [16]


@pytest.mark.parametrize("cap", [0, -1])
def test_budget_refuses_a_generator_cap_below_one(cap):
    # a bad cap is a bad argument, not a limit that the first fold step
    # or multiply reaches
    with pytest.raises(ValueError, match="^generator cap must be positive$"):
        Budget(generator_cap=cap)
    assert Budget(generator_cap=1).generator_cap == 1


def test_power_without_a_budget_stops_at_the_default_cap():
    # budget=None means Budget(), as in symbolic_power: (x, y)^1414 has
    # 1415 generators, so squaring it builds 2,002,225 > 2,000,000 products
    I = MonomialIdeal(2, [[1414 - i, i] for i in range(1415)])
    with pytest.raises(ResourceLimit) as ei:
        power(I, 2)
    assert ei.value.stage == "ordinary-power"
    assert ei.value.partial == {"r": 2, "factors_done": 1}
    assert f"count 2002225 exceeds cap {DEFAULT_GENERATOR_CAP}" in str(ei.value)


def test_multiply_checks_the_budget_inside_the_minimalization(monkeypatch):
    class StopAtThirdCheck(Budget):
        calls = 0

        def check(self, stage, partial, candidate=0):
            self.calls += 1
            if self.calls == 3:
                raise ResourceLimit(stage, "stop", partial)

    # I^2 has ten generators of degrees 2 to 8, so 8-row blocks give its
    # minimalization two checks after the step's own check before it
    # builds its products
    monkeypatch.setattr(bitsets, "_BLOCK", 8)
    I = MonomialIdeal.from_rows(4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    with pytest.raises(ResourceLimit) as ei:
        power(I, 3, budget=StopAtThirdCheck())
    exc = ei.value
    assert exc.stage == "ordinary-power"
    assert exc.partial == {"r": 3, "factors_done": 1}
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    assert frames[frames.index("multiply") + 1] == "_minimal_rows"
    with pytest.raises(ResourceLimit) as ei:
        multiply(I, I, budget=Budget(deadline=time.monotonic() - 1.0))
    assert ei.value.stage == "ordinary-power"
    assert multiply(I, I, budget=Budget()) == power(I, 2)


def test_power_chain_is_descending():
    rng = Random(44)
    for _ in range(10):
        nv, gens = oracles.random_generators(rng, max_gens=4, max_degree=3)
        I = MonomialIdeal.from_rows(nv, gens)
        prev = power(I, 1)
        for r in (2, 3):
            cur = power(I, r)
            for g in cur.generators:
                assert member_of_power(g, prev, 1)
            prev = cur


def test_library_calls_report_the_partial_they_are_given():
    # FILE-FORMATS's partial keys are the ones power and the engine pass;
    # a direct call reports its own partial=, {} by default
    seen = []
    budget = Budget(progress=lambda stage, partial: seen.append((stage, dict(partial))))
    I = MonomialIdeal.from_rows(2, [[2, 0], [1, 1]])
    assert member_of_power(M(3, 1), I, 2, budget=budget)
    multiply(I, I, budget=budget)
    assert sorted({stage for stage, _ in seen}) == ["membership-scan", "ordinary-power"]
    assert all(partial == {} for _, partial in seen)
    seen.clear()
    member_of_power(M(3, 1), I, 2, budget=budget, partial={"generators_checked": 7})
    assert seen and all(rec == ("membership-scan", {"generators_checked": 7}) for rec in seen)


def test_member_of_power_matches_brute_force():
    rng = Random(55)
    for _ in range(60):
        nv, gens = oracles.random_generators(rng, max_vars=4, max_gens=5, max_degree=3)
        I = MonomialIdeal.from_rows(nv, gens)
        raw = [tuple(g.exponents) for g in I.generators]
        for _ in range(8):
            w = tuple(rng.randint(0, 4) for _ in range(nv))
            r = rng.randint(0, 3)
            slack = rng.randint(0, 2)
            got = member_of_power(Monomial(w), I, r, slack)
            want = oracles.brute_member_of_power(w, raw, r, slack)
            assert got == want, (w, raw, r, slack)


def test_greedy_path_and_exact_search_match_brute_force():
    # the containment scan's two stages: the greedy path certifies only
    # members, and the exact search decides every row it leaves
    rng = Random(57)
    for _ in range(60):
        nv, gens = oracles.random_generators(rng, max_vars=4, max_gens=5, max_degree=3)
        I = MonomialIdeal.from_rows(nv, gens)
        raw = [tuple(g.exponents) for g in I.generators]
        targets = np.array([[rng.randint(0, 5) for _ in range(nv)] for _ in range(10)])
        for r in range(4):
            for slack in range(4):
                certified = _greedy_members(targets, I, r, slack)
                for w, sure in zip(map(tuple, targets.tolist()), certified):
                    want = oracles.brute_member_of_power(w, raw, r, slack)
                    assert want or not sure, (w, raw, r, slack)
                    if not sure:
                        assert member_of_power(Monomial(w), I, r, slack) == want


def test_exact_search_decides_what_the_greedy_path_misses():
    # The search tries x2^2 first.  For x1^2*x2^2 that leaves x1^2, which
    # no generator divides, yet (x1*x2)^2 proves it a member; x1^3*x2 has
    # enough degree but is no member.
    I = MonomialIdeal.from_rows(2, [[1, 1], [0, 2]])
    assert not _greedy_members(np.array([[2, 2], [3, 1]]), I, 2, 0).any()
    assert member_of_power(M(2, 2), I, 2)
    assert not member_of_power(M(3, 1), I, 2)
    assert oracles.brute_member_of_power((2, 2), [(1, 1), (0, 2)], 2, 0)
    assert not oracles.brute_member_of_power((3, 1), [(1, 1), (0, 2)], 2, 0)
    expired = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(ResourceLimit) as ei:
        member_of_power(M(2, 2), I, 2, budget=expired, partial={"generators_checked": 4})
    assert ei.value.stage == "membership-scan"
    assert ei.value.partial == {"generators_checked": 4}


def test_member_of_power_past_the_recursion_limit():
    # r = 5000 picks, far past Python's recursion limit.  For (x) and
    # (x, y) the degree count decides: w is in M^slack * (x)^r iff its
    # x-exponent is >= r, and in M^slack * (x, y)^r iff deg w >= r + slack.
    class CountingBudget(Budget):
        nodes = 0

        def check(self, stage, partial, candidate=0):
            assert stage == "membership-scan" and partial == {"generators_checked": 1}
            self.nodes += 1

    r = 5000
    x = MonomialIdeal.from_rows(2, [[1, 0]])
    xy = MonomialIdeal.from_rows(2, [[1, 0], [0, 1]])
    for w, I, slack, want, nodes in (
        ((r, 1), x, 0, True, r + 1),
        # r - 1 picks fit, then the search backs out through every level
        ((r - 1, 7), x, 0, False, r),
        ((r // 2, r // 2), xy, 0, True, r + 1),
        ((r // 2, r // 2 - 1), xy, 0, False, 1),
        ((3000, 3000), xy, 1000, True, r + 1),
        ((3000, 3000), xy, 1001, False, 1),
    ):
        assert want == (w[0] >= r if I is x else sum(w) >= r + slack)
        budget = CountingBudget()
        got = member_of_power(M(*w), I, r, slack, budget=budget, partial={"generators_checked": 1})
        assert got == want and budget.nodes == nodes, (w, slack)


def test_member_of_power_cuts_when_too_few_picks_fit():
    # I = (x^2, y) and w = x^(2a+1) * y^(b-1) with a + b = r: deg w >= r
    # passes the degree test, but at most floor((2a+1)/2) + (b-1) = r - 1
    # picks fit, so the search is refuted at its root.  Without that cut
    # every split of the picks into x^2's and y's leaves a new residual,
    # about r^2/4 nodes.  One more y makes w a member.
    class CountingBudget(Budget):
        nodes = 0

        def check(self, stage, partial, candidate=0):
            self.nodes += 1

    I = MonomialIdeal.from_rows(2, [[2, 0], [0, 1]])
    for r in (1, 2, 7, 400):
        for a in sorted({0, r // 2, r - 1}):
            budget = CountingBudget()
            assert not member_of_power(M(2 * a + 1, r - a - 1), I, r, budget=budget)
            assert budget.nodes == 1, (r, a)
            assert member_of_power(M(2 * a + 1, r - a), I, r)
    # the unit ideal takes any number of picks of 1
    U = MonomialIdeal.from_rows(2, [[0, 0]])
    assert member_of_power(M(0, 0), U, 400) and member_of_power(M(3, 0), U, 5, slack=3)


def test_member_of_power_edge_cases():
    I = MonomialIdeal.from_rows(2, [[1, 1]])
    assert member_of_power(M(2, 1), I, 0, slack=3)
    assert not member_of_power(M(2, 1), I, 0, slack=4)
    assert not member_of_power(M(5, 5), MonomialIdeal.zero(2), 1)
    with pytest.raises(ValueError):
        member_of_power(M(1, 1), I, -1)
    with pytest.raises(MixedAmbient):
        member_of_power(M(1, 1, 1), I, 1)


def test_text_format_round_trip(tmp_path):
    I = MonomialIdeal.from_rows(3, [[2, 0, 1], [0, 3, 0]])
    path = tmp_path / "gens.txt"
    dump_monomials(str(path), I)
    nv, items = load_monomials(str(path))
    assert nv == 3
    assert items == I.generators
    buf = io.StringIO()
    dump_monomials(buf, I)
    nv2, items2 = load_monomials(io.StringIO(buf.getvalue()))
    assert (nv2, items2) == (3, I.generators)


def test_text_format_comments_and_errors():
    nv, items = load_monomials(io.StringIO("# note\nvars: 2\n\n1 0\n# mid\n0 2\n"))
    assert nv == 2 and items == (M(1, 0), M(0, 2))
    for text in ("1 0\n", "vars: x\n", "vars: 0\n", "vars: 2\n1\n", "vars: 2\n1 a\n", "vars: 2\n1 -1\n"):
        with pytest.raises(FormatError):
            load_monomials(io.StringIO(text))
