"""Brute-force reference implementations used to cross-check the engine.

Most of these work by exhaustive enumeration over bounded monomial or
assignment spaces, deliberately avoiding the package's own algorithms.
The reference alpha search and the reference fold keep the package's
contracts but take the plain route: one search node, or one full lift
row, at a time.
"""

from __future__ import annotations

import itertools
from random import Random

import numpy as np

from steinerideals import Budget, Hypergraph, MonomialIdeal, Partition, validate_steiner
from steinerideals.bitsets import _canonical_order, _compositions, _distinct, _undominated


def iter_monomials(nvars: int, max_degree: int):
    """All exponent tuples with total degree <= max_degree."""

    def rec(idx, left):
        if idx == nvars - 1:
            for e in range(left + 1):
                yield (e,)
            return
        for e in range(left + 1):
            for rest in rec(idx + 1, left - e):
                yield (e,) + rest

    yield from rec(0, max_degree)


def divides(g: tuple, w: tuple) -> bool:
    return all(a <= b for a, b in zip(g, w))


def members_up_to(gens: list[tuple], nvars: int, max_degree: int) -> frozenset:
    """All monomials of degree <= max_degree divisible by some generator."""
    return frozenset(
        w for w in iter_monomials(nvars, max_degree) if any(divides(g, w) for g in gens)
    )


def product_members_up_to(gA: list[tuple], gB: list[tuple], nvars: int, D: int) -> frozenset:
    """Membership of the product ideal: divisibility by some g+h."""
    sums = [tuple(a + b for a, b in zip(g, h)) for g in gA for h in gB]
    return members_up_to(sums, nvars, D)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two monomial ideals in one ring: the pairwise lcms of their generators.

    The slow generic route, building all |I| * |J| lcm rows at once;
    the package folds symbolic powers without it.
    """
    lcms = np.maximum(I.rows[:, None, :], J.rows[None, :, :])
    return MonomialIdeal.from_rows(I.variable_count, lcms.reshape(-1, I.variable_count))


def brute_member_of_power(w: tuple, gens: list[tuple], r: int, slack: int) -> bool:
    """Exhaustive multiset search for a dividing product of r generators."""
    if r == 0:
        return sum(w) >= slack
    for combo in itertools.combinations_with_replacement(gens, r):
        prod = [0] * len(w)
        for g in combo:
            prod = [a + b for a, b in zip(prod, g)]
        if divides(tuple(prod), w) and sum(w) - sum(prod) >= slack:
            return True
    return False


def divisible_by_product(rows: np.ndarray, w, r: int, slack: int) -> bool:
    """Whether some product of r of the rows divides w with slack degrees to spare.

    The plain route: every r-multiset of rows from
    itertools.combinations_with_replacement, summed in one gather.
    """
    picks = np.array(list(itertools.combinations_with_replacement(range(len(rows)), r)))
    prods = rows[picks].sum(axis=1)
    fits = (prods <= np.asarray(w)).all(axis=1) & (prods.sum(axis=1) <= sum(w) - slack)
    return bool(fits.any())


def brute_symbolic_members(supports, nvars: int, m: int, max_degree: int) -> frozenset:
    """Monomials of degree <= max_degree with every support-degree >= m."""
    out = []
    for w in iter_monomials(nvars, max_degree):
        if all(sum(w[i - 1] for i in s) >= m for s in supports):
            out.append(w)
    return frozenset(out)


def brute_coverable(vertex_count: int, edges, c: int) -> bool:
    """Exhaustive scan of all label assignments for a c-cover partition."""
    for labels in itertools.product(range(1, c + 1), repeat=vertex_count):
        if set(labels) != set(range(1, c + 1)):
            continue
        if all(
            set(labels[x - 1] for x in e) == set(range(1, c + 1)) for e in edges
        ):
            return True
    return False


def brute_colourable(vertex_count: int, edges, m: int) -> bool:
    """Exhaustive scan for a weak m-colouring (no monochromatic edge)."""
    for labels in itertools.product(range(1, m + 1), repeat=vertex_count):
        if all(len(set(labels[x - 1] for x in e)) > 1 for e in edges):
            return True
    return False


def random_generators(rng: Random, max_vars=5, max_gens=6, max_degree=4):
    """A random generating set (not necessarily minimal), plus its ring size."""
    nv = rng.randint(2, max_vars)
    k = rng.randint(1, max_gens)
    gens = []
    for _ in range(k):
        total = rng.randint(1, max_degree)
        exps = [0] * nv
        for _ in range(total):
            exps[rng.randrange(nv)] += 1
        gens.append(tuple(exps))
    return nv, gens


def random_hypergraph(rng: Random, max_vertices=8) -> Hypergraph:
    """Random small hypergraph; vertex set is the union of its edges."""
    pool = rng.randint(3, max_vertices)
    edge_count = rng.randint(2, 6)
    edges = []
    for _ in range(edge_count):
        size = rng.randint(2, min(4, pool))
        edges.append(tuple(rng.sample(range(1, pool + 1), size)))
    used = sorted(set(itertools.chain.from_iterable(edges)))
    relabel = {old: new for new, old in enumerate(used, start=1)}
    edges = [tuple(relabel[x] for x in e) for e in edges]
    return Hypergraph(len(used), tuple(edges))


def random_supports(rng: Random, max_vars=6, max_supports=5, max_size=3):
    """Random support family for symbolic-power cross-checks."""
    nv = rng.randint(2, max_vars)
    k = rng.randint(1, max_supports)
    sups = []
    for _ in range(k):
        size = rng.randint(1, min(max_size, nv))
        sups.append(tuple(sorted(rng.sample(range(1, nv + 1), size))))
    return nv, sups


def minimal_supports(supports) -> tuple[tuple[int, ...], ...]:
    """The distinct supports that embed no other, as sorted tuples in (size, lex) order.

    The plain route: each support, as a sorted tuple, is dropped iff one
    of its proper subsets, each looked up in a set, is a support too.
    """
    given = {tuple(sorted(set(s))) for s in supports}
    kept = (
        s for s in given
        if not any(sub in given for k in range(1, len(s)) for sub in itertools.combinations(s, k))
    )
    return tuple(sorted(kept, key=lambda s: (len(s), s)))


# Ladder designs from their textbook constructions, each checked by
# validate_steiner.  Cyclic developments use the residues + 1 as points.


def _cyclic_design(v: int, n: int, base_blocks):
    blocks = {
        tuple(sorted((x + k) % v + 1 for x in base)) for base in base_blocks for k in range(v)
    }
    return validate_steiner(v, n, 2, sorted(blocks))


def ag23():
    """AG(2,3) = STS(9): the lines {p + k*d} of GF(3)^2, point (x, y) = 3x + y + 1."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    lines = {
        tuple(sorted(3 * ((p[0] + k * d[0]) % 3) + (p[1] + k * d[1]) % 3 + 1 for k in range(3)))
        for p in pts
        for d in ((0, 1), (1, 0), (1, 1), (1, 2))
    }
    return validate_steiner(9, 3, 2, sorted(lines))


def cyclic_sts13():
    """The cyclic STS(13): {0,1,4} and {0,2,7} developed mod 13."""
    return _cyclic_design(13, 3, ((0, 1, 4), (0, 2, 7)))


def pg23():
    """PG(2,3) = S(2,4,13): the difference set {0,1,3,9} developed mod 13."""
    return _cyclic_design(13, 4, ((0, 1, 3, 9),))


def pg24():
    """PG(2,4) = S(2,5,21): the difference set {3,6,7,12,14} developed mod 21."""
    return _cyclic_design(21, 5, ((3, 6, 7, 12, 14),))


def pg25():
    """PG(2,5) = S(2,6,31): the difference set {1,5,11,24,25,27} developed mod 31."""
    return _cyclic_design(31, 6, ((1, 5, 11, 24, 25, 27),))


def pg27():
    """PG(2,7) = S(2,8,57): the difference set {0,1,3,13,32,36,43,52} developed mod 57."""
    return _cyclic_design(57, 8, ((0, 1, 3, 13, 32, 36, 43, 52),))


def pg42():
    """PG(4,2) = STS(31): the lines {a, b, a ^ b} of GF(2)^5, points the nonzero vectors."""
    lines = {tuple(sorted((a, b, a ^ b))) for a in range(1, 32) for b in range(1, 32) if a != b}
    return validate_steiner(31, 3, 2, sorted(lines))


def search_partition(H: Hypergraph, k: int, mode: str, budget: Budget) -> Partition | None:
    """Reference partition search: each trial label rescans every edge through its vertex.

    Same contract, same tree and same budget checks as
    ``designs._search_partition``, with each mode's own edge test: mode
    "colour" rejects a fully labelled monochromatic edge, mode "cover"
    an edge that misses more classes than it has unlabelled vertices.
    Cover mode also backtracks at a node whose opened classes and free
    vertices together fall short of k.
    """
    partial = {"mode": mode, "classes": k, "nodes": 0}
    v = H.vertex_count
    edges0 = [tuple(x - 1 for x in e) for e in H.edges]
    member_edges: list[list[int]] = [[] for _ in range(v)]
    for ei, e in enumerate(edges0):
        for u in e:
            member_edges[u].append(ei)
    assign = [0] * v
    used = [0] * (v + 1)

    def ok(u: int, c: int) -> bool:
        for ei in member_edges[u]:
            labels = set()
            unassigned = 0
            for w in edges0[ei]:
                lab = c if w == u else assign[w]
                if lab == 0:
                    unassigned += 1
                else:
                    labels.add(lab)
            if mode == "colour":
                if unassigned == 0 and len(labels) == 1:
                    return False
            elif k - len(labels) > unassigned:
                return False
        return True

    u = 0
    while True:
        partial["nodes"] += 1
        budget.check("partition-search", partial)
        if mode == "cover" and used[u] + v - u < k:
            u -= 1
        elif u == v:
            return Partition.from_assignment(assign)
        while u >= 0:
            c, top = assign[u] + 1, min(k, used[u] + 1)
            while c <= top and not ok(u, c):
                c += 1
            if c <= top:
                assign[u] = c
                break
            assign[u] = 0
            u -= 1
        else:
            return None
        used[u + 1] = max(used[u], assign[u])
        u += 1


def search_total(P, m: int, degree: int, collect: bool):
    """Reference alpha search: a recursive depth-first search, one node at a time.

    Same cuts as ``symbolic._search_total``, which expands the same tree
    in vectorized chunks; this is its decision search, floor = degree,
    whose bound never drops.  ``need[k]`` is m minus
    the k-th support's degree under the partial assignment ``a``, and
    ``deficit`` is the sum of the positive ``need[k]``.  A node prunes
    when a support closed by the last assigned variable is still
    deficient, when ``deficit > left * fsuf[idx]`` (``fsuf[idx]`` is the
    most supports on any variable >= idx), or when some support needs
    more than the degree left.  Exponents are capped at m.

    collect=False: True iff some vector of total degree <= degree lies
    in I^(m).  collect=True: every such vector of total degree exactly
    degree, in ascending lex order.
    """
    sups = [tuple(i - 1 for i in s) for s in P.supports]
    nv = P.variable_count
    incident: list[list[int]] = [[] for _ in range(nv)]
    closing: list[list[int]] = [[] for _ in range(nv)]
    for k, s in enumerate(sups):
        for i in s:
            incident[i].append(k)
        closing[max(s)].append(k)
    fsuf = [0] * (nv + 1)
    for i in range(nv - 1, -1, -1):
        fsuf[i] = max(fsuf[i + 1], len(incident[i]))
    need = [m] * len(sups)
    found: list[tuple[int, ...]] = []
    a = [0] * nv

    def dfs(idx: int, left: int, deficit: int) -> bool:
        if idx and any(need[k] > 0 for k in closing[idx - 1]):
            return False
        if deficit > left * fsuf[idx] or max(need) > left:
            return False
        if idx == nv:
            if collect:
                if left == 0:
                    found.append(tuple(a))
                return False
            return True
        inc = incident[idx]
        feasible = False
        for e in range(0, min(left, m) + 1):
            if e:
                for k in inc:
                    if need[k] > 0:
                        deficit -= 1
                    need[k] -= 1
            a[idx] = e
            if dfs(idx + 1, left - e, deficit):
                feasible = True
                break
        for k in inc:
            need[k] += a[idx]
        a[idx] = 0
        return feasible

    hit = dfs(0, degree, m * len(sups))
    return found if collect else hit


def fold_step(todo, idx, deficits, doms):
    """Reference fold step: build every lift, deduplicate, then query them all.

    Same contract as ``bitsets._surviving_lifts``: ``todo`` and ``doms``
    carry the degree off the support ``idx`` as a last column, and
    ``deficits`` holds m minus each todo row's support degree.  Each
    todo row g is lifted to g + c for every weak composition c of its
    deficit over idx, the distinct lifts are sorted canonically, and
    those above some dominator row, the last column compared strictly,
    are dropped.  Returns the surviving lifts in canonical order.

    The drop runs the kernel's own block loop (bitsets._undominated,
    each lift its own parent, with an empty sigma), so this reference
    checks the lifting, the split of the test and the deduplication, not
    the query itself; the tests check that against a plain-Python filter.
    """
    pieces = []
    for d in np.flatnonzero(np.bincount(deficits)).tolist():
        comps = _compositions(d, len(idx))
        lifted = np.repeat(todo[deficits == d][:, None, :], len(comps), axis=1)
        lifted[:, :, idx] += comps
        pieces.append(lifted.reshape(-1, todo.shape[1]))
    lifts = np.concatenate(pieces)
    lifts = lifts[_distinct(lifts)]
    kept, _ = _undominated(lifts, np.arange(len(lifts)), doms)
    return lifts[kept]


def symbolic_power(P, m: int) -> MonomialIdeal:
    """Reference fold of every p_sigma^m into the unit ideal, one step at a time.

    The loop of ``symbolic.symbolic_power`` without its budget: each
    support keeps the rows of support degree >= m and adds fold_step's
    surviving lifts of the others, queried against the rows of support
    degree <= m.
    """
    nv = P.variable_count
    rows = np.zeros((1, nv + 1), dtype=np.int64)
    for s in P.supports:
        idx = np.array(s) - 1
        sdeg = rows[:, idx].sum(axis=1)
        short = sdeg < m
        if short.any():
            rows[:, -1] = rows[:, :-1].sum(axis=1) - sdeg
            lifts = fold_step(rows[short], idx, m - sdeg[short], rows[sdeg <= m])
            rows = np.concatenate([rows[~short], lifts])
    rows = rows[:, :-1]
    return MonomialIdeal(nv, rows[_canonical_order(rows)])
