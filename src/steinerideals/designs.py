"""Steiner systems, hypergraphs, and exact partition searches.

A Steiner system S(t, n, v) is a collection of n-subsets (blocks) of
{1, ..., v} such that every t-subset of points lies in exactly one block.
A hypergraph here is a finite vertex set {1, ..., v} together with a set
of edges whose union is the whole vertex set.

Two partition notions are decided by one exact search, as one rule:
every edge meets at least ``need`` classes.

* weak m-colouring: at most m nonempty classes and need = 2 (no edge
  lies in a single class);
* c-coverability: exactly c nonempty classes and need = c (every edge
  meets every class).

Every c-coverable hypergraph with c >= 2 is weakly c-colourable, and the
search is complete, so a None answer is a proof of nonexistence.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

from .budget import Budget
from .errors import (
    BlockSizeMismatch,
    ComplementEmpty,
    CountMismatch,
    FormatError,
    TSubsetMultiplyCovered,
    TSubsetUncovered,
    Uncolourable,
    _integer,
)

Edge = tuple[int, ...]


def _normalize_edge(edge: Iterable[int], vertex_count: int, what: str = "edge") -> Edge:
    try:
        vs = tuple(sorted(set(map(operator.index, edge))))
    except TypeError:
        raise ValueError(f"{what} {edge} has a non-integer vertex") from None
    if len(vs) == 0:
        raise ValueError(f"empty {what}")
    if vs[0] < 1 or vs[-1] > vertex_count:
        raise ValueError(f"{what} {vs} has vertices outside 1..{vertex_count}")
    return vs


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set {1, ..., vertex_count} plus a canonical tuple of edges.

    Edges are sorted tuples, deduplicated, ordered by (size, lex).  The
    union of all edges must equal the full vertex set.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", _integer(self.vertex_count, "vertex_count"))
        norm = sorted(
            {_normalize_edge(e, self.vertex_count) for e in self.edges},
            key=lambda e: (len(e), e),
        )
        if not norm:
            raise ValueError("hypergraph needs at least one edge")
        covered = set(itertools.chain.from_iterable(norm))
        if covered != set(range(1, self.vertex_count + 1)):
            missing = sorted(set(range(1, self.vertex_count + 1)) - covered)
            raise ValueError(f"edges do not cover vertices {missing}")
        object.__setattr__(self, "edges", tuple(norm))

    def to_dict(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}


def min_edge_size(H: Hypergraph) -> int:
    """Smallest edge cardinality of H."""
    return min(len(e) for e in H.edges)


@dataclass(frozen=True)
class SteinerSystem:
    """A validated S(t, n, v).  Construction runs the full axiom check."""

    v: int
    n: int
    t: int
    blocks: tuple[Edge, ...]

    def __post_init__(self):
        v, n, t = (_integer(getattr(self, k), k, None) for k in "vnt")
        if not (1 <= t < n <= v):
            raise ValueError(f"need 1 <= t < n <= v, got t={t}, n={n}, v={v}")
        blocks = []
        for b in self.blocks:
            try:
                bt = tuple(sorted(map(operator.index, b)))
            except TypeError:  # a non-integer point: no n-subset of the point set
                bt = ()
            if len(set(bt)) != n or len(bt) != n or bt[0] < 1 or bt[-1] > v:
                raise BlockSizeMismatch(tuple(b), n)
            blocks.append(bt)
        # a repeated block covers its t-subsets twice, so it is checked, not dropped
        blocks.sort()

        # parameter-level count identity: C(v,t) must split into C(n,t)
        # chunks at all before any block set can work
        num, den = comb(v, t), comb(n, t)
        if num % den != 0:
            raise CountMismatch(len(blocks), f"{num}/{den}", "non-integer block count")

        # Exhaustive unique-cover axiom check; runs before the final
        # count comparison so a deleted block surfaces as TSubsetUncovered.
        owner: dict[Edge, Edge] = {}
        for b in blocks:
            for sub in itertools.combinations(b, t):
                if sub in owner:
                    raise TSubsetMultiplyCovered(sub, (owner[sub], b))
                owner[sub] = b
        for sub in itertools.combinations(range(1, v + 1), t):
            if sub not in owner:
                raise TSubsetUncovered(sub)

        # Implied by the cover axiom via double counting; kept as a
        # defensive identity check.
        if len(blocks) != num // den:
            raise CountMismatch(len(blocks), num // den)
        vars(self).update(v=v, n=n, t=t, blocks=tuple(blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def hypergraph(self) -> Hypergraph:
        """The design viewed as a hypergraph on its point set."""
        return Hypergraph(self.v, self.blocks)

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "n": self.n,
            "t": self.t,
            "blocks": [list(b) for b in self.blocks],
        }


def validate_steiner(v: int, n: int, t: int, blocks: Iterable[Iterable[int]]) -> SteinerSystem:
    """Validate the S(t, n, v) axioms exhaustively and return the system.

    Raises BlockSizeMismatch, TSubsetUncovered, TSubsetMultiplyCovered or
    CountMismatch on the first violation found.
    """
    return SteinerSystem(v, n, t, tuple(tuple(b) for b in blocks))


def complement_blocks(S: SteinerSystem, *, budget: Budget | None = None) -> tuple[Edge, ...]:
    """All n-subsets of the point set that are not blocks, in lex order.

    Raises ComplementEmpty, before enumerating, when every n-subset is a
    block (t+1 = n = v style corner cases).  The budget is checked once
    per 2^16 subsets (stage "complement"; ``subsets_checked`` counts the
    subsets enumerated so far, of ``subsets_total``).
    """
    total = comb(S.v, S.n)
    if total == S.block_count:
        raise ComplementEmpty(
            f"S({S.t},{S.n},{S.v}) uses every {S.n}-subset; complement configuration is empty"
        )
    budget = budget or Budget()
    block_set = set(S.blocks)
    subsets = itertools.combinations(range(1, S.v + 1), S.n)
    out: list[Edge] = []
    for done in range(0, total, 1 << 16):
        budget.check("complement", {"subsets_checked": done, "subsets_total": total})
        out += [c for c in itertools.islice(subsets, 1 << 16) if c not in block_set]
    return tuple(out)


# Built-in designs.

FANO_BLOCKS: tuple[Edge, ...] = (
    (1, 2, 3),
    (3, 4, 5),
    (3, 6, 7),
    (1, 4, 7),
    (2, 4, 6),
    (2, 5, 7),
    (1, 5, 6),
)

SQS8_BLOCKS: tuple[Edge, ...] = (
    (1, 2, 3, 4),
    (1, 2, 5, 6),
    (1, 2, 7, 8),
    (1, 3, 5, 7),
    (1, 3, 6, 8),
    (1, 4, 5, 8),
    (1, 4, 6, 7),
    (2, 3, 5, 8),
    (2, 3, 6, 7),
    (2, 4, 5, 7),
    (2, 4, 6, 8),
    (3, 4, 5, 6),
    (3, 4, 7, 8),
    (5, 6, 7, 8),
)


def builtin_fano() -> SteinerSystem:
    """The S(2, 3, 7) on seven points (unique up to isomorphism)."""
    return validate_steiner(7, 3, 2, FANO_BLOCKS)


def builtin_sqs8() -> SteinerSystem:
    """The S(3, 4, 8) on eight points; block set closed under complement."""
    return validate_steiner(8, 4, 3, SQS8_BLOCKS)


BUILTIN_DESIGNS = {"fano": builtin_fano, "sqs8": builtin_sqs8}


@dataclass(frozen=True)
class Partition:
    """Partition of {1, ..., v} into nonempty classes.

    Classes are sorted internally and ordered by smallest element, so
    equal partitions compare equal regardless of input order.
    """

    classes: tuple[Edge, ...]

    def __post_init__(self):
        try:
            cls = tuple(tuple(sorted(map(operator.index, c))) for c in self.classes)
        except TypeError:
            raise ValueError(f"Partition classes {self.classes} must hold integers only") from None
        if any(len(c) == 0 for c in cls):
            raise ValueError("partition classes must be nonempty")
        flat = list(itertools.chain.from_iterable(cls))
        if len(flat) != len(set(flat)):
            raise ValueError("partition classes must be disjoint")
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError("partition must cover 1..v with no gaps")
        object.__setattr__(self, "classes", tuple(sorted(cls, key=lambda c: c[0])))

    @classmethod
    def from_assignment(cls, assignment: Sequence[int]) -> "Partition":
        """Build from a class-label vector (labels arbitrary positive ints)."""
        groups: dict[int, list[int]] = {}
        for vtx, label in enumerate(assignment, start=1):
            groups.setdefault(label, []).append(vtx)
        return cls(tuple(tuple(g) for g in groups.values()))


def _search_partition(
    H: Hypergraph, k: int, mode: str, budget: Budget | None = None
) -> Partition | None:
    """Complete DFS over restricted-growth labellings; every edge must meet ``need`` classes.

    ``need`` is 2 for a weak colouring (mode "colour") and k for a k-cover
    (mode "cover"); ``mode`` also names the partial.  Vertices are
    labelled in natural order, so when u at position i of edge e takes
    label c, e[:i] is labelled and ``after = len(e) - 1 - i`` vertices are
    free: e fails iff ``need - |labels(e[:i]) | {c}| > after``, which can
    only happen at its last ``need - 1`` vertices.

    Labels are tried from 1 upward, so the first complete labelling found
    has the lexicographically smallest label vector: it is the
    deterministic witness reported everywhere.  Returns it as a
    Partition, or None after exhausting the space.  The label vector
    itself is the path from the root, so the vertex count is not bounded
    by Python's recursion limit.  The budget is checked at every search
    node (stage "partition-search"; ``nodes`` counts the nodes this
    search visited).
    """
    budget = budget or Budget()
    partial = {"mode": mode, "classes": k, "nodes": 0}
    need = 2 if mode == "colour" else k
    v = H.vertex_count
    # tests[u]: (e[:i], after) for every edge e with u = e[i] among its
    # last need - 1 vertices
    tests: list[list[tuple[Edge, int]]] = [[] for _ in range(v)]
    for e in H.edges:
        e0 = tuple(x - 1 for x in e)
        for i in range(max(0, len(e0) - need + 1), len(e0)):
            tests[e0[i]].append((e0[:i], len(e0) - 1 - i))
    assign = [0] * v  # 0 = unassigned, labels 1..k
    used = [0] * (v + 1)  # used[u]: classes opened by vertices 0..u-1
    label = assign.__getitem__

    # Cover mode needs no cut where the opened classes and the free
    # vertices fall short of k (used[u] + v - u < k): every label at u
    # then fails each edge through u, as need - |labels| >= k - used[u] - 1
    # > v - u - 1 >= after, so the search backtracks at that same node.
    # A complete labelling passed every edge's last vertex, so in cover
    # mode it opened all k classes.
    def ok(u: int, c: int) -> bool:
        for head, after in tests[u]:
            if need - len({c, *map(label, head)}) > after:
                return False
        return True

    u = 0
    while True:
        # a search node: vertices 0..u-1 are assigned
        partial["nodes"] += 1
        budget.check("partition-search", partial)
        if u == v:
            return Partition.from_assignment(assign)
        # the next node: the next label that fits at the deepest vertex
        # that has one (from label 1 at a vertex just reached)
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


def is_coverable(H: Hypergraph, c: int, *, budget: Budget | None = None) -> Partition | None:
    """Partition into exactly c classes with every edge meeting every class.

    One search in natural vertex order decides and, when it succeeds,
    returns the canonical witness Partition (the lexicographically least
    label vector); None is a definitive (exhaustive-search) negative
    answer.  Raises ResourceLimit (stage "partition-search") when the
    budget's deadline passes mid-search.
    """
    c = _integer(c, "c")
    if c == 1:
        return Partition((tuple(range(1, H.vertex_count + 1)),))
    if min_edge_size(H) < c:
        return None  # an edge with fewer than c vertices cannot meet c classes
    return _search_partition(H, c, "cover", budget)


def is_colourable(H: Hypergraph, m: int, *, budget: Budget | None = None) -> Partition | None:
    """Weak m-colouring witness (no monochromatic edge), or definitive None.

    Raises ResourceLimit (stage "partition-search") when the budget's
    deadline passes mid-search.
    """
    m = _integer(m, "m")
    if min_edge_size(H) < 2:
        return None  # a singleton edge is monochromatic under any partition
    return _search_partition(H, m, "colour", budget)


def chromatic_number(H: Hypergraph, *, budget: Budget | None = None) -> int:
    """Least m admitting a weak m-colouring.

    Raises Uncolourable when H has a singleton edge; otherwise the value
    is at most vertex_count (all-singleton classes work).  Raises
    ResourceLimit (stage "partition-search") when the budget's deadline
    passes mid-search.
    """
    if min_edge_size(H) < 2:
        raise Uncolourable("hypergraph has a singleton edge")
    for m in range(1, H.vertex_count + 1):
        if is_colourable(H, m, budget=budget) is not None:
            return m
    raise AssertionError("unreachable: singleton partition is a weak colouring")


# JSON input/output.  Loaders validate required keys and value ranges and
# ignore unknown keys, so every document the CLI emits round-trips.


def _json_int(x) -> int:
    """x itself when it is a JSON integer; floats, booleans and strings are not."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{json.dumps(x)} is not an integer")
    return x


def design_from_dict(d: dict) -> SteinerSystem:
    try:
        v, n, t = _json_int(d["v"]), _json_int(d["n"]), _json_int(d["t"])
        blocks = [tuple(_json_int(x) for x in b) for b in d["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad design document: {exc}") from exc
    # validation errors (DesignError, ValueError) propagate: the document
    # parsed fine, the design itself is invalid
    return validate_steiner(v, n, t, blocks)


def hypergraph_from_dict(d: dict) -> Hypergraph:
    try:
        vertices = _json_int(d["vertices"])
        edges = [tuple(_json_int(x) for x in e) for e in d["edges"]]
        return Hypergraph(vertices, tuple(edges))
    except (KeyError, TypeError, ValueError) as exc:
        # out-of-range vertices, empty edges, uncovered vertices: all are
        # malformed documents from the loader's point of view
        raise FormatError(f"bad hypergraph document: {exc}") from exc


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"top-level JSON in {path} must be an object")
    return doc


def load_design(path: str | Path) -> SteinerSystem:
    """Load a design JSON file: {"v":..., "n":..., "t":..., "blocks": [[...]]}."""
    return design_from_dict(_load_json(path))


def resolve_input(spec: str) -> tuple[SteinerSystem | None, Hypergraph]:
    """Resolve "builtin:<name>" or a JSON file path to (design or None, hypergraph).

    A file is read once; a document with a "blocks" key is a design,
    any other a hypergraph.
    """
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in BUILTIN_DESIGNS:
            raise FormatError(
                f"unknown builtin design {name!r}; available: "
                + ", ".join(sorted(BUILTIN_DESIGNS))
            )
        S = BUILTIN_DESIGNS[name]()
    else:
        doc = _load_json(spec)
        if "blocks" not in doc:
            return None, hypergraph_from_dict(doc)
        S = design_from_dict(doc)
    return S, S.hypergraph()
