"""Steiner systems, hypergraphs, and exact partition searches.

A Steiner system S(t, n, v) is a collection of n-subsets (blocks) of
{1, ..., v} such that every t-subset of points lies in exactly one block.
A hypergraph here is a finite vertex set {1, ..., v} together with a set
of edges whose union is the whole vertex set.

Two partition notions are implemented, both exact:

* weak m-colouring: a partition into at most m nonempty classes with no
  edge contained in a single class;
* c-coverability: a partition into exactly c nonempty classes such that
  every edge meets every class.

Every c-coverable hypergraph is weakly c-colourable (an edge meeting all
c classes of a partition with c >= 2 cannot be monochromatic), and the
searches below are complete, so a None answer is a proof of nonexistence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

from .budget import Budget
from .errors import (
    BlockSizeMismatch,
    CountMismatch,
    FormatError,
    TSubsetMultiplyCovered,
    TSubsetUncovered,
    Uncolourable,
)

Edge = tuple[int, ...]


def _normalize_edge(edge: Iterable[int], vertex_count: int, what: str = "edge") -> Edge:
    vs = tuple(sorted(set(int(x) for x in edge)))
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
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
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
        v, n, t = self.v, self.n, self.t
        for name, val in (("v", v), ("n", n), ("t", t)):
            if not isinstance(val, int):
                raise ValueError(f"{name} must be an integer")
        if not (1 <= t < n <= v):
            raise ValueError(f"need 1 <= t < n <= v, got t={t}, n={n}, v={v}")
        blocks = []
        for b in self.blocks:
            bt = tuple(sorted(int(x) for x in b))
            if len(set(bt)) != n or len(bt) != n or bt[0] < 1 or bt[-1] > v:
                raise BlockSizeMismatch(tuple(b), n)
            blocks.append(bt)
        blocks = sorted(set(blocks))

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
        object.__setattr__(self, "blocks", tuple(blocks))

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


def complement_blocks(S: SteinerSystem) -> tuple[Edge, ...]:
    """All n-subsets of the point set that are not blocks, in lex order."""
    block_set = set(S.blocks)
    return tuple(
        c for c in itertools.combinations(range(1, S.v + 1), S.n) if c not in block_set
    )


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
        cls = tuple(tuple(sorted(int(x) for x in c)) for c in self.classes)
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

    def assignment_vector(self) -> tuple[int, ...]:
        """Class labels per vertex, classes numbered by smallest element."""
        v = sum(len(c) for c in self.classes)
        out = [0] * v
        for label, c in enumerate(self.classes, start=1):
            for vtx in c:
                out[vtx - 1] = label
        return tuple(out)

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _search_partition(
    H: Hypergraph, k: int, mode: str, order: Sequence[int], budget: Budget | None = None
):
    """Complete DFS over restricted-growth class assignments.

    mode "colour": reject any fully assigned monochromatic edge.
    mode "cover": every edge must meet all k classes (checked incrementally
    via the pigeonhole bound: classes an edge still misses cannot exceed
    its unassigned vertices).

    Returns the first complete assignment found, as a label vector indexed
    by vertex (1-based labels), or None after exhausting the space.  The
    budget, if given, is checked at every search node (stage
    "partition-search"; ``nodes`` counts the nodes this search visited).
    """
    budget = budget or Budget()
    partial = {"mode": mode, "classes": k, "nodes": 0}
    v = H.vertex_count
    edges0 = [tuple(x - 1 for x in e) for e in H.edges]
    member_edges: list[list[int]] = [[] for _ in range(v)]
    for ei, e in enumerate(edges0):
        for u in e:
            member_edges[u].append(ei)
    assign = [0] * v  # 0 = unassigned, labels 1..k
    order = list(order)

    def ok(u: int, c: int) -> bool:
        for ei in member_edges[u]:
            e = edges0[ei]
            labels = set()
            unassigned = 0
            for w in e:
                lab = c if w == u else assign[w]
                if lab == 0:
                    unassigned += 1
                else:
                    labels.add(lab)
            if mode == "colour":
                if unassigned == 0 and len(labels) == 1:
                    return False
            else:
                if k - len(labels) > unassigned:
                    return False
        return True

    def dfs(pos: int, used: int):
        partial["nodes"] += 1
        budget.check("partition-search", partial)
        if pos == len(order):
            if mode == "cover" and used != k:
                return None
            return list(assign)
        u = order[pos]
        remaining = len(order) - pos
        # cover mode must still be able to open all k classes
        if mode == "cover" and used + remaining < k:
            return None
        for c in range(1, min(k, used + 1) + 1):
            if ok(u, c):
                assign[u] = c
                got = dfs(pos + 1, max(used, c))
                if got is not None:
                    return got
                assign[u] = 0
        return None

    return dfs(0, 0)


def _degree_order(H: Hypergraph) -> list[int]:
    # most-constrained vertices first; ties by natural order
    deg = [0] * H.vertex_count
    for e in H.edges:
        for x in e:
            deg[x - 1] += 1
    return sorted(range(H.vertex_count), key=lambda u: (-deg[u], u))


def _witness_partition(H: Hypergraph, k: int, mode: str, budget: Budget | None) -> Partition | None:
    """Decision search in degree order, then canonical witness extraction.

    The decision pass prunes faster on unsatisfiable instances; when a
    partition exists, a complete search in natural vertex order returns
    the lexicographically smallest label vector, which is the
    deterministic witness reported everywhere.  When the two orders
    coincide (every Steiner system is vertex-regular), the decision
    pass already found that vector and is not repeated.
    """
    order = _degree_order(H)
    assign = _search_partition(H, k, mode, order, budget)
    if assign is None:
        return None
    natural = list(range(H.vertex_count))
    if order != natural:
        assign = _search_partition(H, k, mode, natural, budget)
        if assign is None:  # pragma: no cover - both searches are complete
            raise AssertionError("decision and witness searches disagree")
    return Partition.from_assignment(assign)


def is_coverable(H: Hypergraph, c: int, *, budget: Budget | None = None) -> Partition | None:
    """Partition into exactly c classes with every edge meeting every class.

    Returns a canonical witness Partition, or None as a definitive
    (exhaustive-search) negative answer.  Raises ResourceLimit (stage
    "partition-search") when the budget's deadline passes mid-search.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if c == 1:
        return Partition((tuple(range(1, H.vertex_count + 1)),))
    if c > H.vertex_count or min_edge_size(H) < c:
        return None  # an edge with fewer than c vertices cannot meet c classes
    return _witness_partition(H, c, "cover", budget)


def is_colourable(H: Hypergraph, m: int, *, budget: Budget | None = None) -> Partition | None:
    """Weak m-colouring witness (no monochromatic edge), or definitive None.

    Raises ResourceLimit (stage "partition-search") when the budget's
    deadline passes mid-search.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if min_edge_size(H) < 2:
        return None  # a singleton edge is monochromatic under any partition
    return _witness_partition(H, m, "colour", budget)


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


def design_from_dict(d: dict) -> SteinerSystem:
    try:
        v, n, t = int(d["v"]), int(d["n"]), int(d["t"])
        blocks = [tuple(int(x) for x in b) for b in d["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad design document: {exc}") from exc
    # validation errors (DesignError, ValueError) propagate: the document
    # parsed fine, the design itself is invalid
    return validate_steiner(v, n, t, blocks)


def hypergraph_from_dict(d: dict) -> Hypergraph:
    try:
        vertices = int(d["vertices"])
        edges = [tuple(int(x) for x in e) for e in d["edges"]]
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


def load_hypergraph(path: str | Path) -> Hypergraph:
    """Load a hypergraph JSON file: {"vertices":..., "edges": [[...]]}."""
    return hypergraph_from_dict(_load_json(path))


def resolve_design(spec_str: str) -> SteinerSystem:
    """Resolve "builtin:<name>" or a JSON file path to a validated design."""
    if spec_str.startswith("builtin:"):
        name = spec_str.split(":", 1)[1]
        if name not in BUILTIN_DESIGNS:
            raise FormatError(
                f"unknown builtin design {name!r}; available: "
                + ", ".join(sorted(BUILTIN_DESIGNS))
            )
        return BUILTIN_DESIGNS[name]()
    return load_design(spec_str)
