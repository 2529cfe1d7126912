"""The design ladder, generated from small constructions.

Every design is built here from its defining construction, relabeled by
a seeded permutation of its points, and checked by the package's own
``validate_steiner`` before any workload uses it.  Seed 0 keeps the
natural labels.
"""

from __future__ import annotations

import itertools
import random


def _cyclic(v: int, base_blocks) -> list[tuple[int, ...]]:
    """Development of base blocks mod v; points are the residues + 1."""
    blocks = {
        tuple(sorted((x + s) % v + 1 for x in base)) for base in base_blocks for s in range(v)
    }
    return sorted(blocks)


def ag23():
    """AG(2,3) = STS(9): the 12 lines of the affine plane over GF(3)."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    label = {p: 3 * p[0] + p[1] + 1 for p in pts}
    lines = set()
    for a, b in itertools.combinations(pts, 2):
        d = ((b[0] - a[0]) % 3, (b[1] - a[1]) % 3)
        line = tuple(sorted(label[((a[0] + k * d[0]) % 3, (a[1] + k * d[1]) % 3)] for k in range(3)))
        lines.add(line)
    return 9, 3, 2, sorted(lines)


def sts13():
    """Cyclic STS(13) from the base blocks {0,1,4} and {0,2,7} mod 13."""
    return 13, 3, 2, _cyclic(13, [(0, 1, 4), (0, 2, 7)])


def pg23():
    """PG(2,3) = S(2,4,13) from the difference set {0,1,3,9} mod 13."""
    return 13, 4, 2, _cyclic(13, [(0, 1, 3, 9)])


def pg24():
    """PG(2,4) = S(2,5,21) from the difference set {3,6,7,12,14} mod 21."""
    return 21, 5, 2, _cyclic(21, [(3, 6, 7, 12, 14)])


def pg42():
    """PG(4,2) = STS(31): nonzero vectors of GF(2)^5, lines {a, b, a xor b}."""
    lines = {tuple(sorted((a, b, a ^ b))) for a in range(1, 32) for b in range(1, 32) if a != b}
    return 31, 3, 2, sorted(lines)


def ag42():
    """AG(4,2) planes = SQS(16): 4-subsets of GF(2)^4 with zero sum."""
    blocks = [
        tuple(p + 1 for p in q)
        for q in itertools.combinations(range(16), 4)
        if q[0] ^ q[1] ^ q[2] ^ q[3] == 0
    ]
    return 16, 4, 3, blocks


def fano():
    """The package's built-in Fano plane (``builtin:fano``)."""
    from steinerideals import builtin_fano

    S = builtin_fano()
    return S.v, S.n, S.t, list(S.blocks)


def sqs8():
    """The package's built-in SQS(8) (``builtin:sqs8``)."""
    from steinerideals import builtin_sqs8

    S = builtin_sqs8()
    return S.v, S.n, S.t, list(S.blocks)


LADDER = {
    "fano": fano,
    "sqs8": sqs8,
    "sts9": ag23,
    "sts13": sts13,
    "pg23": pg23,
    "pg24": pg24,
    "sts31": pg42,
    "sqs16": ag42,
}


def permutation(seed: int, labeling: int, name: str, v: int) -> list[int]:
    """perm[p] is the new label of point p (index 0 unused).

    Seed 0 is the identity on every pass.  Any other seed draws a fresh
    labeling for each pass index, so one run averages over several.
    """
    labels = list(range(1, v + 1))
    if seed:
        random.Random(f"{seed}:{labeling}:{name}").shuffle(labels)
    return [0] + labels


def build(name: str, seed: int, labeling: int = 0) -> tuple[dict, list[int]]:
    """The named design relabeled, validated, as (design document, perm)."""
    from steinerideals import validate_steiner

    v, n, t, blocks = LADDER[name]()
    perm = permutation(seed, labeling, name, v)
    S = validate_steiner(v, n, t, [[perm[p] for p in b] for b in blocks])
    return {"v": S.v, "n": S.n, "t": S.t, "blocks": [list(b) for b in S.blocks]}, perm
