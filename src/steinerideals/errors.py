"""Exception types shared across the package, and its one integer-argument check.

Design validation failures are subclasses of DesignError so callers can
catch the whole family at once.  ResourceLimit and DegenerateRegion are
ordinary, documented outcomes of long computations, not crashes; both
carry enough structured state to serialize a partial report.
"""

from __future__ import annotations

import operator


class SteinerIdealsError(Exception):
    """Base class for all package-specific errors."""


class FormatError(SteinerIdealsError):
    """Malformed input file or JSON document (bad schema, bad values)."""


class DesignError(SteinerIdealsError):
    """Base class for Steiner-system validation failures."""


class BlockSizeMismatch(DesignError):
    """A block is not an n-subset of the point set."""

    def __init__(self, block, n: int):
        self.block = tuple(block)
        self.n = n
        super().__init__(f"block {self.block} is not a {n}-subset of the point set")


class CountMismatch(DesignError):
    """Block count disagrees with the identity |B| * C(n,t) = C(v,t)."""

    def __init__(self, got: int, expected, detail: str = ""):
        self.got = got
        self.expected = expected
        msg = f"block count {got} != required C(v,t)/C(n,t) = {expected}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TSubsetUncovered(DesignError):
    """Some t-subset of points lies in no block."""

    def __init__(self, tsubset):
        self.tsubset = tuple(tsubset)
        super().__init__(f"t-subset {self.tsubset} is contained in no block")


class TSubsetMultiplyCovered(DesignError):
    """Some t-subset of points lies in two or more blocks."""

    def __init__(self, tsubset, blocks):
        self.tsubset = tuple(tsubset)
        self.blocks = tuple(tuple(b) for b in blocks)
        super().__init__(
            f"t-subset {self.tsubset} is contained in multiple blocks: "
            + ", ".join(str(b) for b in self.blocks)
        )


class Uncolourable(SteinerIdealsError):
    """No weak colouring exists for any number of classes (singleton edge)."""


class MixedAmbient(SteinerIdealsError):
    """Operands live in polynomial rings with different variable counts."""

    def __init__(self, a: int, b: int):
        self.counts = (a, b)
        super().__init__(f"mixed ambient rings: {a} variables vs {b} variables")


class ComplementEmpty(SteinerIdealsError):
    """The design uses every n-subset as a block, so the complement is empty."""


class DegenerateRegion(SteinerIdealsError):
    """Resurgence search-region hypothesis fails (ratio <= asymptotic bound)."""


class ResourceLimit(SteinerIdealsError):
    """A configured generator cap or time budget was exceeded.

    ``stage`` names the phase that hit the limit and ``partial`` is a
    JSON-serializable snapshot of progress made before stopping.
    """

    def __init__(self, stage: str, detail: str, partial: dict | None = None):
        self.stage = stage
        self.detail = detail
        self.partial = dict(partial or {})
        super().__init__(f"resource limit in {stage}: {detail}")


class InternalInconsistency(SteinerIdealsError):
    """Two independent code paths disagreed; indicates an implementation bug."""


def _integer(x, name: str, least: int | None = 1, most: int | None = None) -> int:
    """x as a Python int, for the scalar integer argument called name.

    Every layer checks its integer arguments here, on entry: a float or
    a string raises TypeError (operator.index rounds nothing), a value
    below least a ValueError, and one above most an OverflowError.  A
    bound of None is not checked.  Numpy integers are integers.
    """
    try:
        x = operator.index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(x).__name__}") from None
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and x > most:
        raise OverflowError(f"{name} {x} exceeds limit {most}")
    return x
