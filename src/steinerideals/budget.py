"""One resource budget for every long loop of the package.

It lives in its own module so that the lowest layer (``monomials``) and
the layers built on it (``symbolic``, ``containment``) can all check it.
A function given ``budget=None`` runs under ``Budget()``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ResourceLimit, _integer

DEFAULT_GENERATOR_CAP = 2_000_000


@dataclass
class Budget:
    """Resource limits shared by every long computation.

    ``generator_cap`` bounds the candidate rows of one symbolic-power fold
    step or ordinary-power multiply; ``deadline`` is a ``time.monotonic()``
    value or None; ``progress``, if set, receives every check's (stage,
    partial) before the limits are tested; the partial is the loop's own
    dict, so a sink that keeps it must copy it.  Long loops call ``check``.
    """

    generator_cap: int = DEFAULT_GENERATOR_CAP
    deadline: float | None = None
    progress: Callable[[str, dict], None] | None = None

    def __post_init__(self):
        self.generator_cap = _integer(self.generator_cap, "generator cap", None)
        if self.generator_cap < 1:
            raise ValueError("generator cap must be positive")
        if self.deadline is not None and math.isnan(self.deadline):
            raise ValueError("deadline must not be NaN")

    def check(self, stage: str, partial: dict, candidate: int = 0) -> None:
        """Report to ``progress``; raise ResourceLimit once a limit is passed."""
        if self.progress is not None:
            self.progress(stage, partial)
        if candidate > self.generator_cap:
            raise ResourceLimit(
                stage,
                f"candidate generator count {candidate} exceeds cap {self.generator_cap}",
                partial,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit(stage, "time budget exhausted", partial)
