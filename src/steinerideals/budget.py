"""One resource budget for every long loop of the package.

It lives in its own module so that the lowest layer (``monomials``) and
the layers built on it (``symbolic``, ``containment``) can all check it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .errors import ResourceLimit

DEFAULT_GENERATOR_CAP = 2_000_000

ProgressFn = Callable[[int, int, int], None]


@dataclass
class Budget:
    """Resource limits shared by every long computation.

    ``generator_cap`` bounds the candidate rows of one symbolic-power fold
    step or ordinary-power multiply; ``deadline`` is a ``time.monotonic()``
    value or None; ``progress`` receives (supports folded, supports total,
    generators kept) after each fold step.  Long loops call ``check``.
    """

    generator_cap: int = DEFAULT_GENERATOR_CAP
    deadline: float | None = None
    progress: ProgressFn | None = None

    def check(self, stage: str, partial: dict, candidate: int = 0) -> None:
        """Raise ResourceLimit for ``stage`` with ``partial`` once a limit is passed."""
        if candidate > self.generator_cap:
            raise ResourceLimit(
                stage,
                f"candidate generator count {candidate} exceeds cap {self.generator_cap}",
                partial,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit(stage, "time budget exhausted", partial)
