"""Settings of the numeric stages, kept apart from the stages themselves.

`DivisionConfig` takes its defaults and checks from here, so building or
checking a configuration never imports numpy; `embedding` and
`clustering` import it only when a division runs.  Every field is also a
`DivisionConfig` field but the seed, which `divide` derives; any other
setting, such as `embedding._MAX_NORM`, is a constant of the version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_int, check_real

# Lloyd iterations at most, unless the caller sets another cap
MAX_ITERS = 300


@dataclass(frozen=True)
class TrainingConfig:
    dim: int = 64
    epochs: int = 100
    negatives: int = 10
    margin: float = 0.05
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_int("dim", self.dim)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        check_int("epochs", self.epochs)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        check_int("negatives", self.negatives)
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        check_real("margin", self.margin)
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("margin must be finite and >= 0")
        check_real("learning_rate", self.learning_rate)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
