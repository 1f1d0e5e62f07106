"""Every setting a division depends on, in one class.

Each stage reads the fields it needs from one `DivisionConfig`.  Building
or checking one imports no numpy and no stage.  Any other setting, such
as `embedding._MAX_NORM`, is a constant of the version.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._version import __version__
from .errors import check_int, check_real

# Lloyd iterations at most, unless the caller sets another cap
MAX_ITERS = 300

# the least value of each integer setting; an index entry holds an entity
# of each ontology, so α is at least 2
_INT_MINIMA = {"seed": 0, "alpha": 2, "max_subsets": 1, "dim": 1,
               "epochs": 0, "negatives": 1, "kmeans_max_iters": 1}


@dataclass(frozen=True)
class DivisionConfig:
    """Every setting a division depends on; a bad one raises ValueError
    when the config is made, before any input is read."""

    seed: int = 0
    alpha: int = 60
    max_subsets: int = 50
    dim: int = 64
    epochs: int = 100
    negatives: int = 10
    margin: float = 0.05
    learning_rate: float = 0.05
    kmeans_max_iters: int = MAX_ITERS

    def __post_init__(self):
        for name, least in _INT_MINIMA.items():
            check_int(name, getattr(self, name))
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        check_real("margin", self.margin)
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("margin must be finite and >= 0")
        check_real("learning_rate", self.learning_rate)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")

    def provenance(self) -> dict[str, object]:
        # every field changes the output, so all of them are needed to rerun,
        # and so do the package and numpy versions that trained the
        # embeddings; numpy is imported here, so a config loads none
        import numpy as np
        return {**asdict(self), "version": __version__,
                "numpy": np.__version__}


# other names for `DivisionConfig`, under which the benchmark worker still
# builds its index and training settings
LexConfig = TrainingConfig = DivisionConfig
