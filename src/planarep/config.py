"""Numerical tolerances."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the numeric layers.

    rank_rel   -- relative SVD threshold for rank decisions, in (0, 1): a
                  cut at or above the largest singular value can only
                  decide rank 0.
    tau_grp    -- group membership / relator residual tolerance.

    Both must be finite and positive; NaN or inf would decide nothing.
    """

    rank_rel: float = 1e-8
    tau_grp: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "tau_grp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"tolerance {name} must be finite and positive, got {value}"
                )
        if self.rank_rel >= 1:
            raise ValueError(f"tolerance rank_rel must be below 1, got {self.rank_rel}")

    def to_json(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
