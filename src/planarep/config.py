"""Numerical tolerances."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the numeric layers.

    rank_rel   -- relative SVD threshold for rank decisions: a cut at or
                  above the largest singular value can only decide rank 0.
    tau_grp    -- group membership / relator residual tolerance: a cut of
                  1 or more passes residuals the size of the group's
                  elements, at points that solve nothing.

    Both must lie in (0, 1); NaN, inf and values outside decide nothing.
    """

    rank_rel: float = 1e-8
    tau_grp: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "tau_grp"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"tolerance {name} must be in (0, 1), got {value}")

    def to_json(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
