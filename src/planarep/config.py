"""Numerical tolerances."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the numeric layers.

    rank_rel   -- relative SVD threshold for rank decisions.
    tau_grp    -- group membership / relator residual tolerance.
    """

    rank_rel: float = 1e-8
    tau_grp: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "tau_grp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")

    def to_json(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
