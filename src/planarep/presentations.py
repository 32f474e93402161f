"""Planar group presentations.

A planar group is encoded by its genus l and torsion orders (m_1..m_n); the
long relator is prod_j [x_j,y_j] z_1..z_n and the torsion relators are
z_j^{m_j}.  Presentations are built from these numbers, never parsed from
text; ``render`` writes the explicit form
``< x1,y1,...,z1,... | <long relator>, z1^m1, ... >`` for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MalformedInput, TorsionOrderTooSmall
from .words import Word, commutator, gen, w_mul, w_pow


@dataclass(frozen=True)
class PlanarPresentation:
    genus: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise MalformedInput("genus must be nonnegative")
        for m in self.torsion:
            if m < 2:
                raise TorsionOrderTooSmall(f"torsion order {m} < 2")

    @property
    def n_torsion(self) -> int:
        return len(self.torsion)

    @property
    def num_generators(self) -> int:
        return 2 * self.genus + self.n_torsion

    def x_index(self, j: int) -> int:
        return 2 * j

    def y_index(self, j: int) -> int:
        return 2 * j + 1

    def z_index(self, j: int) -> int:
        return 2 * self.genus + j

    @cached_property
    def generator_names(self) -> tuple[str, ...]:
        names = []
        for j in range(self.genus):
            names += [f"x{j + 1}", f"y{j + 1}"]
        names += [f"z{j + 1}" for j in range(self.n_torsion)]
        return tuple(names)

    @cached_property
    def long_relator(self) -> Word:
        """prod_j [x_j, y_j] z_1..z_n, reduced in one pass over its parts."""
        return w_mul(
            *(commutator(gen(self.x_index(j)), gen(self.y_index(j))) for j in range(self.genus)),
            *(gen(self.z_index(j)) for j in range(self.n_torsion)),
        )

    @cached_property
    def torsion_relators(self) -> tuple[Word, ...]:
        return tuple(
            w_pow(gen(self.z_index(j)), m) for j, m in enumerate(self.torsion)
        )

    @cached_property
    def lcm(self) -> int:
        return math.lcm(*self.torsion) if self.torsion else 1

    @cached_property
    def measure(self) -> Fraction:
        mu = Fraction(2 * self.genus - 2)
        for m in self.torsion:
            mu += 1 - Fraction(1, m)
        return mu

    def word_text(self, w: Word) -> str:
        return word_to_text(w, self.generator_names)

    def render(self) -> str:
        gens = ",".join(self.generator_names)
        rels = [self.word_text(self.long_relator)]
        rels += [self.word_text(r) for r in self.torsion_relators]
        return f"< {gens} | {', '.join(rels)} >"

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "torsion": list(self.torsion),
            "measure": {"num": self.measure.numerator, "den": self.measure.denominator},
            "lcm": self.lcm,
            "generators": list(self.generator_names),
            "relators": {
                "r": list(self.long_relator),
                **{
                    f"r_{j + 1}": list(r)
                    for j, r in enumerate(self.torsion_relators)
                },
            },
        }


def word_to_text(w: Word, names: tuple[str, ...]) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        s = w[i]
        k = 1
        while i + k < len(w) and w[i + k] == s:
            k += 1
        e = k if s > 0 else -k
        name = names[abs(s) - 1]
        parts.append(name if e == 1 else f"{name}^{e}")
        i += k
    return " ".join(parts)
