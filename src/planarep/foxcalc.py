"""Exact symbolic layer: Fox derivatives, bar-resolution chains, fundamental cycle.

All coefficients are exact rationals; every boundary identity asserted here is
checked in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FillVerificationFailed
from .presentations import PlanarPresentation
from .words import IDENTITY, Word, gen, w_inv, w_mul


class GroupRingElt:
    """Finite rational linear combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, q in terms.items():
                q = Fraction(q)
                if q:
                    self.terms[w] = q

    @classmethod
    def of(cls, w: Word, coeff=1) -> "GroupRingElt":
        return cls({w: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "GroupRingElt":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElt":
        return cls({IDENTITY: Fraction(1)})

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for w, q in other.terms.items():
            s = out.get(w, Fraction(0)) + q
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return GroupRingElt(out)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt({w: -q for w, q in self.terms.items()})

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        out: dict[Word, Fraction] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = w_mul(u, v)
                s = out.get(w, Fraction(0)) + a * b
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return GroupRingElt(out)

    def translate(self, u: Word) -> "GroupRingElt":
        """Left multiplication by the single word u."""
        return GroupRingElt({w_mul(u, w): q for w, q in self.terms.items()})

    def augmentation(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{q}*{w}" for w, q in sorted(self.terms.items()))


def fox_derivative(w: Word, gen_index: int) -> GroupRingElt:
    """Fox derivative of w with respect to the generator gen_index.

    Satisfies d(uv) = du + u.dv, d(s)/ds = 1 and d(s^-1)/ds = -s^-1.
    """
    out: dict[Word, Fraction] = {}

    def add(u: Word, q: int):
        s = out.get(u, Fraction(0)) + q
        if s:
            out[u] = s
        else:
            out.pop(u, None)

    prefix: Word = IDENTITY
    target = gen_index + 1
    for s in w:
        if s == target:
            add(prefix, 1)
        elif s == -target:
            add(w_mul(prefix, (s,)), -1)
        prefix = w_mul(prefix, (s,))
    return GroupRingElt(out)


def abelianized_boundary(p: PlanarPresentation) -> list[list[int]]:
    """Matrix of the abelianized degree-2 boundary, integer entries.

    Rows indexed by (r, r_1..r_n), columns by generators; entries are the
    signed letter counts of each generator in each relator, in one pass.
    """
    rows = [[0] * p.num_generators for _ in range(1 + p.n_torsion)]
    for row, rel in zip(rows, (p.long_relator, *p.torsion_relators)):
        for s in rel:
            row[abs(s) - 1] += 1 if s > 0 else -1
    return rows


def fundamental_cycle(p: PlanarPresentation):
    """Coefficients of the 2-cycle b = m r - sum (m/m_j) r_j, and kappa = b/m.

    Returns (b, kappa, bd): b integer and kappa rational over (r, r_1..r_n),
    bd = abelianized_boundary(p); asserts the boundary of b vanishes exactly.
    """
    m = p.lcm
    b = [m] + [-(m // mj) for mj in p.torsion]
    kappa = [Fraction(q, m) for q in b]
    bd = abelianized_boundary(p)
    for col in range(p.num_generators):
        total = sum(b[row] * bd[row][col] for row in range(len(b)))
        if total != 0:
            raise FillVerificationFailed("fundamental cycle has nonzero boundary")
    return b, kappa, bd


# --- bar resolution chains --------------------------------------------------

Cell1 = tuple[Word]
Cell2 = tuple[Word, Word]


@dataclass
class BarChain:
    """Rational chain in the reduced normalized bar complex, degree 1 or 2.

    Cells containing the empty word are dropped.
    """

    degree: int
    terms: dict[tuple, Fraction] = field(default_factory=dict)

    def add(self, cell: tuple, coeff) -> None:
        if any(not w for w in cell):
            return
        q = self.terms.get(cell, Fraction(0)) + Fraction(coeff)
        if q:
            self.terms[cell] = q
        else:
            self.terms.pop(cell, None)

    def __add__(self, other: "BarChain") -> "BarChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = BarChain(self.degree, dict(self.terms))
        for cell, q in other.terms.items():
            out.add(cell, q)
        return out

    def scale(self, q) -> "BarChain":
        q = Fraction(q)
        return BarChain(self.degree, {c: q * v for c, v in self.terms.items()})

    def __neg__(self) -> "BarChain":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BarChain)
            and self.degree == other.degree
            and self.terms == other.terms
        )


def boundary(chain: BarChain) -> BarChain:
    """Bar boundary with the convention d[g|h] = [h] - [gh] + [g], [e] = 0."""
    if chain.degree == 2:
        out = BarChain(1)
        for (g, h), q in chain.terms.items():
            out.add((h,), q)
            out.add((w_mul(g, h),), -q)
            out.add((g,), q)
        return out
    if chain.degree == 3:
        out = BarChain(2)
        for (g, h, k), q in chain.terms.items():
            out.add((h, k), q)
            out.add((w_mul(g, h), k), -q)
            out.add((g, w_mul(h, k)), q)
            out.add((g, h), -q)
        return out
    raise ValueError(f"no boundary implemented for degree {chain.degree}")


def fill_word(w: Word) -> BarChain:
    """Telescoping 2-chain whose boundary is (sum of letter cells) - [w]."""
    fill = BarChain(2)
    prefix: Word = (w[0],) if w else IDENTITY
    for s in w[1:]:
        fill.add((prefix, (s,)), 1)
        prefix = w_mul(prefix, (s,))
    return fill


def relator_filling_chain(p: PlanarPresentation) -> BarChain:
    """The chain c with boundary [r] - sum_j (1/m_j) [r_j], exactly.

    Built from -fill(r), (1/m_j) fill(r_j), and inverse-cancellation cells
    [s|s^-1] for the commutator letters of r; the boundary identity is checked
    in exact rational arithmetic.
    """
    r = p.long_relator
    c = -fill_word(r)
    for j, rel in enumerate(p.torsion_relators):
        c = c + fill_word(rel).scale(Fraction(1, p.torsion[j]))
    for j in range(p.genus):
        for i in (p.x_index(j), p.y_index(j)):
            s = gen(i)
            c.add((s, w_inv(s)), 1)
    expected = BarChain(1)
    expected.add((r,), 1)
    for j, rel in enumerate(p.torsion_relators):
        expected.add((rel,), Fraction(-1, p.torsion[j]))
    if boundary(c) != expected:
        raise FillVerificationFailed("relator filling chain boundary mismatch")
    return c
