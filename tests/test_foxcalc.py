from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from planarep.foxcalc import (
    BarChain,
    GroupRingElt,
    abelianized_boundary,
    boundary,
    fill_word,
    fox_derivative,
    fundamental_cycle,
    relator_filling_chain,
)
from planarep.presentations import PlanarPresentation
from planarep.words import commutator, gen, w_inv, w_mul, word

from oracles import signed_count

letters = st.integers(min_value=-5, max_value=5).filter(lambda s: s != 0)
words = st.lists(letters, max_size=10).map(word)


def _random_presentations(count, rng):
    out = []
    while len(out) < count:
        genus = int(rng.integers(0, 4))
        n = int(rng.integers(0, 5))
        torsion = tuple(int(m) for m in rng.integers(2, 10, n))
        if genus == 0 and n == 0:
            continue
        out.append(PlanarPresentation(genus, torsion))
    return out


def test_fox_on_generators():
    x = gen(0)
    assert fox_derivative(x, 0) == GroupRingElt.one()
    assert fox_derivative(x, 1) == GroupRingElt.zero()
    assert fox_derivative(w_inv(x), 0) == GroupRingElt.of(w_inv(x), -1)


@given(words, words, st.integers(min_value=0, max_value=4))
def test_fox_product_rule(u, v, i):
    lhs = fox_derivative(w_mul(u, v), i)
    rhs = fox_derivative(u, i) + fox_derivative(v, i).translate(u)
    assert lhs == rhs


@given(words, st.integers(min_value=0, max_value=4))
def test_fox_fundamental_formula(w, i):
    # sum_s (dw/ds)(s - 1) = w - 1 in the group ring
    total = GroupRingElt.zero()
    for s in range(5):
        d = fox_derivative(w, s)
        total = total + d * (GroupRingElt.of(gen(s)) - GroupRingElt.one())
    assert total == GroupRingElt.of(w) - GroupRingElt.one()


def test_fox_matches_displayed_form_genus1():
    # d/dx [x,y]z = 1 - xyx^-1 ; d/dy = x - [x,y] ; d/dz = [x,y]
    p = PlanarPresentation(1, (2,))
    x, y = gen(0), gen(1)
    r = p.long_relator
    dx = GroupRingElt.one() - GroupRingElt.of(w_mul(x, y, w_inv(x)))
    dy = GroupRingElt.of(x) - GroupRingElt.of(commutator(x, y))
    dz = GroupRingElt.of(commutator(x, y))
    assert fox_derivative(r, 0) == dx
    assert fox_derivative(r, 1) == dy
    assert fox_derivative(r, 2) == dz


def test_abelianized_boundary_rows():
    p = PlanarPresentation(2, (3, 5))
    rows = abelianized_boundary(p)
    # long relator row: commutator letters cancel, one per torsion generator
    assert rows[0] == [0, 0, 0, 0, 1, 1]
    assert rows[1] == [0, 0, 0, 0, 3, 0]
    assert rows[2] == [0, 0, 0, 0, 0, 5]


def test_abelianized_boundary_matches_per_generator_counts():
    # one pass over each relator's letters against one signed_count per
    # generator per relator; the entries are plain integers
    rng = np.random.default_rng(11)
    for p in _random_presentations(40, rng) + [PlanarPresentation(64, (2, 3))]:
        rows = abelianized_boundary(p)
        rels = [p.long_relator, *p.torsion_relators]
        assert rows == [[signed_count(r, i) for i in range(p.num_generators)] for r in rels]
        assert all(type(q) is int for row in rows for q in row)
        # the cycle's check reads the same matrix and hands it back
        assert fundamental_cycle(p)[2] == rows


def test_fundamental_cycle_237():
    p = PlanarPresentation(0, (2, 3, 7))
    b, kappa, _ = fundamental_cycle(p)
    assert b == [42, -21, -14, -6]
    assert kappa == [1, Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 7)]


def test_fundamental_cycle_closes_on_random_presentations():
    rng = np.random.default_rng(7)
    for p in _random_presentations(50, rng):
        b, kappa, _ = fundamental_cycle(p)  # raises if d(b) != 0
        assert kappa[0] == 1


@given(st.lists(st.tuples(words, words, words), min_size=1, max_size=5))
@settings(max_examples=50)
def test_bar_dd_zero(cells):
    c = BarChain(3)
    for i, cell in enumerate(cells):
        c.add(cell, i + 1)
    assert boundary(boundary(c)) == BarChain(1)


@given(words)
def test_fill_word_boundary(w):
    fill = fill_word(w)
    b = boundary(fill)
    expected = BarChain(1)
    for s in w:
        expected.add(((s,),), 1)
    expected.add((w,), -1)
    assert b == expected


def test_filling_chain_exact_on_random_presentations():
    rng = np.random.default_rng(11)
    for p in _random_presentations(50, rng):
        relator_filling_chain(p)  # verifies boundary exactly, raises on fail


def test_filling_chain_cell_count_237():
    p = PlanarPresentation(0, (2, 3, 7))
    c = relator_filling_chain(p)
    assert len(c.terms) == 11


def test_group_ring_augmentation():
    e = GroupRingElt.of(word([1, 2]), 3) - GroupRingElt.of(word([2]), Fraction(1, 2))
    assert e.augmentation() == Fraction(5, 2)
    assert (e * GroupRingElt.of(word([3]))).augmentation() == Fraction(5, 2)
