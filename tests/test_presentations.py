from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from planarep.errors import MalformedInput, TorsionOrderTooSmall
from planarep.presentations import PlanarPresentation, word_to_text

genera = st.integers(min_value=0, max_value=4)
torsions = st.lists(st.integers(min_value=2, max_value=9), max_size=4).map(tuple)


def test_render():
    # analyze reports this text under "rendering"
    assert PlanarPresentation(1, (2, 3)).render() == (
        "< x1,y1,z1,z2 | x1 y1 x1^-1 y1^-1 z1 z2, z1^2, z2^3 >"
    )
    assert PlanarPresentation(0, (2, 3, 7)).render() == (
        "< z1,z2,z3 | z1 z2 z3, z1^2, z2^3, z3^7 >"
    )
    assert PlanarPresentation(2, ()).render() == (
        "< x1,y1,x2,y2 | x1 y1 x1^-1 y1^-1 x2 y2 x2^-1 y2^-1 >"
    )


def test_word_text():
    p = PlanarPresentation(1, (3,))
    assert p.word_text(p.torsion_relators[0]) == "z1^3"
    assert word_to_text((), p.generator_names) == "1"


@given(genera, torsions)
def test_long_relator_shape(genus, torsion):
    p = PlanarPresentation(genus, torsion)
    # 4 letters per handle commutator plus one per torsion generator
    assert len(p.long_relator) == 4 * genus + len(torsion)
    assert p.num_generators == 2 * genus + len(torsion)
    for j, m in enumerate(torsion):
        assert p.torsion_relators[j] == (p.z_index(j) + 1,) * m


@pytest.mark.parametrize("torsion", [(), (2, 3, 7)])
def test_long_relator_matches_letter_by_letter_reference(torsion):
    # x1 y1 x1^-1 y1^-1 ... xl yl xl^-1 yl^-1 z1 .. zn, appended one letter
    # at a time: the word is already reduced
    for genus in range(65):
        p = PlanarPresentation(genus, torsion)
        ref = []
        for j in range(genus):
            x, y = p.x_index(j) + 1, p.y_index(j) + 1
            ref += [x, y, -x, -y]
        ref += [p.z_index(j) + 1 for j in range(len(torsion))]
        assert p.long_relator == tuple(ref)


def test_measure_values():
    assert PlanarPresentation(0, (2, 3, 7)).measure == Fraction(1, 42)
    assert PlanarPresentation(1, ()).measure == 0
    assert PlanarPresentation(2, ()).measure == 2
    assert PlanarPresentation(1, (3,)).measure == Fraction(2, 3)


def test_bad_inputs():
    with pytest.raises(TorsionOrderTooSmall):
        PlanarPresentation(0, (1,))
    with pytest.raises(MalformedInput):
        PlanarPresentation(-1, ())
