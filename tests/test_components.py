from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from planarep.components import (
    TorsionClass,
    component_label,
    finite_order_classes,
    resolve_class,
    weight_dictionary,
)
from planarep.errors import ClassResolutionFailed, InfeasibleSpec, UnsupportedModel
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator


def _su2_classes_brute_force(m):
    """Distinct trace values over all elements of SU(2) with g^m = e.

    Every such element is conjugate to diag(w, conj(w)) with w an m-th root of
    unity; the trace separates SU(2) conjugacy classes.
    """
    traces = set()
    for k in range(m):
        w = np.exp(2j * np.pi * k / m)
        traces.add(round(float((w + np.conj(w)).real), 9))
    return traces


@pytest.mark.parametrize("m", range(1, 13))
def test_su2_class_count(m):
    classes = finite_order_classes(get_model("SU2"), m)
    assert len(classes) == m // 2 + 1
    assert len(classes) == len(_su2_classes_brute_force(m))


def test_su2_class_representatives_have_exact_order(m=7):
    model = get_model("SU2")
    for cls in finite_order_classes(model, m):
        g = cls.representative
        assert np.linalg.norm(np.linalg.matrix_power(g, m) - np.eye(2)) < 1e-12


@pytest.mark.parametrize("name,m", [("U1", 6), ("U2", 4), ("U3", 3)])
def test_un_class_count(name, m):
    model = get_model(name)
    classes = finite_order_classes(model, m)
    # multisets of size n from m roots of unity
    brute = {tuple(sorted(ks)) for ks in product(range(m), repeat=model.n)}
    assert len(classes) == len(brute)
    assert len({c.class_id for c in classes}) == len(classes)


def test_sl2r_enumeration_unsupported():
    with pytest.raises(UnsupportedModel):
        finite_order_classes(get_model("SL2R"), 3)


def test_resolve_class_round_trip():
    model = get_model("SU2")
    rng = np.random.default_rng(1)
    for m in (2, 3, 5, 8):
        for cls in finite_order_classes(model, m):
            k = model.random_element(rng)
            g = k @ cls.representative @ np.linalg.inv(k)
            assert resolve_class(model, g, m) == cls


def test_resolve_class_rejects_wrong_order():
    model = get_model("SU2")
    g = np.diag([np.exp(0.77j), np.exp(-0.77j)])
    with pytest.raises(ClassResolutionFailed):
        resolve_class(model, g, 4)


def test_component_label_conjugation_invariant():
    model = get_model("SU2")
    pres = PlanarPresentation(0, (3, 3, 3))
    cls = finite_order_classes(model, 3)[1]
    pt = solve_relator(SolveSpec(pres, model, [cls] * 3, seed=0)).point
    labels = component_label(pt)
    assert labels == [cls.class_id] * 3
    g = model.random_element(np.random.default_rng(2))
    assert component_label(pt.conjugate(g)) == labels


def test_weight_dictionary():
    cls = TorsionClass("U2", 4, (1, 1))
    assert weight_dictionary(cls) == [{"num": 1, "den": 4, "multiplicity": 2}]
    # the weights k/m come in lowest terms, 0 as 0/1
    cls = TorsionClass("U3", 6, (0, 2, 2))
    assert weight_dictionary(cls) == [{"num": 0, "den": 1, "multiplicity": 1},
                                      {"num": 1, "den": 3, "multiplicity": 2}]


@pytest.mark.parametrize("name", ["SU2", "U1", "U2", "U3"])
def test_class_tables_are_built_once_per_model_and_order(name):
    model = get_model(name)
    for m in (2, 3, 5):
        classes = finite_order_classes(model, m)
        assert isinstance(classes, tuple)
        assert finite_order_classes(model, m) is classes
        for cls in classes:
            rep = cls.representative
            assert cls.representative is rep
            with pytest.raises(ValueError):
                rep[0, 0] = 1.0
            # det c = exp(2 pi i phase/m), the phase a residue over the order
            phase = sum(cls.ks) % m
            assert all(type(k) is int and 0 <= k < m for k in cls.ks)
            assert cls.fractions == tuple(Fraction(k, m) for k in cls.ks)
            assert abs(np.linalg.det(rep) - np.exp(2j * np.pi * phase / m)) < 1e-12


@pytest.mark.parametrize("cls", [
    ("SU2", 3, (Fraction(1, 4), Fraction(3, 4))),
    ("U2", 3, (Fraction(0), Fraction(1, 2))),
    ("U1", 4, (Fraction(1, 3),)),
])
def test_solve_spec_refuses_fractions_of_another_order(cls):
    # a class of order m with these fractions would have numerators f m that
    # are not integers, so c^m != e: the class itself refuses to be built
    name, m, fractions = cls
    model = get_model(name)
    with pytest.raises(InfeasibleSpec, match=rf"violates g\^{m} = e"):
        SolveSpec(PlanarPresentation(1, (m,)), model,
                  [TorsionClass(name, m, tuple(f * m for f in fractions))])


@pytest.mark.parametrize("ks", [(3,), (-1,), (2, 1), (0, 3), (Fraction(1),), (1.0, 2)])
def test_torsion_class_refuses_numerators_off_canonical_form(ks):
    # whole numbers, but outside [0, m), unsorted or not of type int: not the
    # canonical numerators
    with pytest.raises(ValueError, match="not sorted"):
        TorsionClass("U2" if len(ks) == 2 else "U1", 3, ks)
