"""The exact class arithmetic on integers against its Fraction references.

Classes hold integer numerators over their order, and the solver's rules add
them over the spec's common denominator 2 lcm(orders); ``tests/oracles.py``
keeps the same arithmetic on ``Fraction``s.  Every property draws a group,
1-8 torsion orders in 2-12, a class index per order and a target.
"""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from planarep import solver
from planarep.cli import _default_classes
from planarep.cohomology import RepPoint
from planarep.components import (
    _round_spectra,
    component_label,
    finite_order_classes,
    resolve_class,
)
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec

from oracles import (
    class_id_fractions,
    default_classes_fractions,
    det_test_fractions,
    rank2_rule_fractions,
    torus_phases_fractions,
)

GROUPS = ("SU2", "U1", "U2", "U3")

# (group, torsion orders, one class index per order, target -e)
specs = st.tuples(
    st.sampled_from(GROUPS),
    st.lists(st.tuples(st.integers(2, 12), st.integers(0, 10**6)), min_size=1, max_size=8),
    st.booleans(),
)


def _spec(case, genus: int) -> SolveSpec:
    group, drawn, minus = case
    model = get_model(group)
    classes = []
    for m, i in drawn:
        table = finite_order_classes(model, m)
        classes.append(table[i % len(table)])
    pres = PlanarPresentation(genus, tuple(m for m, _ in drawn))
    return SolveSpec(pres, model, classes, minus=minus)


@settings(max_examples=300, deadline=None)
@given(specs)
def test_rank2_rule_margin_and_signs_match_the_fraction_rule(case):
    spec = _spec(case, 0)
    rule, ref = solver._rank2_rule(spec), rank2_rule_fractions(spec)
    assert (rule is None) == (ref is None) == (spec.model.n != 2)
    if rule is None:
        return
    margin, signs = rule
    assert type(margin) is int and Fraction(margin, spec.den) == ref[0]
    assert signs == ref[1]
    if margin == 0:
        # on the boundary the torus point is built exactly when the picked
        # diagonal product has the target's phases
        built = solver._torus_point(spec)
        assert (built is not None) == torus_phases_fractions(spec, ref[1])


@settings(max_examples=300, deadline=None)
@given(specs)
def test_det_test_matches_the_fraction_sum(case):
    # at genus 1 the certificate of U(n) is the determinant test alone, and
    # every SU(2) tuple is feasible
    spec = _spec(case, 1)
    feasible = solver._feasibility_oracle(spec)
    if spec.model.kind == "SU":
        assert feasible is True
    else:
        assert feasible == det_test_fractions(spec.classes, spec.model.n, spec.minus)


@settings(max_examples=60, deadline=None)  # the Fraction reach sets take ~25 ms each
@given(specs)
def test_default_classes_match_the_fraction_reach_sets(case):
    group, drawn, minus = case
    model = get_model(group)
    per_gen = [finite_order_classes(model, m) for m, _ in drawn]
    target = "-e" if minus else "e"
    picked = _default_classes(model, per_gen, target)
    ref = default_classes_fractions(model, per_gen, target)
    assert len(picked) == len(ref) and all(a is b for a, b in zip(picked, ref))


@pytest.mark.parametrize("group", GROUPS)
def test_class_ids_and_json_match_the_fraction_rendering(group):
    model = get_model(group)
    for m in range(2, 13):
        for cls in finite_order_classes(model, m):
            assert cls.class_id == class_id_fractions(cls)
            assert cls.to_json() == {
                "model": group, "order": m, "id": cls.class_id,
                "fractions": [{"num": Fraction(k, m).numerator, "den": Fraction(k, m).denominator}
                              for k in cls.ks],
            }


@pytest.mark.parametrize("group", GROUPS)
def test_labels_are_the_listed_instances(group):
    # a conjugated representative rounds to the listed class itself, and its
    # label is that class's cached id, not a string built per point
    model = get_model(group)
    rng = np.random.default_rng(5)
    for m in (2, 3, 7, 12):
        table = finite_order_classes(model, m)
        gens = []
        for cls in table:
            k = model.random_element(rng)
            g = k @ cls.representative @ np.linalg.inv(k)
            assert resolve_class(model, g, m) is cls
            assert _round_spectra(model, np.linalg.eigvals(g)[None], [m], 1e-6)[0] is cls
            gens.append(g)
        pt = RepPoint(PlanarPresentation(0, (m,) * len(table)), model, gens)
        labels = component_label(pt)
        assert all(label is cls.class_id for label, cls in zip(labels, table))


def test_to_json_returns_a_payload_the_caller_owns():
    # a caller that edits the payload, as cmd_components adds weights, leaves
    # the shared class's next payload as it was
    cls = finite_order_classes(get_model("U2"), 4)[3]
    before = cls.to_json()
    payload = cls.to_json()
    payload["weights"] = []
    payload["fractions"][0]["num"] = 99
    payload["fractions"].append({"num": 1, "den": 2})
    assert cls.to_json() == before
