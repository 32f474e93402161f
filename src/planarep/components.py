"""Conjugacy classes of finite-order elements and component labels.

Connected components of the torsion data correspond to conjugacy classes of
the torsion-generator images; for the unitary models a class is a multiset of
m-th roots of unity, recorded as rational angle fractions k/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .cohomology import RepPoint, cohomology_data
from .config import Tolerances
from .errors import ClassResolutionFailed, UnsupportedModel
from .liegroup import LieModel


@dataclass(frozen=True)
class TorsionClass:
    """Conjugacy class of an element g with g^m = e.

    fractions are the eigenvalue arguments divided by 2 pi, each in [0, 1),
    sorted; for SU(n) they sum to an integer.
    """

    model_name: str
    order: int
    fractions: tuple[Fraction, ...]

    @property
    def class_id(self) -> str:
        inner = ",".join(str(f) for f in self.fractions)
        return f"{self.model_name}|m={self.order}|[{inner}]"

    @cached_property
    def representative(self) -> np.ndarray:
        """diag(exp(2 pi i f)) over the fractions, built once; read-only,
        since every spec of the class shares it."""
        angles = [2.0 * np.pi * float(f) for f in self.fractions]
        rep = np.diag(np.exp(1j * np.array(angles)))
        rep.flags.writeable = False
        return rep

    @cached_property
    def phase(self) -> Fraction:
        """The sum of the fractions mod 1, exactly: det(c) = exp(2 pi i phase)."""
        return sum(self.fractions) % 1

    def weights(self) -> list[tuple[Fraction, int]]:
        """Rational weights k/m with multiplicities (parabolic-weight reading)."""
        out: dict[Fraction, int] = {}
        for f in self.fractions:
            out[f] = out.get(f, 0) + 1
        return sorted(out.items())

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "order": self.order,
            "fractions": [{"num": f.numerator, "den": f.denominator} for f in self.fractions] ,
            "id": self.class_id,
        }


def _su2_fractions(k: int, m: int) -> tuple[Fraction, ...]:
    """Eigenvalues e^{+-2 pi i k/m} as sorted fractions in [0,1)."""
    a = Fraction(k, m)
    b = Fraction(m - k, m) if k else Fraction(0)
    return tuple(sorted((a, b)))


@cache
def finite_order_classes(model: LieModel, m: int) -> tuple[TorsionClass, ...]:
    """All conjugacy classes of elements g with g^m = e, canonically ordered,
    built at the first call per (model, m) and shared after it.  A call that
    raises caches nothing."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if model.kind == "SL2R":
        raise UnsupportedModel(
            "SL(2,R) elliptic classes form continuous angle families; "
            "finite enumeration is not available"
        )
    if model.kind == "SU" and model.n == 2:
        return tuple(
            TorsionClass(model.name, m, _su2_fractions(k, m))
            for k in range(m // 2 + 1)
        )
    if model.kind == "U":
        from itertools import combinations_with_replacement

        return tuple(
            TorsionClass(model.name, m, tuple(sorted(Fraction(k, m) for k in ks)))
            for ks in combinations_with_replacement(range(m), model.n)
        )
    raise UnsupportedModel(f"no class enumeration for {model.name}")


def resolve_class(
    model: LieModel, g: np.ndarray, m: int, tol: float = 1e-6
) -> TorsionClass:
    """Round the spectrum of g to its exact root-of-unity class."""
    return _round_spectrum(model, np.linalg.eigvals(g), m, tol)


def _round_spectrum(model: LieModel, evals: np.ndarray, m: int, tol: float) -> TorsionClass:
    fractions = []
    for lam in evals:
        frac = np.angle(lam) / (2.0 * np.pi) % 1.0
        k = round(frac * m)
        if abs(frac - k / m) > tol or abs(abs(lam) - 1.0) > tol:
            raise ClassResolutionFailed(
                f"eigenvalue {lam} is not within {tol} of an order-{m} root of unity"
            )
        fractions.append(Fraction(k % m, m))
    return TorsionClass(model.name, m, tuple(sorted(fractions)))


def component_label(pt, tol: float = 1e-6) -> list[str]:
    """Class id of each torsion-generator image (conjugation invariant),
    from one stacked eigvals over the torsion generators."""
    evals = np.linalg.eigvals(pt.gens[2 * pt.pres.genus :])
    return [
        _round_spectrum(pt.model, ev, m, tol).class_id
        for ev, m in zip(evals, pt.pres.torsion)
    ]


def weight_dictionary(cls: TorsionClass) -> list[dict]:
    """Parabolic weights k/m with multiplicities for a unitary class."""
    return [
        {"num": f.numerator, "den": f.denominator, "multiplicity": mult}
        for f, mult in cls.weights()
    ]


def stratum_report(pt: RepPoint, tol: Tolerances) -> dict:
    """Orbit-type data at a point: stabilizer dim h0, labels, h1, orbit dim."""
    data = cohomology_data(pt, tol)
    return {
        "stabilizer_dim": data.h0,
        "labels": component_label(pt),
        "h1": data.h1,
        "orbit_dim": pt.model.d - data.h0,
    }
