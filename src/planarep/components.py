"""Conjugacy classes of finite-order elements and component labels.

Connected components of the torsion data correspond to conjugacy classes of
the torsion-generator images; for the unitary models a class is a multiset of
m-th roots of unity e^{2 pi i k/m}, recorded by its integer numerators k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations_with_replacement
from math import gcd

import numpy as np

from .cohomology import RepPoint, cohomology_data
from .config import Tolerances
from .errors import ClassResolutionFailed, InfeasibleSpec, UnsupportedModel
from .liegroup import LieModel


@dataclass(frozen=True)
class TorsionClass:
    """Conjugacy class of an element g with g^m = e, m = order: ks are the
    eigenvalue arguments in units of 2 pi/m, sorted integers in [0, m), so
    c^m = e by construction; for SU(n) they sum to a multiple of m.
    ``fractions`` (k/m) and ``class_id`` are built once."""

    model_name: str
    order: int
    ks: tuple[int, ...]

    def __post_init__(self):
        m, ks = self.order, self.ks
        if any(k % 1 for k in ks):  # (e^{2 pi i k/m})^m = 1 only for integer k
            raise InfeasibleSpec(f"class representative violates g^{m} = e")
        if list(ks) != sorted(ks) or not all(type(k) is int and 0 <= k < m for k in ks):
            raise ValueError(f"class numerators {ks} are not sorted integers in [0, {m})")

    @cached_property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.order) for k in self.ks)

    @cached_property
    def class_id(self) -> str:
        inner = ",".join(str(f) for f in self.fractions)
        return f"{self.model_name}|m={self.order}|[{inner}]"

    @cached_property
    def representative(self) -> np.ndarray:
        """diag(exp(2 pi i k/m)) over the numerators, built once; read-only,
        since every spec of the class shares it."""
        angles = [2.0 * np.pi * (k / self.order) for k in self.ks]
        rep = np.diag(np.exp(1j * np.array(angles)))
        rep.flags.writeable = False
        return rep

    def to_json(self) -> dict:
        fractions = [{"num": f.numerator, "den": f.denominator} for f in self.fractions]
        return {"model": self.model_name, "order": self.order, "fractions": fractions,
                "id": self.class_id}


class ClassTable(tuple):
    """The classes of one (model, m); by_ks maps numerators to their class."""

    def __new__(cls, classes):
        table = super().__new__(cls, classes)
        table.by_ks = {c.ks: c for c in table}
        return table


@cache
def finite_order_classes(model: LieModel, m: int) -> ClassTable:
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
        # eigenvalues e^{+-2 pi i k/m}
        ks = (tuple(sorted((k, (m - k) % m))) for k in range(m // 2 + 1))
    elif model.kind == "U":
        ks = combinations_with_replacement(range(m), model.n)
    else:
        raise UnsupportedModel(f"no class enumeration for {model.name}")
    return ClassTable(TorsionClass(model.name, m, k) for k in ks)


def resolve_class(
    model: LieModel, g: np.ndarray, m: int, tol: float = 1e-6
) -> TorsionClass:
    """Round the spectrum of g to its exact root-of-unity class."""
    return _round_spectra(model, np.linalg.eigvals(g)[None], [m], tol)[0]


def _round_spectra(model: LieModel, evals: np.ndarray, orders, tol: float) -> list[TorsionClass]:
    """The class of each row of evals, of order orders[i]: the numerators k
    nearest the eigenvalues' arguments in units of 2 pi/m, rounded for all
    rows at once, and the finite_order_classes instance when it is listed."""
    m = np.array(orders)[:, None]
    frac = np.angle(evals) / (2.0 * np.pi) % 1.0
    k = np.rint(frac * m)
    ok = (np.abs(frac - k / m) <= tol) & (np.abs(np.abs(evals) - 1.0) <= tol)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ClassResolutionFailed(f"eigenvalue {evals[i, j]} is not within {tol} "
                                    f"of an order-{orders[i]} root of unity")
    out = []
    for ks, mi in zip(map(tuple, np.sort(k.astype(int) % m, axis=1).tolist()), orders):
        listed = {} if model.kind == "SL2R" else finite_order_classes(model, mi).by_ks
        out.append(listed.get(ks) or TorsionClass(model.name, mi, ks))
    return out


def component_label(pt, tol: float = 1e-6) -> list[str]:
    """Class id of each torsion-generator image (conjugation invariant),
    from one stacked eigvals over the torsion generators."""
    evals = np.linalg.eigvals(pt.gens[2 * pt.pres.genus :])
    return [c.class_id for c in _round_spectra(pt.model, evals, pt.pres.torsion, tol)]


def weight_dictionary(cls: TorsionClass) -> list[dict]:
    """Parabolic weights k/m, in lowest terms, with multiplicities."""
    m = cls.order
    return [{"num": k // gcd(k, m), "den": m // gcd(k, m), "multiplicity": cls.ks.count(k)}
            for k in sorted(set(cls.ks))]


def stratum_report(pt: RepPoint, tol: Tolerances) -> dict:
    """Orbit-type data at a point: stabilizer dim h0, labels, h1, orbit dim."""
    data = cohomology_data(pt, tol)
    return {
        "stabilizer_dim": data.h0,
        "labels": component_label(pt),
        "h1": data.h1,
        "orbit_dim": pt.model.d - data.h0,
    }
