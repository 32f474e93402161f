"""Computations on representation varieties of cocompact planar discrete
groups: exact symbolic chains, twisted cohomology, the cup-product pairing,
the extended two-form with its momentum map, and a numerical relator solver.
"""

from .config import DEFAULT_TOL, Tolerances
from .presentations import PlanarPresentation
from .words import commutator, gen, w_inv, w_mul, w_pow, word
from .foxcalc import (
    BarChain,
    GroupRingElt,
    abelianized_boundary,
    fox_derivative,
    fundamental_cycle,
    relator_filling_chain,
)
from .liegroup import LieModel, get_model
from .cohomology import (
    CochainData,
    RepPoint,
    cocycle_extend,
    cohomology_data,
    delta0,
    delta1_projective,
    euler_characteristic_expected,
    random_fnat_point,
)
from .components import (
    TorsionClass,
    component_label,
    finite_order_classes,
    resolve_class,
    stratum_report,
    weight_dictionary,
)
from .symplectic import (
    ExtendedPoint,
    TangentVec,
    action_field,
    check_moment_identity,
    cup_eval,
    degeneracy_report,
    extend_point,
    omega_extended,
    tangent_from_u,
)
from .solver import (
    SolveResult,
    SolveSpec,
    solve_relator,
)
from . import errors

__version__ = "0.1.0"
