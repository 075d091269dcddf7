"""Exact-arithmetic level-1 Fock representations of affine type A.

Two independent realizations of the same generator action on partition
basis vectors: an explicit boundary-node formula, and a lattice vertex
operator construction transported through the core/quotient bijection.
Everything is exact: the actions have integer coefficients and only the
localization weights are Fractions. One sparse type, Vec, holds every
vector; LaurentPoly, the character type, is a Vec on integer exponents.
The verify_* suites check the realizations against each other and against
localization weights.
"""

from .core_quotient import core_and_quotient, cq_inverse, core_partition
from .equivariant import (
    euler_pairing_diag,
    fixed_point_char,
    geometric_e,
    infinity_chamber_char,
    normal_char,
    normalization,
    points_vector,
    tangent_char_formula,
    tangent_char_point,
    verify_fixed_points,
    verify_geometric_match,
)
from .fock import verify_boson_fermion
from .frenkel_kac import (
    explicit_action,
    fk_action,
    transport,
    transport_inverse,
    verify_intertwining,
    verify_relations,
)
from .partitions import LaurentPoly, Vec, diagonal_char, enumerate_partitions

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "Vec",
    "core_and_quotient",
    "core_partition",
    "cq_inverse",
    "diagonal_char",
    "enumerate_partitions",
    "euler_pairing_diag",
    "explicit_action",
    "fixed_point_char",
    "fk_action",
    "geometric_e",
    "infinity_chamber_char",
    "normal_char",
    "normalization",
    "points_vector",
    "tangent_char_formula",
    "tangent_char_point",
    "transport",
    "transport_inverse",
    "verify_boson_fermion",
    "verify_fixed_points",
    "verify_geometric_match",
    "verify_intertwining",
    "verify_relations",
]
