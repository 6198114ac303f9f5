"""Exact cocycle construction and verification for the principal series of
SU(2,1), with an independent floating-point oracle.

The exact side (scalars, lie, wigner, polynomials, cochains) never touches a
float; the oracle side (oracle) never touches the exact engine except to read
off generator matrices and operator coefficients for comparison.
"""

from .scalars import ComplexRadical, NegativeRadicand
from .lie import LieGen, Mat3, NotInLieAlgebra, bracket, gen_matrix, wedge_action
from .wigner import (
    InadmissibleResult,
    OutOfRange,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible,
    chi_index,
    psi0_index,
    psi0_tilde_index,
    psi_index,
)
from .polynomials import Monomial, PolyVector, act_poly, monomial_xy
from .cochains import (
    Cochain,
    TensorElement,
    act_tensor,
    build_chi,
    build_psi,
    build_psi0,
    check_equivariance,
    differential,
    hodge_type,
    verify_closedness,
    verify_nonexactness,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexRadical",
    "NegativeRadicand",
    "LieGen",
    "Mat3",
    "NotInLieAlgebra",
    "bracket",
    "gen_matrix",
    "wedge_action",
    "WignerIndex",
    "InadmissibleResult",
    "OutOfRange",
    "act_l_index",
    "act_p_index",
    "admissible",
    "chi_index",
    "psi_index",
    "psi0_index",
    "psi0_tilde_index",
    "Monomial",
    "PolyVector",
    "act_poly",
    "monomial_xy",
    "Cochain",
    "TensorElement",
    "act_tensor",
    "build_chi",
    "build_psi",
    "build_psi0",
    "check_equivariance",
    "differential",
    "hodge_type",
    "verify_closedness",
    "verify_nonexactness",
    "__version__",
]
