"""Constructors and checkers for the classical and generalized structures."""

from .classical import (
    AlmostContact,
    check_almost_contact,
    check_classical_CRF,
    check_crf_endo,
    check_kernel_nabla_F,
    check_normal_classical,
    check_product_complex,
    eigen_projections,
    nijenhuis_classical,
    product_J_classical,
)
from .genmetric import GenMetric, build_gen_metric, check_gen_metric, courant_bracket_Vpm
from .genf import (
    GenF,
    build_genF_from_quadruple,
    check_CRFK,
    check_gen_CRF,
    check_gen_F,
    second_genF,
)
from .twoone import (
    ProductJ,
    TwoOneGAC,
    build_21gac,
    build_product_J,
    check_gen_contact,
    check_normal_21,
    check_phi,
    check_product_J,
    check_sasakian,
    check_two_one,
    classical_lift,
    conformal_change,
    conformal_operator,
    default_line_basis,
    integrability_product,
    phi_endo,
    second_structure,
    unified_normality_tensor,
)
from .normality import (
    check_binormal,
    check_normal_explicit,
    check_product_metric,
    rho_form,
    zeta_form,
    zeta_rho_forms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
