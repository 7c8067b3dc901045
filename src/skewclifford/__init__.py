"""Graded (skew) Clifford algebras over exact rationals: builders, twists, and verification."""

from .analyze import (
    LocusReport,
    NormalVerdict,
    RElement,
    SubalgebraBasis,
    TheoremReport,
    build_r_elements,
    default_grid,
    is_central,
    is_normal,
    normal_locus_in_span,
    subalgebra_basis,
    verify_twist_from_gsca,
    verify_twist_theorem,
)
from .clifford import (
    CliffordPresentation,
    MuMatrix,
    MuSymmetricMatrix,
    QuadraticForm,
    QuadricSystem,
    base_point_free_check,
    build_gca,
    build_gsca,
    build_skew_ring,
    check_mu_symmetric,
    normalizing_check,
    quadratic_form_of,
    quadric_system_of,
    regularity_verdict,
    validate_mu,
)
from .exact import ExactMatrix, ParamPoly, parametric_minors, parse_scalar, rank, scalar_str, solve_in_span
from .freealg import LinearMap, NcPoly, apply_linear, parse_poly, poly_str
from .rewrite import (
    DegreeBoundError,
    FiniteDimVerdict,
    GroebnerData,
    PresentedAlgebra,
    degree_basis,
    finite_dim_check,
    groebner,
    hilbert_coeffs,
    normal_form,
)
from .twist import DiagonalAutomorphism, TwistVerdict, mu_from_lambdas, relation_span_equal, twist_criterion, twist_presentation

__version__ = "0.1.0"
