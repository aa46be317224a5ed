"""Exact q-weighted lattice point enumeration on smooth lattice polytopes.

The library decomposes the generating function of a polytope's lattice
points, each weighted by a product of inverse q-Pochhammer factors of its
facet slacks, into a sum of corner contributions over the vertices, and
verifies the resulting identity order by order in q at random rational
points.  On top of that sit exact Jackson-derivative recursions and ladder
operators for the symmetric-weight polynomials, and the multinomial limit
measures with their Gaussian dilation asymptotics.
"""

from .errors import (
    ConvergenceError,
    EmptyPolytopeError,
    InvalidInputError,
    PoleError,
    PreconditionError,
    QBrionError,
    SmoothnessError,
)
from .qalg import (
    QPolynomial,
    TruncatedQSeries,
    gaussian_binomial,
    q_factorial,
    q_integer,
    q_multinomial,
    q_pochhammer,
)
from .lattice import (
    Polytope,
    ValidationReport,
    VertexData,
    dilate,
    enumerate_vertices,
    lattice_points,
    points_with_slacks,
    rows_with_slacks,
    validate,
    vertex_points,
)
from .brion import (
    LaurentQPoly,
    VerificationReport,
    g_weight,
    lhs_series,
    lhs_value_at,
    rhs_series_at,
    rs_polynomial,
    sample_generic_point,
    verify_identity,
    vertex_term,
)
from .jackson import (
    FirstOrthantDivisor,
    LeadingTermResult,
    derived_divisor,
    discriminate_convention,
    elementary_symmetric,
    jackson_derivative,
    leading_term_check,
    leading_term_expected,
    q_shift,
    raising_operator,
    rogers_szego,
    verify_derivative_identity,
    verify_ladder,
)
from .measures import (
    DiscreteMeasure,
    GaussianModel,
    convergence_report,
    dilation_moments,
    gaussian_model,
    minimize_potential,
    mu_limit_estimate,
    mu_measure,
    potential,
)

__version__ = "0.1.0"

__all__ = [
    "QBrionError",
    "InvalidInputError",
    "EmptyPolytopeError",
    "PreconditionError",
    "SmoothnessError",
    "PoleError",
    "ConvergenceError",
    "QPolynomial",
    "TruncatedQSeries",
    "q_integer",
    "q_factorial",
    "gaussian_binomial",
    "q_multinomial",
    "q_pochhammer",
    "Polytope",
    "VertexData",
    "ValidationReport",
    "validate",
    "enumerate_vertices",
    "vertex_points",
    "lattice_points",
    "points_with_slacks",
    "rows_with_slacks",
    "dilate",
    "LaurentQPoly",
    "VerificationReport",
    "g_weight",
    "lhs_series",
    "lhs_value_at",
    "rs_polynomial",
    "rhs_series_at",
    "vertex_term",
    "sample_generic_point",
    "verify_identity",
    "FirstOrthantDivisor",
    "LeadingTermResult",
    "q_shift",
    "jackson_derivative",
    "derived_divisor",
    "verify_derivative_identity",
    "rogers_szego",
    "elementary_symmetric",
    "raising_operator",
    "discriminate_convention",
    "verify_ladder",
    "leading_term_check",
    "leading_term_expected",
    "DiscreteMeasure",
    "GaussianModel",
    "mu_measure",
    "mu_limit_estimate",
    "potential",
    "minimize_potential",
    "gaussian_model",
    "dilation_moments",
    "convergence_report",
]
