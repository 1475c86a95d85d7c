"""Sparse exact multivariate polynomial arithmetic, factorization services and
Groebner bases over the supported field tower."""

from .multipoly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    PolynomialError,
    content_free_part,
    divides,
    divmod_in_variable,
    exact_divide,
    gcd_fold,
    univariate_gcd,
)
from .factor import (
    Factorization,
    FactorizationError,
    certify_irreducible_univariate,
    univariate_factor,
)
from .groebner import groebner_basis, ideal_contains_one, normal_form, s_polynomial
from .bivariate import (
    DEFAULT_DEGREE_BOUND,
    IrreducibilityResult,
    bivariate_gcd,
    bivariate_irreducible,
    kronecker_factor,
)

__all__ = [
    "GREVLEX",
    "LEX",
    "MonomialOrder",
    "MultiPoly",
    "PolynomialError",
    "content_free_part",
    "divides",
    "divmod_in_variable",
    "exact_divide",
    "gcd_fold",
    "univariate_gcd",
    "Factorization",
    "FactorizationError",
    "certify_irreducible_univariate",
    "univariate_factor",
    "groebner_basis",
    "ideal_contains_one",
    "normal_form",
    "s_polynomial",
    "DEFAULT_DEGREE_BOUND",
    "IrreducibilityResult",
    "bivariate_gcd",
    "bivariate_irreducible",
    "kronecker_factor",
]
