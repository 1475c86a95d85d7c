"""rect4: exact rectifiability analysis for linear hypersurfaces
a(X)Y - F(X,Z,T) in affine 4-space."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    GF,
    QQ,
    Embedding,
    FieldElement,
    FieldError,
    composite_extension,
    extend,
    rational_function_field,
)
from .polynomials import (  # noqa: F401
    MultiPoly,
    bivariate_irreducible,
    groebner_basis,
    ideal_contains_one,
    univariate_factor,
)
from .plane_coordinates import (  # noqa: F401
    CoordinateCertificate,
    TameStep,
    complement,
    linear_fastpath,
    vartest,
)
from .hyperplane import (  # noqa: F401
    AnalysisReport,
    Hyperplane,
    RootDatum,
    analyze,
    domain_check,
    normalize,
    root_data,
)
from .filtration import (  # noqa: F401
    AElement,
    FiltrationContext,
    gr_relation_residual,
    to_normal_form,
    w_degree,
)
from .verifier import (  # noqa: F401
    CoordinateClaim,
    verify_coordinate_system,
    verify_plane_pair,
)
