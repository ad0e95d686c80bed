"""speculus: specular-derivative calculus for piecewise-smooth functions.

Public surface re-exports the main types and operations of each module.
"""

from .expr import (
    AffineForm,
    EvalDomainError,
    Expr,
    ExprError,
    NonAffineSingularity,
    ParseError,
    affine_arguments,
    diff,
    eval_expr,
    format_expr,
    parse,
    pin_signs,
)
from .piecewise import (
    ContinuityReport,
    CoverageError,
    OneSidedLimits,
    PiecewiseFn,
    classify_continuity,
    from_branches,
    from_expression,
    is_proper,
)
from .specular import (
    S2Report,
    SemiDerivativePair,
    a_combine,
    partial_field,
    s2_membership,
    semi_derivatives,
    specular_field,
    specular_partial,
)

__version__ = "0.1.0"
