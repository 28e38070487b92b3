"""Fractional-order q-difference operators and their sequence-space machinery.

The package splits into five layers: q-arithmetic primitives (qcore),
operator coefficient streams and window transforms (fracdiff), domain-space
norms and basis expansions (spaces), dual-set condition evaluators (duals),
and matrix-transformation classification (matclass), with a CLI front-end
on top.
"""

from .qcore import (
    PoleError,
    QParam,
    q_binomial,
    q_factorial,
    q_gamma,
    q_gamma_ratio,
    q_integer,
    q_pochhammer_inf,
)
from .fracdiff import (
    CoeffStream,
    Kind,
    MismatchedParameter,
    SeqWindow,
    apply_forward,
    apply_inverse,
    compose_coeffs,
    forward_coeffs,
    inverse_coeffs,
    semigroup_defect,
    toeplitz_matrix,
    verify_inverse,
)
from .spaces import (
    NormReport,
    P_INF,
    PExponent,
    default_checkpoints,
    domain_norm,
    lp_norm,
    membership_diagnostic,
    schauder_basis_vector,
    schauder_reconstruct,
)
from .duals import (
    Condition,
    ConditionReport,
    InvalidCondition,
    LimitError,
    MatrixWindow,
    SubsetMode,
    Verdict,
    alpha_dual_check,
    beta_dual_check,
    gamma_dual_check,
    matrix_class_condition,
    partial_sum_matrix,
    subset_sup,
    termwise_product_matrix,
)
from .matclass import (
    ClassQuery,
    Source,
    TailError,
    Target,
    TransformFamily,
    build_transform_family,
    cesaro_composite,
    class_check,
    column_cumsum_matrix,
    forward_composite_matrix,
    row_section_matrix,
    section_consistency_residual,
    target_domain_conditions,
    transform_condition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qcore
    "PoleError", "QParam", "q_binomial", "q_factorial", "q_gamma",
    "q_gamma_ratio", "q_integer", "q_pochhammer_inf",
    # fracdiff
    "CoeffStream", "Kind", "MismatchedParameter", "SeqWindow",
    "apply_forward", "apply_inverse", "compose_coeffs", "forward_coeffs",
    "inverse_coeffs", "semigroup_defect", "toeplitz_matrix", "verify_inverse",
    # spaces
    "NormReport", "P_INF", "PExponent", "default_checkpoints", "domain_norm",
    "lp_norm", "membership_diagnostic", "schauder_basis_vector",
    "schauder_reconstruct",
    # duals
    "Condition", "ConditionReport", "InvalidCondition", "LimitError",
    "MatrixWindow", "SubsetMode", "Verdict", "alpha_dual_check",
    "beta_dual_check", "gamma_dual_check", "matrix_class_condition",
    "partial_sum_matrix", "subset_sup", "termwise_product_matrix",
    # matclass
    "ClassQuery", "Source", "TailError", "Target", "TransformFamily",
    "build_transform_family", "cesaro_composite", "class_check",
    "column_cumsum_matrix", "forward_composite_matrix", "row_section_matrix",
    "section_consistency_residual", "target_domain_conditions",
    "transform_condition",
]
