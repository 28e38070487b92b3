"""Fractional-order q-difference operators and their sequence-space machinery.

The package splits into five layers: q-arithmetic primitives (qcore),
operator coefficient streams and window transforms (fracdiff), domain-space
norms and basis expansions (spaces), dual-set condition evaluators (duals),
and matrix-transformation classification (matclass), with a CLI front-end
on top.
"""

from .qcore import QParam, q_integer
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
    verify_inverse,
)
from .spaces import (
    NormReport,
    P_INF,
    PExponent,
    default_checkpoints,
    domain_norm,
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
    subset_sup,
)
from .matclass import (
    ClassQuery,
    Source,
    TailError,
    Target,
    class_check,
    forward_composite_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qcore
    "QParam", "q_integer",
    # fracdiff
    "CoeffStream", "Kind", "MismatchedParameter", "SeqWindow",
    "apply_forward", "apply_inverse", "compose_coeffs", "forward_coeffs",
    "inverse_coeffs", "semigroup_defect", "verify_inverse",
    # spaces
    "NormReport", "P_INF", "PExponent", "default_checkpoints", "domain_norm",
    "membership_diagnostic", "schauder_basis_vector", "schauder_reconstruct",
    # duals
    "Condition", "ConditionReport", "InvalidCondition", "LimitError",
    "MatrixWindow", "SubsetMode", "Verdict", "alpha_dual_check",
    "beta_dual_check", "gamma_dual_check", "matrix_class_condition",
    "subset_sup",
    # matclass
    "ClassQuery", "Source", "TailError", "Target", "class_check",
    "forward_composite_matrix",
]
