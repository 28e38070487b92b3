"""The public surface, pinned: removing or adding a public name or a
settable field means editing this file on purpose."""

from __future__ import annotations

import dataclasses

import pytest

import qnabla
from qnabla import cli, duals, fracdiff, matclass, qcore, spaces

SURFACE = {
    qnabla: [
        "__version__",
        "QParam", "q_integer",
        "CoeffStream", "Kind", "MismatchedParameter", "SeqWindow",
        "apply_forward", "apply_inverse", "compose_coeffs", "forward_coeffs",
        "inverse_coeffs", "semigroup_defect", "verify_inverse",
        "NormReport", "P_INF", "PExponent", "default_checkpoints", "domain_norm",
        "membership_diagnostic", "schauder_basis_vector", "schauder_reconstruct",
        "Condition", "ConditionReport", "InvalidCondition", "LimitError",
        "MatrixWindow", "SubsetMode", "Verdict", "alpha_dual_check",
        "beta_dual_check", "gamma_dual_check", "matrix_class_condition",
        "subset_sup",
        "ClassQuery", "Source", "TailError", "Target", "class_check",
        "forward_composite_matrix",
    ],
    qcore: ["QParam", "q_integer"],
    fracdiff: [
        "Kind", "CoeffStream", "SeqWindow", "MismatchedParameter", "forward_coeffs",
        "inverse_coeffs", "apply_forward", "apply_inverse", "compose_coeffs",
        "verify_inverse", "semigroup_defect",
    ],
    spaces: [
        "PExponent", "P_INF", "NormReport", "default_checkpoints",
        "domain_norm", "schauder_basis_vector", "schauder_reconstruct",
        "membership_diagnostic",
    ],
    duals: [
        "MAX_SUBSET_ROWS", "LimitError", "InvalidCondition", "MatrixWindow",
        "Condition", "Verdict", "ConditionReport", "SubsetMode", "subset_sup",
        "matrix_class_condition", "alpha_dual_check", "beta_dual_check",
        "gamma_dual_check",
    ],
    matclass: [
        "TailError", "Source", "Target", "ClassQuery",
        "CONDITION_CATALOG", "TABLE_DOMAIN_CELLS", "TABLE_CLASSICAL_CELLS",
        "class_check", "forward_composite_matrix",
    ],
    cli: ["cli", "main"],
}


@pytest.mark.parametrize("module", SURFACE, ids=lambda m: m.__name__)
def test_all_is_pinned(module):
    assert module.__all__ == SURFACE[module]
    for name in module.__all__:
        assert hasattr(module, name), name


FIELDS = {
    qcore.QParam: ["q"],
    fracdiff.CoeffStream: ["order", "qp", "kind", "coeffs"],
    fracdiff.SeqWindow: ["values"],
    spaces.PExponent: ["value"],
    spaces.NormReport: ["value", "p", "window", "partials"],
    duals.MatrixWindow: ["entries", "triangular"],
    duals.ConditionReport: ["condition_id", "values", "verdict", "detail"],
    matclass.ClassQuery: ["source", "target", "p", "order", "qp", "window", "row_limit"],
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_are_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]
