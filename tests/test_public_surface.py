"""The public surface, pinned: removing or adding a public name or a
settable field means editing this file on purpose."""

from __future__ import annotations

import dataclasses

import pytest

import qnabla
from qnabla import cli, duals, fracdiff, matclass, qcore, spaces

SURFACE = {
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
LAYERS = (qcore, fracdiff, spaces, duals, matclass)
# The package re-exports each layer's names in layer order.
SURFACE[qnabla] = ["__version__", *(name for layer in LAYERS for name in SURFACE[layer])]


@pytest.mark.parametrize("module", SURFACE, ids=lambda m: m.__name__)
def test_all_is_pinned(module):
    assert module.__all__ == SURFACE[module]
    for name in module.__all__:
        assert hasattr(module, name), name


def test_layer_lists_are_disjoint():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(set(names)) == len(names)


def test_package_names_are_the_layers_objects():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(qnabla, name) is getattr(layer, name), name


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


@pytest.mark.parametrize("cls, name", [
    (spaces.PExponent, "inf"),  # P_INF is PExponent()
    (fracdiff.SeqWindow, "prefix"),  # SeqWindow(window.values[:n])
    (duals.MatrixWindow, "shape"),  # window.entries.shape
], ids=lambda x: getattr(x, "__name__", x))
def test_no_second_spelling(cls, name):
    assert not hasattr(cls, name)
