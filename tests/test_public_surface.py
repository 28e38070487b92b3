"""The public surface, pinned: removing or adding a public name, a
settable field or a parameter of a public function means editing this file
on purpose."""

from __future__ import annotations

import dataclasses
import inspect

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
        "class_check",
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


def _public(test) -> set:
    return {getattr(m, name) for m in SURFACE for name in m.__all__ if test(getattr(m, name))}


def _spelled(fn) -> list[str]:
    """The parameters of ``fn`` in order: "=" ends an optional one, and "*"
    opens the keyword-only ones."""
    out = []
    for par in inspect.signature(fn).parameters.values():
        if par.kind is par.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        out.append(par.name + ("=" if par.default is not par.empty else ""))
    return out


# Each public dataclass's fields, which are its constructor's parameters.
FIELDS = {
    qcore.QParam: ["q"],
    fracdiff.CoeffStream: ["order", "qp", "kind", "coeffs"],
    fracdiff.SeqWindow: ["values"],
    spaces.PExponent: ["value="],
    spaces.NormReport: ["value", "p", "window", "partials"],
    duals.MatrixWindow: ["entries", "triangular="],
    duals.ConditionReport: ["condition_id", "values", "verdict", "detail="],
    matclass.ClassQuery: ["source", "target", "p", "order", "qp", "window", "row_limit="],
}


def test_every_public_dataclass_is_pinned():
    assert _public(lambda x: inspect.isclass(x) and dataclasses.is_dataclass(x)) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_are_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == [f.rstrip("=") for f in FIELDS[cls]]
    assert _spelled(cls) == FIELDS[cls]


PARAMS = {
    qcore.q_integer: ["t", "qp"],
    fracdiff.forward_coeffs: ["order", "qp", "k"],
    fracdiff.inverse_coeffs: ["order", "qp", "k"],
    fracdiff.apply_forward: ["g", "order", "qp"],
    fracdiff.apply_inverse: ["h", "order", "qp"],
    fracdiff.compose_coeffs: ["a", "b"],
    fracdiff.verify_inverse: ["order", "qp", "n"],
    fracdiff.semigroup_defect: ["mu", "nu", "qp", "n"],
    spaces.default_checkpoints: ["n", "start="],
    spaces.domain_norm: ["g", "order", "qp", "p"],
    spaces.schauder_basis_vector: ["k", "order", "qp", "n"],
    spaces.schauder_reconstruct: ["h", "order", "qp"],
    spaces.membership_diagnostic: ["g", "order", "qp", "p", "checkpoints="],
    duals.subset_sup: ["m", "exponent", "inner", "row_limit"],
    duals.matrix_class_condition: [
        "m", "cond", "p=", "*", "row_limit=", "exponent=", "detail=",
    ],
    duals.alpha_dual_check: ["a", "order", "qp", "p", "row_limits"],
    duals.beta_dual_check: ["a", "order", "qp", "p"],
    duals.gamma_dual_check: ["a", "order", "qp", "p"],
    matclass.class_check: ["query", "phi"],
    cli.main: [],
}


def test_every_public_function_is_pinned():
    assert _public(inspect.isfunction) == set(PARAMS)


@pytest.mark.parametrize("fn", PARAMS, ids=lambda f: f.__name__)
def test_parameters_are_pinned(fn):
    assert _spelled(fn) == PARAMS[fn]


@pytest.mark.parametrize("cls, name", [
    (spaces.PExponent, "inf"),  # P_INF is PExponent()
    (fracdiff.SeqWindow, "prefix"),  # SeqWindow(window.values[:n])
    (duals.MatrixWindow, "shape"),  # window.entries.shape
], ids=lambda x: getattr(x, "__name__", x))
def test_no_second_spelling(cls, name):
    assert not hasattr(cls, name)
