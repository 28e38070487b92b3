"""Pinned outputs of every condition evaluator, and which evaluator takes
which condition.

The fixture under ``tests/data/`` holds, for a small seeded grid, the
``as_dict()`` report (or the exception's type and text) of
`matrix_class_condition` for every condition, exponent regime and explicit
exponent, of every section condition as `class_check` evaluates it (the
row-tail check, then `duals._section_reports`), of catalog items A'
and B' (the "target-domain" records, which the reverse dispatch of
`class_check` evaluates), and of the beta- and gamma-dual checks, also at
explicit windows through their sweep (`oracles.dual_reports`).  It was
recorded from the implementation whose condition semantics were split
between `duals` and `matclass`, so moving a condition's estimate or
exponent rule must leave each output bit-identical.
Rewrite it only when an output change is intended:

    PYTHONPATH=src python tests/test_condition_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from oracles import dual_reports
from qnabla.duals import (
    Condition,
    ConditionReport,
    InvalidCondition,
    MatrixWindow,
    _resolve_exponent,
    _section_reports,
    beta_dual_check,
    gamma_dual_check,
    matrix_class_condition,
)
from qnabla.fracdiff import SeqWindow
from qnabla.matclass import CONDITION_CATALOG, _check_row_tails
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent

FIXTURE = Path(__file__).parent / "data" / "condition_grid.json"
PS = (None, PExponent(0.5), PExponent(1.0), PExponent(1.5), PExponent(3.0), P_INF)
EXPONENTS = (None, 0.7, 2.0)
DUAL_PS = (PExponent(0.5), PExponent(1.0), PExponent(1.5), P_INF)
ORDER, Q = 0.7, QParam(0.6)


def _matrices() -> dict[str, MatrixWindow]:
    # The dense matrix decays along its rows by 0.1 per column, so its row
    # tails pass the truncation test of the inverse composite at w = 12.
    rng = np.random.default_rng(3000)
    return {
        "triangular": MatrixWindow(np.tril(rng.uniform(-1.0, 1.0, (10, 10))), triangular=True),
        "dense": MatrixWindow(rng.uniform(-1.0, 1.0, (12, 12)) * 0.1 ** np.arange(12)),
        "rectangular": MatrixWindow(rng.normal(size=(16, 11))),
    }


def _sequences() -> dict[str, SeqWindow]:
    rng = np.random.default_rng(3100)
    return {"ones": SeqWindow(np.ones(10)), "gaussian": SeqWindow(rng.normal(size=12))}


def inverse_composite(phi: MatrixWindow, order: float, qp: QParam) -> MatrixWindow:
    """The inverse composite as `class_check` builds it: the row-tail check,
    then the last rows of one section sweep."""
    _check_row_tails(phi)
    return _section_reports(phi.entries, order, qp, None, (), None, "inverse composite", {})[1]


def section_report(phi: MatrixWindow, order: float, qp: QParam, cond: Condition,
                   p: PExponent | None, checkpoints: tuple[int, ...] | None = None
                   ) -> ConditionReport:
    """One section condition as `class_check` evaluates it: the row-tail
    check, then its report from one section sweep, at ``checkpoints`` or
    the class-check defaults."""
    _check_row_tails(phi)
    (rep,), _ = _section_reports(phi.entries, order, qp, p, (cond,), checkpoints,
                                 "inverse composite", {"matrix": "sections"})
    return rep


def _target_domain(m: MatrixWindow, p: PExponent, row_limit: int) -> list:
    """Catalog items A' and B' on one window, each (condition, exponent
    rule) pair through `matrix_class_condition`.  Both need a finite p: the
    records pin the refusal at p = inf by this text."""
    if p.is_inf:
        raise InvalidCondition("target-domain conditions need a finite exponent p")
    return [
        matrix_class_condition(
            m, cond, row_limit=row_limit,
            exponent=_resolve_exponent(cond, p, None, rule), detail={"label": item},
        )
        for item in ("A'", "B'")
        for cond, rule in CONDITION_CATALOG[item]
    ]


def _record(key: list, fn) -> list:
    """``[key, outcome]``: the outcome is the list of ``as_dict()`` reports
    or the exception's type and text."""
    try:
        result = fn()
    except Exception as exc:  # every failure is pinned by type and text
        return [key, {"error": [type(exc).__name__, str(exc)]}]
    reports = result if isinstance(result, list) else [result]
    return [key, [r.as_dict() for r in reports]]


def grid_outputs() -> list[list]:
    out = []
    matrices = _matrices()
    for name, m in matrices.items():
        for cond in Condition:
            for p in PS:
                for e in EXPONENTS:
                    out.append(_record(
                        ["matrix", name, cond.value, str(p), e],
                        lambda: matrix_class_condition(m, cond, p, exponent=e),
                    ))
        for p in PS[1:]:
            out.append(_record(["target-domain", name, str(p)],
                               lambda: _target_domain(m, p, row_limit=5)))
    sections = [c for c in Condition if c.value.startswith("section-")]
    for name in ("triangular", "dense"):
        m = matrices[name]
        for cond in sections:
            for p in PS:
                out.append(_record(["sections", name, cond.value, str(p)],
                                   lambda: section_report(m, ORDER, Q, cond, p)))
        out.append(_record(["sections", name, "checkpoints 3, 5, 9"], lambda: [
            section_report(m, ORDER, Q, cond, PExponent(1.5), checkpoints=(3, 5, 9))
            for cond in sections
        ]))
    for name, a in _sequences().items():
        for p in DUAL_PS:
            for windows in (None, (2, 5, a.n)):
                for dual, check in (("beta", beta_dual_check), ("gamma", gamma_dual_check)):
                    out.append(_record([dual, name, str(p), windows], lambda: (
                        check(a, ORDER, Q, p) if windows is None
                        else dual_reports(dual, a, ORDER, Q, p, windows))))
    return out


def test_grid_outputs_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(grid_outputs()))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


@pytest.mark.parametrize("cond", list(Condition), ids=lambda c: c.value)
def test_each_condition_has_exactly_one_evaluator(cond):
    # With p in the middle regime and an explicit exponent, every condition
    # is in its stated regime; what is left to refuse is the wrong window.
    # The single-window dispatch takes exactly the conditions that the
    # section sweep does not.
    phi = MatrixWindow(np.tril(np.ones((6, 6))), triangular=True)
    full = inverse_composite(phi, ORDER, Q)
    section = cond.value.startswith("section-")
    try:
        matrix_class_condition(full, cond, PExponent(1.5), exponent=1.0)
    except InvalidCondition:
        assert section
    else:
        assert not section


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = (json.dumps(rec, separators=(",", ":")) for rec in grid_outputs())
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {FIXTURE}")
