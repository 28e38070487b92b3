"""Classification of matrix transformations into and out of the operator domains.

A test matrix acting on a domain-space sequence g can be rewritten to act
on the transformed sequence h instead.  Two windows realize that rewrite:
per row j, the section window whose row m carries the m-truncated rewrite
(so that the partial sums sum_{k<=m} phi_jk g_k equal the section row
applied to h), and the full inverse-composite window obtained by sending
every row tail through the inverse coefficients.  Membership of the
original matrix in a class (domain space -> classical space) is equivalent
to a bundle of analytic conditions on those windows; the bundles are
catalogued here as static dispatch data, one entry per (source, target)
cell, and each numbered condition maps onto the shared window evaluators.

Row tails are the one honest-truncation hazard: the inverse coefficients do
not decay, so the rewritten row sums converge only through the test
matrix's own row decay.  Rows that provably end inside the window
(triangular windows, or rows with an all-zero tail quarter) are exact;
otherwise the row must pass a relative tail-mass test or the construction
refuses with :class:`TailError` rather than return a silently wrong sum.

For the reverse direction (classical space -> operator domain), the test
matrix is composed columnwise with the forward operator, and the resulting
window is screened with row power-sum and column-subset conditions.
Composites with the running-sum and q-Cesàro mean matrices reuse the same
dispatch against their respective targets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .duals import (
    Condition,
    ConditionReport,
    InvalidCondition,
    MatrixWindow,
    Verdict,
    classify_trend,
    matrix_class_condition,
    partial_sum_matrix,
)
from .fracdiff import SeqWindow, apply_forward, inverse_coeffs
from .qcore import QParam, q_integer
from .spaces import PExponent, _checkpoints, default_checkpoints

__all__ = [
    "TailError",
    "Source",
    "Target",
    "ClassQuery",
    "TransformFamily",
    "CONDITION_CATALOG",
    "TABLE_DOMAIN_CELLS",
    "TABLE_CLASSICAL_CELLS",
    "row_section_matrix",
    "inverse_composite_matrix",
    "build_transform_family",
    "section_consistency_residual",
    "transform_condition",
    "class_check",
    "forward_composite_matrix",
    "target_domain_conditions",
    "column_cumsum_matrix",
    "cesaro_composite",
]


class TailError(Exception):
    """A row tail cannot be honestly truncated at the window edge."""


class Source(enum.Enum):
    # Operator-domain sources (rows of the primary dispatch table).
    L1_DOMAIN = "l1-domain"
    LP_DOMAIN = "lp-domain"
    LINF_DOMAIN = "linf-domain"
    # Classical sources (rows of the reverse dispatch table).
    L1 = "l1"
    C0 = "c0"
    C = "c"
    LINF = "linf"


class Target(enum.Enum):
    # Classical targets (columns of the primary dispatch table).
    L1 = "l1"
    C0 = "c0"
    C = "c"
    LINF = "linf"
    # Series-space targets, reached through the running-sum composite.
    BS = "bs"
    CS = "cs"
    CS0 = "cs0"
    # q-Cesàro targets, reached through the q-Cesàro composite.
    QCES_L1 = "qcesaro-l1"
    QCES_C0 = "qcesaro-c0"
    QCES_C = "qcesaro-c"
    QCES_LINF = "qcesaro-linf"
    # Operator-domain targets (columns of the reverse dispatch table).
    LP_DOMAIN = "lp-domain"
    LINF_DOMAIN = "linf-domain"


_DOMAIN_SOURCES = (Source.L1_DOMAIN, Source.LP_DOMAIN, Source.LINF_DOMAIN)
_CLASSICAL_SOURCES = (Source.L1, Source.C0, Source.C, Source.LINF)
_DOMAIN_TARGETS = (Target.LP_DOMAIN, Target.LINF_DOMAIN)

# Composite targets resolve to (composite builder label, underlying column).
_COMPOSITE_TARGETS = {
    Target.BS: ("running-sum", Target.LINF),
    Target.CS: ("running-sum", Target.C),
    Target.CS0: ("running-sum", Target.C0),
    Target.QCES_L1: ("q-cesaro", Target.L1),
    Target.QCES_C0: ("q-cesaro", Target.C0),
    Target.QCES_C: ("q-cesaro", Target.C),
    Target.QCES_LINF: ("q-cesaro", Target.LINF),
}

# Numbered condition catalog: each entry is a tuple of
# (window role, condition, exponent rule) triples evaluated together.
# Exponent rules: None (no exponent), "one" (fixed 1), "conjugate" (p').
CONDITION_CATALOG: dict[int, tuple[tuple[str, Condition, str | None], ...]] = {
    1: (
        ("sections", Condition.SECTION_COLUMN_LIMITS, None),
        ("sections", Condition.SECTION_ENTRY_SUP, None),
    ),
    2: (
        ("sections", Condition.SECTION_COLUMN_LIMITS, None),
        ("sections", Condition.SECTION_POWER_SUM_SUP, "conjugate"),
    ),
    3: (
        ("sections", Condition.SECTION_COLUMN_LIMITS, None),
        ("sections", Condition.SECTION_ABS_SUM_MATCH, None),
    ),
    4: (("full", Condition.SUBSET_ABS_COLSUM_SUP, "one"),),
    5: (("full", Condition.COLUMN_LIMITS_ZERO, None),),
    6: (("full", Condition.COLUMN_LIMITS, None),),
    7: (("full", Condition.ROW_ABS_SUM_SUP, None),),
    8: (("full", Condition.VANISHING_ROW_ABS_SUM, None),),
    9: (("full", Condition.ABS_ROW_SUM_INTERCHANGE, None),),
    10: (("full", Condition.ROW_POWER_SUM_SUP, "conjugate"),),
    11: (("full", Condition.SUBSET_ENTRY_SUP, "one"),),
    12: (("full", Condition.SUBSET_ABS_COLSUM_SUP, "conjugate"),),
    13: (("full", Condition.ENTRY_SUP, "one"),),
}

# Primary dispatch: (domain source, classical target) -> numbered bundle.
TABLE_DOMAIN_CELLS: dict[tuple[Source, Target], tuple[int, ...]] = {
    (Source.L1_DOMAIN, Target.L1): (1, 11),
    (Source.L1_DOMAIN, Target.C0): (1, 5, 13),
    (Source.L1_DOMAIN, Target.C): (1, 6, 13),
    (Source.L1_DOMAIN, Target.LINF): (1, 13),
    (Source.LP_DOMAIN, Target.L1): (2, 12),
    (Source.LP_DOMAIN, Target.C0): (2, 5, 10),
    (Source.LP_DOMAIN, Target.C): (2, 6, 10),
    (Source.LP_DOMAIN, Target.LINF): (2, 10),
    (Source.LINF_DOMAIN, Target.L1): (3, 4),
    (Source.LINF_DOMAIN, Target.C0): (3, 8),
    (Source.LINF_DOMAIN, Target.C): (3, 6, 9),
    (Source.LINF_DOMAIN, Target.LINF): (3, 7),
}

# Reverse dispatch: (classical source, domain target) -> bundle of numbered
# conditions or the row/column-subset markers "A'" and "B'", all evaluated
# on the forward composite window.
TABLE_CLASSICAL_CELLS: dict[tuple[Source, Target], tuple[int | str, ...]] = {
    (Source.L1, Target.LP_DOMAIN): ("A'",),
    (Source.C0, Target.LP_DOMAIN): ("B'",),
    (Source.C, Target.LP_DOMAIN): ("B'",),
    (Source.LINF, Target.LP_DOMAIN): ("B'",),
    (Source.L1, Target.LINF_DOMAIN): (13,),
    (Source.C0, Target.LINF_DOMAIN): (7,),
    (Source.C, Target.LINF_DOMAIN): (7,),
    (Source.LINF, Target.LINF_DOMAIN): (7,),
}


@dataclass(frozen=True)
class ClassQuery:
    """One classification request: a (source, target) cell plus parameters."""

    source: Source
    target: Target
    p: PExponent
    order: float
    qp: QParam
    window: int
    row_limit: int = 12
    tail_rtol: float = 1e-8

    def __post_init__(self) -> None:
        if self.window != int(self.window) or self.window < 1:
            raise ValueError(f"window must be a positive integer, got {self.window!r}")
        if self.row_limit != int(self.row_limit) or self.row_limit < 1:
            raise ValueError(
                f"row_limit must be a positive integer, got {self.row_limit!r}"
            )
        if self.source in _DOMAIN_SOURCES:
            if self.target in _DOMAIN_TARGETS:
                raise ValueError(
                    "operator-domain sources pair with classical, series, or "
                    "q-Cesàro targets"
                )
            if self.source is Source.L1_DOMAIN and (self.p.is_inf or self.p.value != 1.0):
                raise ValueError("source l1-domain requires p = 1")
            if self.source is Source.LP_DOMAIN and (
                self.p.is_inf or not self.p.value > 1.0
            ):
                raise ValueError("source lp-domain requires 1 < p < inf")
            if self.source is Source.LINF_DOMAIN and not self.p.is_inf:
                raise ValueError("source linf-domain requires p = inf")
        else:
            if self.target not in _DOMAIN_TARGETS:
                raise ValueError(
                    "classical sources pair with operator-domain targets"
                )
            if self.target is Target.LP_DOMAIN and (
                self.p.is_inf or not self.p.value > 1.0
            ):
                raise ValueError("target lp-domain requires 1 < p < inf")


@dataclass(frozen=True)
class TransformFamily:
    """Section windows (one per row of the test matrix) plus the full
    inverse-composite window, all built from one (matrix, order, q)."""

    phi: MatrixWindow
    order: float
    qp: QParam
    sections: tuple[MatrixWindow, ...]
    full: MatrixWindow


def row_section_matrix(phi: MatrixWindow, j: int, order: float, qp: QParam) -> MatrixWindow:
    """Section window of row j: entry (m, k) is the inverse-coefficient sum
    sum_{v=k..m} e_{v-k} phi_jv, i.e. the m-truncated rewrite of row j."""
    n_rows = phi.entries.shape[0]
    if j != int(j) or not 0 <= j < n_rows:
        raise IndexError(f"row index j must satisfy 0 <= j < {n_rows}, got {j!r}")
    return partial_sum_matrix(SeqWindow(phi.entries[int(j)]), order, qp)


def _row_tail_bounds(phi: MatrixWindow, order: float, qp: QParam, tail_rtol: float) -> tuple[float, ...]:
    """Per-row truncation-error bounds for window-truncated row-tail sums.

    Triangular windows and rows with an all-zero tail quarter are exact.
    Other rows must pass the relative decay test or the whole construction
    is refused: the inverse coefficients tend to a positive constant, so a
    non-decaying row genuinely diverges under the rewrite.
    """
    if not (math.isfinite(tail_rtol) and tail_rtol > 0.0):
        raise ValueError(f"tail_rtol must be positive, got {tail_rtol!r}")
    n_rows, n_cols = phi.entries.shape
    if phi.triangular:
        return (0.0,) * n_rows
    e_sup = float(np.max(inverse_coeffs(order, qp, n_cols - 1).coeffs))
    tail_len = max(1, n_cols // 4)
    ts = n_cols - tail_len
    bounds = []
    for j in range(n_rows):
        row = np.abs(phi.entries[j])
        tail_mass = float(np.sum(row[ts:]))
        if tail_mass == 0.0:
            bounds.append(0.0)
            continue
        head = float(np.sum(row[:ts]))
        if tail_mass >= tail_rtol * (head + 1.0):
            raise TailError(
                f"row {j} tail mass {tail_mass:.3e} is not negligible against "
                f"its head ({head:.3e}); the rewritten row sum cannot be "
                f"honestly truncated at the window edge"
            )
        bounds.append(e_sup * tail_mass)
    return tuple(bounds)


def inverse_composite_matrix(
    phi: MatrixWindow, order: float, qp: QParam, tail_rtol: float = 1e-8
) -> MatrixWindow:
    """Full rewrite of the test matrix: entry (j, k) is the window-truncated
    sum sum_{v>=k} e_{v-k} phi_jv.

    Each row is the final row of that row's section window, so the two
    constructions agree bit-for-bit.  Raises :class:`TailError` when a row
    fails the honest-truncation test; per-row error bounds (sup of the
    inverse coefficients times the row tail mass) ride along on the result.
    """
    bounds = _row_tail_bounds(phi, order, qp, tail_rtol)
    rows = [
        row_section_matrix(phi, j, order, qp).entries[-1]
        for j in range(phi.entries.shape[0])
    ]
    return MatrixWindow(
        entries=np.vstack(rows), triangular=phi.triangular, tail_bounds=bounds
    )


def build_transform_family(
    phi: MatrixWindow, order: float, qp: QParam, tail_rtol: float = 1e-8
) -> TransformFamily:
    """Sections for every row plus the full inverse-composite window."""
    bounds = _row_tail_bounds(phi, order, qp, tail_rtol)
    sections = tuple(
        row_section_matrix(phi, j, order, qp) for j in range(phi.entries.shape[0])
    )
    full = MatrixWindow(
        entries=np.vstack([s.entries[-1] for s in sections]),
        triangular=phi.triangular,
        tail_bounds=bounds,
    )
    return TransformFamily(phi=phi, order=order, qp=qp, sections=sections, full=full)


def section_consistency_residual(
    phi: MatrixWindow, g: SeqWindow, order: float, qp: QParam
) -> float:
    """Max gap, over rows j and truncation points m, between the partial sums
    sum_{k<=m} phi_jk g_k and the section-window rewrite applied to the
    transform of g.  The rewrite is an identity, so this should sit at
    rounding level."""
    if phi.entries.shape[1] != g.n:
        raise ValueError(
            f"matrix has {phi.entries.shape[1]} columns but the window has {g.n} entries"
        )
    h = apply_forward(g, order, qp).values
    worst = 0.0
    for j in range(phi.entries.shape[0]):
        lhs = np.cumsum(phi.entries[j] * g.values)
        rhs = row_section_matrix(phi, j, order, qp).entries @ h
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _tail_start(n: int) -> int:
    return max(0, n - max(2, n // 4))


def _section_estimate(block: np.ndarray, cond: Condition, e: float | None) -> float:
    ts = _tail_start(block.shape[0])
    if cond is Condition.SECTION_COLUMN_LIMITS:
        cols = min(block.shape[1], ts + 1)
        sub = block[ts:, :cols]
        if sub.size == 0:
            return 0.0
        return float(np.max(sub.max(axis=0) - sub.min(axis=0)))
    if cond is Condition.SECTION_ENTRY_SUP:
        return float(np.max(np.abs(block)))
    if cond is Condition.SECTION_POWER_SUM_SUP:
        return float(np.max(np.sum(np.abs(block) ** e, axis=1)))
    if cond is Condition.SECTION_ROW_SUM_LIMIT:
        sums = block.sum(axis=1)[ts:]
        return float(np.max(sums) - np.min(sums))
    raise InvalidCondition(f"{cond.value} is not a per-section condition")


def transform_condition(
    family: TransformFamily,
    cond: Condition,
    p: PExponent | None = None,
    *,
    checkpoints: tuple[int, ...] | list[int] | None = None,
    detail: dict[str, Any] | None = None,
) -> ConditionReport:
    """Evaluate a section-family condition with the same truncation and
    trend semantics as the single-matrix dispatch.

    Per-section limits (column limits, row-sum limits, abs-sum match
    against the full window) are reported as worst-case tail estimates over
    all sections; sups are running sups over growing blocks.
    """
    n = family.sections[0].entries.shape[0] if family.sections else 0
    if cond is Condition.VANISHING_ROW_ABS_SUM:
        return matrix_class_condition(
            family.full, cond, checkpoints=checkpoints,
            detail={**(detail or {}), "matrix": "inverse-composite"},
        )
    if cond not in (
        Condition.SECTION_COLUMN_LIMITS,
        Condition.SECTION_ENTRY_SUP,
        Condition.SECTION_POWER_SUM_SUP,
        Condition.SECTION_ROW_SUM_LIMIT,
        Condition.SECTION_ABS_SUM_MATCH,
    ):
        raise InvalidCondition(
            f"{cond.value} applies to a single matrix window; use the "
            "matrix-class dispatch instead"
        )
    cps = _checkpoints(checkpoints, n, start=4)
    info: dict[str, Any] = dict(detail or {})
    info.setdefault("matrix", "sections")
    e: float | None = None
    if cond is Condition.SECTION_POWER_SUM_SUP:
        if p is None or p.is_inf or not p.value > 1.0:
            raise InvalidCondition(
                f"{cond.value} uses the conjugate exponent and is stated only "
                f"for 1 < p < inf; got p = {p}"
            )
        e = p.conjugate
        info["exponent"] = e

    values: list[tuple[int, float]] = []
    if cond is Condition.SECTION_ABS_SUM_MATCH:
        refs = np.sum(np.abs(family.full.entries), axis=1)
        for cp in cps:
            ts = _tail_start(cp)
            worst = 0.0
            for j, section in enumerate(family.sections):
                sums = np.sum(np.abs(section.entries[:cp, :cp]), axis=1)[ts:]
                worst = max(worst, float(np.max(np.abs(sums - refs[j]))))
            values.append((cp, worst))
    else:
        for cp in cps:
            worst = 0.0
            for section in family.sections:
                worst = max(
                    worst, _section_estimate(section.entries[:cp, :cp], cond, e)
                )
            values.append((cp, worst))

    vals = tuple(values)
    shrinking = cond in (
        Condition.SECTION_COLUMN_LIMITS,
        Condition.SECTION_ROW_SUM_LIMIT,
        Condition.SECTION_ABS_SUM_MATCH,
    )
    return ConditionReport(
        condition_id=cond,
        values=vals,
        verdict=classify_trend(vals, shrinks=shrinking),
        detail=info,
    )


def forward_composite_matrix(phi: MatrixWindow, order: float, qp: QParam) -> MatrixWindow:
    """Forward operator applied down each column of the test matrix: entry
    (j, k) is sum_{v<=j} c_{j-v} phi_vk.  Column k of the result is exactly
    the forward transform of column k of the input."""
    cols = [
        apply_forward(SeqWindow(phi.entries[:, k]), order, qp).values
        for k in range(phi.entries.shape[1])
    ]
    return MatrixWindow(entries=np.column_stack(cols), triangular=phi.triangular)


def column_cumsum_matrix(phi: MatrixWindow) -> MatrixWindow:
    """Running column partial sums: entry (j, k) is sum_{v<=j} phi_vk.
    Row differences recover the original rows exactly."""
    return MatrixWindow(
        entries=np.cumsum(phi.entries, axis=0), triangular=phi.triangular
    )


def cesaro_composite(phi: MatrixWindow, qp: QParam) -> MatrixWindow:
    """q-Cesàro mean down each column: entry (j, k) is
    sum_{v<=j} (q^v / [j+1]_q) phi_vk.  Row weights sum to one because the
    geometric sum of q^v over v <= j is the q-bracket [j+1]_q."""
    n_rows = phi.entries.shape[0]
    qpow = qp.q ** np.arange(n_rows, dtype=np.float64)
    denom = q_integer(np.arange(1, n_rows + 1, dtype=np.float64), qp)
    entries = np.cumsum(qpow[:, None] * phi.entries, axis=0) / denom[:, None]
    return MatrixWindow(entries=entries, triangular=phi.triangular)


def target_domain_conditions(
    m: MatrixWindow,
    p: PExponent,
    row_limit: int,
    checkpoints: tuple[int, ...] | list[int] | None = None,
) -> list[ConditionReport]:
    """The two screens for mapping a classical space into the p-domain:
    rowwise p-power sums, and p-power sums of row sums over exhaustively
    enumerated column subsets (capped at ``row_limit`` columns)."""
    if p.is_inf:
        raise InvalidCondition("target-domain conditions need a finite exponent p")
    a_rep = matrix_class_condition(
        m,
        Condition.ROW_POWER_SUM_SUP,
        checkpoints=checkpoints,
        exponent=p.value,
        detail={"label": "A'"},
    )
    b_rep = matrix_class_condition(
        m,
        Condition.COLUMN_SUBSET_POWER_SUM,
        checkpoints=checkpoints,
        exponent=p.value,
        row_limit=row_limit,
        detail={"label": "B'"},
    )
    return [a_rep, b_rep]


def _resolve_item_exponent(rule: str | None, p: PExponent) -> float | None:
    if rule is None:
        return None
    if rule == "one":
        return 1.0
    if rule == "conjugate":
        return p.conjugate
    raise ValueError(f"unknown exponent rule {rule!r}")


def class_check(query: ClassQuery, phi: MatrixWindow) -> list[ConditionReport]:
    """Dispatch the exact condition bundle for the query's (source, target)
    cell and evaluate it on the appropriate windows of the test matrix.

    Returns one report per evaluated condition; every report's detail
    records the dispatch cell and the bundle item it belongs to.
    """
    w = query.window
    if phi.entries.shape[0] < w or phi.entries.shape[1] < w:
        raise ValueError(
            f"matrix window {phi.entries.shape} is smaller than the requested "
            f"evaluation window {w}"
        )
    block = MatrixWindow(entries=phi.entries[:w, :w], triangular=phi.triangular)
    cps = default_checkpoints(w, start=4)
    cell_info = {"source": query.source.value, "target": query.target.value}

    if query.source in _DOMAIN_SOURCES:
        if query.target in _COMPOSITE_TARGETS:
            composite, underlying = _COMPOSITE_TARGETS[query.target]
            if composite == "running-sum":
                block = column_cumsum_matrix(block)
            else:
                block = cesaro_composite(block, query.qp)
            cell_info["composite"] = composite
        else:
            underlying = query.target
        bundle = TABLE_DOMAIN_CELLS[(query.source, underlying)]
        family = build_transform_family(block, query.order, query.qp, query.tail_rtol)
        reports: list[ConditionReport] = []
        for item in bundle:
            for role, cond, rule in CONDITION_CATALOG[item]:
                info = {**cell_info, "table": 1, "item": item}
                if role == "sections":
                    reports.append(
                        transform_condition(
                            family, cond, query.p, checkpoints=cps, detail=info
                        )
                    )
                else:
                    exponent = _resolve_item_exponent(rule, query.p)
                    needs_p = rule is None and cond in (
                        Condition.ROW_POWER_SUM_SUP,
                        Condition.ENTRY_SUP,
                        Condition.SUBSET_ABS_COLSUM_SUP,
                        Condition.SUBSET_ENTRY_SUP,
                    )
                    reports.append(
                        matrix_class_condition(
                            family.full,
                            cond,
                            query.p if needs_p else None,
                            checkpoints=cps,
                            row_limit=query.row_limit,
                            exponent=exponent,
                            detail={**info, "matrix": "inverse-composite"},
                        )
                    )
        return reports

    # Classical source: evaluate on the forward composite window.
    bundle = TABLE_CLASSICAL_CELLS[(query.source, query.target)]
    upsilon = forward_composite_matrix(block, query.order, query.qp)
    reports = []
    for item in bundle:
        info = {**cell_info, "table": 2, "item": item, "matrix": "forward-composite"}
        if item == "A'":
            reports.append(
                matrix_class_condition(
                    upsilon,
                    Condition.ROW_POWER_SUM_SUP,
                    checkpoints=cps,
                    exponent=query.p.value,
                    detail=info,
                )
            )
        elif item == "B'":
            reports.append(
                matrix_class_condition(
                    upsilon,
                    Condition.COLUMN_SUBSET_POWER_SUM,
                    checkpoints=cps,
                    exponent=query.p.value,
                    row_limit=query.row_limit,
                    detail=info,
                )
            )
        elif item == 7:
            reports.append(
                matrix_class_condition(
                    upsilon, Condition.ROW_ABS_SUM_SUP, checkpoints=cps, detail=info
                )
            )
        elif item == 13:
            reports.append(
                matrix_class_condition(
                    upsilon,
                    Condition.ENTRY_SUP,
                    checkpoints=cps,
                    exponent=1.0,
                    detail=info,
                )
            )
        else:
            raise ValueError(f"unknown reverse-table item {item!r}")
    return reports
