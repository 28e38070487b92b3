"""Classification of matrix transformations into and out of the operator domains.

A test matrix acting on a domain-space sequence g can be rewritten to act
on the transformed sequence h instead.  Two windows realize that rewrite:
per row j, the section window whose row m carries the m-truncated rewrite
(so that the partial sums sum_{k<=m} phi_jk g_k equal the section row
applied to h), and the full inverse-composite window obtained by sending
every row tail through the inverse coefficients.  Both come from one
inverse stream and its Toeplitz window T_e, built once per query: section
j is cumsum(phi_j[:, None] * T_e, axis=0), derived one row at a time and
dropped after use, and the full window's row j is that section's last row.
So a query holds O(w^2) doubles and takes O(w^3) time.

Membership of the original matrix in a class (domain space -> classical
space) is equivalent to a bundle of analytic conditions on those windows;
the bundles are catalogued here as static dispatch data, one entry per
(source, target) cell, and this module only dispatches them.  Each
condition has one estimate and one exponent rule in `duals`; a section
condition is a single-window condition taken over every row's section.

Row tails are the one honest-truncation hazard: the inverse coefficients do
not decay, so the rewritten row sums converge only through the test
matrix's own row decay.  Rows that provably end inside the window
(triangular windows, or rows with an all-zero tail quarter) are exact;
otherwise the row must pass a relative tail-mass test or the construction
refuses with :class:`TailError` rather than return a silently wrong sum.

For the reverse direction (classical space -> operator domain), the test
matrix is composed columnwise with the forward operator, and the resulting
window is screened with items of the same catalog (row power sums and
column-subset sums among them).
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
    _SECTION_OF,
    Condition,
    ConditionReport,
    InvalidCondition,
    MatrixWindow,
    _estimate,
    _report,
    _resolve_exponent,
    _row_section,
    matrix_class_condition,
    partial_sum_matrix,
)
from .fracdiff import CoeffStream, SeqWindow, apply_forward, inverse_coeffs, toeplitz_matrix
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

# Condition catalog of both tables: each entry is a tuple of (condition,
# exponent rule) pairs evaluated together.  Each condition has one estimate
# and one exponent rule in `duals`; a rule here overrides the exponent of a
# single-window condition ("one", "conjugate" or "finite", see
# `duals._resolve_exponent`).  Section conditions are single-window
# conditions taken over every row's section window; the others run on the
# full window (the inverse composite for table 1, the forward composite for
# table 2).
CONDITION_CATALOG: dict[int | str, tuple[tuple[Condition, str | None], ...]] = {
    1: ((Condition.SECTION_COLUMN_LIMITS, None), (Condition.SECTION_ENTRY_SUP, None)),
    2: ((Condition.SECTION_COLUMN_LIMITS, None), (Condition.SECTION_POWER_SUM_SUP, None)),
    3: ((Condition.SECTION_COLUMN_LIMITS, None), (Condition.SECTION_ABS_SUM_MATCH, None)),
    4: ((Condition.SUBSET_ABS_COLSUM_SUP, "one"),),
    5: ((Condition.COLUMN_LIMITS_ZERO, None),),
    6: ((Condition.COLUMN_LIMITS, None),),
    7: ((Condition.ROW_ABS_SUM_SUP, None),),
    8: ((Condition.VANISHING_ROW_ABS_SUM, None),),
    9: ((Condition.ABS_ROW_SUM_INTERCHANGE, None),),
    10: ((Condition.ROW_POWER_SUM_SUP, "conjugate"),),
    11: ((Condition.SUBSET_ENTRY_SUP, "one"),),
    12: ((Condition.SUBSET_ABS_COLSUM_SUP, "conjugate"),),
    13: ((Condition.ENTRY_SUP, "one"),),
    "A'": ((Condition.ROW_POWER_SUM_SUP, "finite"),),
    "B'": ((Condition.COLUMN_SUBSET_POWER_SUM, "finite"),),
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
# conditions or the row/column-subset items "A'" and "B'", all evaluated
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
    """The test matrix, the Toeplitz window ``T_e`` of its inverse stream,
    and the full inverse-composite window, all from one (matrix, order, q).

    Row j's section window is ``cumsum(phi_j[:, None] * T_e, axis=0)``; it
    is derived when needed and never stored, so a family holds O(w^2)
    doubles rather than one w x w section per row.
    """

    phi: MatrixWindow
    order: float
    qp: QParam
    T_e: np.ndarray
    full: MatrixWindow


def row_section_matrix(phi: MatrixWindow, j: int, order: float, qp: QParam) -> MatrixWindow:
    """Section window of row j: entry (m, k) is the inverse-coefficient sum
    sum_{v=k..m} e_{v-k} phi_jv, i.e. the m-truncated rewrite of row j."""
    n_rows = phi.entries.shape[0]
    if j != int(j) or not 0 <= j < n_rows:
        raise IndexError(f"row index j must satisfy 0 <= j < {n_rows}, got {j!r}")
    return partial_sum_matrix(SeqWindow(phi.entries[int(j)]), order, qp)


def _row_tail_bounds(phi: MatrixWindow, e: CoeffStream, tail_rtol: float) -> tuple[float, ...]:
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
    e_sup = float(np.max(e.coeffs))
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


def build_transform_family(
    phi: MatrixWindow, order: float, qp: QParam, tail_rtol: float = 1e-8
) -> TransformFamily:
    """One inverse stream and its Toeplitz window, plus the full
    inverse-composite window: entry (j, k) is the window-truncated sum
    sum_{v>=k} e_{v-k} phi_jv, the last row of row j's section.

    Raises :class:`TailError` when a row fails the honest-truncation test;
    per-row error bounds (sup of the inverse coefficients times the row
    tail mass) ride along on the full window.
    """
    n = phi.entries.shape[1]
    e = inverse_coeffs(order, qp, n - 1)
    bounds = _row_tail_bounds(phi, e, tail_rtol)
    t_e = toeplitz_matrix(e, n)
    t_e.setflags(write=False)
    full = np.empty(phi.entries.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite
        for j, row in enumerate(phi.entries):
            full[j] = _row_section(row, t_e)[-1]
    return TransformFamily(
        phi=phi, order=order, qp=qp, T_e=t_e,
        full=MatrixWindow(entries=full, triangular=phi.triangular, tail_bounds=bounds),
    )


def section_consistency_residual(
    phi: MatrixWindow, g: SeqWindow, order: float, qp: QParam
) -> float:
    """Max gap, over rows j and truncation points m, between the partial sums
    sum_{k<=m} phi_jk g_k and the section-window rewrite applied to the
    transform of g.  The rewrite is an identity, so this should sit at
    rounding level; a residual outside double range raises OverflowError."""
    if phi.entries.shape[1] != g.n:
        raise ValueError(
            f"matrix has {phi.entries.shape[1]} columns but the window has {g.n} entries"
        )
    h = apply_forward(g, order, qp).values
    t_e = toeplitz_matrix(inverse_coeffs(order, qp, g.n - 1), g.n)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for j, row in enumerate(phi.entries):
            lhs = np.cumsum(row * g.values)
            rhs = _row_section(row, t_e) @ h
            gap = float(np.max(np.abs(lhs - rhs)))
            if not math.isfinite(gap):
                raise OverflowError(
                    f"section consistency residual of row {j} leaves double range"
                )
            worst = max(worst, gap)
    return worst


def transform_condition(
    family: TransformFamily,
    cond: Condition,
    p: PExponent | None = None,
    *,
    checkpoints: tuple[int, ...] | list[int] | None = None,
    detail: dict[str, Any] | None = None,
) -> ConditionReport:
    """Evaluate a section condition: the maximum over rows of its
    single-window condition on that row's section, with the same truncation
    and trend semantics as the single-matrix dispatch.

    The abs-sum match compares each section's tail row sums with the full
    window's row sum.  Sections are derived one row at a time, reduced at
    every checkpoint, and dropped.
    """
    single = _SECTION_OF.get(cond)
    if single is None:
        raise InvalidCondition(
            f"{cond.value} applies to a single matrix window; use the "
            "matrix-class dispatch instead"
        )
    cps = _checkpoints(checkpoints, family.T_e.shape[0], start=4)
    e = _resolve_exponent(cond, p, None)

    def worst_over_sections():  # drawn lazily, inside the report's errstate
        refs = np.sum(np.abs(family.full.entries), axis=1)
        worst = np.zeros(len(cps))
        for j, row in enumerate(family.phi.entries):
            section = _row_section(row, family.T_e)
            values = [_estimate(single, section[:cp, :cp], e, True, refs[j]) for cp in cps]
            np.maximum(worst, values, out=worst)
        yield from worst.tolist()

    return _report(cond, cps, worst_over_sections(), e, {"matrix": "sections", **(detail or {})})


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
    """The two screens for mapping a classical space into the p-domain
    (catalog items A' and B'): rowwise p-power sums, and p-power sums of
    row sums over exhaustively enumerated column subsets (capped at
    ``row_limit`` columns)."""
    if p.is_inf:
        raise InvalidCondition("target-domain conditions need a finite exponent p")
    return [
        matrix_class_condition(
            m, cond, checkpoints=checkpoints, row_limit=row_limit,
            exponent=_resolve_exponent(cond, p, None, rule), detail={"label": item},
        )
        for item in ("A'", "B'")
        for cond, rule in CONDITION_CATALOG[item]
    ]


def class_check(query: ClassQuery, phi: MatrixWindow) -> list[ConditionReport]:
    """Dispatch the exact condition bundle for the query's (source, target)
    cell and evaluate it on the appropriate windows of the test matrix.

    Table 1 (operator-domain sources) evaluates its "full" conditions on the
    inverse composite and its "sections" conditions on the row sections;
    table 2 (classical sources) evaluates on the forward composite.
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
        table, full, label = 1, family.full, "inverse-composite"
    else:
        bundle = TABLE_CLASSICAL_CELLS[(query.source, query.target)]
        full = forward_composite_matrix(block, query.order, query.qp)
        table, label = 2, "forward-composite"

    reports: list[ConditionReport] = []
    for item in bundle:
        info = {**cell_info, "table": table, "item": item}
        for cond, rule in CONDITION_CATALOG[item]:
            if cond in _SECTION_OF:
                reports.append(
                    transform_condition(family, cond, query.p, checkpoints=cps, detail=info)
                )
            else:
                reports.append(
                    matrix_class_condition(
                        full, cond, checkpoints=cps, row_limit=query.row_limit,
                        exponent=_resolve_exponent(cond, query.p, None, rule),
                        detail={**info, "matrix": label},
                    )
                )
    return reports
