"""Classification of matrix transformations into and out of the operator domains.

A test matrix acting on a domain-space sequence g can be rewritten to act
on the transformed sequence h instead.  Two windows realize that rewrite:
per row j, the section window whose row m carries the m-truncated rewrite
(so that the partial sums sum_{k<=m} phi_jk g_k equal the section row
applied to h), and the full inverse-composite window obtained by sending
every row tail through the inverse coefficients.  Both come from one
inverse stream per query, whose Toeplitz window T_e is a read-only view of
its w coefficients: section j is cumsum(phi_j[:, None] * T_e, axis=0), and
`duals._sections` sweeps row m of every section at once, m = 0 .. w - 1,
so the full window's row j is the last row of section j.  One sweep per
query folds the values of its section conditions and leaves the full
window as its last row.  A query holds O(w^2) doubles and takes O(w^3) time.

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
Composites with the running-sum and q-Cesàro mean matrices, each one
weighted running sum down the columns, reuse the same dispatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .duals import (
    _SECTION_OF,
    Condition,
    ConditionReport,
    InvalidCondition,
    MatrixWindow,
    _profile,
    _report,
    _resolve_exponent,
    _sections,
    matrix_class_condition,
)
from .fracdiff import (
    CoeffStream, _built, _check_int, _convolve, _lower_toeplitz, forward_coeffs, inverse_coeffs,
)
from .qcore import QParam, q_integer
from .spaces import PExponent, _checkpoints, default_checkpoints

__all__ = [
    "TailError",
    "Source",
    "Target",
    "ClassQuery",
    "CONDITION_CATALOG",
    "TABLE_DOMAIN_CELLS",
    "TABLE_CLASSICAL_CELLS",
    "inverse_composite_matrix",
    "transform_condition",
    "class_check",
    "forward_composite_matrix",
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

    def __post_init__(self) -> None:
        for name in ("window", "row_limit"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
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


# A row's tail quarter must carry less than this share of (head mass + 1).
_TAIL_RTOL = 1e-8


def _row_tail_bounds(phi: MatrixWindow, e: CoeffStream) -> tuple[float, ...]:
    """Per-row truncation-error bounds for window-truncated row-tail sums.

    Triangular windows and rows with an all-zero tail quarter are exact.
    Other rows must pass the relative decay test against ``_TAIL_RTOL`` or
    the whole construction is refused, naming the first failing row: the
    inverse coefficients tend to a positive constant, so a non-decaying row
    genuinely diverges under the rewrite.
    """
    n_rows, n_cols = phi.entries.shape
    if phi.triangular:
        return (0.0,) * n_rows
    e_sup = float(np.max(e.coeffs))
    ts = n_cols - max(1, n_cols // 4)
    mags = np.abs(phi.entries)
    tails = np.sum(mags[:, ts:], axis=1)
    heads = np.sum(mags[:, :ts], axis=1)
    failing = np.flatnonzero((tails != 0.0) & (tails >= _TAIL_RTOL * (heads + 1.0)))
    if failing.size:
        j = failing[0]
        raise TailError(
            f"row {j} tail mass {tails[j]:.3e} is not negligible against "
            f"its head ({heads[j]:.3e}); the rewritten row sum cannot be "
            f"honestly truncated at the window edge"
        )
    return tuple(e_sup * t if t else 0.0 for t in tails.tolist())


def _sweep(phi: MatrixWindow, order: float, qp: QParam, items, cps: tuple[int, ...]):
    """One sweep of every row's section: the full inverse-composite window
    (the sections' last rows, with the rows' tail bounds) and the values of
    the section conditions ``items``, each with its exponent, at ``cps``.

    Raises :class:`TailError` before any sweep work when a row fails the
    honest-truncation test.
    """
    n = phi.entries.shape[1]
    e = inverse_coeffs(order, qp, n - 1)
    bounds = _row_tail_bounds(phi, e)
    values, last = _profile(items, _sections(phi.entries, _lower_toeplitz(e.coeffs, n)), cps, True)
    full = _built(MatrixWindow, lambda: f"inverse composite of order {order} at q = {qp.q}",
                  entries=last.copy(), triangular=phi.triangular, tail_bounds=bounds)
    return full, values


def inverse_composite_matrix(phi: MatrixWindow, order: float, qp: QParam) -> MatrixWindow:
    """Inverse operator sent along each row tail of the test matrix: entry
    (j, k) is the window-truncated sum sum_{v>=k} e_{v-k} phi_jv, the last
    row of row j's section.

    Raises :class:`TailError` when a row fails the honest-truncation test;
    per-row error bounds (sup of the inverse coefficients times the row
    tail mass) ride along on the window.
    """
    return _sweep(phi, order, qp, (), ())[0]


def transform_condition(
    phi: MatrixWindow,
    order: float,
    qp: QParam,
    cond: Condition,
    p: PExponent | None = None,
    *,
    checkpoints: tuple[int, ...] | list[int] | None = None,
) -> ConditionReport:
    """Evaluate a section condition: the maximum over rows of its
    single-window condition on that row's section, with the same truncation
    and trend semantics as the single-matrix dispatch.

    The abs-sum match compares each section's tail row sums with the full
    window's row sum.  The sections' rows are streamed, those of all
    sections together, over the whole window, and reduced as they come;
    a row that fails the honest-truncation test raises :class:`TailError`.
    """
    if cond not in _SECTION_OF:
        raise InvalidCondition(
            f"{cond.value} applies to a single matrix window; use the "
            "matrix-class dispatch instead"
        )
    cps = _checkpoints(checkpoints, phi.entries.shape[1], start=4)
    e = _resolve_exponent(cond, p, None)
    _, (values,) = _sweep(phi, order, qp, ((cond, e),), cps)
    return _report(cond, cps, iter(values), e, {"matrix": "sections"})


def forward_composite_matrix(phi: MatrixWindow, order: float, qp: QParam) -> MatrixWindow:
    """Forward operator applied down each column of the test matrix: entry
    (j, k) is sum_{v<=j} c_{j-v} phi_vk.  Column k of the result is exactly
    the forward transform of column k of the input."""
    n = phi.entries.shape[0]
    stream = forward_coeffs(order, qp, n - 1)
    cols = np.column_stack([_convolve(n, stream, col) for col in phi.entries.T])
    return _built(MatrixWindow, lambda: f"forward transform of order {stream.order} at q = {qp.q}",
                  entries=cols, triangular=phi.triangular)


def _column_means(phi: MatrixWindow, composite: str, qp: QParam) -> MatrixWindow:
    """Weighted running sum down each column: entry (j, k) is
    sum_{v<=j} w_v phi_vk / d_j.  The running sum has w = d = 1, and x * 1
    and x / 1 are exact, so its bits are those of the plain column cumsum;
    the q-Cesàro mean has w_v = q^v and d_j = [j+1]_q, the geometric sum of
    its weights, so each row's weights sum to one."""
    v = np.arange(phi.entries.shape[0], dtype=np.float64)
    if composite == "q-cesaro":
        w, d = qp.q**v, q_integer(v + 1.0, qp)
    else:
        w = d = np.ones_like(v)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by `_built`
        entries = np.cumsum(w[:, None] * phi.entries, axis=0) / d[:, None]
    return _built(MatrixWindow, lambda: f"{composite} composite at q = {qp.q}",
                  entries=entries, triangular=phi.triangular)


def class_check(query: ClassQuery, phi: MatrixWindow) -> list[ConditionReport]:
    """Dispatch the exact condition bundle for the query's (source, target)
    cell and evaluate it on the appropriate windows of the test matrix.

    Table 1 (operator-domain sources) evaluates its "sections" conditions
    on the row sections and its "full" conditions on the inverse composite,
    which one sweep of the sections yields together;
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
    block = _built(MatrixWindow, None, entries=phi.entries[:w, :w], triangular=phi.triangular)
    cps = default_checkpoints(w, start=4)
    cell_info = {"source": query.source.value, "target": query.target.value}

    if query.source in _DOMAIN_SOURCES:
        composite, underlying = _COMPOSITE_TARGETS.get(query.target, (None, query.target))
        if composite:
            block = _column_means(block, composite, query.qp)
            cell_info["composite"] = composite
        bundle = TABLE_DOMAIN_CELLS[(query.source, underlying)]
        items = [(cond, _resolve_exponent(cond, query.p, None))
                 for item in bundle for cond, _ in CONDITION_CATALOG[item] if cond in _SECTION_OF]
        full, values = _sweep(block, query.order, query.qp, items, cps)
        sections = {cond: (e, vals) for (cond, e), vals in zip(items, values)}
        table, label = 1, "inverse-composite"
    else:
        bundle = TABLE_CLASSICAL_CELLS[(query.source, query.target)]
        full = forward_composite_matrix(block, query.order, query.qp)
        table, label = 2, "forward-composite"

    reports: list[ConditionReport] = []
    for item in bundle:
        info = {**cell_info, "table": table, "item": item}
        for cond, rule in CONDITION_CATALOG[item]:
            if cond in _SECTION_OF:
                e, vals = sections[cond]
                reports.append(_report(cond, cps, iter(vals), e, {"matrix": "sections", **info}))
            else:
                reports.append(
                    matrix_class_condition(
                        full, cond, checkpoints=cps, row_limit=query.row_limit,
                        exponent=_resolve_exponent(cond, query.p, None, rule),
                        detail={**info, "matrix": label},
                    )
                )
    return reports
