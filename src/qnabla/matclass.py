"""Classification of matrix transformations into and out of the operator domains.

A test matrix acting on a domain-space sequence g can be rewritten to act
on the transformed sequence h instead.  Two windows realize that rewrite:
per row j, the section window whose row m carries the m-truncated rewrite
(so that the partial sums sum_{k<=m} phi_jk g_k equal the section row
applied to h), and the full inverse-composite window obtained by sending
every row tail through the inverse coefficients.  Both come from one
inverse stream per query, whose Toeplitz window T_e is a read-only view of
its w coefficients: section j is cumsum(phi_j[:, None] * T_e, axis=0), and
`duals._section_reports`, which also serves the beta and gamma checks,
sweeps row m of every section at once, m = 0 .. w - 1, so the full window's
row j is the last row of section j.  `class_check` runs it once per query:
it reports the section conditions and leaves the full window as its last
row.  A query holds O(w^2) doubles and takes O(w^3) time.

Membership of the original matrix in a class (domain space -> classical
space) is equivalent to a bundle of analytic conditions on those windows;
the bundles are catalogued here as static dispatch data, one entry per
(source, target) cell, and this module only dispatches them.  Each
condition has one row, its estimate, limit and exponent rule, in
`duals._CONDITIONS`; a section condition takes a single-window condition
over every row's section.

Row tails are the one honest-truncation hazard: the inverse coefficients do
not decay, so the rewritten row sums converge only through the test
matrix's own row decay.  Rows that provably end inside the window
(triangular windows, as read from the entries, or rows with an all-zero
tail quarter) are exact; otherwise the row must pass a relative tail-mass
test or the construction refuses with :class:`TailError` rather than
return a silently wrong sum.

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
    Condition,
    ConditionReport,
    MatrixWindow,
    _regime,
    _resolve_exponent,
    _section_reports,
    _tail_start,
    _triangular,
    matrix_class_condition,
)
from .fracdiff import _built, _check_int, _convolve, forward_coeffs
from .qcore import QParam, _coerce, _require_finite, q_integer
from .spaces import PExponent

__all__ = [
    "TailError",
    "Source",
    "Target",
    "ClassQuery",
    "CONDITION_CATALOG",
    "TABLE_DOMAIN_CELLS",
    "TABLE_CLASSICAL_CELLS",
    "class_check",
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

# The p regime (`duals._regime`) each operator-domain end of a query is stated
# for and how a refusal names it: l1-domain only at p = 1, linf-domain target any p.
_DOMAIN_P = {
    Source.L1_DOMAIN: ("le1", "p = 1"),
    Source.LP_DOMAIN: ("mid", "1 < p < inf"),
    Source.LINF_DOMAIN: ("inf", "p = inf"),
    Target.LP_DOMAIN: ("mid", "1 < p < inf"),
}

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
# exponent rule) pairs evaluated together.  Each condition has one row, its
# estimate and exponent rule, in `duals._CONDITIONS`; a rule here overrides
# the exponent of a single-window condition ("one", "conjugate" or
# "finite", see `duals._resolve_exponent`).  Section conditions take a
# single-window condition over every row's section window; the others run
# on the full window (the inverse composite for table 1, the forward
# composite for table 2).
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
        for name, kind in zip(("source", "target", "p", "qp"), (Source, Target, PExponent, QParam)):
            object.__setattr__(self, name, _coerce(kind, getattr(self, name)))
        for name in ("window", "row_limit"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
        _require_finite("order", self.order)
        if (self.source in _DOMAIN_SOURCES) == (self.target in _DOMAIN_TARGETS):
            raise ValueError(
                "operator-domain sources pair with classical, series, or q-Cesàro targets"
                if self.source in _DOMAIN_SOURCES
                else "classical sources pair with operator-domain targets")
        for end, role in ((self.source, "source"), (self.target, "target")):
            regime, text = _DOMAIN_P.get(end, (None, None))
            if regime and (_regime(self.p) != regime or regime == "le1" and self.p.value != 1.0):
                raise ValueError(f"{role} {end.value} requires {text}")


# A row's tail quarter must carry less than this share of (head mass + 1),
# both masses taken on the row scaled to a largest |entry| in [1/2, 1).
_TAIL_RTOL = 1e-8


def _check_row_tails(phi: MatrixWindow) -> None:
    """Refuse with :class:`TailError`, naming the first failing row and its
    ratio, a window whose row tails cannot be honestly truncated at its edge.

    Outside triangular windows (`duals._triangular`), a row with a nonzero
    tail quarter (the columns from `duals._tail_start`, as the limit
    estimates read rows) must pass the relative decay test against
    ``_TAIL_RTOL``: the inverse coefficients tend to a positive constant,
    so a non-decaying row genuinely diverges under the rewrite.  Each row
    is read scaled by the power of two that brings its own largest |entry|
    into [1/2, 1), so the test decides alike at every scale of any row and
    its masses stay in double range; the refusal prints the ratio
    tail / (head + 1) it decided on."""
    if _triangular(phi.entries):
        return
    ts = _tail_start(phi.entries.shape[1])
    mags = np.abs(phi.entries)
    # Exact but below 2^-1022 of the row's largest: too small to matter.
    np.ldexp(mags, -np.frexp(mags.max(axis=1))[1][:, None], out=mags)
    tails = np.sum(mags[:, ts:], axis=1)
    heads = np.sum(mags[:, :ts], axis=1)
    failing = np.flatnonzero((tails != 0.0) & (tails >= _TAIL_RTOL * (heads + 1.0)))
    if failing.size:
        j = failing[0]
        raise TailError(
            f"row {j} tail mass / (head mass + 1) is {tails[j] / (heads[j] + 1.0):.3e} "
            f"on the row's own scale, not below {_TAIL_RTOL:g}; the rewritten row sum "
            f"cannot be honestly truncated at the window edge"
        )


def _forward_composite(phi: MatrixWindow, order: float, qp: QParam) -> MatrixWindow:
    """Forward operator applied down each column of the test matrix: entry
    (j, k) is sum_{v<=j} c_{j-v} phi_vk.  Column k of the result is exactly
    the forward transform of column k of the input."""
    n = phi.entries.shape[0]
    stream = forward_coeffs(order, qp, n - 1)
    cols = np.column_stack([_convolve(n, stream, col) for col in phi.entries.T])
    return _built(MatrixWindow,
                  lambda: f"forward transform of order {stream.order} at q = {stream.qp.q}",
                  entries=cols)


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
    return _built(MatrixWindow, lambda: f"{composite} composite at q = {qp.q}", entries=entries)


def class_check(query: ClassQuery, phi: MatrixWindow) -> list[ConditionReport]:
    """Dispatch the exact condition bundle for the query's (source, target)
    cell and evaluate it on the appropriate windows of the test matrix.

    Table 1 (operator-domain sources) opens each bundle with its one item of
    section conditions, evaluated on the row sections, and evaluates the
    rest on the inverse composite, which one sweep of the sections
    (`duals._section_reports`) yields together: entry (j, k) is the
    window-truncated sum sum_{v>=k} e_{v-k} phi_jv, the last row of row j's
    section.  A row that fails the honest-truncation test
    (`_check_row_tails`) raises :class:`TailError` before any sweep work.
    Table 2 (classical sources) evaluates on the forward composite.
    Returns one report per evaluated condition; every report's detail
    records the dispatch cell and the bundle item it belongs to.
    """
    w = query.window
    if phi.entries.shape[0] < w or phi.entries.shape[1] < w:
        raise ValueError(
            f"matrix window {phi.entries.shape} is smaller than the requested "
            f"evaluation window {w}"
        )
    # Triangularity is read from this block: entries outside it change nothing.
    block = _built(MatrixWindow, None, entries=phi.entries[:w, :w])
    cell_info = {"source": query.source.value, "target": query.target.value}

    if query.source in _DOMAIN_SOURCES:
        composite, underlying = _COMPOSITE_TARGETS.get(query.target, (None, query.target))
        if composite:
            block = _column_means(block, composite, query.qp)
            cell_info["composite"] = composite
        first, *bundle = TABLE_DOMAIN_CELLS[(query.source, underlying)]
        _check_row_tails(block)
        reports, full = _section_reports(
            block.entries, query.order, query.qp, query.p,
            [cond for cond, _ in CONDITION_CATALOG[first]], None, "inverse composite",
            {"matrix": "sections", **cell_info, "table": 1, "item": first})
        table, label = 1, "inverse-composite"
    else:
        bundle = TABLE_CLASSICAL_CELLS[(query.source, query.target)]
        reports, full = [], _forward_composite(block, query.order, query.qp)
        table, label = 2, "forward-composite"

    for item in bundle:
        info = {**cell_info, "table": table, "item": item, "matrix": label}
        reports += [matrix_class_condition(full, cond, row_limit=query.row_limit, detail=info,
                                           exponent=_resolve_exponent(cond, query.p, None, rule))
                    for cond, rule in CONDITION_CATALOG[item]]
    return reports
