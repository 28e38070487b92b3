"""Dual-set and matrix-class condition evaluators on truncated windows.

Two test matrices are built from a multiplier window a and the operator
order: the termwise-product matrix, whose action on the transformed
sequence h returns the products (a_j g_j), and the partial-sum matrix,
whose action returns the partial sums of the series sum_k a_k g_k.  The
alpha-, beta-, and gamma-dual checks evaluate the classical matrix-class
conditions on those windows, with the case split at p = 1 belonging to the
lower branch throughout.

The conditions quantify over all finite subsets of an infinite index set
and over limits no finite window can certify, so the evaluators are honest
about both: finite-subset suprema are enumerated exhaustively over a capped
number of rows (hard ceiling of 20, about a million subsets), and "limit
exists" conditions are reported as Cauchy-style oscillation estimates over
the last quarter of the window.  Every report carries the evaluated
quantity at a strictly increasing list of window sizes plus a tri-state
verdict: values that have stabilized read as bounded-on-window, values that
climb at every checkpoint read as growing, everything else is
inconclusive.  Verdicts are descriptive, never proofs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .fracdiff import SeqWindow, inverse_coeffs, toeplitz_matrix
from .qcore import QParam
from .spaces import PExponent, _checkpoints

__all__ = [
    "MAX_SUBSET_ROWS",
    "LimitError",
    "InvalidCondition",
    "MatrixWindow",
    "Condition",
    "Verdict",
    "ConditionReport",
    "SubsetMode",
    "termwise_product_matrix",
    "partial_sum_matrix",
    "subset_sup",
    "matrix_class_condition",
    "alpha_dual_check",
    "beta_dual_check",
    "gamma_dual_check",
]

MAX_SUBSET_ROWS = 20
_SUBSET_CHUNK = 1 << 15

# Trend-classification constants; these shape verdict labels only, never
# the reported values.
_STABLE_RTOL = 1e-9
_GROWTH_FACTOR = 1.25
_TAIL_SHRINK = 0.25
_TINY = 1e-12


class LimitError(Exception):
    """A finite-subset supremum was requested over more rows than the
    exhaustive-enumeration cap allows."""


class InvalidCondition(ValueError):
    """A condition was requested outside the exponent regime it is stated for."""


@dataclass(frozen=True)
class MatrixWindow:
    """Dense rectangular window of an infinite matrix.

    ``triangular`` asserts that entries above the main diagonal are exactly
    zero; for such windows every row is finitely supported, which is what
    makes window-truncated row-tail sums exact.  ``tail_bounds`` optionally
    records, per row, a bound on the truncation error of tail sums computed
    from the window (zero for rows whose support provably ends inside it).
    """

    entries: np.ndarray
    triangular: bool = False
    tail_bounds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.size == 0:
            raise ValueError("entries must be a nonempty two-dimensional array")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        if self.triangular and np.any(np.triu(e, k=1) != 0.0):
            raise ValueError("triangular window has nonzero entries above the diagonal")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


class Condition(enum.Enum):
    """Evaluable matrix-class conditions, named by what they measure."""

    ROW_ABS_SUM_SUP = "row-abs-sum-sup"
    COLUMN_LIMITS = "column-limits"
    COLUMN_LIMITS_ZERO = "column-limits-zero"
    ABS_ROW_SUM_INTERCHANGE = "abs-row-sum-interchange"
    ROW_POWER_SUM_SUP = "row-power-sum-sup"
    ENTRY_SUP = "entry-sup"
    SUBSET_ABS_COLSUM_SUP = "row-subset-abs-colsum-sup"
    SUBSET_ENTRY_SUP = "row-subset-entry-sup"
    COLUMN_SUBSET_POWER_SUM = "column-subset-power-sum-sup"
    SECTION_COLUMN_LIMITS = "section-column-limits"
    SECTION_ENTRY_SUP = "section-entry-sup"
    SECTION_POWER_SUM_SUP = "section-power-sum-sup"
    SECTION_ABS_SUM_MATCH = "section-abs-sum-match"
    VANISHING_ROW_ABS_SUM = "vanishing-row-abs-sum"


# Conditions whose reported value is a tail/oscillation estimate that should
# shrink when the condition holds; all others are running suprema that
# should stabilize.
_TAIL_CONDITIONS = frozenset(
    {
        Condition.COLUMN_LIMITS,
        Condition.COLUMN_LIMITS_ZERO,
        Condition.ABS_ROW_SUM_INTERCHANGE,
        Condition.SECTION_COLUMN_LIMITS,
        Condition.SECTION_ABS_SUM_MATCH,
        Condition.VANISHING_ROW_ABS_SUM,
    }
)


class Verdict(enum.Enum):
    BOUNDED_ON_WINDOW = "bounded-on-window"
    GROWING = "growing"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConditionReport:
    """One evaluated condition: values over growing windows plus a verdict."""

    condition_id: Condition
    values: tuple[tuple[int, float], ...]
    verdict: Verdict
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("values must be nonempty")
        sizes = [n for n, _ in self.values]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("window sizes must be strictly increasing")

    def as_dict(self) -> dict:
        def clean(x):
            if isinstance(x, (tuple, list)):
                return [clean(v) for v in x]
            if isinstance(x, (np.floating, float)):
                return float(x)
            if isinstance(x, (np.integer, int)):
                return int(x)
            return x

        return {
            "condition": self.condition_id.value,
            "values": [[int(n), float(v)] for n, v in self.values],
            "verdict": self.verdict.value,
            "detail": {k: clean(v) for k, v in sorted(self.detail.items())},
        }


def classify_trend(values: tuple[tuple[int, float], ...], shrinks: bool) -> Verdict:
    """Descriptive trend label for a value profile over growing windows."""
    vs = [v for _, v in values]
    if len(vs) < 2:
        return Verdict.INCONCLUSIVE
    increasing = all(b > a for a, b in zip(vs, vs[1:]))
    if shrinks:
        scale = max(abs(vs[0]), _TINY)
        if abs(vs[-1]) <= _TINY or abs(vs[-1]) <= _TAIL_SHRINK * scale:
            return Verdict.BOUNDED_ON_WINDOW
        if increasing and vs[-1] > _GROWTH_FACTOR * scale:
            return Verdict.GROWING
        return Verdict.INCONCLUSIVE
    if abs(vs[-1] - vs[-2]) <= _STABLE_RTOL * max(1.0, abs(vs[-2])):
        return Verdict.BOUNDED_ON_WINDOW
    if increasing and vs[-1] > _GROWTH_FACTOR * abs(vs[0]) + _TINY:
        return Verdict.GROWING
    return Verdict.INCONCLUSIVE


def termwise_product_matrix(a: SeqWindow, order: float, qp: QParam) -> MatrixWindow:
    """Triangular window whose action on the transformed sequence h returns
    the termwise products (a_j g_j): entry (j, k) is e_{j-k} a_j."""
    n = a.n
    inv = toeplitz_matrix(inverse_coeffs(order, qp, n - 1), n)
    return MatrixWindow(entries=a.values[:, None] * inv, triangular=True)


def partial_sum_matrix(a: SeqWindow, order: float, qp: QParam) -> MatrixWindow:
    """Triangular window whose action on the transformed sequence h returns
    the partial sums sum_{k<=j} a_k g_k.

    Row j is the running column sum of the termwise-product rows up to j,
    so (row j) - (row j-1) reproduces the termwise-product row exactly.
    """
    lam = termwise_product_matrix(a, order, qp)
    return MatrixWindow(entries=np.cumsum(lam.entries, axis=0), triangular=True)


class SubsetMode(enum.Enum):
    """Inner aggregation for finite-subset suprema over row selections."""

    SUM_OVER_COLS_OF_ABS_COLSUM = "sum-over-cols"
    SUP_OVER_COLS_OF_ABS = "sup-over-cols"


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def subset_sup(
    m: MatrixWindow,
    exponent: float,
    inner: SubsetMode,
    row_limit: int,
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive supremum over nonempty row subsets J of the first
    ``row_limit`` rows.

    For each J the row selection is summed, |.|^exponent is applied
    columnwise, and the columns are either summed or sup'd according to
    ``inner``.  Returns the maximum together with the maximizing subset
    (lexicographically least on ties, so the result is deterministic and
    independent of any internal evaluation order).
    """
    if row_limit != int(row_limit) or row_limit < 1:
        raise ValueError(f"row_limit must be a positive integer, got {row_limit!r}")
    row_limit = int(row_limit)
    if row_limit > MAX_SUBSET_ROWS:
        raise LimitError(
            f"row_limit {row_limit} exceeds the exhaustive-enumeration cap "
            f"of {MAX_SUBSET_ROWS} rows"
        )
    if not (math.isfinite(exponent) and exponent > 0.0):
        raise ValueError(f"exponent must be positive and finite, got {exponent!r}")
    rows = min(row_limit, m.entries.shape[0])
    block = m.entries[:rows]
    shifts = np.arange(rows, dtype=np.uint32)
    best = -math.inf
    best_witness: tuple[int, ...] | None = None
    for start in range(1, 1 << rows, _SUBSET_CHUNK):
        masks = np.arange(start, min(start + _SUBSET_CHUNK, 1 << rows), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        powered = np.abs(bits @ block) ** exponent
        vals = (
            powered.sum(axis=1)
            if inner is SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
            else powered.max(axis=1)
        )
        chunk_max = float(vals.max())
        if chunk_max < best:
            continue
        witness = min(_mask_indices(int(mm)) for mm in masks[vals == chunk_max])
        if chunk_max > best or (best_witness is not None and witness < best_witness):
            best, best_witness = chunk_max, witness
    assert best_witness is not None
    return best, best_witness


def _tail_start(n: int) -> int:
    return max(0, n - max(2, n // 4))


def _column_limit_estimate(block: np.ndarray, triangular: bool, to_zero: bool) -> float:
    n = block.shape[0]
    ts = _tail_start(n)
    cols = min(block.shape[1], ts + 1) if triangular else block.shape[1]
    sub = block[ts:, :cols]
    if sub.size == 0:
        return 0.0
    if to_zero:
        return float(np.max(np.abs(sub)))
    return float(np.max(sub.max(axis=0) - sub.min(axis=0)))


def _interchange_estimate(block: np.ndarray) -> float:
    n = block.shape[0]
    ts = _tail_start(n)
    ref = float(np.sum(np.abs(block[n - 1])))
    row_sums = np.sum(np.abs(block[ts:]), axis=1)
    return float(np.max(np.abs(row_sums - ref)))


def _vanishing_row_sum_estimate(block: np.ndarray) -> float:
    ts = _tail_start(block.shape[0])
    return float(np.max(np.sum(np.abs(block[ts:]), axis=1)))


def _resolve_exponent(
    cond: Condition, p: PExponent | None, exponent: float | None
) -> float:
    """Exponent for the power-type conditions, enforcing the stated regimes."""
    if exponent is not None:
        return float(exponent)
    if cond in (Condition.ROW_POWER_SUM_SUP, Condition.SUBSET_ABS_COLSUM_SUP):
        if p is None:
            raise InvalidCondition(f"{cond.value} requires an exponent or p")
        if p.is_inf:
            return 1.0
        if p.value <= 1.0:
            raise InvalidCondition(
                f"{cond.value} uses the conjugate exponent and is stated only "
                f"for 1 < p < inf; got p = {p}"
            )
        return p.conjugate
    if cond in (Condition.ENTRY_SUP, Condition.SUBSET_ENTRY_SUP):
        if p is None:
            raise InvalidCondition(f"{cond.value} requires an exponent or p")
        if p.is_inf or p.value > 1.0:
            raise InvalidCondition(
                f"{cond.value} is stated only for 0 < p <= 1; got p = {p}"
            )
        return p.value
    raise InvalidCondition(f"{cond.value} does not take an exponent")


def matrix_class_condition(
    m: MatrixWindow,
    cond: Condition,
    p: PExponent | None = None,
    *,
    checkpoints: tuple[int, ...] | list[int] | None = None,
    row_limit: int = 12,
    exponent: float | None = None,
    detail: dict[str, Any] | None = None,
) -> ConditionReport:
    """Evaluate one matrix-class condition on leading square blocks.

    This is the single dispatch point behind the dual checks and the matrix
    classification tables.  ``checkpoints`` are the block sizes to profile
    (power-of-two defaults); subset conditions additionally cap the
    enumerated rows at ``row_limit``.
    """
    n_rows = m.entries.shape[0]
    cps = _checkpoints(checkpoints, n_rows, start=4)
    info: dict[str, Any] = dict(detail or {})
    values: list[tuple[int, float]] = []

    if cond in (Condition.SUBSET_ABS_COLSUM_SUP, Condition.SUBSET_ENTRY_SUP,
                Condition.COLUMN_SUBSET_POWER_SUM):
        if cond is Condition.COLUMN_SUBSET_POWER_SUM:
            # Column-subset row sums carry the exponent p itself.
            if exponent is not None:
                e = float(exponent)
            elif p is not None and not p.is_inf:
                e = p.value
            else:
                raise InvalidCondition(f"{cond.value} requires a finite exponent")
        else:
            e = _resolve_exponent(cond, p, exponent)
        mode = (
            SubsetMode.SUP_OVER_COLS_OF_ABS
            if cond is Condition.SUBSET_ENTRY_SUP
            else SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
        )
        info["exponent"] = e
        witness: tuple[int, ...] = ()
        for cp in cps:
            block = m.entries[:cp, :cp]
            if cond is Condition.COLUMN_SUBSET_POWER_SUM:
                block = block.T
            sub = MatrixWindow(entries=block, triangular=False)
            val, witness = subset_sup(sub, e, mode, min(cp, row_limit))
            values.append((cp, val))
        info["witness"] = list(witness)
    elif cond is Condition.ROW_ABS_SUM_SUP:
        for cp in cps:
            values.append((cp, float(np.max(np.sum(np.abs(m.entries[:cp, :cp]), axis=1)))))
    elif cond is Condition.ROW_POWER_SUM_SUP:
        e = _resolve_exponent(cond, p, exponent)
        info["exponent"] = e
        for cp in cps:
            values.append(
                (cp, float(np.max(np.sum(np.abs(m.entries[:cp, :cp]) ** e, axis=1))))
            )
    elif cond is Condition.ENTRY_SUP:
        e = _resolve_exponent(cond, p, exponent)
        info["exponent"] = e
        for cp in cps:
            values.append((cp, float(np.max(np.abs(m.entries[:cp, :cp])) ** e)))
    elif cond in (Condition.COLUMN_LIMITS, Condition.COLUMN_LIMITS_ZERO):
        for cp in cps:
            values.append(
                (
                    cp,
                    _column_limit_estimate(
                        m.entries[:cp, :cp],
                        m.triangular,
                        cond is Condition.COLUMN_LIMITS_ZERO,
                    ),
                )
            )
    elif cond is Condition.ABS_ROW_SUM_INTERCHANGE:
        for cp in cps:
            values.append((cp, _interchange_estimate(m.entries[:cp, :cp])))
    elif cond is Condition.VANISHING_ROW_ABS_SUM:
        for cp in cps:
            values.append((cp, _vanishing_row_sum_estimate(m.entries[:cp, :cp])))
    else:
        raise InvalidCondition(
            f"{cond.value} applies to a family of section windows, not a single matrix"
        )

    vals = tuple(values)
    return ConditionReport(
        condition_id=cond,
        values=vals,
        verdict=classify_trend(vals, shrinks=cond in _TAIL_CONDITIONS),
        detail=info,
    )


def alpha_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    row_limits: tuple[int, ...] | list[int],
) -> ConditionReport:
    """Subset-supremum condition deciding membership of a in the alpha dual.

    Builds the termwise-product window and evaluates, per row limit, the
    subset condition matching the exponent regime: entrywise sup to the
    power p for 0 < p <= 1, columnwise conjugate-power sums for
    1 < p < inf, and plain columnwise absolute sums for the sup-norm space.
    """
    rls = tuple(int(r) for r in row_limits)
    if not rls:
        raise ValueError("row_limits must be nonempty")
    if any(b <= a_ for a_, b in zip(rls, rls[1:])):
        raise ValueError("row_limits must be strictly increasing")
    lam = termwise_product_matrix(a, order, qp)
    if p.is_inf:
        cond, e = Condition.SUBSET_ABS_COLSUM_SUP, 1.0
        mode = SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
    elif p.value <= 1.0:
        cond, e = Condition.SUBSET_ENTRY_SUP, p.value
        mode = SubsetMode.SUP_OVER_COLS_OF_ABS
    else:
        cond, e = Condition.SUBSET_ABS_COLSUM_SUP, p.conjugate
        mode = SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
    values = []
    witness: tuple[int, ...] = ()
    for rl in rls:
        val, witness = subset_sup(lam, e, mode, rl)
        values.append((rl, val))
    vals = tuple(values)
    return ConditionReport(
        condition_id=cond,
        values=vals,
        verdict=classify_trend(vals, shrinks=False),
        detail={"matrix": "termwise-product", "exponent": e, "witness": list(witness)},
    )


def beta_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    windows: tuple[int, ...] | list[int] | None = None,
) -> list[ConditionReport]:
    """Beta-dual conditions on the partial-sum window of a.

    Always requires existence of the columnwise row limits; the companion
    condition depends on the regime (entry sup for p <= 1, conjugate-power
    row sums for 1 < p < inf, the row-sum/limit interchange for the
    sup-norm source).  One report per condition.
    """
    omega = partial_sum_matrix(a, order, qp)
    shared = {"matrix": "partial-sum"}
    first = matrix_class_condition(
        omega, Condition.COLUMN_LIMITS, checkpoints=windows, detail=dict(shared)
    )
    if p.is_inf:
        second = matrix_class_condition(
            omega, Condition.ABS_ROW_SUM_INTERCHANGE, checkpoints=windows, detail=dict(shared)
        )
    elif p.value <= 1.0:
        second = matrix_class_condition(
            omega, Condition.ENTRY_SUP, p, checkpoints=windows, detail=dict(shared)
        )
    else:
        second = matrix_class_condition(
            omega, Condition.ROW_POWER_SUM_SUP, p, checkpoints=windows, detail=dict(shared)
        )
    return [first, second]


def gamma_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    windows: tuple[int, ...] | list[int] | None = None,
) -> ConditionReport:
    """Gamma-dual condition: the beta-dual companion condition without the
    column-limit requirement (with exponent 1 for the sup-norm source)."""
    omega = partial_sum_matrix(a, order, qp)
    shared = {"matrix": "partial-sum"}
    if p.is_inf:
        return matrix_class_condition(
            omega,
            Condition.ROW_POWER_SUM_SUP,
            checkpoints=windows,
            exponent=1.0,
            detail=dict(shared),
        )
    if p.value <= 1.0:
        return matrix_class_condition(
            omega, Condition.ENTRY_SUP, p, checkpoints=windows, detail=dict(shared)
        )
    return matrix_class_condition(
        omega, Condition.ROW_POWER_SUM_SUP, p, checkpoints=windows, detail=dict(shared)
    )
