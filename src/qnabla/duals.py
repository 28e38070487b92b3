"""Dual-set and matrix-class condition evaluators on truncated windows.

Two test matrices are built from a multiplier window a and the operator
order: the termwise-product matrix, whose action on the transformed
sequence h returns the products (a_j g_j), and the partial-sum matrix,
whose action returns the partial sums of the series sum_k a_k g_k.  The
alpha-, beta-, and gamma-dual checks evaluate the classical matrix-class
conditions on those windows in O(n) memory, with the case split at p = 1
belonging to the lower branch throughout.

The conditions quantify over all finite subsets of an infinite index set
and over limits no finite window can certify, so the evaluators are honest
about both: finite-subset suprema are taken over a capped number of rows
(hard ceiling of 20), in closed form when the columns are sup'd and by
enumeration of up to about a million subsets, one row add each, when they
are summed, skipping only subtrees that provably cannot reach the best
value and raising to the power only subsets whose norm bound can reach
it; and "limit exists" conditions are reported as Cauchy-style
oscillation estimates over the last quarter of the window.  Every report
carries the evaluated quantity at a strictly increasing list of window
sizes plus a tri-state verdict: values that have stabilized read as
bounded-on-window, values that climb at every checkpoint read as growing,
everything else is inconclusive.  Verdicts are descriptive, never proofs.

Each condition has one evaluator here: one fold over the rows of its
leading blocks (`_profile`) or one subset mode (`_SUBSET_MODE`), and one
exponent rule (`_EXPONENT_RULE`, resolved with the p regime by
`_resolve_exponent`).  A section condition is a single-window condition
taken over every row's section window (`_SECTION_OF`); one kernel streams
section rows (`_sections`), one row's for the partial-sum matrix and every
row's for `matclass`.  Every report goes through one constructor, which
refuses a value outside double range with OverflowError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .fracdiff import SeqWindow, _built, _check_int, _lower_toeplitz, inverse_coeffs
from .qcore import QParam
from .spaces import _CHUNK_ENTRIES, PExponent, _checkpoints

__all__ = [
    "MAX_SUBSET_ROWS",
    "LimitError",
    "InvalidCondition",
    "MatrixWindow",
    "Condition",
    "Verdict",
    "ConditionReport",
    "SubsetMode",
    "subset_sup",
    "matrix_class_condition",
    "alpha_dual_check",
    "beta_dual_check",
    "gamma_dual_check",
]

MAX_SUBSET_ROWS = 20
_LOW_ROWS = 13
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
_ETA = 2.0**-26  # splits the rounding drift off a squared norm in `_norm_bounds`

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


# Conditions whose value is a tail/oscillation estimate over a block's last
# rows, which should shrink when the condition holds (a section condition
# shrinks when its single-window condition does); all others are running
# suprema over all rows that should stabilize.
_TAIL_CONDITIONS = frozenset(
    {
        Condition.COLUMN_LIMITS,
        Condition.COLUMN_LIMITS_ZERO,
        Condition.ABS_ROW_SUM_INTERCHANGE,
        Condition.VANISHING_ROW_ABS_SUM,
    }
)


# Per-condition exponent rules, resolved by _resolve_exponent: "conjugate"
# is p' (1 at p = inf), "strict" p' for 1 < p < inf only, "le1" p for
# 0 < p <= 1, "finite" any finite p, and "one" the fixed exponent 1.
_EXPONENT_RULE = {
    Condition.ROW_POWER_SUM_SUP: "conjugate",
    Condition.SUBSET_ABS_COLSUM_SUP: "conjugate",
    Condition.ENTRY_SUP: "le1",
    Condition.SUBSET_ENTRY_SUP: "le1",
    Condition.COLUMN_SUBSET_POWER_SUM: "finite",
    Condition.SECTION_POWER_SUM_SUP: "strict",
}

# Section conditions are single-window conditions taken over every row's
# section window: the value is the maximum over rows of the same estimate.
_SECTION_OF = {
    Condition.SECTION_COLUMN_LIMITS: Condition.COLUMN_LIMITS,
    Condition.SECTION_ENTRY_SUP: Condition.ENTRY_SUP,
    Condition.SECTION_POWER_SUM_SUP: Condition.ROW_POWER_SUM_SUP,
    Condition.SECTION_ABS_SUM_MATCH: Condition.ABS_ROW_SUM_INTERCHANGE,
}


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


class SubsetMode(enum.Enum):
    """Inner aggregation for finite-subset suprema over row selections."""

    SUM_OVER_COLS_OF_ABS_COLSUM = "sum-over-cols"
    SUP_OVER_COLS_OF_ABS = "sup-over-cols"


# Subset conditions and the inner aggregation of their suprema.
_SUBSET_MODE = {
    Condition.SUBSET_ABS_COLSUM_SUP: SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM,
    Condition.SUBSET_ENTRY_SUP: SubsetMode.SUP_OVER_COLS_OF_ABS,
    Condition.COLUMN_SUBSET_POWER_SUM: SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM,
}


def _lex_least(masks: np.ndarray) -> tuple[int, ...]:
    """Lexicographically least row-index tuple among nonempty row ``masks``.

    The least tuple starts with the smallest lowest row; among the masks
    that share it, drop that row and repeat.  A mask that runs out first is
    a prefix of the others, hence the least.  A lone mask is its bits.
    """
    if masks.size == 1:
        return tuple(np.flatnonzero(masks[0] >> np.arange(64) & 1).tolist())
    out: list[int] = []
    while True:
        lowest = masks & -masks
        if not lowest.all():
            return tuple(out)
        first = int(lowest.min())
        masks = masks[lowest == first] ^ first
        out.append(first.bit_length() - 1)


def _sup_closed_form(block: np.ndarray, exponent: float) -> tuple[float, tuple[int, ...]]:
    """Sup mode in O(r n): the best subset for column k takes all of its
    entries of one sign (rounding is monotone).  The witness is the least
    subset reaching the maximum over every (column, sign) pair attaining
    it, one pass per pair: row j joins iff the running sum plus entry j plus
    every later positive entry, added in row order, reaches the maximum,
    and the pass stops once the running sum does.  Sums are Python float
    adds; powers are numpy array powers, as the maximum's, in one batch per
    round, each round taking unraised sums to miss until it reads none."""
    signed = np.stack([block, -block])
    parts = np.maximum(signed, 0.0)
    bases = np.zeros((2, block.shape[1]))
    for j in range(block.shape[0]):  # in row order, as every subset sum
        bases += parts[:, j]
    vals = bases**exponent
    best = float(vals.max())
    if best == 0.0:
        return best, (0,)
    ties = vals == best
    reaches = dict.fromkeys(bases[ties].tolist(), True)  # sum -> whether it reaches best
    cols = {tuple(c) for c in signed.transpose(0, 2, 1)[ties].tolist()}  # one witness each
    while True:
        witnesses = []
        for col in cols:
            tails = [max(x, 0.0) for x in col]
            witness, acc = [], 0.0
            for j, x in enumerate(col):
                reach = acc + x
                for t in tails[j + 1 :]:
                    reach += t
                if reaches.setdefault(reach, None):  # None: not raised yet
                    witness.append(j)
                    acc += x
                    if reaches.setdefault(acc, None):
                        break
            witnesses.append(tuple(witness))
        unseen = [x for x, hit in reaches.items() if hit is None]
        if not unseen:
            return best, min(witnesses)
        powers = np.maximum(np.array(unseen), 0.0) ** exponent
        reaches.update(zip(unseen, (powers == best).tolist()))


def _node_values(rows: np.ndarray, exponent: float) -> np.ndarray:
    """Sum-mode values of the subsets whose row-order column sums are the
    rows of the C-contiguous ``rows``, computed in place.  Only subsets
    whose `_row_bounds` bound can reach the best value come here."""
    np.abs(rows, out=rows)
    rows **= exponent
    return rows.sum(axis=1)


def _row_bounds(sums: np.ndarray, exponent: float) -> np.ndarray:
    """Bound on the `_node_values` value of every subset whose computed
    column sums s are a column of ``sums`` (n rows), without a power on
    each entry; ``sums`` becomes |s| in place, with no scratch.

    In exact arithmetic, with e the exponent:

    - e <= 1: x^e is concave, so sum_k |s_k|^e <= n^(1-e) ||s||_1^e;
    - 1 < e <= 2: |s_k|^e = |s_k|^(2-e) |s_k|^(2(e-1)), and Hoelder with
      the exponents 1/(2-e) and 1/(e-1) gives ||s||_1^(2-e) ||s||_2^(2(e-1));
    - e > 2: |s_k|^e <= ||s||_inf^(e-2) |s_k|^2, so ||s||_inf^(e-2) ||s||_2^2.

    Rounding slack makes it bound the computed values; with u the unit
    roundoff, to first order.  The column sums are the walk's own, so only
    the norms, the powers and the final sums err.  |s_k| and the maximum
    are exact, each square is within u, and a sum of n nonnegative terms,
    in any order, is within a factor 1 + (n - 1) u of the exact one.  A
    ``pow`` errs by a few units in the last place (16 are allowed for, on
    each of the bound's powers and on the walk's); every power in the
    bound either has an exponent of at most 1 or the exact maximum as its
    base, so none amplifies a norm's error.  The bound thus falls short of
    the exact one by a factor of at most 1 - (2 n + 34) u, while the
    walk's value exceeds sum_k |s_k|^e by a factor of at most
    1 + (n + 16) u; scaling by 1 + 4 (n + 16) u covers both.  Below the
    normal range errors are absolute instead: a square loses at most
    2^-1075, which the n smallest normal doubles added to ||s||_2^2 cover,
    and a power errs by at most 16 of the 2^-1074 steps, scaled by at most
    n, which the smallest normal double, added last, covers for any n
    below 2^43.  A NaN column sum gives a NaN bound.
    """
    n = sums.shape[0]
    np.abs(sums, out=sums)
    norm = np.add if exponent <= 2.0 else np.maximum  # ||s||_1, or ||s||_inf past e = 2
    bound = norm.reduce(sums, axis=0)
    if exponent > 1.0:
        bound **= abs(2.0 - exponent)
        l2 = np.einsum("ij,ij->j", sums, sums)
        l2 += n * _SMALLEST_NORMAL
        bound *= l2 ** min(exponent - 1.0, 1.0)
    else:
        bound **= exponent
        bound *= n ** (1.0 - exponent)
    bound *= 1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF
    bound += _SMALLEST_NORMAL
    return bound


def _norm_bounds(dots: np.ndarray, norms: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Bound on ||s||_2^2 for every subset of one node: s is the walk's
    column sums of a low subset t (a table column) plus the node's high
    rows, whose row-order sum is ``head`` c; ``dots`` sums their Gram
    products 2 <a_h, t> in path order.

    With u the unit roundoff and A_k = sum_j |a_jk| over all r rows, to
    first order: s, t and c are row-order sums of at most r rows, so
    ||s - t - c||_2 <= delta = 2 r u ||A||_2, and for any eta > 0
    ||s||_2^2 <= (1 + eta) ||t + c||_2^2 + (1 + 1/eta) delta^2.  ``dots``,
    each product in any order, FMA included, lies within
    2 (n + 2 r) u ||t|| ||A|| <= eta ||t||^2 + ((n + 2 r) u ||A||)^2 / eta
    (AM-GM) of 2 <t, c>.  The rest of the expansion, ||t||^2 + ||c||^2,
    errs by at most (n + 2) u (||t||^2 + ||c||^2); that, eta ||t + c||^2
    and the scaling products take at most 4 eta (||t||^2 + ||c||^2) for
    n < 2^27.  ``norms`` holds (1 + 5 eta) ||t||^2 + (1 + 1/eta) delta^2 +
    ((n + 2 r) u ||A||)^2 / eta + n tiny, as (r + 2) n squares and products
    err by at most 2^-1075 each below the normal range.  Each product and
    partial sum in ``dots`` is at most 2 <B, C> <= ||A||^2 / 2 in size (B,
    C: A over the high, the low rows), so where one overflows, ||A||^2
    (taken unscaled) and all of ``norms`` are inf: the bound is +inf or
    NaN, never -inf.  NaN stays NaN.
    """
    return dots + norms + head @ head * (1.0 + 4 * _ETA)


def _norm_limit(cut, n: int, exponent: float):
    """A bound q on ||s||_2^2 under which a subset's value is certified
    strictly below ``cut`` (elementwise), or 0.0, below every bound.

    Over the n columns that are not all zero (the others sum to +-0 and
    add nothing, in any order), sum_k |s_k|^e <= n^a ||s||_2^e with
    a = max(1 - e/2, 0) (power means; ||s||_e <= ||s||_2 past e = 2), so,
    with the walk's rounding as in `_row_bounds`, a subset with
    ||s||_2^2 <= q has a value below F(q) = n^a q^(e/2) (1 + 4 (n + 16) u)
    + tiny.  q inverts F, shrunk by 2^-30, and is kept where F(q),
    computed, is below ``cut``: that rounds down by at most (35 + ln n) u,
    within the factor's spare 3 (n + 16) u, and by at most 16 n^a
    subnormal steps, which tiny covers with the walk's own for n < 2^46.
    """
    scale = n ** max(1.0 - exponent / 2, 0.0) * (1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF)
    q = (np.maximum(cut - _SMALLEST_NORMAL, 0.0) / scale) ** (2.0 / exponent) * (1.0 - 2.0**-30)
    return np.where(q ** (exponent / 2) * scale + _SMALLEST_NORMAL < cut, q, 0.0)


def _subtree_bound(block: np.ndarray, low: int, exponent: float):
    """Bound on the sum-mode values in a subtree of the high-row walk.

    Returns ``bound(head, h)``: an upper bound on the value, as
    `_node_values` computes it, of every subset L + H + {h} + S, where L is
    any subset of the first ``low`` rows, H the high rows before h whose
    row-order sum is ``head``, and S any subset of the rows after h.  Column
    k of such a subset sums to s_k = t_k + H_k + a_hk + S_k in exact
    arithmetic.  t_k lies between the column extremes of the low table,
    tmin_k and tmax_k, the sums of the column's negative and positive
    entries in the low rows; S_k lies between N_k and P_k, those sums over
    the rows after h.  |x|^e is monotone in |x|, so

        sum_k max(|tmax_k + H_k + a_hk + P_k|, |tmin_k + H_k + a_hk + N_k|)^e

    bounds the exact values.  Rounding slack makes it bound the computed
    ones.  With u the unit roundoff and A_k = sum_j |a_jk| over all r rows,
    to first order in r u:

    - the computed s_k is a row-order sum of at most r terms, so it lies
      within (r - 1) u A_k of the exact sum;
    - tmax, tmin, H, P and N are computed sums over disjoint row sets, each
      within (its row count) u times the absolute sum of its rows, so
      together they misplace the exact range by at most r u A_k;
    - the three adds that form each argument err by at most 3 u A_k, and
      the add of the slack and its own product by about 2 u A_k.

    That is under (2 r + 6) u A_k, which 4 r u A_k covers for r > 13, the
    only case in which there are high rows; it is added to each column
    before the power, so the exponent cannot amplify it.  ``pow`` errs by a
    few units in the last place (16 are allowed for, on the bound's power
    and on the walk's), and each sum of n nonnegative terms, in any order,
    by a factor of at most 1 + (n - 1) u, so the sum is scaled by
    1 + 4 (n + 16) u.  Powers in the subnormal range err absolutely, by at
    most 16 of the 2^-1074 steps each, which the smallest normal double,
    added last, covers for any n below 2^47.
    """
    rows, n = block.shape

    def reach(part: np.ndarray) -> np.ndarray:  # the low rows and those after each high row
        after = np.vstack([np.cumsum(part[:low:-1], axis=0)[::-1], np.zeros((1, n))])
        return part[:low].sum(axis=0) + after

    upper = reach(np.maximum(block, 0.0)) + block[low:]
    lower = reach(np.minimum(block, 0.0)) + block[low:]
    slack = 4 * rows * _UNIT_ROUNDOFF * np.abs(block).sum(axis=0)
    scale = 1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF

    def bound(head: np.ndarray, h: int) -> float:
        ends = np.maximum(np.abs(head + upper[h - low]), np.abs(head + lower[h - low]))
        return float(((ends + slack) ** exponent).sum()) * scale + _SMALLEST_NORMAL

    return bound


def _sum_exhaustive(block: np.ndarray, exponent: float) -> tuple[float, tuple[int, ...]]:
    """Sum mode over all 2^r - 1 subsets, bit for bit as if each were evaluated.

    A table holds the row-order sums of every subset of the first
    ``_LOW_ROWS`` rows, one per column; the subsets of the other rows are
    walked depth first, each node a set H of high rows holding one subset
    per column.  `_subtree_bound` skips the subtree of H + {h} when it
    bounds every value in it strictly below the best value so far.  One Gram
    product per call gives 2 <a_h, t> for every high row h and table column
    t; summed over a visited node's rows, it bounds every ||s||_2^2 of the
    node (`_norm_bounds`); only the subsets not below the limit of the best
    value (`_norm_limit`) are gathered from the table, the node's rows added
    in row order, so their sums are the walk's, bit for bit; of those, only
    the subsets whose `_row_bounds` bound is not strictly below the best
    value reach `_node_values`.  NaN bounds pass; at the root the subset
    with the largest norm bound goes first, so that the cut has a value.
    Every bound covers every rounding error, so no skipped subset reaches
    the best value: a tie is never skipped, since a later subset can be a
    lexicographically smaller witness.  An all-zero block returns at once:
    every subset's value is 0, and (0,) is the least subset.
    """
    if not block.any():
        return 0.0, (0,)
    rows, n = block.shape
    low = min(rows, _LOW_ROWS)
    table = np.zeros((n, 1 << low))
    for j in range(low):
        np.add(table[:, : 1 << j], block[j, :, None], out=table[:, 1 << j : 2 << j])
    drift = (1.0 + 1.0 / _ETA) * (2 * rows) ** 2 + (n + 2 * rows) ** 2 / _ETA  # see `_norm_bounds`
    abs_sums = np.abs(block).sum(axis=0)
    norms = np.einsum("ij,ij->j", table, table) * (1.0 + 5 * _ETA)
    norms += drift * _UNIT_ROUNDOFF**2 * (abs_sums @ abs_sums) + n * _SMALLEST_NORMAL
    live = int(np.count_nonzero(block.any(axis=0)))
    heads = np.zeros((rows - low + 1, n))  # the row-order sum of each depth's high rows
    dots = np.empty(1 << low)  # the path-order sum of the node's Gram products
    if rows > low:
        bound = _subtree_bound(block, low, exponent)
        gram = (2.0 * block[low:]) @ table
    best = -math.inf
    best_witness: tuple[int, ...] = ()
    path: list[int] = []
    while True:
        dots[:] = 0.0  # summed afresh per node: a buffer per depth raises peak memory
        for h in path:
            dots += gram[h - low]
        sq = _norm_bounds(dots, norms, heads[len(path)])
        cut = best
        if not path:
            sq[0] = -math.inf  # the empty subset: below every limit, never probed or kept
            first = np.argmax(sq, keepdims=True)
            cut = max(cut, float(_node_values(table.T[first], exponent)[0]))
        keep = np.flatnonzero(~(sq < _norm_limit(cut, live, exponent)))
        level = table[:, keep]
        for h in path:
            level += block[h, :, None]
        survive = np.flatnonzero(~(_row_bounds(level, exponent) < cut))
        keep = keep[survive]
        if keep.size:
            vals = _node_values(level.T[survive], exponent)
            top = float(vals.max())
            if top >= best:
                witness = _lex_least(keep[vals == top] | sum(1 << h for h in path))
                if top > best or witness < best_witness:
                    best, best_witness = top, witness
        # Try the first child, then its siblings.
        h = path[-1] + 1 if path else low
        while h == rows or bound(heads[len(path)], h) < best:
            if h < rows:
                h += 1
            elif path:
                h = path.pop() + 1
            else:
                return best, best_witness
        path.append(h)
        np.add(heads[len(path) - 1], block[h], out=heads[len(path)])


def _live_width(n: int, live: int) -> int:
    """Columns a subset search keeps of an n-column block whose nonzero
    entries end by column ``live``: 8 ceil(live / 8) where numpy's pairwise
    sum adds the padding as exact zeros (see the README), else n."""
    leaf = n
    while leaf > 128:
        leaf = leaf // 2 - leaf // 2 % 8
    width = 8 * -(-max(live, 1) // 8)
    return width if width <= leaf - leaf % 8 and width < n else n


def subset_sup(
    m: MatrixWindow,
    exponent: float,
    inner: SubsetMode,
    row_limit: int,
) -> tuple[float, tuple[int, ...]]:
    """Supremum over nonempty row subsets J of the first ``row_limit`` rows.

    For each J the selected rows are summed in row order, |.|^exponent is
    applied columnwise, and the columns are either summed or sup'd according
    to ``inner``.  Returns the maximum together with the maximizing subset,
    lexicographically least on ties, so the result is deterministic.

    Both modes see only the block's live column prefix (`_live_width`).
    Sup mode uses a closed form: the maximum over columns k and both signs
    of (sum_j max(+-a_jk, 0))^exponent, in O(r n), its witness one pass per
    column attaining it.  Sum mode is a cut-norm
    type quantity and stays exhaustive over all 2^r - 1 subsets up to
    provable pruning.  Past the first 13 rows it skips a subtree of subsets
    when a bound on their values is strictly below the best value so far
    (`_subtree_bound`); in each visited node a sum of Gram products bounds
    every subset's 2-norm (`_norm_bounds`), and only the subsets whose norm
    bound, then row bound (`_row_bounds`), can reach the best value are
    summed in row order and raised to the power.  Every bound includes
    rounding slack, so ties are never skipped and pruning never changes a
    value or a witness.  Both modes are capped at ``MAX_SUBSET_ROWS`` rows,
    and a supremum outside double range raises OverflowError.
    """
    row_limit = _check_int("row_limit", row_limit, 1)
    if row_limit > MAX_SUBSET_ROWS:
        raise LimitError(
            f"row_limit {row_limit} exceeds the exhaustive-enumeration cap "
            f"of {MAX_SUBSET_ROWS} rows"
        )
    if not (math.isfinite(exponent) and exponent > 0.0):
        raise ValueError(f"exponent must be positive and finite, got {exponent!r}")
    block = m.entries[:row_limit]
    live = np.flatnonzero(block.any(axis=0))
    block = block[:, : _live_width(block.shape[1], int(live[-1]) + 1 if live.size else 0)]
    search = _sup_closed_form if inner is SubsetMode.SUP_OVER_COLS_OF_ABS else _sum_exhaustive
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        best, witness = search(block, exponent)
    if not math.isfinite(best):
        raise OverflowError(
            f"subset supremum over {row_limit} rows with exponent {exponent} "
            f"leaves double range"
        )
    return best, witness


def _tail_start(n: int) -> int:
    return max(0, n - max(2, n // 4))


def _regime(p: PExponent) -> str:
    """The exponent regime of p: "le1" (0 < p <= 1), "mid" (1 < p < inf) or "inf"."""
    return "inf" if p.is_inf else "le1" if p.value <= 1.0 else "mid"


def _resolve_exponent(
    cond: Condition, p: PExponent | None, exponent: float | None, rule: str | None = None
) -> float | None:
    """Exponent of ``cond`` under ``rule`` (by default the condition's own),
    or None for a condition without one.  An explicit ``exponent`` wins."""
    rule = rule or _EXPONENT_RULE.get(cond)
    if rule is None:
        return None
    if exponent is not None:
        return float(exponent)
    if rule == "one":
        return 1.0
    regime = None if p is None else _regime(p)
    if rule == "finite":
        if regime in (None, "inf"):
            raise InvalidCondition(f"{cond.value} requires a finite exponent")
        return p.value
    if regime is None and rule != "strict":
        raise InvalidCondition(f"{cond.value} requires an exponent or p")
    if rule == "le1":
        if regime != "le1":
            raise InvalidCondition(f"{cond.value} is stated only for 0 < p <= 1; got p = {p}")
        return p.value
    if regime == "inf" and rule == "conjugate":
        return 1.0
    if regime != "mid":
        raise InvalidCondition(
            f"{cond.value} uses the conjugate exponent and is stated only "
            f"for 1 < p < inf; got p = {p}"
        )
    return p.conjugate


def _sections(rows: np.ndarray, t_e: np.ndarray):
    """Section windows of every row r of ``rows`` (R x n) against the Toeplitz
    window ``t_e`` of the inverse stream: entry (m, k) is sum_{v=k..m} e_{v-k} r_v.

    Yields c x R x n chunks, row m of every section for m = m0 .. m0 + c - 1,
    c = 1 once R x n passes `_CHUNK_ENTRIES`.  Each chunk is one cumsum of
    its products, its first row carried on from the previous chunk's last,
    so every row is the previous row plus the same products, added in the
    order of the dense cumsum(r[:, None] * t_e, axis=0), and the bits match
    it; the first row of all is the products themselves (0.0 + -0.0 would be
    +0.0).  The cumsum of one row is that row, so a one-row chunk skips it.
    Chunks are views of two buffers, each valid for one more draw.
    A non-finite entry stays non-finite down its column, so the last row
    shows whether any did.
    """
    n_rows, n = rows.shape
    step = max(1, _CHUNK_ENTRIES // (n_rows * n))
    bufs = np.empty((2, min(step, n), n_rows, n))  # the chunks take turns
    for j, m0 in enumerate(range(0, n, step)):
        out = bufs[j % 2, : min(step, n - m0)]
        np.multiply(rows.T[m0 : m0 + len(out), :, None], t_e[m0 : m0 + len(out), None], out=out)
        if m0:
            np.add(bufs[1 - j % 2, -1], out[0], out=out[0])
        if len(out) > 1:
            np.cumsum(out, axis=0, out=out)
        yield out


# Conditions over a tail column block, and on the spread of a row statistic.
_TAIL_COLUMNS = frozenset({Condition.COLUMN_LIMITS, Condition.COLUMN_LIMITS_ZERO})
_SPREAD = frozenset({Condition.COLUMN_LIMITS, Condition.ABS_ROW_SUM_INTERCHANGE})


def _profile(items, chunks, cps: tuple[int, ...], triangular: bool):
    """Values of non-subset conditions, each with its exponent in ``items``,
    on the leading cp x cp blocks of R windows, folded over ``chunks``:
    c x R x n arrays of rows m0 .. m0 + c - 1 of every window, from row 0
    (`_sections`, or a dense window whole).  A section condition folds as
    its single-window twin (`_SECTION_OF`), its windows being the sections.

    Each block row gives its entries (column limits), its largest entry or
    its sum of |entry|^e over the block's full width, trailing zeros
    included, so each sum groups its terms as on the dense block; the fold
    keeps their maximum and, for a spread, their minimum, and reduces them to
    one value per window at the block's last row.  Limits are oscillation
    estimates over the last quarter of the rows.  The interchange estimate
    compares a block's tail row sums with a reference row sum: the block's
    last row, or for the section abs-sum match (whose limit is the full
    window) the last row of the whole fold at full width, so that item keeps
    its running maximum and minimum until the fold ends; rounding is
    monotone, so |s - ref| peaks at the largest or the smallest s.  Returns
    per item the maximum over the windows, floored at zero, at each
    checkpoint, and the last row.
    """
    tails = [_tail_start(cp) for cp in cps]
    deferred = [c is Condition.SECTION_ABS_SUM_MATCH for c, _ in items]  # full-width reference
    items = [(_SECTION_OF.get(c, c), e) for c, e in items]
    kinds = [(c in _TAIL_CONDITIONS, c in _TAIL_COLUMNS, c in _SPREAD, d)
             for (c, _), d in zip(items, deferred)]
    values = [[None] * len(cps) for _ in items]  # running (max, min), then per-window values
    m0 = 0
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the report
        for chunk in chunks:
            mags = None if all(c is Condition.COLUMN_LIMITS for c, _ in items) else np.abs(chunk)
            powers = {None: mags}
            for i, (cp, ts) in enumerate(zip(cps, tails)):
                if cp <= m0:  # the block ended in an earlier chunk
                    continue
                b = min(cp - m0, chunk.shape[0])  # the block's rows in this chunk: [0, b)
                width = min(cp, chunk.shape[2])
                for (cond, e), (tail, tail_cols, spread, defer), vals in zip(items, kinds, values):
                    a = max(ts - m0, 0) if tail else 0
                    if a >= b:  # no tail row in this chunk
                        continue
                    w = min(width, ts + 1) if triangular and tail_cols else width
                    if cond is Condition.COLUMN_LIMITS:
                        rows = chunk[a:b, :, :w]
                    elif cond in (Condition.ENTRY_SUP, Condition.COLUMN_LIMITS_ZERO):
                        rows = np.maximum.reduce(mags[a:b, :, :w], axis=2)
                    else:
                        if e not in powers:
                            powers[e] = mags**e
                        rows = np.add.reduce(powers[e][a:b, :, :w], axis=2)
                    top = np.maximum.reduce(rows)
                    low = np.minimum.reduce(rows) if spread else None
                    if vals[i] is not None:  # into the fresh reductions: no third array
                        top = np.maximum(vals[i][0], top, out=top)
                        low = None if low is None else np.minimum(vals[i][1], low, out=low)
                    if m0 + b < cp or defer:  # reduced later
                        vals[i] = top, low
                        continue
                    if cond is Condition.COLUMN_LIMITS:
                        top = np.maximum.reduce(top - low, axis=1)
                    elif cond is Condition.ABS_ROW_SUM_INTERCHANGE:
                        top = np.maximum(top - rows[-1], rows[-1] - low)
                    elif cond is Condition.ENTRY_SUP and e is not None:
                        top = [x**e for x in top]  # scalar powers, as on one value
                    vals[i] = top
            m0 += chunk.shape[0]
        for d, vals in zip(deferred, values):
            if d:
                ref = np.add.reduce(np.abs(chunk[-1]), axis=1)
                vals[:] = [np.maximum(top - ref, ref - low) for top, low in vals]
    return [np.maximum(np.max(vals, axis=1), 0.0).tolist() for vals in values], chunk[-1]


def _subset_values(windows, e: float, mode: SubsetMode, info: dict[str, Any]):
    """Subset suprema over (window, row limit) pairs, drawn lazily; the last
    pair's witness goes into ``info``."""
    for m, row_limit in windows:
        val, witness = subset_sup(m, e, mode, row_limit)
        info["witness"] = list(witness)
        yield val


def _report(
    cond: Condition, sizes: tuple[int, ...], values, e: float | None, info: dict[str, Any]
) -> ConditionReport:
    """The one report constructor: draws the lazy ``values``, one per window
    size, under one errstate, and refuses a value outside double range,
    a subset supremum that ``subset_sup`` refused included."""
    if e is not None:
        info["exponent"] = e
    vals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in sizes:
            try:
                v = next(values)
            except OverflowError:  # a subset supremum past double range
                v = math.inf
            if not math.isfinite(v):
                with_e = "" if e is None else f" with exponent {e}"
                raise OverflowError(f"{cond.value} at window size {n}{with_e} leaves double range")
            vals.append((n, v))
    vals = tuple(vals)
    return ConditionReport(
        condition_id=cond,
        values=vals,
        verdict=classify_trend(vals, shrinks=_SECTION_OF.get(cond, cond) in _TAIL_CONDITIONS),
        detail=info,
    )


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
    """Evaluate one single-window matrix-class condition on leading square
    blocks.

    This is the single-window evaluator behind `class_check`'s full-window
    conditions.  ``checkpoints`` are the block sizes to profile
    (power-of-two defaults); subset conditions additionally cap the
    enumerated rows at ``row_limit``.
    """
    cps = _checkpoints(checkpoints, m.entries.shape[0], start=4)
    if cond in _SECTION_OF:
        raise InvalidCondition(
            f"{cond.value} applies to a family of section windows, not a single matrix"
        )
    e = _resolve_exponent(cond, p, exponent)
    info: dict[str, Any] = dict(detail or {})
    mode = _SUBSET_MODE.get(cond)
    if mode is None:
        (vals,), _ = _profile(((cond, e),), (m.entries[:, None],), cps, m.triangular)
        values = iter(vals)
    else:
        flip = cond is Condition.COLUMN_SUBSET_POWER_SUM  # subsets of columns
        blocks = ((cp, m.entries[:cp, :cp]) for cp in cps)  # views of a checked window
        windows = ((_built(MatrixWindow, None, entries=b.T if flip else b), min(cp, row_limit))
                   for cp, b in blocks)
        values = _subset_values(windows, e, mode, info)
    return _report(cond, cps, values, e, info)


def alpha_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    row_limits: tuple[int, ...] | list[int],
) -> ConditionReport:
    """Subset-supremum condition deciding membership of a in the alpha dual.

    Evaluates, per row limit, the subset condition matching the exponent
    regime on the termwise-product window, entry (j, k) = e_{j-k} a_j:
    entrywise sup to the power p for 0 < p <= 1, columnwise
    conjugate-power sums for 1 < p < inf, and plain columnwise absolute
    sums for the sup-norm space.  Only the rows and columns `subset_sup`
    reads are built.  The row limits must rise strictly within [1, a.n].
    """
    rls = _checkpoints(row_limits, a.n, name="row_limits")
    rows = min(rls[-1], MAX_SUBSET_ROWS)
    t_e = _lower_toeplitz(inverse_coeffs(order, qp, a.n - 1).coeffs, a.n)
    with np.errstate(over="ignore"):  # refused by `_built`
        lam = a.values[:rows, None] * t_e[:rows, : _live_width(a.n, rows)]
    lam = _built(MatrixWindow, lambda: f"termwise-product window of order {order} at q = {qp.q}",
                 entries=lam, triangular=True)
    cond = Condition.SUBSET_ENTRY_SUP if _regime(p) == "le1" else Condition.SUBSET_ABS_COLSUM_SUP
    e = _resolve_exponent(cond, p, None)
    info: dict[str, Any] = {"matrix": "termwise-product"}
    values = _subset_values(((lam, rl) for rl in rls), e, _SUBSET_MODE[cond], info)
    return _report(cond, rls, values, e, info)


def _companion(p: PExponent, sup_norm_condition: Condition) -> Condition:
    """The beta/gamma condition of the regime of p: entry sup for p <= 1,
    conjugate-power row sums for 1 < p < inf, ``sup_norm_condition`` at inf."""
    return {
        "le1": Condition.ENTRY_SUP,
        "mid": Condition.ROW_POWER_SUM_SUP,
        "inf": sup_norm_condition,
    }[_regime(p)]


def _partial_sum_reports(a: SeqWindow, order, qp, p, conds, windows) -> list[ConditionReport]:
    """Reports of ``conds`` from one sweep of the section window of the row a."""
    cps = _checkpoints(windows, a.n, start=4)
    items = [(c, _resolve_exponent(c, p, None)) for c in conds]
    t_e = _lower_toeplitz(inverse_coeffs(order, qp, a.n - 1).coeffs, a.n)
    values, last = _profile(items, _sections(a.values[None], t_e), cps, True)
    # The window's last row is non-finite if any of its entries is (`_sections`).
    _built(SeqWindow, lambda: f"partial-sum window of order {order} at q = {qp.q}", values=last)
    return [_report(c, cps, iter(v), e, {"matrix": "partial-sum"})
            for (c, e), v in zip(items, values)]


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
    conds = (Condition.COLUMN_LIMITS, _companion(p, Condition.ABS_ROW_SUM_INTERCHANGE))
    return _partial_sum_reports(a, order, qp, p, conds, windows)


def gamma_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    windows: tuple[int, ...] | list[int] | None = None,
) -> ConditionReport:
    """Gamma-dual condition: the beta-dual companion condition without the
    column-limit requirement (with exponent 1 for the sup-norm source)."""
    conds = (_companion(p, Condition.ROW_POWER_SUM_SUP),)
    return _partial_sum_reports(a, order, qp, p, conds, windows)[0]
