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
are summed, starting from the value of a hill-climbed subset, skipping only
subtrees that provably cannot reach the best value and raising to the
power only the subsets whose 2-norm bound can reach it; and "limit exists"
conditions are reported as Cauchy-style oscillation estimates over the
last quarter of the window.  Every report carries the evaluated quantity
at a strictly increasing list of window sizes plus a tri-state verdict:
values that have stabilized read as bounded-on-window, values that climb
at every checkpoint read as growing, everything else is inconclusive.
Verdicts are descriptive, never proofs.

Each condition has one row in one table (`_CONDITIONS`): its estimate, a
fold over the rows of its leading blocks (`_profile`) or a subset mode; its
limit, if any; and its exponent rule, resolved with the p regime by
`_resolve_exponent`.  A section condition's row names its single-window
twin, whose estimate it takes over every row's section window; one
function (`_section_reports`) streams section rows, folds them and reports
them, one row's for the beta and gamma checks' partial-sum matrix and every
row's for `matclass.class_check`.  Which condition the alpha, beta and
gamma checks evaluate in each p regime is one more table
(`_DUAL_CONDITIONS`).
Every report goes through one constructor, which refuses a value outside
double range with OverflowError.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .fracdiff import SeqWindow, _built, _check_int, _lower_toeplitz, inverse_coeffs
from .qcore import QParam, _coerce
from .spaces import PExponent, _checkpoints, _rising, default_checkpoints

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
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
_ETA = 2.0**-26  # splits the rounding drift off a squared norm in `_norm_bounds`
# Entries per chunk of section rows in `_sections`: 512 KB, in cache and
# small next to the window.
_CHUNK_ENTRIES = 1 << 16

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


def _triangular(entries: np.ndarray) -> bool:
    """Whether no entry above the main diagonal is nonzero: every row ends
    inside the window, so truncating a row sum at its edge is exact."""
    return not np.triu(entries, k=1).any()


@dataclass(frozen=True)
class MatrixWindow:
    """Dense rectangular window of an infinite matrix.

    ``triangular`` claims that entries above the main diagonal are zero;
    the constructor checks it, and no result depends on it: evaluators read
    triangularity (`_triangular`) from the window they evaluate.
    """

    entries: np.ndarray
    triangular: bool = False

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.size == 0:
            raise ValueError("entries must be a nonempty two-dimensional array")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        if self.triangular and not _triangular(e):
            raise ValueError("triangular window has nonzero entries above the diagonal")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


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


class SubsetMode(enum.Enum):
    """Inner aggregation for finite-subset suprema over row selections."""

    SUM_OVER_COLS_OF_ABS_COLSUM = "sum-over-cols"
    SUP_OVER_COLS_OF_ABS = "sup-over-cols"


# Each condition's one row.  Estimate, per block row: "entries", "max"
# (largest |entry|), "sum" (of |entry|^e, or |entry|), or the `SubsetMode` of
# a supremum over subsets of rows (of columns where ``columns``); a section
# condition names its single-window twin, taken over every row's section,
# and shrinks as the twin does.  Limit: None for a running supremum, which
# should stabilize; else over the last quarter of the rows (and, but for
# sums, the tail columns), which should shrink: "zero", or "spread" (per
# column for entries, against the last row's sum for sums).  Exponent rule
# (`_resolve_exponent`): "conjugate" p' (1 at p = inf), "strict" p' for
# 1 < p < inf only, "le1" p for 0 < p <= 1, "finite" any finite p, "one" 1.
_Facts = collections.namedtuple("_Facts", "estimate limit rule columns",
                                defaults=(None, None, False))
_CONDITIONS = {
    Condition.ROW_ABS_SUM_SUP: _Facts("sum"),
    Condition.COLUMN_LIMITS: _Facts("entries", "spread"),
    Condition.COLUMN_LIMITS_ZERO: _Facts("max", "zero"),
    Condition.ABS_ROW_SUM_INTERCHANGE: _Facts("sum", "spread"),
    Condition.ROW_POWER_SUM_SUP: _Facts("sum", rule="conjugate"),
    Condition.ENTRY_SUP: _Facts("max", rule="le1"),
    Condition.SUBSET_ABS_COLSUM_SUP: _Facts(SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM,
                                            rule="conjugate"),
    Condition.SUBSET_ENTRY_SUP: _Facts(SubsetMode.SUP_OVER_COLS_OF_ABS, rule="le1"),
    Condition.COLUMN_SUBSET_POWER_SUM: _Facts(SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM,
                                              rule="finite", columns=True),
    Condition.SECTION_COLUMN_LIMITS: _Facts(Condition.COLUMN_LIMITS),
    Condition.SECTION_ENTRY_SUP: _Facts(Condition.ENTRY_SUP),
    Condition.SECTION_POWER_SUM_SUP: _Facts(Condition.ROW_POWER_SUM_SUP, rule="strict"),
    Condition.SECTION_ABS_SUM_MATCH: _Facts(Condition.ABS_ROW_SUM_INTERCHANGE),
    Condition.VANISHING_ROW_ABS_SUM: _Facts("sum", "zero"),
}


def _single(cond: Condition) -> Condition:
    """A section condition's single-window twin, else ``cond`` itself."""
    twin = _CONDITIONS[cond].estimate
    return twin if isinstance(twin, Condition) else cond


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
        _rising("values", [n for n, _ in self.values])

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


def _sup_closed_form(block: np.ndarray, exponent: float):
    """Sup mode in O(r n): the best subset for column k takes all of its
    entries of one sign (rounding is monotone).  The witness is the least
    subset reaching the maximum over every (column, sign) pair attaining
    it, one pass per pair: row j joins iff the running sum plus entry j plus
    every later positive entry, added in row order, reaches the maximum,
    and the pass stops once the running sum does.  Sums are Python float
    adds; powers are numpy array powers, as the maximum's, in one batch per
    round, each round taking unraised sums to miss until it reads none.
    The sums are one axis-0 fold of the r x 2 x n parts from +0.0, which
    adds row after row, as every subset sum; with the 2 x n rows inner,
    numpy never reorders it pairwise, even at n = 1."""
    signed = np.stack([block, -block], axis=1)
    bases = np.add.reduce(np.maximum(signed, 0.0), axis=0, initial=0.0)
    vals = bases**exponent
    best = float(vals.max())
    if best == 0.0:
        return best, (0,)
    ties = vals == best
    reaches = dict.fromkeys(bases[ties].tolist(), True)  # sum -> whether it reaches best
    cols = {tuple(c) for c in signed.transpose(1, 2, 0)[ties].tolist()}  # one witness each
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
    rows of the C-contiguous ``rows``, computed in place: numpy sums each
    row along its contiguous last axis as it sums a lone row.  Besides the
    seed and the root's probe, only the subsets gathered from the walk's
    table, those whose norm bound (`_norm_limit`) can reach the best value,
    come here."""
    np.abs(rows, out=rows)
    rows **= exponent
    return rows.sum(axis=1)


def _norm_bounds(run: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Bound on ||s||_2^2 for every subset of one node, formed once per
    visited node: s is the walk's column sums of a low subset t (a table
    row) plus the node's high rows, whose row-order sum is ``head`` c;
    ``run`` is the node's running row, the table's ``norms`` (below) with
    the Gram products 2 <a_h, t> of the node's rows added in path order.

    With u the unit roundoff and A_k = sum_j |a_jk| over all r rows, to
    first order: s, t and c are row-order sums of at most r rows, so
    ||s - t - c||_2 <= delta = 2 r u ||A||_2, and for any eta > 0
    ||s||_2^2 <= (1 + eta) ||t + c||_2^2 + (1 + 1/eta) delta^2.  Each
    product, in any order, FMA included, errs by at most 2 n u
    sum_k |a_hk t_k|, and c lies within r u A_k of the exact sum of its
    rows, so the exact sum of the products is within 2 (n + r) u ||t|| ||A||
    of 2 <t, c>.  ``run`` adds at most r of them to ``norms``, each add
    within u of its partial sum, hence within r u (norms + 2 ||t|| ||A||)
    of the exact sum: in all, r u norms plus 2 (n + 2 r) u ||t|| ||A|| <=
    eta ||t||^2 + ((n + 2 r) u ||A||)^2 / eta (AM-GM).  r u norms is
    (r + 1) u ||t||^2 to first order (its other terms are O(u^2 ||A||^2)),
    and the rest of the expansion, ||t||^2 + ||c||^2, errs by at most
    (n + 2) u (||t||^2 + ||c||^2); those, eta ||t + c||^2 and the scaling
    products take at most 4 eta (||t||^2 + ||c||^2) for n + r < 2^27.
    ``norms`` holds (1 + 5 eta) ||t||^2 + (1 + 1/eta) delta^2 +
    ((n + 2 r) u ||A||)^2 / eta + n tiny, as (r + 2) n squares and products
    err by at most 2^-1075 each below the normal range.  Each product and
    partial sum of products is at most 2 <B, C> <= ||A||^2 / 2 in size (B,
    C: A over the high, the low rows), and ``norms`` >= 0, so ``run`` stays
    above -||A||^2 / 2 while that is finite; where a product overflows,
    ||A||^2 (taken unscaled) and all of ``norms`` are inf: the bound is
    +inf or NaN, never -inf.  NaN stays NaN.
    """
    return run + head @ head * (1.0 + 4 * _ETA)


def _norm_limit(cut: float, n: int, exponent: float) -> float:
    """A bound q on ||s||_2^2 under which a subset's value is certified
    strictly below ``cut``, or 0.0, below every bound; Python floats.

    Over the n columns that are not all zero (the others sum to +-0 and
    add nothing, in any order), sum_k |s_k|^e <= n^a ||s||_2^e with
    a = max(1 - e/2, 0) (power means; ||s||_e <= ||s||_2 past e = 2).  The
    walk's value of s (`_node_values`) rounds that sum up by little: |s_k|
    is exact, a ``pow`` errs by a few units in the last place (16 are
    allowed for), and a sum of n nonnegative terms, in any order, is within
    a factor 1 + (n - 1) u of the exact one, u the unit roundoff; so the
    value exceeds it by a factor of at most 1 + (n + 16) u, to first order.
    Below the normal range a power errs absolutely instead, by at most 16
    of the 2^-1074 steps, n of them in all.  So a subset with
    ||s||_2^2 <= q has a value below F(q) = n^a q^(e/2) (1 + 4 (n + 16) u)
    + tiny, tiny the smallest normal double.  q inverts F, shrunk by
    2^-30, and is kept where F(q), computed, is below ``cut``: that rounds
    down by at most (35 + ln n) u, within the factor's spare 3 (n + 16) u,
    and by at most 16 n^a subnormal steps, which tiny covers with the
    walk's own 16 n for n < 2^46.
    A cut at or below tiny, NaN or inf, or one whose q leaves double range
    (Python's ``**`` raises OverflowError there), certifies nothing.
    """
    scale = n ** max(1.0 - exponent / 2, 0.0) * (1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF)
    try:
        q = (max(cut - _SMALLEST_NORMAL, 0.0) / scale) ** (2.0 / exponent) * (1.0 - 2.0**-30)
    except OverflowError:
        return 0.0
    return q if q ** (exponent / 2) * scale + _SMALLEST_NORMAL < cut else 0.0


def _subtree_bound(block: np.ndarray, exponent: float, best: float):
    """The sum-mode walk's split and subtree bounds, from one build per block.

    Returns (s, bounds): the rows s of the low table and ``bounds(head,
    first)``, or None when the table holds every row, as it does in a block
    of at most 13 rows.  Else s is 10 if at most 3 rows h >= 10 keep a
    depth-1 bound (head 0) reaching ``best``, the seed value, else 13 (as
    without a seed, -inf, which all reach).  Each node passes over the
    table's 2^s columns, and the walk visits a subtree per child of the root
    whose bound reaches the best value.  The depth-1 bound of a row h >= s
    only grows with s, its table gaining the rows from 10 to s - 1, so
    wherever a split of 11 or 12 rows would keep at most 13 - s such rows,
    10 keeps at most 3.  The split moves no value or witness: a subset's
    sums are its rows added in row order from +0.0, whichever of them the
    table holds.

    ``bounds(head, first)`` holds, for each high row h from ``first`` on, an
    upper bound on the value, as `_node_values` computes it, of every subset
    L + H + {h} + S: L any subset of the first s rows, H the high rows
    before ``first`` (row-order sum ``head``), S any subset of the rows
    after h.  In exact arithmetic its column k sums to t_k + H_k + a_hk +
    S_k, with t_k between tmin_k and tmax_k, the sums of the column's
    negative and positive entries in the low rows, and S_k between N_k and
    P_k, those sums over the rows after h.  |x|^e is monotone in |x|, so

        sum_k max(|tmax_k + H_k + a_hk + P_k|, |tmin_k + H_k + a_hk + N_k|)^e

    bounds the exact values.  Rounding slack makes it bound the computed
    ones.  With u the unit roundoff and A_k = sum_j |a_jk| over all r rows,
    to first order in r u:

    - the computed s_k is a row-order sum of at most r terms, so it lies
      within (r - 1) u A_k of the exact sum;
    - tmax, tmin, H, P and N are computed sums over disjoint row sets, each
      within (its row count) u times the absolute sum of its rows in any
      summation order, so together they misplace the range by r u A_k;
    - the three adds that form each argument err by at most 3 u A_k, and
      the add of the slack and its own product by about 2 u A_k.

    That is under (2 r + 6) u A_k, which 4 r u A_k covers for r >= 3; it is
    added to each column before the power, so the exponent cannot amplify
    it.  ``pow`` errs by a few units in the last place (16 are allowed for,
    on the bound's power and on the walk's), and each sum of n nonnegative
    terms, in any order, by a factor of at most 1 + (n - 1) u, so the sum
    is scaled by 1 + 4 (n + 16) u.  Powers in the subnormal range err
    absolutely, by at most 16 of the 2^-1074 steps each, which the smallest
    normal double, added last, covers for any n below 2^47.

    The build holds the signed parts and one cumsum up from their last row
    (P and N after each row); tmax and tmin are plain column sums of the
    split's low rows.  At most two splits are built.  All of a node's
    children are bounded in one evaluation over an m x n array, m of them,
    with the same bits as one child at a time: the computed tmax + ... + P
    is never below tmin + ... + N (rounding is monotone), so the larger of
    their absolute values is the larger of the first and the negated second,
    and -(x + y) rounds to -fl(x + y) (up to the sign of a zero, which the
    slack's +0.0 or more then clears); numpy sums each row along its
    contiguous last axis as it sums a lone row.
    """
    rows, n = block.shape
    if rows <= _LOW_ROWS:
        return rows, None
    parts = np.stack([np.maximum(block, 0.0), np.minimum(block, 0.0)])
    after = np.zeros_like(parts)  # row j: the rows after j, summed from the last
    np.cumsum(parts[:, :0:-1], axis=1, out=after[:, -2::-1])
    slack = 4 * rows * _UNIT_ROUNDOFF * np.abs(block).sum(axis=0)
    scale = 1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF

    def at(low: int):
        upper, lower = parts[:, :low].sum(axis=1)[:, None] + after[:, low:] + block[low:]
        np.negative(lower, out=lower)

        def bounds(head: np.ndarray, first: int) -> list[float]:
            ends = head + upper[first - low :]
            np.maximum(ends, lower[first - low :] - head, out=ends)
            ends += slack
            ends **= exponent
            return (ends.sum(axis=1) * scale + _SMALLEST_NORMAL).tolist()

        return bounds

    low = _LOW_ROWS - 3
    bounds = at(low)
    if sum(not b < best for b in bounds(np.zeros(n), low)) > _LOW_ROWS - low:
        low = _LOW_ROWS
        bounds = at(low)
    return low, bounds


def _climb(block: np.ndarray, exponent: float) -> tuple[int, ...]:
    """A good subset to seed the sum-mode walk with, sorted: from the rows
    of one sign in the column of the largest |entry|, the sign whose rows
    are worth more together (the positive one on a tie), flip the one row
    that raises sum_k |s_k|^e the most while any does, never emptying the
    set.  Its sums are kept by adds and subtracts, so its values are only
    estimates; the walk values the subset it returns afresh."""
    rows = block.shape[0]
    col = block[:, np.argmax(np.abs(block).max(axis=0))]
    starts = [(float((np.abs(block[side].sum(axis=0)) ** exponent).sum()), side)
              for side in (col > 0, col < 0) if side.any()]
    value, inside = max(starts, key=lambda start: start[0])
    sums = block[inside].sum(axis=0)
    flips = np.where(inside[:, None], -block, block)  # what flipping each row adds
    for _ in range(rows * rows):  # a cap, should rounding ever cycle the rises
        values = np.abs(sums + flips)
        values **= exponent
        values = values.sum(axis=1)
        if np.count_nonzero(inside) == 1:
            values[inside] = -math.inf
        j = int(np.argmax(values))
        if not values[j] > value:
            break
        inside[j] = not inside[j]
        sums += flips[j]
        flips[j] *= -1.0
        value = float(values[j])
    return tuple(np.flatnonzero(inside).tolist())


def _sum_exhaustive(block: np.ndarray, exponent: float) -> tuple[float, tuple[int, ...]]:
    """Sum mode over all 2^r - 1 subsets, bit for bit as if each were evaluated.

    With more than 13 rows, all finite, the best value starts at a subset
    found by `_climb`, valued as the walk values every subset (its rows
    added to +0.0 in row order, `_node_values`), so above no maximum.  A
    non-finite value seeds nothing, nor does a block with NaN: the walk
    passes over every node holding a NaN value, finite subsets and all.
    One `_subtree_bound` build chooses the rows of a table, the row-order
    sums of all subsets of the leading rows, one per row, and bounds the
    subtrees of the depth-first visit over the other rows, each node a set
    H of them.  Which subsets share a node depends on the split, so a block
    with NaN, having no seed, keeps 13 rows in the table.

    One Gram product per call gives 2 <a_h, t> for every high row h and
    table row t.  Each depth keeps one buffer row: the table's norm terms
    plus the Gram products of the node's rows, in path order, then the
    node's head, the row-order sum of its rows; entering a child is one add
    of its row of products and entries.  A visited node bounds every
    ||s||_2^2 from that row and its head (`_norm_bounds`); only the subsets
    not below the limit of the best value (`_norm_limit`) are gathered from
    the table, the node's rows added in row order (the walk's sums, bit for
    bit), and valued (`_node_values`).  NaN bounds pass; at the root the
    subset with the largest norm bound goes first, so that the cut has a
    value.  Only then, with the node's arrays freed, are its children
    bounded in one evaluation and visited in row order, skipping a child's
    subtree when its bound, compared as that child comes up, is strictly
    below the best value so far.  Every bound covers every rounding error,
    so no skipped subset reaches the best value: a tie is never skipped,
    since a later subset can be a smaller witness, and the seed gives way to
    the least maximiser however early it is met.  An all-zero block returns
    at once: every value is 0, and (0,) is least.
    """
    if not block.any():
        return 0.0, (0,)
    rows, n = block.shape
    best = -math.inf
    best_witness: tuple[int, ...] = ()
    if rows > _LOW_ROWS and np.isfinite(block).all():
        seed = _climb(block, exponent)
        sums = np.zeros((1, n))
        for j in seed:
            sums[0] += block[j]
        value = float(_node_values(sums, exponent)[0])
        if math.isfinite(value):
            best, best_witness = value, seed
    low, bounds = _subtree_bound(block, exponent, best)
    width = 1 << low
    table = np.empty((width, n))
    table[0] = 0.0
    for j in range(low):
        np.add(table[: 1 << j], block[j], out=table[1 << j : 2 << j])
    # Per depth: the norm terms plus the path's Gram products, then the head.
    run = np.empty((rows - low + 1, width + n))
    drift = (1.0 + 1.0 / _ETA) * (2 * rows) ** 2 + (n + 2 * rows) ** 2 / _ETA  # see `_norm_bounds`
    abs_sums = np.abs(block).sum(axis=0)
    norms = np.einsum("ij,ij->i", table, table, out=run[0, :width])
    norms *= 1.0 + 5 * _ETA
    norms += drift * _UNIT_ROUNDOFF**2 * (abs_sums @ abs_sums) + n * _SMALLEST_NORMAL
    run[0, width:] = 0.0
    if rows > low:
        steps = np.hstack([(2.0 * block[low:]) @ table.T, block[low:]])
    live = int(np.count_nonzero(block.any(axis=0)))

    def evaluate(path: tuple[int, ...], head: np.ndarray) -> None:
        nonlocal best, best_witness
        sq = _norm_bounds(run[len(path), :width], head)
        cut = best
        if not path:
            sq[0] = -math.inf  # the empty subset: below every limit, never probed or kept
            probe = np.argmax(sq, keepdims=True)
            cut = max(cut, float(_node_values(table[probe], exponent)[0]))
        keep = np.flatnonzero(~(sq < _norm_limit(cut, live, exponent)))
        if keep.size:  # gathered and valued only when any is kept
            level = table[keep]
            for h in path:
                level += block[h]
            vals = _node_values(level, exponent)
            top = float(vals.max())
            if top >= best:
                witness = _lex_least(keep[vals == top] | sum(1 << h for h in path))
                if top > best or witness < best_witness:
                    best, best_witness = top, witness

    def visit(path: tuple[int, ...]) -> None:
        head = run[len(path), width:]
        evaluate(path, head)
        first = path[-1] + 1 if path else low
        above = bounds(head, first) if first < rows else []
        for h in range(first, rows):
            if not above[h - first] < best:
                np.add(run[len(path)], steps[h - low], out=run[len(path) + 1])
                visit(path + (h,))

    try:
        visit(())
    finally:
        del visit  # it refers to itself: free the table and buffers now, not at a GC pass
    return best, best_witness


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
    column attaining it.  Sum mode is a cut-norm type quantity and stays
    exhaustive over all 2^r - 1 subsets up to provable pruning
    (`_sum_exhaustive`): a table holds the sums of every subset of the
    first 10 or 13 rows, and the subsets of the other rows are visited
    depth first from a hill-climbed subset's value (`_climb`), skipping a
    subtree when a bound on its values (`_subtree_bound`, one build per
    block) is strictly below the best value so far; in each visited node
    only the subsets whose norm bound (`_norm_bounds`) can reach the best
    value are gathered from the table, one row each, summed in row order
    and raised to the power.  Every bound includes rounding slack, so ties
    are never skipped and neither pruning nor the split changes a value or
    a witness.  Both modes are capped at ``MAX_SUBSET_ROWS`` rows, and a
    supremum outside double range raises OverflowError.
    """
    row_limit = _check_int("row_limit", row_limit, 1)
    inner = SubsetMode(inner)
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
        best, found = search(block, exponent)
    if not math.isfinite(best):
        raise OverflowError(
            f"subset supremum over {row_limit} rows with exponent {exponent} "
            f"leaves double range"
        )
    return best, found


def _tail_start(n: int) -> int:
    return max(0, n - max(2, n // 4))


def _regime(p: PExponent) -> str:
    """The exponent regime of p: "le1" (0 < p <= 1), "mid" (1 < p < inf) or "inf"."""
    return "inf" if p.is_inf else "le1" if p.value <= 1.0 else "mid"


# The condition each dual check evaluates in each regime of p (the beta
# check also requires the column limits).
_DUAL_CONDITIONS = {
    "alpha": {"le1": Condition.SUBSET_ENTRY_SUP, "mid": Condition.SUBSET_ABS_COLSUM_SUP,
              "inf": Condition.SUBSET_ABS_COLSUM_SUP},
    "beta": {"le1": Condition.ENTRY_SUP, "mid": Condition.ROW_POWER_SUM_SUP,
             "inf": Condition.ABS_ROW_SUM_INTERCHANGE},
    "gamma": {"le1": Condition.ENTRY_SUP, "mid": Condition.ROW_POWER_SUM_SUP,
              "inf": Condition.ROW_POWER_SUM_SUP},
}


def _resolve_exponent(
    cond: Condition, p: PExponent | None, exponent: float | None, rule: str | None = None
) -> float | None:
    """Exponent of ``cond`` under ``rule`` (by default the condition's own),
    or None for a condition without one.  An explicit ``exponent`` wins."""
    rule = rule or _CONDITIONS[cond].rule
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


def _profile(items, chunks, cps: tuple[int, ...], triangular):
    """Values of non-subset conditions, each with its exponent in ``items``,
    on the leading cp x cp blocks of R windows, folded over ``chunks``:
    c x R x n arrays of rows m0 .. m0 + c - 1 of every window, from row 0
    (`_sections`, or a dense window whole).  Each item folds by the
    estimate and limit of its row of `_CONDITIONS`, a section condition by
    its single-window twin's, its windows being the sections.

    Each block row gives its entries, its largest entry or its sum of
    |entry|^e over the block's full width, trailing zeros included, so each
    sum groups its terms as on the dense block; the fold keeps their maximum
    and, for a spread, their minimum, and reduces them to one value per
    window at the block's last row.  Limits are estimates over the last
    quarter of the rows.  A spread of sums compares a block's tail row sums
    with a reference row sum: the block's last row, or for the section
    abs-sum match (whose limit is the full window) the last row of the
    whole fold at full width, so that item keeps its running maximum and
    minimum until the fold ends; rounding is monotone, so |s - ref| peaks
    at the largest or the smallest s.  Returns per item the maximum over the
    windows, floored at zero, at each checkpoint, and the last row.

    ``triangular`` is a zero-argument callable telling whether the windows
    are triangular; it is called once, and only if an item could read
    narrower rows: a limit whose estimate is not a sum.
    """
    tails = [_tail_start(cp) for cp in cps]
    deferred = [c is Condition.SECTION_ABS_SUM_MATCH for c, _ in items]  # full-width reference
    items = [(_CONDITIONS[_single(c)], e, d) for (c, e), d in zip(items, deferred)]
    narrows = [bool(f.limit) and f.estimate != "sum" for f, _, _ in items]
    if not (any(narrows) and triangular()):
        narrows = [False] * len(items)
    values = [[None] * len(cps) for _ in items]  # running (max, min), then per-window values
    m0 = 0
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the report
        for chunk in chunks:
            mags = None if all(f.estimate == "entries" for f, _, _ in items) else np.abs(chunk)
            powers = {None: mags}
            for i, (cp, ts) in enumerate(zip(cps, tails)):
                if cp <= m0:  # the block ended in an earlier chunk
                    continue
                b = min(cp - m0, chunk.shape[0])  # the block's rows in this chunk: [0, b)
                width = min(cp, chunk.shape[2])
                for ((est, limit, _, _), e, defer), vals, narrow in zip(items, values, narrows):
                    a = max(ts - m0, 0) if limit else 0
                    if a >= b:  # no tail row in this chunk
                        continue
                    w = min(width, ts + 1) if narrow else width
                    if est == "entries":
                        rows = chunk[a:b, :, :w]
                    elif est == "max":
                        rows = np.maximum.reduce(mags[a:b, :, :w], axis=2)
                    else:
                        if e not in powers:
                            powers[e] = mags**e
                        rows = np.add.reduce(powers[e][a:b, :, :w], axis=2)
                    top = np.maximum.reduce(rows)
                    low = np.minimum.reduce(rows) if limit == "spread" else None
                    if vals[i] is not None:  # into the fresh reductions: no third array
                        top = np.maximum(vals[i][0], top, out=top)
                        low = None if low is None else np.minimum(vals[i][1], low, out=low)
                    if m0 + b < cp or defer:  # reduced later
                        vals[i] = top, low
                        continue
                    if est == "entries":
                        top = np.maximum.reduce(top - low, axis=1)
                    elif limit == "spread":
                        top = np.maximum(top - rows[-1], rows[-1] - low)
                    elif est == "max" and e is not None:
                        top = [x**e for x in top]  # scalar powers, as on one value
                    vals[i] = top
            m0 += chunk.shape[0]
        for (_, _, defer), vals in zip(items, values):
            if defer:
                ref = np.add.reduce(np.abs(chunk[-1]), axis=1)
                vals[:] = [np.maximum(top - ref, ref - low) for top, low in vals]
    return [np.maximum(np.max(vals, axis=1), 0.0).tolist() for vals in values], chunk[-1]


def _subset_values(windows: list, e: float, mode: SubsetMode, info: dict[str, Any]):
    """Subset suprema over (window, row limit) pairs, computed as drawn; the
    last pair's witness goes into ``info``.  A supremum past double range,
    which ``subset_sup`` refuses, yields inf and ends the draw: the report
    refuses at that window, and no later window is computed."""
    for m, row_limit in windows:
        try:
            val, witness = subset_sup(m, e, mode, row_limit)
        except OverflowError:
            yield math.inf
            return
        info["witness"] = list(witness)
        yield val


def _report(
    cond: Condition, sizes: tuple[int, ...], values, e: float | None, info: dict[str, Any]
) -> ConditionReport:
    """The one report constructor: pairs the window sizes with their values
    and refuses the first value outside double range."""
    if e is not None:
        info["exponent"] = e
    vals = tuple(zip(sizes, values))
    for n, v in vals:
        if not math.isfinite(v):
            with_e = "" if e is None else f" with exponent {e}"
            raise OverflowError(f"{cond.value} at window size {n}{with_e} leaves double range")
    shrinks = _CONDITIONS[_single(cond)].limit is not None  # a limit should shrink
    return ConditionReport(cond, vals, classify_trend(vals, shrinks), info)


def matrix_class_condition(
    m: MatrixWindow,
    cond: Condition,
    p: PExponent | None = None,
    *,
    row_limit: int = 12,
    exponent: float | None = None,
    detail: dict[str, Any] | None = None,
) -> ConditionReport:
    """Evaluate one single-window matrix-class condition on leading square
    blocks.

    This is the single-window evaluator behind `class_check`'s full-window
    conditions.  The blocks are the power-of-two sizes from 4 up to the
    window; subset conditions additionally cap the enumerated rows at
    ``row_limit``.
    """
    cond = Condition(cond)
    p = None if p is None else _coerce(PExponent, p)
    cps = default_checkpoints(m.entries.shape[0], start=4)
    if _single(cond) is not cond:
        raise InvalidCondition(
            f"{cond.value} applies to a family of section windows, not a single matrix"
        )
    e = _resolve_exponent(cond, p, exponent)
    info: dict[str, Any] = dict(detail or {})
    facts = _CONDITIONS[cond]
    if not isinstance(facts.estimate, SubsetMode):
        (values,), _ = _profile(((cond, e),), (m.entries[:, None],), cps,
                               lambda: _triangular(m.entries))
    else:
        blocks = ((cp, m.entries[:cp, :cp]) for cp in cps)  # views of a checked window
        windows = [(_built(MatrixWindow, None, entries=b.T if facts.columns else b),
                    min(cp, row_limit)) for cp, b in blocks]
        values = _subset_values(windows, e, facts.estimate, info)
    return _report(cond, cps, values, e, info)


def alpha_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    row_limits: tuple[int, ...] | list[int],
) -> ConditionReport:
    """Subset-supremum condition deciding membership of a in the alpha dual.

    Evaluates, per row limit, the subset condition of the regime of p
    (`_DUAL_CONDITIONS`: entrywise sup to the power p for 0 < p <= 1,
    columnwise conjugate-power sums past 1) on the termwise-product window,
    entry (j, k) = e_{j-k} a_j.  Only the lags, rows and columns
    `subset_sup` reads are built; the row limits rise strictly in [1, a.n].
    """
    qp, p = _coerce(QParam, qp), _coerce(PExponent, p)
    rls = _checkpoints(row_limits, a.n, name="row_limits")
    rows = min(rls[-1], MAX_SUBSET_ROWS)
    t_e = _lower_toeplitz(inverse_coeffs(order, qp, rows - 1).coeffs, _live_width(a.n, rows))
    with np.errstate(over="ignore"):  # refused by `_built`
        lam = a.values[:rows, None] * t_e[:rows]
    lam = _built(MatrixWindow, lambda: f"termwise-product window of order {order} at q = {qp.q}",
                 entries=lam)
    cond = _DUAL_CONDITIONS["alpha"][_regime(p)]
    e = _resolve_exponent(cond, p, None)
    info: dict[str, Any] = {"matrix": "termwise-product"}
    values = _subset_values([(lam, rl) for rl in rls], e, _CONDITIONS[cond].estimate, info)
    return _report(cond, rls, values, e, info)


def _section_reports(rows: np.ndarray, order, qp, p, conds, windows, what: str,
                     info: dict[str, Any]):
    """Reports of the section conditions ``conds``, each exponent by the
    condition's own rule, at ``windows`` (by default powers of two from 4)
    from one sweep of the sections of every row of ``rows`` (`_sections`
    folded by `_profile`), and their last rows: the full window ``what``,
    refused if a section left double range (non-finite down its column)."""
    n = rows.shape[1]
    cps = _checkpoints(windows, n, start=4)
    items = [(c, _resolve_exponent(c, p, None)) for c in conds]
    e = inverse_coeffs(order, qp, n - 1)
    values, last = _profile(items, _sections(rows, _lower_toeplitz(e.coeffs, n)), cps,
                            lambda: True)
    full = _built(MatrixWindow, lambda: f"{what} of order {order} at q = {e.qp.q}",
                  entries=last.copy())
    return [_report(c, cps, v, ce, dict(info)) for (c, ce), v in zip(items, values)], full


def beta_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
) -> list[ConditionReport]:
    """Beta-dual conditions on the partial-sum window of a, one report
    each: the columnwise row limits and the companion condition of the
    regime of p (`_DUAL_CONDITIONS`).
    """
    qp, p = _coerce(QParam, qp), _coerce(PExponent, p)
    conds = (Condition.COLUMN_LIMITS, _DUAL_CONDITIONS["beta"][_regime(p)])
    return _section_reports(a.values[None], order, qp, p, conds, None,
                            "partial-sum window", {"matrix": "partial-sum"})[0]


def gamma_dual_check(
    a: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
) -> ConditionReport:
    """Gamma-dual condition: the companion condition of the regime of p
    (`_DUAL_CONDITIONS`), without the column-limit requirement."""
    qp, p = _coerce(QParam, qp), _coerce(PExponent, p)
    conds = (_DUAL_CONDITIONS["gamma"][_regime(p)],)
    return _section_reports(a.values[None], order, qp, p, conds, None,
                            "partial-sum window", {"matrix": "partial-sum"})[0][0]
