"""Reference implementations the tests compare the library against.

None of this is library code: ``qnabla`` builds every coefficient stream
from bounded lag ratios and never evaluates a q-gamma value or forms a
section rewrite against a transformed window.  These routes take the
textbook definitions instead, so they are independent of the library's
recurrences.

``least_reaching`` finds the least witness of a sup-mode subset supremum by
the greedy that rebuilds every candidate's completion at each step, and
``sup_closed_form`` takes the supremum with it: the library's one-pass
witness scan is pinned to them bit for bit.

``subtree_bounds_at`` builds the sum-mode walk's subtree bounds for one
split on its own, each column extreme of the low rows a plain column sum:
the library's one build per block is pinned to it bit for bit, at every
column count.

``full_formula_stream`` takes every lag ratio of a coefficient stream by
the full formula and runs one cumprod over a concatenated copy, and
``window_norm`` takes the norm of one window on its own: the bit tests pin
the library's in-place streams and one-pass norm profiles to them.

``dual_reports`` is the one helper here that runs library code: the beta
or gamma check's own sweep (`duals._section_reports`) at chosen windows,
where the public checks take the power-of-two windows from 4.

The dense windows of the dual checks and of the matrix classes are built
here whole: the termwise-product window Lambda, the partial-sum window
Omega, and each row's section window, with the estimate of a non-subset
condition taken on a dense leading block.  The library streams the same
section rows a chunk at a time and never holds one of these n x n windows.

q-factorials and q-binomials are products of q-brackets.  The infinite
q-Pochhammer product

    (x, q)_inf = prod_{j >= 0} (1 - x q^j)

is truncated once the running factor magnitude ``|x| q^J`` drops below
:data:`PROD_TOL`; geometric decay of the factors turns that into an
a-priori tail bound.  The q-gamma function

    gamma_q(t) = (q, q)_inf / (q^t, q)_inf * (1 - q)^(1 - t)

satisfies ``gamma_q(1) = 1`` and ``gamma_q(t + 1) = [t]_q gamma_q(t)``, and
tends to the classical gamma function as q -> 1^-.  It and its ratios are
accumulated in log space so that values stay representable even for q very
close to 1, where the individual Pochhammer products underflow.
"""

from __future__ import annotations

import math

import numpy as np

from qnabla.duals import (
    _DUAL_CONDITIONS,
    _SMALLEST_NORMAL,
    _UNIT_ROUNDOFF,
    Condition,
    MatrixWindow,
    _regime,
    _section_reports,
    _tail_start,
)
from qnabla.fracdiff import CoeffStream, Kind, SeqWindow, apply_forward, inverse_coeffs
from qnabla.qcore import QParam, _require_finite, q_integer

# Infinite products stop at the first factor with |x| q^J below this.
PROD_TOL = 1e-15
# Half-width of the window around nonpositive integers that counts as a
# gamma_q pole (loose because arguments are user-supplied decimals).
POLE_EPS = 1e-12

_CHUNK = 1 << 18


class PoleError(ValueError):
    """The q-gamma function was evaluated at a nonpositive integer."""


def _is_nonpositive_integer(t: float, eps: float) -> bool:
    r = round(t)
    return r <= 0 and abs(t - r) < eps


def q_factorial(n: int, qp: QParam) -> float:
    """q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    out = 1.0
    for v in range(1, int(n) + 1):
        out *= q_integer(float(v), qp)
    return out


def q_binomial(mu: int, nu: int, qp: QParam) -> float:
    """q-binomial coefficient [mu]_q! / ([mu - nu]_q! [nu]_q!); 0 when mu < nu."""
    if mu != int(mu) or mu < 0:
        raise ValueError(f"mu must be a nonnegative integer, got {mu!r}")
    if nu != int(nu) or nu < 0:
        raise ValueError(f"nu must be a nonnegative integer, got {nu!r}")
    mu, nu = int(mu), int(nu)
    if mu < nu:
        return 0.0
    return q_factorial(mu, qp) / (q_factorial(mu - nu, qp) * q_factorial(nu, qp))


def _truncation_index(x: float, qp: QParam) -> int:
    """Smallest J with |x| q^J < PROD_TOL (0 when |x| is already below it)."""
    ax = abs(x)
    if ax < PROD_TOL:
        return 0
    n = (math.log(PROD_TOL) - math.log(ax)) / math.log(qp.q)
    return max(0, math.floor(n) + 1)


def _factors(x: float, qp: QParam):
    """Chunks of the factors 1 - x q^j, j = 0..J, of the truncated product."""
    jmax = _truncation_index(x, qp)
    logq = math.log(qp.q)
    for start in range(0, jmax + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, jmax + 1), dtype=np.float64)
        yield 1.0 - x * np.exp(j * logq)


def q_pochhammer_inf(x: float, qp: QParam) -> float:
    """Truncated infinite product (x, q)_inf = prod_{j=0..J} (1 - x q^j).

    J is the smallest index with |x| q^J < PROD_TOL, so the discarded tail
    factors all differ from 1 by less than PROD_TOL.  Deterministic for
    fixed inputs.  Note (1, q)_inf = 0 exactly: the j = 0 factor vanishes.
    """
    x = _require_finite("x", x)
    out = 1.0
    for f in _factors(x, qp):
        out *= float(np.prod(f))
    return out


def _log_pochhammer(x: float, qp: QParam) -> tuple[float, float]:
    """(sign, log |(x, q)_inf|) over the truncated product; sign 0 at an exact zero."""
    sign = 1.0
    total = 0.0
    for f in _factors(x, qp):
        if np.any(f == 0.0):
            return 0.0, -math.inf
        if np.count_nonzero(f < 0.0) % 2:
            sign = -sign
        total += float(np.sum(np.log(np.abs(f))))
    return sign, total


def q_gamma(t: float, qp: QParam) -> float:
    """q-gamma function gamma_q(t) via truncated q-Pochhammer products.

    Its cost grows as 1 / (1 - q): at q = 1 - 1e-6 it multiplies 3.4e7
    factors, about 1 s.

    Raises :class:`PoleError` when t falls within :data:`POLE_EPS` of a
    nonpositive integer, where gamma_q has a pole.
    """
    t = _require_finite("t", t)
    if _is_nonpositive_integer(t, POLE_EPS):
        raise PoleError(f"gamma_q has a pole at t = {t!r}")
    s_num, l_num = _log_pochhammer(qp.q, qp)
    s_den, l_den = _log_pochhammer(qp.q**t, qp)
    if s_den == 0.0:
        # The denominator product collapsed to an exact zero even though t
        # passed the pole test; treat it as the pole it numerically is.
        raise PoleError(f"gamma_q denominator vanished at t = {t!r}")
    return s_num * s_den * math.exp(l_num - l_den + (1.0 - t) * math.log1p(-qp.q))


def q_gamma_ratio(a: float, b: float, qp: QParam) -> float:
    """gamma_q(a) / gamma_q(b), finite (and exactly 0) at poles of the denominator.

    Evaluated as (q^b, q)_inf / (q^a, q)_inf * (1 - q)^(b - a), which never
    forms the infinite gamma value: when b sits at a nonpositive integer the
    ratio is 0.  Raises :class:`PoleError` when a itself is at a pole.  Costs
    as much as :func:`q_gamma`.
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if _is_nonpositive_integer(a, POLE_EPS):
        raise PoleError(f"gamma_q has a pole at a = {a!r}")
    if _is_nonpositive_integer(b, POLE_EPS):
        return 0.0
    s_b, l_b = _log_pochhammer(qp.q**b, qp)
    s_a, l_a = _log_pochhammer(qp.q**a, qp)
    if s_a == 0.0:
        raise PoleError(f"gamma_q denominator vanished at a = {a!r}")
    if s_b == 0.0:
        return 0.0
    return s_b * s_a * math.exp(l_b - l_a + (b - a) * math.log1p(-qp.q))


def full_formula_stream(kind: Kind, order: float, qp: QParam, k: int) -> np.ndarray:
    """Coefficients 0..k of a forward or inverse stream, every lag ratio by
    the full formula (``qnabla.fracdiff`` module notes) and one cumprod over
    a concatenated copy; a stream that leaves double range raises the
    library's OverflowError text."""
    logq = math.log(qp.q)
    lag = np.arange(k, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is Kind.FORWARD:
            gap = order - lag
            num = -np.sign(gap) * np.exp(np.minimum(lag, order) * logq)
            num *= np.expm1(np.abs(gap) * logq)
        else:
            num = np.expm1((order + lag) * logq)
        out = np.cumprod(np.concatenate(([1.0], num / np.expm1((lag + 1.0) * logq))))
    if not math.isfinite(out[-1]):
        first = int(np.argmin(np.isfinite(out)))
        raise OverflowError(
            f"{kind.value} coefficient stream of order {order} at q = {qp.q} leaves "
            f"double range at lag {first}; the largest truncation that fits is "
            f"K = {first - 1}"
        )
    out[np.abs(out) < np.finfo(np.float64).tiny] = 0.0
    return out


def window_norm(h: np.ndarray, p: float | None) -> float:
    """Classical norm of one window (p None for the sup), its |h|^p summed
    afresh; a root-sum whose plain sum overflows is taken again scaled by
    max|h|.  A norm past double range raises the library's OverflowError."""
    a = np.abs(h)
    top = float(a.max())
    if p is None:
        return top
    with np.errstate(over="ignore"):
        s = float(np.sum(a**p))
        if p >= 1.0:
            if math.isfinite(s):
                return s ** (1.0 / p)
            s = top * float(np.sum((a / top) ** p)) ** (1.0 / p)
    if not math.isfinite(s):
        raise OverflowError(f"the p = {p!r} norm of a {h.size}-entry window leaves double range")
    return s


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
    t_e = toeplitz_window(inverse_coeffs(order, qp, g.n - 1), g.n)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for j, row in enumerate(phi.entries):
            lhs = np.cumsum(row * g.values)
            rhs = dense_section(row, t_e) @ h
            gap = float(np.max(np.abs(lhs - rhs)))
            if not math.isfinite(gap):
                raise OverflowError(
                    f"section consistency residual of row {j} leaves double range"
                )
            worst = max(worst, gap)
    return worst


def toeplitz_window(stream: CoeffStream, n: int) -> np.ndarray:
    """Dense n x n lower triangular Toeplitz window of a coefficient stream:
    entry (j, k) is coefficient j - k, zero past the stream's truncation."""
    c = np.zeros(n)
    c[: min(n, stream.coeffs.size)] = stream.coeffs[:n]
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return np.where(lags >= 0, c[np.maximum(lags, 0)], 0.0)


def dense_section(row: np.ndarray, t_e: np.ndarray) -> np.ndarray:
    """Section window of one row: entry (m, k) is sum_{v=k..m} e_{v-k} row_v,
    where ``t_e`` is the Toeplitz window of the inverse stream."""
    return np.cumsum(row[:, None] * t_e, axis=0)


def termwise_window(a: SeqWindow, order: float, qp: QParam) -> np.ndarray:
    """Dense termwise-product window Lambda: entry (j, k) is e_{j-k} a_j, so
    Lambda h returns the products (a_j g_j) for h the transform of g."""
    return a.values[:, None] * toeplitz_window(inverse_coeffs(order, qp, a.n - 1), a.n)


def partial_sum_window(a: SeqWindow, order: float, qp: QParam) -> np.ndarray:
    """Dense partial-sum window Omega, the section window of the row a: Omega
    h returns the partial sums sum_{k<=j} a_k g_k."""
    return dense_section(a.values, toeplitz_window(inverse_coeffs(order, qp, a.n - 1), a.n))


def dual_reports(kind: str, a: SeqWindow, order: float, qp: QParam, p, windows):
    """The ``kind`` ("beta" or "gamma") dual check of a at ``windows``:
    beta's list of the column-limit report and its regime's companion,
    gamma's one companion report."""
    cond = _DUAL_CONDITIONS[kind][_regime(p)]
    conds = (Condition.COLUMN_LIMITS, cond) if kind == "beta" else (cond,)
    reports, _ = _section_reports(a.values[None], order, qp, p, conds, windows,
                                  "partial-sum window", {"matrix": "partial-sum"})
    return reports if kind == "beta" else reports[0]


def dense_estimate(
    cond: Condition, block: np.ndarray, e: float | None, triangular: bool, ref=None
) -> float:
    """Value of one non-subset single-window condition on one leading block.

    Limits are oscillation estimates over the last quarter of the rows;
    ``ref`` overrides the reference row sum of the interchange estimate.
    """
    n = block.shape[0]
    ts = _tail_start(n)
    if cond is Condition.ENTRY_SUP:
        top = np.max(np.abs(block))
        return float(top if e is None else top**e)
    if cond in (Condition.ROW_ABS_SUM_SUP, Condition.ROW_POWER_SUM_SUP):
        mags = np.abs(block)
        return float(np.max(np.sum(mags if e is None else mags**e, axis=1)))
    if cond in (Condition.COLUMN_LIMITS, Condition.COLUMN_LIMITS_ZERO):
        sub = block[ts:, : min(block.shape[1], ts + 1) if triangular else block.shape[1]]
        if sub.size == 0:
            return 0.0
        if cond is Condition.COLUMN_LIMITS_ZERO:
            return float(np.max(np.abs(sub)))
        return float(np.max(sub.max(axis=0) - sub.min(axis=0)))
    sums = np.sum(np.abs(block[ts:]), axis=1)
    if cond is Condition.VANISHING_ROW_ABS_SUM:
        return float(np.max(sums))
    if ref is None:  # the interchange of row sums and limits
        ref = float(np.sum(np.abs(block[n - 1])))
    return float(np.max(np.abs(sums - ref)))


def least_reaching(col: np.ndarray, exponent: float, best: float) -> tuple[int, ...]:
    """Lexicographically least row subset whose row-order sum of ``col``
    reaches ``best`` once raised to ``exponent``, by the greedy that rebuilds
    every candidate's completion: append the least row after which some
    completion still reaches ``best``.  Rounding is monotone, so the largest
    completion adds every positive entry below that row; the subset stops as
    soon as its own sum reaches ``best``.  Each step stacks the running sum
    plus every candidate row beside the later positive entries and takes one
    cumsum, so every sum is a numpy row-order chain and every power a numpy
    array power.  `duals._sup_closed_form` finds the same subset in one pass.
    """
    r = col.shape[0]
    tails = np.triu(np.broadcast_to(np.maximum(col, 0.0), (r, r)), k=1)
    witness: list[int] = []
    acc = np.zeros(1)
    while True:
        j0 = witness[-1] + 1 if witness else 0
        reach = np.cumsum(np.column_stack([acc + col[j0:], tails[j0:, j0:]]), axis=1)
        j = j0 + int(np.argmax(np.maximum(reach[:, -1], 0.0) ** exponent == best))
        witness.append(j)
        acc = acc + col[j]
        if (np.maximum(acc, 0.0) ** exponent)[0] == best:
            return tuple(witness)


def sup_closed_form(block: np.ndarray, exponent: float) -> tuple[float, tuple[int, ...]]:
    """Sup-mode subset supremum of ``block``: the maximum over columns and
    both signs of the row-order sum of the column's entries of that sign,
    raised to ``exponent``, with the least witness over every (column, sign)
    pair that attains it found by `least_reaching`, one pair at a time."""
    signed = np.stack([block, -block])
    parts = np.maximum(signed, 0.0)
    bases = np.zeros((2, block.shape[1]))
    for j in range(block.shape[0]):
        bases += parts[:, j]
    vals = bases**exponent
    best = float(vals.max())
    if best == 0.0:
        return best, (0,)
    return best, min(
        least_reaching(signed[s, :, k], exponent, best) for s, k in np.argwhere(vals == best)
    )


def subtree_bounds_at(block: np.ndarray, low: int, exponent: float):
    """The sum-mode walk's subtree bounds at a low table of ``low`` rows,
    ``bounds(head, first)`` as `qnabla.duals._subtree_bound` returns them,
    built for that split alone: the column extremes of the low rows are
    plain column sums, and the sums over the rows after each high row a
    cumsum from the last row up to row ``low`` + 1."""
    rows, n = block.shape

    def reach(part: np.ndarray) -> np.ndarray:  # the low rows and those after each high row
        after = np.vstack([np.cumsum(part[:low:-1], axis=0)[::-1], np.zeros((1, n))])
        return part[:low].sum(axis=0) + after

    upper = reach(np.maximum(block, 0.0)) + block[low:]
    lower = reach(np.minimum(block, 0.0)) + block[low:]
    np.negative(lower, out=lower)
    slack = 4 * rows * _UNIT_ROUNDOFF * np.abs(block).sum(axis=0)
    scale = 1.0 + 4 * (n + 16) * _UNIT_ROUNDOFF

    def bounds(head: np.ndarray, first: int) -> list[float]:
        ends = head + upper[first - low :]
        np.maximum(ends, lower[first - low :] - head, out=ends)
        ends += slack
        ends **= exponent
        return (ends.sum(axis=1) * scale + _SMALLEST_NORMAL).tolist()

    return bounds
