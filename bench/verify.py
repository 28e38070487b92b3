"""Independent references and output checks.

Nothing in this module calls qnabla.  Coefficient streams are rebuilt from
the bounded ratio form

    c_{k+1} / c_k = q^g * expm1((k - g) L) / expm1((k + 1) L),
    e_{k+1} / e_k = expm1((g + k) L) / expm1((k + 1) L),      L = log q,

which never overflows and keeps full precision for q next to 1, and a short
mpmath oracle pins the leading coefficients.  Every tolerance is ``TOL``
(the acceptance suite's 1e-10) times a conditioning scale computed from
absolute values before the output is looked at, so no tolerance is fitted
to what the library currently returns.

A failed check raises :class:`CheckFailed`; its message names the check.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

TOL = 1e-10
ORACLE_TERMS = 17
_TINY = 1e-290
_SUBNORMAL = np.finfo(np.float64).tiny
VERDICTS = ("bounded-on-window", "growing", "inconclusive")


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- references


def ref_forward(order: float, q: float, n: int) -> np.ndarray:
    """Forward coefficients c_0..c_{n-1}."""
    L = math.log(q)
    k = np.arange(n - 1, dtype=np.float64)
    ratio = q**order * np.expm1((k - order) * L) / np.expm1((k + 1.0) * L)
    return np.concatenate(([1.0], np.cumprod(ratio)))


def ref_inverse(order: float, q: float, n: int) -> np.ndarray:
    """Inverse coefficients e_0..e_{n-1}."""
    L = math.log(q)
    k = np.arange(n - 1, dtype=np.float64)
    ratio = np.expm1((k + order) * L) / np.expm1((k + 1.0) * L)
    return np.concatenate(([1.0], np.cumprod(ratio)))


def q_bracket(t: np.ndarray, q: float) -> np.ndarray:
    """[t]_q = (1 - q^t) / (1 - q), evaluated without cancellation."""
    L = math.log(q)
    return np.expm1(np.asarray(t, dtype=np.float64) * L) / math.expm1(L)


def flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal entries set to zero.

    Arithmetic on subnormals runs tens of times slower.  A dropped entry is
    below 2.3e-308, so over at most 8192 terms the change to a product or
    convolution stays under the absolute floor ``_TINY`` wherever the other
    operand is below 5e13; the largest operands here, inverse coefficients
    next to q = 1, stay below 1e8.
    """
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.abs(a) < _SUBNORMAL, 0.0, a)


def toeplitz(stream: np.ndarray, n: int) -> np.ndarray:
    """Lower-triangular Toeplitz window: entry (j, k) is stream[j - k]."""
    stream = flushed(stream)
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    out = np.zeros((n, n))
    mask = idx >= 0
    out[mask] = stream[idx[mask]]
    return out


def causal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(b) terms of the Cauchy product of a and b."""
    return np.convolve(flushed(a), flushed(b))[: b.size]


def oracle_prefix(kind: str, order: float, q: float, m: int) -> np.ndarray:
    """First m forward or inverse coefficients in 40-digit arithmetic."""
    with mpmath.workdps(40):
        qm = mpmath.mpf(q)
        g = mpmath.mpf(order)

        def br(t):
            return (1 - qm**t) / (1 - qm)

        out = [mpmath.mpf(1)]
        for i in range(m - 1):
            if kind == "forward":
                out.append(-out[-1] * qm**i * br(g - i) / br(i + 1))
            else:
                out.append(out[-1] * br(g + i) / br(i + 1))
        return np.array([float(v) for v in out])


# ------------------------------------------------------------ basic checks


def close_each(got, ref, scale, what: str) -> None:
    """Elementwise |got - ref| <= TOL * scale."""
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == np.shape(ref), f"{what}:shape")
    require(bool(np.all(np.isfinite(got))), f"{what}:finite")
    require(bool(np.all(np.abs(got - ref) <= TOL * np.asarray(scale) + _TINY)), what)


def close(got: float, ref: float, scale: float, what: str) -> None:
    require(math.isfinite(got), f"{what}:finite")
    require(abs(got - ref) <= TOL * scale + _TINY, what)


def oracle(kind: str, got: np.ndarray, order: float, q: float, what: str) -> None:
    m = min(ORACLE_TERMS, got.size)
    ref = oracle_prefix(kind, order, q, m)
    close_each(got[:m], ref, np.abs(ref), f"{what}:oracle")


def stream_matches(kind: str, got: np.ndarray, order: float, q: float, what: str) -> None:
    """A whole coefficient stream: the oracle on its prefix, the inverse
    identity against the reference partner stream on every lag, and exact
    zeros past the order for integer forward orders."""
    partner = (ref_inverse if kind == "forward" else ref_forward)(order, q, got.size)
    impulse = np.zeros(got.size)
    impulse[0] = 1.0
    close_each(causal(partner, got), impulse, causal(np.abs(partner), np.abs(got)), f"{what}:identity")
    oracle(kind, got, order, q, what)
    if kind == "forward" and float(order).is_integer() and order >= 0:
        require(bool(np.all(got[int(order) + 1:] == 0.0)), f"{what}:exact-zeros")


def conv_matches(got, coeffs: np.ndarray, x: np.ndarray, what: str) -> None:
    """got == causal(coeffs, x) within TOL times the absolute convolution."""
    close_each(got, causal(coeffs, x), causal(np.abs(coeffs), np.abs(x)), what)


def residual_small(residual: float, order: float, q: float, n: int, what: str) -> None:
    """An inverse-identity residual within TOL times the streams' conditioning
    max_j sum_k |c_k| |e_(j-k)|."""
    c, e = ref_forward(order, q, n), ref_inverse(order, q, n)
    kappa = float(np.max(causal(np.abs(c), np.abs(e))))
    require(math.isfinite(residual) and 0.0 <= residual <= TOL * kappa, f"{what}:residual")


def defect_matches(defect: float, mu: float, nu: float, q: float, n: int, what: str) -> None:
    """A semigroup defect against the reference streams."""
    cm, cn, cs = ref_forward(mu, q, n), ref_forward(nu, q, n), ref_forward(mu + nu, q, n)
    ref = float(np.max(np.abs(causal(cm, cn) - cs)))
    scale = float(np.max(causal(np.abs(cm), np.abs(cn)) + np.abs(cs)))
    close(defect, ref, scale, what)


def p_sum(h: np.ndarray, p: float | None) -> float:
    """Classical norm: sup for p None, root-sum for p >= 1, p-sum below 1."""
    a = np.abs(h)
    if p is None:
        return float(a.max())
    s = float(np.sum(a**p))
    return s ** (1.0 / p) if p >= 1.0 else s


def p_sum_slack(h: np.ndarray, err: np.ndarray, p: float | None) -> float:
    """Largest change of p_sum(h) when each entry moves by at most err."""
    if p is None or p >= 1.0:
        return p_sum(err, p) if p is not None else float(err.max())
    lower = np.maximum(np.abs(h) - err, 0.0)
    with np.errstate(divide="ignore"):
        slope = np.where(lower > 0.0, p * lower ** (p - 1.0) * err, np.inf)
    return float(np.sum(np.minimum(err**p, slope)))


def norm_profile(partials, h: np.ndarray, scale: np.ndarray, p: float | None, what: str) -> None:
    """Each (n, value) partial against the reference transform prefix."""
    for n, v in partials:
        ref = p_sum(h[:n], p)
        slack = p_sum_slack(h[:n], TOL * scale[:n] + _TINY, p)
        require(math.isfinite(v) and abs(v - ref) <= slack + _TINY, f"{what}:partial")


# ------------------------------------------------ matrix-condition references


def colsum_parts(block: np.ndarray) -> np.ndarray:
    """Per column, the larger of the positive-part and negative-part sums."""
    return np.maximum(np.clip(block, 0, None).sum(axis=0), -np.clip(block, None, 0).sum(axis=0))


def sup_closed_form(value: float, block: np.ndarray, absblock: np.ndarray, e: float, what: str) -> None:
    """Sup-mode subset supremum: max_k max(sum+, sum-)^e, compared on the base."""
    base = float(colsum_parts(block).max())
    scale = float(absblock.sum(axis=0).max())
    close(value ** (1.0 / e), base, scale, f"{what}:closed-form")


def subset_value(block: np.ndarray, rows, e: float, sup: bool) -> float:
    col = np.abs(block[list(rows)].sum(axis=0)) ** e
    return float(col.max() if sup else col.sum())


def witness_matches(value: float, witness, block, absblock, e: float, sup: bool, what: str) -> None:
    """The reported value re-evaluated at the reported witness rows."""
    rows = list(witness)
    require(bool(rows) and rows == sorted(set(rows)), f"{what}:witness-form")
    require(rows[-1] < block.shape[0], f"{what}:witness-range")
    ref = subset_value(block, rows, e, sup)
    scale = e * subset_value(absblock, rows, e, sup)
    close(value, ref, scale, f"{what}:witness")


def dominates(value: float, block, absblock, e: float, sup: bool, rng, what: str) -> None:
    """The supremum is at least the value of singletons, the full set and a
    few seeded random subsets."""
    r = block.shape[0]
    candidates = [[j] for j in range(r)] + [list(range(r))]
    for _ in range(8):
        pick = np.flatnonzero(rng.random(r) < 0.5)
        if pick.size:
            candidates.append(pick.tolist())
    for rows in candidates:
        slack = TOL * e * subset_value(absblock, rows, e, sup)
        require(value >= subset_value(block, rows, e, sup) - slack - _TINY, f"{what}:not-maximal")


def tail_start(n: int) -> int:
    """First row of the tail quarter of an n-row block (at least two rows)."""
    return max(0, n - max(2, n // 4))


def block_cond(cond: str, block: np.ndarray, absblock: np.ndarray, e: float | None,
               triangular: bool):
    """(reference, scale) of a row sum or tail condition on a leading block, or
    None for entry-sup and the subset conditions, which the caller checks.  Tail
    estimates look at the last quarter of the block's rows; a difference of
    two entries gets twice their absolute scale."""
    n = block.shape[0]
    ts = tail_start(n)
    if cond == "row-abs-sum-sup":
        return float(np.abs(block).sum(axis=1).max()), float(absblock.sum(axis=1).max())
    if cond == "row-power-sum-sup":
        return (
            float((np.abs(block) ** e).sum(axis=1).max()),
            e * float((absblock**e).sum(axis=1).max()),
        )
    if cond in ("column-limits", "column-limits-zero"):
        cols = min(block.shape[1], ts + 1) if triangular else block.shape[1]
        sub, abssub = block[ts:, :cols], absblock[ts:, :cols]
        if sub.size == 0:
            return 0.0, 0.0
        if cond == "column-limits-zero":
            return float(np.abs(sub).max()), float(abssub.max())
        return float((sub.max(axis=0) - sub.min(axis=0)).max()), 2.0 * float(abssub.max())
    if cond == "abs-row-sum-interchange":
        last = float(np.abs(block[n - 1]).sum())
        return (
            float(np.abs(np.abs(block[ts:]).sum(axis=1) - last).max()),
            float(absblock[ts:].sum(axis=1).max()) + float(absblock[n - 1].sum()),
        )
    if cond == "vanishing-row-abs-sum":
        return float(np.abs(block[ts:]).sum(axis=1).max()), float(absblock[ts:].sum(axis=1).max())
    return None


def report_shape(rep: dict, window: int, what: str) -> None:
    sizes = [int(n) for n, _ in rep["values"]]
    vals = [float(v) for _, v in rep["values"]]
    require(bool(sizes) and sizes[-1] == window, f"{what}:windows")
    require(all(b > a for a, b in zip(sizes, sizes[1:])), f"{what}:windows-order")
    require(all(math.isfinite(v) and v >= 0.0 for v in vals), f"{what}:values")
    require(rep["verdict"] in VERDICTS, f"{what}:verdict")


def matrix_report(rep: dict, full: np.ndarray, absfull: np.ndarray, triangular: bool,
                  row_limit: int, rng, what: str) -> None:
    """Recompute every value of a single-window report from the dense window."""
    cond = rep["condition"]
    e = rep["detail"].get("exponent")
    transposed = cond == "column-subset-power-sum-sup"
    last = rep["values"][-1][0]
    for cp, v in rep["values"]:
        block, absblock = full[:cp, :cp], absfull[:cp, :cp]
        if transposed:
            block, absblock = block.T, absblock.T
        rc = block_cond(cond, block, absblock, e, triangular)
        if rc is not None:
            close(v, rc[0], rc[1], f"{what}:{cond}")
        elif cond == "entry-sup":
            close(v ** (1.0 / e), float(np.abs(block).max()), float(absblock.max()), f"{what}:{cond}")
        elif cond == "row-subset-entry-sup":
            rows = min(cp, row_limit)
            sup_closed_form(v, block[:rows], absblock[:rows], e, f"{what}:{cond}")
        elif cond in ("row-subset-abs-colsum-sup", "column-subset-power-sum-sup"):
            rows = min(cp, row_limit)
            if cp == last:
                witness_matches(v, rep["detail"]["witness"], block[:rows], absblock[:rows], e, False, f"{what}:{cond}")
            dominates(v, block[:rows], absblock[:rows], e, False, rng, f"{what}:{cond}")
        else:
            raise CheckFailed(f"{what}:{cond}:unknown-condition")


SECTION_CONDS = ("section-entry-sup", "section-power-sum-sup", "section-column-limits",
                 "section-row-sum-limit", "section-abs-sum-match")


def section_values(cond: str, sec: np.ndarray, abssec: np.ndarray, cps, e: float | None):
    """(reference, scale) per checkpoint of one row's section window.

    Running maxima and running row sums over the columns give every
    checkpoint's leading block from one pass over the window.
    """
    if cond == "section-entry-sup":
        run = np.maximum.accumulate(np.maximum.accumulate(np.abs(sec), axis=0), axis=1)
        arun = np.maximum.accumulate(np.maximum.accumulate(abssec, axis=0), axis=1)
        return [(float(run[cp - 1, cp - 1]), float(arun[cp - 1, cp - 1])) for cp in cps]
    if cond == "section-power-sum-sup":
        pw = np.cumsum(np.abs(sec) ** e, axis=1)
        apw = np.cumsum(abssec**e, axis=1)
        return [(float(pw[:cp, cp - 1].max()), e * float(apw[:cp, cp - 1].max())) for cp in cps]
    out = []
    if cond == "section-column-limits":
        for cp in cps:
            ts = tail_start(cp)
            cols = min(cp, ts + 1)
            sub = sec[ts:cp, :cols]
            out.append((float((sub.max(axis=0) - sub.min(axis=0)).max()),
                        2.0 * float(abssec[ts:cp, :cols].max())))
        return out
    arow = np.cumsum(abssec, axis=1)
    if cond == "section-row-sum-limit":
        row = np.cumsum(sec, axis=1)
        for cp in cps:
            sums = row[tail_start(cp):cp, cp - 1]
            out.append((float(sums.max() - sums.min()),
                        2.0 * float(arow[tail_start(cp):cp, cp - 1].max())))
        return out
    # section-abs-sum-match: tail abs row sums against the full window's row,
    # which is the section's last row over every column.
    absrow = np.cumsum(np.abs(sec), axis=1)
    ref, aref = float(absrow[-1, -1]), float(arow[-1, -1])
    for cp in cps:
        ts = tail_start(cp)
        out.append((float(np.abs(absrow[ts:cp, cp - 1] - ref).max()),
                    float(arow[ts:cp, cp - 1].max()) + aref))
    return out


def section_reports(reports, rows: np.ndarray, absrows: np.ndarray, e_ref: np.ndarray, what: str) -> None:
    """Section-family values recomputed densely, one row's section at a time.

    Section j has entry (m, k) = sum_{v=k..m} e_{v-k} phi_jv; a family value
    is the worst over the sections of that section's estimate.
    """
    wanted = [r for r in reports if r["condition"] in SECTION_CONDS]
    if not wanted:
        return
    n = rows.shape[1]
    te = toeplitz(e_ref, n)
    abs_te = np.abs(te)
    cps = [int(c) for c, _ in wanted[0]["values"]]
    best = {id(r): [[0.0, 0.0] for _ in cps] for r in wanted}
    for j in range(rows.shape[0]):
        sec = np.cumsum(te * rows[j][:, None], axis=0)
        abssec = np.cumsum(abs_te * absrows[j][:, None], axis=0)
        for r in wanted:
            got = section_values(r["condition"], sec, abssec, cps, r["detail"].get("exponent"))
            for slot, (ref, scale) in zip(best[id(r)], got):
                slot[0], slot[1] = max(slot[0], ref), max(slot[1], scale)
    for r in wanted:
        require([int(c) for c, _ in r["values"]] == cps, f"{what}:{r['condition']}:windows")
        for (_, v), (ref, scale) in zip(r["values"], best[id(r)]):
            close(v, ref, scale, f"{what}:{r['condition']}")
