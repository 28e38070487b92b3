"""Fractional-order q-difference operators on finite sequence windows.

The forward operator of order gamma is the causal (lower triangular
Toeplitz) convolution ``h_j = sum_{k<=j} c_{j-k} g_k``, and its inverse
convolves with coefficients e_k.  With L = log q, each stream is one
``np.cumprod`` over bounded lag ratios,

    c_0 = 1,  c_{k+1} / c_k = -(q^k - q^gamma) / (1 - q^{k+1}),
    e_0 = 1,  e_{k+1} / e_k = [gamma + k]_q / [k + 1]_q,

where ``q^k - q^gamma = ±q^min(k, gamma) (1 - q^|k - gamma|)`` and every
``1 - q^t`` is ``-expm1(t L)``.  For a nonnegative order no ratio exceeds
1 / (1 - q), so no lag overflows and no digits cancel for q next to 1.
Integer gamma = r gives an exact zero ratio at lag r, recovering the
classical order-r q-difference operator (order 1 is ``g_j - g_{j-1}``).
Entries below the smallest normal double are set to zero: they carry no
relative precision and, as subnormals, would slow convolutions many times.

The inverse stream deliberately has no ``q^{k(k-1)/2}`` twist: the two
generating functions are ``prod_j (1 - q^j x) / (1 - q^{gamma+j} x)`` and
its reciprocal (q-binomial theorem), so the streams convolve exactly to
the unit impulse.  ``verify_inverse`` measures that identity on a window,
and ``semigroup_defect`` measures how far composing two forward operators
is from the forward operator of the summed order (for q < 1 they genuinely
differ; the defect vanishes as q -> 1^-).

Truncation length is caller-supplied.  Every convolution cuts its operands
to their support (up to the last nonzero entry), so a stream of support K
costs O(n K) on an n-window.  Streams of a positive order never end, but
past a short head they are geometric: both are reciprocal q-binomial series
(Gasper & Rahman, Basic Hypergeometric Series, §1.3), so e_k tends to a
constant and c_k = C q^{gamma k} (1 + O(q^k)).  Transforms, ``compose_coeffs``
and ``semigroup_defect`` therefore split such a stream at a head length K
with tail ratio rho (1 for the inverse stream, q^gamma for the forward one):

    g_j = (c[:K+1] * x)_j + c_K rho y_{j-K-1},   y_t = rho y_{t-1} + x_t,

where y is a cumsum for rho = 1 and a blocked matmul scan otherwise.  K is
the smallest lag with sum_{k>=K} |r_k / rho - 1| <= eps/4 over the lag
ratios r_k, taken from the closed-form bound q^(K+a) |1 - q^b| / (1 - q)^2
(a = 1, b = gamma - 1 for the inverse stream; a = -gamma, b = gamma + 1 for
the forward one), so the tail is exact to eps/4 relative and a transform
costs O(n K) plus the scan; it differs from the direct convolution in the
last bits only.  The direct convolution stays for orders <= 0, integer
forward orders (their support is already exact), composed streams, and
whenever the split would save fewer than 2^18 multiply-adds, which keeps
every window of 512 entries or fewer on it.  K grows like
(37 + ln(1 / (1 - q))) / (1 - q), so for q within roughly 40/n of 1 the
head spans the window and the transform stays O(n^2).  ``verify_inverse``
always convolves directly: it is the meter of the inverse identity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qcore import QParam, _require_finite

__all__ = [
    "Kind",
    "CoeffStream",
    "SeqWindow",
    "MismatchedParameter",
    "forward_coeffs",
    "inverse_coeffs",
    "apply_forward",
    "apply_inverse",
    "compose_coeffs",
    "verify_inverse",
    "semigroup_defect",
    "toeplitz_matrix",
]


class MismatchedParameter(ValueError):
    """Two coefficient streams with different deformation parameters were combined."""


class Kind(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"
    COMPOSED = "composed"


_TINY = np.finfo(np.float64).tiny


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CoeffStream:
    """Finite prefix of operator coefficients; realizes a causal Toeplitz operator.

    ``order`` is None for streams produced by composition, which carry no
    single operator order of their own.  A forward or inverse stream holds
    the coefficients of its order, as ``forward_coeffs`` and
    ``inverse_coeffs`` build them: convolutions take its geometric tail
    from the order.
    """

    order: float | None
    qp: QParam
    kind: Kind
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def truncation(self) -> int:
        """Largest retained lag K; the stream holds coefficients 0..K."""
        return self.coeffs.size - 1


@dataclass(frozen=True)
class SeqWindow:
    """Finite prefix (g_0, ..., g_{N-1}) of a sequence; entries at negative
    indices are implicitly zero."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.atleast_1d(np.array(self.values, dtype=np.float64))
        if v.ndim != 1 or v.size < 1:
            raise ValueError("window must be ≥ 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("window entries must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.size

    def prefix(self, n: int) -> "SeqWindow":
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length must be in [1, {self.n}], got {n}")
        return SeqWindow(self.values[:n])


def _check_int(name: str, n: int, minimum: int) -> int:
    if n != int(n) or n < minimum:
        raise ValueError(f"{name} must be an integer ≥ {minimum}, got {n!r}")
    return int(n)


def _stream(kind: Kind, order: float, qp: QParam, k: int) -> CoeffStream:
    """Coefficients 0..K of one stream: a single cumprod over the lag ratios."""
    order = _require_finite("order", order)
    k = _check_int("truncation length", k, 0)
    logq = math.log(qp.q)
    lag = np.arange(k, dtype=np.float64)
    # Only a negative order can overflow.  No ratio is zero or infinite
    # then, so once the cumprod leaves double range it stays non-finite and
    # the last entry alone tells whether the stream fits.
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
    out[np.abs(out) < _TINY] = 0.0
    return CoeffStream(order=order, qp=qp, kind=kind, coeffs=out)


def forward_coeffs(order: float, qp: QParam, k: int) -> CoeffStream:
    """Coefficients c_0..c_K of the order-``order`` forward operator."""
    return _stream(Kind.FORWARD, order, qp, k)


def inverse_coeffs(order: float, qp: QParam, k: int) -> CoeffStream:
    """Coefficients e_0..e_K of the order-``order`` inverse operator.

    All entries are nonnegative for order > 0 and tend to the finite
    constant prod_j (1 - q^{order+j}) / (1 - q^{1+j}) as K grows: past the
    head length of the module notes they are constant to eps/4 relative, so
    ``apply_inverse`` adds a cumsum of the window times that entry to a
    head convolution instead of convolving the whole stream.
    """
    return _stream(Kind.INVERSE, order, qp, k)


def _support(a: np.ndarray) -> np.ndarray:
    """``a`` up to its last nonzero entry (at least one entry)."""
    if a[-1] != 0.0:  # dense windows and undecayed streams: nothing to cut
        return a
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if nz.size else a[:1]


def _causal(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the Cauchy product of a and b.

    Both operands are cut to their support first, so a stream of support K
    convolves in O(n K) rather than O(n^2).
    """
    head = np.convolve(_support(a[:n]), _support(b[:n]))[:n]
    return np.pad(head, (0, n - head.size))


_EPS = np.finfo(np.float64).eps
# Multiply-adds a head-plus-tail split must save over the direct convolution
# to repay its fixed cost: a scan, a short-kernel convolution that costs tens
# of nanoseconds per output, and a few array passes.  It exceeds 512 * 511,
# so windows of 512 entries or fewer always keep the direct path.
_SPLIT_FLOOR = 1 << 18


def _tail(stream: CoeffStream, n: int) -> tuple[int, float] | None:
    """Head length K and tail ratio rho of a stream on an n-window (module
    notes), or None when no split can save ``_SPLIT_FLOOR`` multiply-adds.
    O(1) arithmetic: past lag K the stream is c_K rho^(k - K) to eps/4."""
    order = stream.order
    if order is None or not order > 0.0:
        return None
    logq = math.log(stream.qp.q)
    if stream.kind is Kind.INVERSE:
        a, b, rho = 1.0, order - 1.0, 1.0
    elif order != math.floor(order):
        a, b, rho = -order, order + 1.0, math.exp(order * logq)
    else:
        return None
    k = 0  # b = 0: the inverse stream of order 1 is all ones
    if b:
        # log |1 - q^b| without overflow: for b < 0, 1 - q^b = -q^b (1 - q^-b).
        log_gap = min(b, 0.0) * logq + math.log(-math.expm1(abs(b) * logq))
        bound = math.log(_EPS / 4.0) + 2.0 * math.log(-math.expm1(logq)) - log_gap
        k = max(0, math.ceil(bound / logq - a))
    return (k, rho) if (n - k - 1) * n > _SPLIT_FLOOR else None


def _powers(log_rho: float, count: int) -> np.ndarray:
    """rho^0 .. rho^(count-1), with powers below the smallest normal double
    set to zero as ``_stream`` sets its entries."""
    out = np.exp(np.arange(count) * log_rho)
    out[out < _TINY] = 0.0
    return out


def _lower_toeplitz(col: np.ndarray, n: int) -> np.ndarray:
    """Read-only n-by-n lower triangular Toeplitz view with entry (j, k) =
    col[j - k], zero past the end of ``col``."""
    # padded[n - 1 + i] = col_i, zero before; the view starts at
    # padded[n - 1] and steps +1 down a column and -1 along a row.
    padded = np.zeros(2 * n - 1, dtype=np.float64)
    m = min(n, col.size)
    padded[n - 1 : n - 1 + m] = col[:m]
    step = padded.itemsize
    view = np.ndarray((n, n), np.float64, padded, (n - 1) * step, (step, -step))
    view.setflags(write=False)
    return view


def _geometric_scan(x: np.ndarray, rho: float) -> np.ndarray:
    """y_t = rho y_{t-1} + x_t from y_{-1} = 0.

    A cumsum for rho = 1.  Otherwise two levels of blocked matmul over
    blocks of about sqrt(n): one Toeplitz matrix of rho^s scans every block
    at once, and one of rho^(B i) carries each block's last value into the
    blocks after it.  Every power is at most 1, so nothing grows.
    """
    if rho == 1.0:
        return np.cumsum(x)
    n = x.size
    width = math.isqrt(n - 1) + 1
    count = -(-n // width)
    log_rho = math.log(rho)
    powers = _powers(log_rho, width + 1)
    blocks = np.zeros(count * width)
    blocks[:n] = x
    blocks = blocks.reshape(count, width) @ _lower_toeplitz(powers, width).T
    carry = _lower_toeplitz(_powers(width * log_rho, count), count) @ blocks[:, -1]
    blocks[1:] += np.outer(carry[:-1], powers[1:])
    return blocks.ravel()[:n]


def _convolve(n: int, a: CoeffStream, b: CoeffStream | np.ndarray) -> np.ndarray:
    """First n terms of the Cauchy product of a stream with a window or a
    second stream: head plus geometric tail (module notes) at the operand
    whose split saves the most multiply-adds, if more than ``_SPLIT_FLOOR``,
    else the direct convolution."""
    va = a.coeffs[:n]
    vb = (b.coeffs if isinstance(b, CoeffStream) else b)[:n]
    best, split = _SPLIT_FLOOR, None
    for s, c, x in ((a, va, vb), (b, vb, va)):
        tail = _tail(s, n) if isinstance(s, CoeffStream) else None
        if tail is None:
            continue
        saved = (_support(c).size - tail[0] - 1) * _support(x).size
        if saved > best:
            best, split = saved, (c, x, *tail)
    if split is None:
        return _causal(va, vb, n)
    c, x, k, rho = split
    out = _causal(c[: k + 1], x, n)
    # Scaled before the scan, so it leaves double range only where the
    # transform does; the caller refuses a sum past range, as on the direct path.
    with np.errstate(over="ignore", invalid="ignore"):
        out[k + 1 :] += _geometric_scan((c[k] * rho) * x[: n - k - 1], rho)
    return out


def _apply(stream: CoeffStream, g: SeqWindow) -> SeqWindow:
    return SeqWindow(_convolve(g.n, stream, g.values))


def apply_forward(g: SeqWindow, order: float, qp: QParam) -> SeqWindow:
    """Forward transform h_j = sum_{k<=j} c_{j-k} g_k over the window."""
    return _apply(forward_coeffs(order, qp, g.n - 1), g)


def apply_inverse(h: SeqWindow, order: float, qp: QParam) -> SeqWindow:
    """Inverse transform g_j = sum_{k<=j} e_{j-k} h_k over the window."""
    return _apply(inverse_coeffs(order, qp, h.n - 1), h)


def compose_coeffs(a: CoeffStream, b: CoeffStream) -> CoeffStream:
    """Cauchy convolution of two symbols, truncated to the shorter stream.

    This is the coefficient stream of the composed operator; both streams
    must share the same deformation parameter.
    """
    if a.qp.q != b.qp.q:
        raise MismatchedParameter(
            f"cannot compose streams with q = {a.qp.q!r} and q = {b.qp.q!r}"
        )
    n = min(a.coeffs.size, b.coeffs.size)
    out = _convolve(n, a, b)
    return CoeffStream(order=None, qp=a.qp, kind=Kind.COMPOSED, coeffs=out)


def verify_inverse(order: float, qp: QParam, n: int) -> float:
    """Max residual of (forward * inverse) against the unit impulse on lags < n.

    Both convolution orderings are evaluated and the larger residual is
    returned; they coincide mathematically, so a gap between them would
    itself flag a defect.
    """
    n = _check_int("n", n, 1)
    c = forward_coeffs(order, qp, n - 1).coeffs
    e = inverse_coeffs(order, qp, n - 1).coeffs
    target = np.eye(1, n)[0]
    r1 = float(np.max(np.abs(_causal(c, e, n) - target)))
    r2 = float(np.max(np.abs(_causal(e, c, n) - target)))
    return max(r1, r2)


def semigroup_defect(mu: float, nu: float, qp: QParam, n: int) -> float:
    """Max coefficient gap between (order mu) ∘ (order nu) and order mu + nu.

    Strictly positive in general for q < 1: composing two forward operators
    is not the forward operator of the summed order.
    """
    mu = _require_finite("mu", mu)
    nu = _require_finite("nu", nu)
    n = _check_int("n", n, 2)
    composed = _convolve(n, forward_coeffs(mu, qp, n - 1), forward_coeffs(nu, qp, n - 1))
    direct = forward_coeffs(mu + nu, qp, n - 1).coeffs
    return float(np.max(np.abs(composed - direct)))


def toeplitz_matrix(stream: CoeffStream, n: int) -> np.ndarray:
    """Dense n-by-n lower triangular Toeplitz window of a coefficient stream.

    Entry (j, k) is coefficient j - k; lags beyond the stream's truncation
    are zero.
    """
    n = _check_int("n", n, 1)
    return _lower_toeplitz(stream.coeffs, n).copy()
