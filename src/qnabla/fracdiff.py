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
costs O(n K) on an n-window rather than O(n^2).
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
    single operator order of their own.
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
    constant prod_j (1 - q^{order+j}) / (1 - q^{1+j}) as K grows.
    """
    return _stream(Kind.INVERSE, order, qp, k)


def _support(a: np.ndarray) -> np.ndarray:
    """``a`` up to its last nonzero entry (at least one entry)."""
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if nz.size else a[:1]


def _causal(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the Cauchy product of a and b.

    Both operands are cut to their support first, so a stream of support K
    convolves in O(n K) rather than O(n^2).
    """
    head = np.convolve(_support(a[:n]), _support(b[:n]))[:n]
    return np.pad(head, (0, n - head.size))


def _apply(stream: CoeffStream, g: SeqWindow) -> SeqWindow:
    return SeqWindow(_causal(stream.coeffs, g.values, g.n))


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
    out = _causal(a.coeffs, b.coeffs, n)
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
    composed = _causal(
        forward_coeffs(mu, qp, n - 1).coeffs, forward_coeffs(nu, qp, n - 1).coeffs, n
    )
    direct = forward_coeffs(mu + nu, qp, n - 1).coeffs
    return float(np.max(np.abs(composed - direct)))


def toeplitz_matrix(stream: CoeffStream, n: int) -> np.ndarray:
    """Dense n-by-n lower triangular Toeplitz window of a coefficient stream.

    Entry (j, k) is coefficient j - k; lags beyond the stream's truncation
    are zero.
    """
    n = _check_int("n", n, 1)
    # padded[n - 1 + i] = c_i, zero before, so row j reversed is the window
    # padded[j : j + n] and entry (j, k) is c_{j-k}.
    padded = np.zeros(2 * n - 1, dtype=np.float64)
    m = min(n, stream.coeffs.size)
    padded[n - 1 : n - 1 + m] = stream.coeffs[:m]
    return np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1].copy()
