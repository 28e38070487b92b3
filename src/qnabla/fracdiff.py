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

The ratios are written into the output buffer behind c_0 and one in-place
cumprod runs over them.  Past lag floor(gamma) the forward factor
``-sign(gamma - k) q^min(k, gamma)`` is the constant q^gamma, taken once
from ``np.exp``; up to that lag the full formula runs.  For an integer
order r >= 0 the ratio at lag r is zero, so every later coefficient is
zero and no later ratio is taken.  Every stream, transform or window the
library computes is wrapped read-only by ``_built``, which scans it once
and refuses it with an OverflowError naming it if it left double range,
without the constructors' copy and checks; public construction keeps both.
A stream is checked by ``_stream`` itself, from its last entry.

The inverse stream deliberately has no ``q^{k(k-1)/2}`` twist: the two
generating functions are ``prod_j (1 - q^j x) / (1 - q^{gamma+j} x)`` and
its reciprocal (q-binomial theorem), so the streams convolve exactly to
the unit impulse.  ``verify_inverse`` measures that identity on a window,
and ``semigroup_defect`` measures how far composing two forward operators
is from the forward operator of the summed order (for q < 1 they genuinely
differ; the defect vanishes as q -> 1^-).

Truncation length is caller-supplied.  Every convolution cuts its operands
to their support (up to the last nonzero entry), so a stream of support K
costs O(n K) on an n-window.  A product of more than 2^18 multiply-adds is
a blocked lower triangular Toeplitz matmul: the longer operand cut into
rows of 64 entries, times one strided 64-by-64 view of the shorter one per
lag block, so it runs at BLAS rate in O(n + K) memory.  Smaller products,
and so every product on a window of 512 entries or fewer, stay on
``np.convolve`` bit for bit.  Both compute each output as one sum of the
same terms, in another order, so they differ in the last bits only.

Streams of a positive order never end, but past a short head they are
geometric: both are reciprocal q-binomial series (Gasper & Rahman, Basic
Hypergeometric Series, §1.3), so e_k tends to a constant and
c_k = C q^{gamma k} (1 + O(q^k)).  Transforms, ``compose_coeffs``
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
every window of 512 entries or fewer on it, or would not repay its scan:
counting each lag it drops over the outputs that lag reaches, it must save
16 multiply-adds per window entry for a cumsum and 64 for the matmul
scan.  K grows like
(37 + ln(1 / (1 - q))) / (1 - q), so for q within roughly 40/n of 1 the
head spans the window and the transform stays O(n^2), at BLAS rate.
``verify_inverse`` never splits: it is the meter of the inverse identity.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

from .qcore import QParam, _coerce, _require_finite

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
]


class MismatchedParameter(ValueError):
    """Two coefficient streams with different deformation parameters were combined."""


class Kind(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"
    COMPOSED = "composed"


_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class CoeffStream:
    """Finite prefix of operator coefficients; realizes a causal Toeplitz operator.

    ``order`` is None for streams produced by composition, which carry no
    single operator order of their own.  A forward or inverse stream holds
    the coefficients of its order, as ``forward_coeffs`` and
    ``inverse_coeffs`` build them (convolutions take its geometric tail
    from the order), else the constructor raises ValueError, or the
    builders' error for an order they refuse.  Other finite coefficients
    are ``Kind.COMPOSED``.  ``qp`` and ``kind`` may be a plain q and a value.
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
        qp, kind = _coerce(QParam, self.qp), Kind(self.kind)
        if kind is not Kind.COMPOSED and (self.order is None or not np.array_equal(
                c, _stream(kind, self.order, qp, c.size - 1).coeffs)):
            raise ValueError(f"coeffs are not the {kind.value} coefficients of order {self.order} "
                             f"at q = {qp.q}; other coefficients are Kind.COMPOSED")
        c.setflags(write=False)
        for name, value in (("coeffs", c), ("qp", qp), ("kind", kind)):
            object.__setattr__(self, name, value)

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
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def _check_int(name: str, n: int, minimum: int | None = None) -> int:
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # None, NaN, inf
        if n == int(n) and (minimum is None or n >= minimum):
            return int(n)
    rule = "" if minimum is None else f" ≥ {minimum}"
    raise ValueError(f"{name} must be an integer{rule}, got {n!r}")


def _built(cls, what, **fields):
    """A ``CoeffStream``, ``SeqWindow`` or ``MatrixWindow`` around arrays the
    library has just computed from finite inputs: each is scanned once and
    refused with ``OverflowError(f"{what()} leaves double range")`` if it
    left, then made read-only in place, with no copy and none of the
    constructors' checks.  ``what`` is called only on refusal, so the name
    is formatted only then; it is None only for arrays known finite.  Never
    pass it a view of a caller's writable array."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            if what is not None and not np.isfinite(value).all():
                raise OverflowError(f"{what()} leaves double range")
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _stream(kind: Kind, order: float, qp: QParam, k: int) -> CoeffStream:
    """Coefficients 0..K of one stream: the lag ratios written into the
    output buffer behind its leading 1, then one in-place cumprod."""
    qp = _coerce(QParam, qp)
    order = _require_finite("order", order)
    k = _check_int("truncation length", k, 0)
    logq = math.log(qp.q)
    m = k  # lags whose ratio is computed
    if kind is Kind.FORWARD:
        # Module notes: the full formula up to lag floor(order), the constant
        # q^order past it, and no ratio past an integer order's zero ratio.
        head = min(k, max(0, math.floor(order) + 1))
        if order >= 0.0 and order.is_integer():
            m = head
    lag = np.arange(m, dtype=np.float64)
    out = np.empty(k + 1)
    out[0] = 1.0
    out[m + 1 :] = 0.0
    done = out[: m + 1]
    ratio = done[1:]
    # Once the cumprod leaves double range it stays non-finite (a zero
    # ratio turns inf into NaN), so its last entry, not the zero fill after
    # it, alone tells whether the stream fits.
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is Kind.FORWARD:
            gap = order - lag
            ratio[:head] = -np.sign(gap[:head]) * np.exp(np.minimum(lag[:head], order) * logq)
            ratio[head:] = np.exp(np.array([order * logq]))
            ratio *= np.expm1(np.abs(gap) * logq)
        else:
            np.expm1((order + lag) * logq, out=ratio)
        ratio /= np.expm1((lag + 1.0) * logq)
        np.cumprod(done, out=done)
    if not math.isfinite(done[-1]):
        first = int(np.argmin(np.isfinite(out)))
        raise OverflowError(
            f"{kind.value} coefficient stream of order {order} at q = {qp.q} leaves "
            f"double range at lag {first}; the largest truncation that fits is "
            f"K = {first - 1}"
        )
    done[np.abs(done) < _TINY] = 0.0
    return _built(CoeffStream, None, order=order, qp=qp, kind=kind, coeffs=out)


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


_EPS = np.finfo(np.float64).eps
# Multiply-adds a product must exceed to leave ``np.convolve`` for the
# blocked kernel, and a head-plus-tail split must save over the direct
# product, counted as the lags it drops times the operand's support.  It is
# 512 * 512, so every product on a window of 512 entries or fewer stays on
# ``np.convolve``, bit for bit.  The kernel wins by 1.4x already on 64 taps
# over 8192 entries (2^19 multiply-adds).
#
# That count overstates what a split near the 40/n edge of q saves: the lags
# it drops lie near n, and lag j reaches only n - j outputs.  With the floor
# alone a forward split there (K = 765 of 1024, 1917 of 2048, 8157 of 8192)
# lost to the direct product by 22%, 18% and 6%.  ``_saved`` counts each
# lag over the outputs it reaches.  Per window entry, the split of the
# order-0.7 stream at q = 1 - 60/n, with its head cut at K = n - 1 - 64 b,
# against the direct product, both on the blocked kernel (one BLAS thread,
# 2-vCPU x86-64 VM, least time over 12 alternating rounds of 5 calls):
#
#             forward (matmul scan)           inverse (cumsum)
#       n    saved/n: split/direct time      saved/n: split/direct time
#    1024    50: 1.08  72: 1.00 128: 0.90    50: 0.81  72: 0.79 128: 0.70
#    2048    36: 1.02  64: 1.00 100: 0.93     9: 0.99  16: 0.97  36: 0.92
#    4096    25: 1.00  72: 0.94 128: 0.91     5: 1.00   8: 0.98  18: 0.96
#    8192    30: 1.00  64: 1.01 100: 0.97     9: 0.98  16: 0.97  64: 0.97
#
# So ``_repaid`` asks a split to save 64 multiply-adds per window entry with
# the matmul scan and 16 with the cumsum.  Far from the edge the lags it
# drops reach nearly every output, the two counts agree, and the floor
# decides as before.
_SPLIT_FLOOR = 1 << 18
# Block width of the Toeplitz matmul, measured on one BLAS thread: against
# widths 32 and 128 it is the fastest on dense 8192-entry products (2.8 ms
# against 3.4 and 3.4) and on 1000 taps over 8192 entries (0.62 ms against
# 0.71 and 0.77); 128 loses on short kernels, and 32 on dense 1024 entries.
_BLOCK = 64


def _causal(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the Cauchy product of a and b.

    Both operands are cut to their support first, so a stream of support K
    convolves in O(n K) rather than O(n^2).  A product of more than
    ``_SPLIT_FLOOR`` multiply-adds is a blocked Toeplitz matmul
    (``_blocked_causal``); smaller ones stay on ``np.convolve``.  Both take
    the shorter operand as the kernel, so swapping a and b changes no bit
    unless their supports have equal length.
    """
    a, b = _support(a[:n]), _support(b[:n])
    if a.size > b.size:
        a, b = b, a  # np.convolve swaps them back: the same call, bit for bit
    if a.size * b.size > _SPLIT_FLOOR:
        return _blocked_causal(a, b, n)
    head = np.convolve(a, b)[:n]
    out = np.zeros(n)
    out[: head.size] = head
    return out


def _blocked_causal(c: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the Cauchy product of a kernel c and an operand x
    no shorter than c, as a blocked lower triangular Toeplitz matmul.

    x is cut into rows of B = ``_BLOCK`` entries, X, and output row i is
    sum_l X[i - l] @ T_l.T with T_l[s, t] = c[B l + s - t], the strided
    views of ``_toeplitz_blocks``: memory stays O(n + m) for a kernel of m
    entries while the work runs as BLAS matmuls.  Each output is still one
    sum of the products c_{j-k} x_k, in another order.  Like
    ``np.convolve`` it lets a product leave double range silently; callers
    refuse what they cannot use.
    """
    width = _BLOCK
    blocks = _toeplitz_blocks(c, width, -(-(c.size - 1) // width) + 1)
    rows = -(-x.size // width)
    xs = np.zeros(rows * width)
    xs[: x.size] = x
    xs = xs.reshape(rows, width)
    out = np.zeros((-(-n // width), width))
    # Rows past the last one that x and c can reach stay zero.
    reach = -(-min(n, x.size + c.size - 1) // width)
    # BLAS takes no negative stride, so each block is copied once into a
    # contiguous buffer: B^2 entries against the r B^2 multiply-adds it serves.
    kernel = np.empty((width, width))
    with np.errstate(over="ignore", invalid="ignore"):
        for lag in range(min(len(blocks), reach)):
            r = min(reach - lag, rows)
            np.copyto(kernel, blocks[lag].T)
            out[lag : lag + r] += xs[:r] @ kernel
    return out.ravel()[:n]


def _saved(k: int, m: int, sx: int, n: int) -> int:
    """Multiply-adds a head of k + 1 < m lags saves on the first n terms of
    the product of a kernel of support m with an operand of support sx: lag
    j reaches min(n - j, sx) of them, so the lags near n reach few."""
    j = min(max(n - sx + 1, k + 1), m)  # lags from j on reach n - j outputs
    return sx * (j - k - 1) + (m - j) * (2 * n - j - m + 1) // 2


def _repaid(k: int, rho: float, m: int, sx: int, n: int) -> int:
    """``_saved`` if a split at head length k and tail ratio rho saves more
    than ``_SPLIT_FLOOR`` on the rectangle of its dropped lags and repays its
    scan (module notes), else 0."""
    saved = _saved(k, m, sx, n)
    scan = (16 if rho == 1.0 else _BLOCK) * n
    return saved if (m - k - 1) * sx > _SPLIT_FLOOR and saved > scan else 0


def _tail(stream: CoeffStream) -> tuple[int, float] | None:
    """Head length K and tail ratio rho of a stream (module notes), or None
    only for one with no geometric tail: orders <= 0, integer forward orders
    and composed streams.  ``_convolve`` decides whether a split repays.
    O(1) arithmetic: past lag K the stream is c_K rho^(k - K) to eps/4."""
    order = stream.order
    if order is None or not order > 0.0:
        return None
    logq = math.log(stream.qp.q)
    if stream.kind is Kind.INVERSE:
        a, b, rho = 1.0, order - 1.0, 1.0
    elif stream.kind is Kind.FORWARD and order != math.floor(order):
        a, b, rho = -order, order + 1.0, math.exp(order * logq)
    else:
        return None
    k = 0  # b = 0: the inverse stream of order 1 is all ones
    if b:
        # log |1 - q^b| without overflow: for b < 0, 1 - q^b = -q^b (1 - q^-b).
        log_gap = min(b, 0.0) * logq + math.log(-math.expm1(abs(b) * logq))
        bound = math.log(_EPS / 4.0) + 2.0 * math.log(-math.expm1(logq)) - log_gap
        k = max(0, math.ceil(bound / logq - a))
    return k, rho


def _powers(log_rho: float, count: int) -> np.ndarray:
    """rho^0 .. rho^(count-1), with powers below the smallest normal double
    set to zero as ``_stream`` sets its entries."""
    out = np.exp(np.arange(count) * log_rho)
    out[out < _TINY] = 0.0
    return out


def _toeplitz_blocks(col: np.ndarray, width: int, count: int = 1) -> np.ndarray:
    """Read-only views of width-by-width Toeplitz blocks T_0 .. T_{count-1}
    with T_l[s, t] = col[width l + s - t], zero outside ``col``; T_0 is lower
    triangular.  All share one zero-padded copy of col, O(width count)."""
    # padded[width - 1 + i] = col_i, zero elsewhere; T_l starts at
    # padded[width - 1 + width l] and steps +1 down a column, -1 along a row.
    padded = np.zeros(width * (count + 1) - 1)
    m = min(col.size, width * count)
    padded[width - 1 : width - 1 + m] = col[:m]
    step = padded.itemsize
    view = np.ndarray(
        (count, width, width), np.float64, padded, (width - 1) * step,
        (width * step, step, -step),
    )
    view.setflags(write=False)
    return view


def _lower_toeplitz(col: np.ndarray, n: int) -> np.ndarray:
    """Read-only n-by-n lower triangular Toeplitz view with entry (j, k) =
    col[j - k], zero past the end of ``col``."""
    return _toeplitz_blocks(col, n)[0]


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
    second stream: head plus geometric tail at the operand whose split saves
    the most multiply-adds, if any repays itself (``_repaid``, on the
    supports), else the direct convolution."""
    va = a.coeffs[:n]
    vb = (b.coeffs if isinstance(b, CoeffStream) else b)[:n]
    sa, sb = _support(va), _support(vb)
    best, split = 0, None
    for s, c, sc, sx, x in ((a, va, sa, sb, vb), (b, vb, sb, sa, va)):
        tail = _tail(s) if isinstance(s, CoeffStream) else None
        saved = 0 if tail is None else _repaid(*tail, sc.size, sx.size, n)
        if saved > best:
            best, split = saved, (c, sx, x, *tail)
    if split is None:
        return _causal(sa, sb, n)
    c, sx, x, k, rho = split
    out = _causal(c[: k + 1], sx, n)
    # Scaled before the scan, so it leaves double range only where the
    # transform does; the caller refuses a sum past range, as on the direct path.
    with np.errstate(over="ignore", invalid="ignore"):
        out[k + 1 :] += _geometric_scan((c[k] * rho) * x[: n - k - 1], rho)
    return out


def _apply(stream: CoeffStream, g: SeqWindow) -> SeqWindow:
    return _built(SeqWindow, lambda: (f"{stream.kind.value} transform of order {stream.order}"
                                      f" at q = {stream.qp.q}"),
                  values=_convolve(g.n, stream, g.values))


def apply_forward(g: SeqWindow, order: float, qp: QParam) -> SeqWindow:
    """Forward transform h_j = sum_{k<=j} c_{j-k} g_k over the window."""
    return _apply(forward_coeffs(order, qp, g.n - 1), g)


def apply_inverse(h: SeqWindow, order: float, qp: QParam) -> SeqWindow:
    """Inverse transform g_j = sum_{k<=j} e_{j-k} h_k over the window."""
    return _apply(inverse_coeffs(order, qp, h.n - 1), h)


def compose_coeffs(a: CoeffStream, b: CoeffStream) -> CoeffStream:
    """Cauchy convolution of two symbols, truncated to the shorter stream.

    This is the coefficient stream of the composed operator; both streams
    must share the same deformation parameter.  A product past double range
    raises OverflowError.
    """
    if a.qp.q != b.qp.q:
        raise MismatchedParameter(
            f"cannot compose streams with q = {a.qp.q!r} and q = {b.qp.q!r}"
        )
    n = min(a.coeffs.size, b.coeffs.size)
    return _built(CoeffStream, lambda: f"composed stream of {n} coefficients at q = {a.qp.q}",
                  order=None, qp=a.qp, kind=Kind.COMPOSED, coeffs=_convolve(n, a, b))


def verify_inverse(order: float, qp: QParam, n: int) -> float:
    """Max residual of (forward * inverse) against the unit impulse on lags < n.

    The streams are convolved directly, never split, since this is the
    meter of the inverse identity: one product ``_causal(c, e, n)``, the
    one the direct path of every transform computes.
    """
    n = _check_int("n", n, 1)
    c = forward_coeffs(order, qp, n - 1).coeffs
    e = inverse_coeffs(order, qp, n - 1).coeffs
    return float(np.max(np.abs(_causal(c, e, n) - np.eye(1, n)[0])))


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
