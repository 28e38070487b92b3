"""Sequence-space machinery over the matrix domain of the q-difference operator.

A window g belongs to the operator's domain space for exponent p exactly
when its forward transform h lies in the corresponding classical space, and
the domain norm of g is by definition the classical norm of h.  That makes
the transform a linear bijection preserving the norm, which is all of the
isomorphism statement that is computable on finite windows.

Norm conventions follow the classical ones: for p >= 1 the norm is
``(sum |h_j|^p)^(1/p)``, for 0 < p < 1 the p-norm is ``sum |h_j|^p`` without
the root, and p = inf is the sup.  The basis vectors are the shifted
inverse-coefficient columns; expanding a transform h against them
reconstructs the original window, and that expansion is computed here as an
explicit basis sum so it stays an independent route from the inverse
transform it must agree with.

Membership in an infinite-sum condition can never be certified from a
finite window, so the diagnostics expose partial norms over growing
checkpoints and leave interpretation to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracdiff import (
    SeqWindow,
    _built,
    _check_int,
    _lower_toeplitz,
    apply_forward,
    inverse_coeffs,
)
from .qcore import QParam

__all__ = [
    "PExponent",
    "P_INF",
    "NormReport",
    "default_checkpoints",
    "lp_norm",
    "domain_norm",
    "schauder_basis_vector",
    "schauder_reconstruct",
    "membership_diagnostic",
]


@dataclass(frozen=True)
class PExponent:
    """Norm exponent: a positive real, or the sup-norm marker (value None).

    The marker keeps the infinite case out of arithmetic entirely; use
    :data:`P_INF` rather than a huge float.
    """

    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is None:
            return
        v = float(self.value)
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"p must be positive and finite, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def inf(cls) -> "PExponent":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "PExponent":
        t = text.strip().lower()
        if t in ("inf", "infinity", "oo"):
            return cls.inf()
        try:
            return cls(float(t))
        except ValueError as exc:
            raise ValueError(
                f"p must be a positive real or 'inf', got {text!r}"
            ) from exc

    @property
    def is_inf(self) -> bool:
        return self.value is None

    @property
    def conjugate(self) -> float:
        """Conjugate exponent p / (p - 1); defined only for 1 < p < inf."""
        if self.is_inf or not self.value > 1.0:
            raise ValueError(f"conjugate exponent requires 1 < p < inf, got {self}")
        return self.value / (self.value - 1.0)

    def __str__(self) -> str:
        return "inf" if self.is_inf else repr(self.value)


P_INF = PExponent.inf()
# Entries per chunk of rows (basis vectors in ``schauder_reconstruct``, section
# rows in ``duals._sections``): 512 KB, in cache and small next to the window.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class NormReport:
    """A norm value together with its growth profile over prefix windows."""

    value: float
    p: PExponent
    window: int
    partials: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.partials:
            raise ValueError("partials must be nonempty")
        lengths = [n for n, _ in self.partials]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("partial window lengths must be strictly increasing")

    def as_dict(self) -> dict:
        return {
            "p": str(self.p),
            "window": int(self.window),
            "value": float(self.value),
            "partials": [[int(n), float(v)] for n, v in self.partials],
        }


def default_checkpoints(n: int, start: int = 1) -> tuple[int, ...]:
    """Power-of-two lengths up to n (always ending at n itself)."""
    if n < 1:
        raise ValueError(f"window length must be ≥ 1, got {n}")
    cps: list[int] = []
    c = start
    while c < n:
        cps.append(c)
        c *= 2
    cps.append(n)
    return tuple(cps)


def _checkpoints(checkpoints, n: int, start: int = 1) -> tuple[int, ...]:
    """Given prefix lengths, checked to be integers rising strictly within
    [1, n], or the power-of-two defaults when None."""
    if checkpoints is None:
        return default_checkpoints(n, start)
    cps = tuple(checkpoints)
    if not all(c == int(c) for c in cps):
        raise ValueError(f"checkpoints must be integers, got {cps}")
    cps = tuple(map(int, cps))
    if not cps:
        raise ValueError("checkpoints must be nonempty")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    return cps


def _prefix_norms(h: np.ndarray, p: PExponent, cps: tuple[int, ...]) -> list[float]:
    """Classical norms of the prefixes h[:m], m in cps, in one pass.

    |h| and |h|^p are taken once; each prefix's sum is the sum of a leading
    slice of |h|^p, which gives the bits of that prefix's norm taken alone,
    and the sup norms are a running maximum over the maxima between
    checkpoints.  A root-sum whose plain sum overflows is taken again scaled
    by the prefix's max|h|; a norm that itself leaves double range raises
    OverflowError naming the prefix length.
    """
    a = np.abs(h[: cps[-1]])
    if p.is_inf:
        return np.maximum.accumulate(np.maximum.reduceat(a, (0, *cps[:-1]))).tolist()
    norms = []
    # Overflow is refused below, so numpy's warning is silenced.
    with np.errstate(over="ignore"):
        pw = a**p.value
        for m in cps:
            s = float(pw[:m].sum())
            if p.value >= 1.0:
                if math.isfinite(s):
                    s = s ** (1.0 / p.value)
                else:
                    top = float(a[:m].max())
                    s = top * float(np.sum((a[:m] / top) ** p.value)) ** (1.0 / p.value)
            if not math.isfinite(s):
                raise OverflowError(
                    f"the p = {p} norm of a {m}-entry window leaves double range"
                )
            norms.append(s)
    return norms


def lp_norm(h: SeqWindow, p: PExponent) -> float:
    """Classical norm of a window: root-sum for p >= 1, plain p-sum for
    0 < p < 1, sup for p = inf.

    A root-sum whose plain sum overflows is taken again scaled by max|h|;
    a norm that itself leaves double range raises OverflowError.
    """
    return _prefix_norms(h.values, p, (h.n,))[0]


def domain_norm(g: SeqWindow, order: float, qp: QParam, p: PExponent) -> NormReport:
    """Norm of g in the operator's matrix-domain space: the classical norm
    of its forward transform, profiled over power-of-two prefixes."""
    return membership_diagnostic(g, order, qp, p)


def schauder_basis_vector(k: int, order: float, qp: QParam, n: int) -> SeqWindow:
    """k-th basis vector of the domain space on an n-window.

    Entry j is the inverse coefficient e_{j-k} for j >= k and zero before;
    its forward transform is the unit impulse at position k.
    """
    n = _check_int("n", n, 1)
    if k != int(k) or not 0 <= k < n:
        raise IndexError(f"basis index k must satisfy 0 <= k < {n}, got {k!r}")
    k = int(k)
    vec = np.zeros(n, dtype=np.float64)
    vec[k:] = inverse_coeffs(order, qp, n - 1 - k).coeffs
    return _built(SeqWindow, None, values=vec)  # zeros and a finite stream


def schauder_reconstruct(h: SeqWindow, order: float, qp: QParam) -> SeqWindow:
    """Expand h against the basis vectors: sum_k h_k * (basis vector k).

    Computed as the explicit basis sum, not via the inverse transform, so
    the two routes can be compared against each other.  Basis vector k is
    the inverse stream shifted by k, row k of one Toeplitz view.  Chunks of
    rows h_k (basis vector k) are summed below the running total, in row
    order: an axis-0 reduction of a C-ordered array adds row after row, so
    every entry takes its terms in k order, as adding the vectors one by
    one does.
    """
    n = h.n
    stream = inverse_coeffs(order, qp, n - 1)
    e = stream.coeffs
    basis = _lower_toeplitz(e, n).T  # row k is basis vector k
    rows = max(1, _CHUNK_ENTRIES // n)
    buf = np.empty((rows + 1) * n)
    acc = np.zeros(n, dtype=np.float64)
    # A sum past double range is refused by ``_built``, so numpy's warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, rows):
            k1 = min(k0 + rows, n)
            # Entries before k0 take no term from these rows.
            block = buf[: (k1 - k0 + 1) * (n - k0)].reshape(k1 - k0 + 1, n - k0)
            block[0] = acc[k0:]
            np.multiply(h.values[k0:k1, None], basis[k0:k1, k0:], out=block[1:])
            np.add.reduce(block, axis=0, out=acc[k0:])
    return _built(SeqWindow, lambda: f"basis reconstruction of order {stream.order} at q = {qp.q}",
                  values=acc)


def membership_diagnostic(
    g: SeqWindow,
    order: float,
    qp: QParam,
    p: PExponent,
    checkpoints: tuple[int, ...] | list[int] | None = None,
) -> NormReport:
    """Partial domain norms of g at the given checkpoints.

    A finite window can never certify membership in an infinite-sum
    condition, so no verdict is attached: the growth profile is the report.
    It takes one pass: |h| and |h|^p once over the transform h, and each
    checkpoint's partial norm from a leading slice of them, the same bits as
    ``lp_norm`` on that prefix.  The first checkpoint whose norm leaves
    double range raises its OverflowError.
    """
    cps = _checkpoints(checkpoints, g.n)
    h = apply_forward(g, order, qp)
    partials = tuple(zip(cps, _prefix_norms(h.values, p, cps)))
    return NormReport(value=partials[-1][1], p=p, window=g.n, partials=partials)
