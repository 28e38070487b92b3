"""Sequence-space machinery over the matrix domain of the q-difference operator.

A window g belongs to the operator's domain space for exponent p exactly
when its forward transform h lies in the corresponding classical space, and
the domain norm of g is by definition the classical norm of h.  That makes
the transform a linear bijection preserving the norm, which is all of the
isomorphism statement that is computable on finite windows.

Norm conventions follow the classical ones: for p >= 1 the norm is
``(sum |h_j|^p)^(1/p)``, for 0 < p < 1 the p-norm is ``sum |h_j|^p`` without
the root, and p = inf is the sup.  The basis vectors are the shifted
inverse-coefficient columns, so expanding a transform h against them,
sum_k h_k (basis vector k), is the inverse transform e * h: reconstruction
is ``apply_inverse`` itself, its split product and its overflow refusal.

Membership in an infinite-sum condition can never be certified from a
finite window, so the diagnostics expose partial norms over growing
checkpoints and leave interpretation to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracdiff import SeqWindow, _built, _check_int, apply_forward, apply_inverse, inverse_coeffs
from .qcore import QParam, _coerce

__all__ = [
    "PExponent",
    "P_INF",
    "NormReport",
    "default_checkpoints",
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
    def parse(cls, text: str) -> "PExponent":
        t = text.strip().lower()
        if t in ("inf", "infinity", "oo"):
            return cls()
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


P_INF = PExponent()


@dataclass(frozen=True)
class NormReport:
    """A norm value together with its growth profile over prefix windows."""

    value: float
    p: PExponent
    window: int
    partials: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        _rising("partials", [n for n, _ in self.partials])

    def as_dict(self) -> dict:
        return {
            "p": str(self.p),
            "window": int(self.window),
            "value": float(self.value),
            "partials": [[int(n), float(v)] for n, v in self.partials],
        }


def default_checkpoints(n: int, start: int = 1) -> tuple[int, ...]:
    """Power-of-two lengths from ``start`` up to n (always ending at n itself)."""
    n = _check_int("window length", n)
    if n < 1:
        raise ValueError(f"window length must be ≥ 1, got {n}")
    cps: list[int] = []
    c = _check_int("start", start, 1)
    while c < n:
        cps.append(c)
        c *= 2
    cps.append(n)
    return tuple(cps)


def _rising(name: str, sizes) -> None:
    """The one window-size rule: a profile's sizes are nonempty and rise
    strictly; refusals say ``name``."""
    if not sizes:
        raise ValueError(f"{name} must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def _checkpoints(checkpoints, n: int, start: int = 1, name: str = "checkpoints") -> tuple[int, ...]:
    """Given prefix lengths, checked to be integers rising strictly within
    [1, n], or the power-of-two defaults when None; refusals say ``name``."""
    if checkpoints is None:
        return default_checkpoints(n, start)
    given = tuple(checkpoints)
    try:  # the one integer rule
        cps = tuple(_check_int(name, c) for c in given)
    except ValueError:
        raise ValueError(f"{name} must be integers, got {given}") from None
    _rising(name, cps)
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"{name} must lie in [1, {n}]")
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

    Basis vector k is the inverse stream shifted by k, so the expansion is
    the inverse transform e * h, and this returns ``apply_inverse(h, order,
    qp)``: its O(n K) split product, and its OverflowError naming order and
    q for a sum past double range.
    """
    return apply_inverse(h, order, qp)


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
    the classical norm of that prefix taken alone.  At order 0 the forward
    stream is [1, 0, 0, ...], so h is g and the value is g's classical norm.
    The first checkpoint whose norm leaves double range raises its
    OverflowError.
    """
    cps = _checkpoints(checkpoints, g.n)
    p = _coerce(PExponent, p)
    h = apply_forward(g, order, qp)
    partials = tuple(zip(cps, _prefix_norms(h.values, p, cps)))
    return NormReport(value=partials[-1][1], p=p, window=g.n, partials=partials)
