"""q-arithmetic primitives: the deformation parameter and q-brackets.

The q-bracket ``[t]_q = (1 - q^t) / (1 - q)`` of a real t is a pure
function of (t, :class:`QParam`).  It goes through
``expm1(t log q) / expm1(log q)``, which keeps full relative precision for q
next to 1 and hits [0]_q = 0 and [1]_q = 1 exactly.  Numerator and
denominator both come from numpy's ``np.expm1``, the kernel the coefficient
streams use, for a scalar t as for an array, so each (t, q) has one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QParam", "q_integer"]


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q in the open interval (0, 1)."""

    q: float

    def __post_init__(self) -> None:
        if not (isinstance(self.q, (int, float)) and math.isfinite(self.q)):
            raise ValueError("q must be a finite real number")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie strictly inside (0, 1), got {self.q!r}")


def _coerce(cls, value):
    """``value`` itself if it is a ``cls``, else ``cls(value)``: a plain float
    q or p becomes its type, and the type's own checks refuse an
    out-of-range value with ValueError."""
    return value if isinstance(value, cls) else cls(value)


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def q_integer(t: float | np.ndarray, qp: QParam) -> float | np.ndarray:
    """q-bracket [t]_q = (1 - q^t) / (1 - q) of a real t (or of each entry of an array).

    For nonnegative integer t this equals the finite geometric sum
    1 + q + ... + q^(t-1); it tends to t as q -> 1^-.  Evaluated as
    ``expm1(t log q) / expm1(log q)`` (see the module notes).
    """
    logq = math.log(_coerce(QParam, qp).q)
    if isinstance(t, np.ndarray):
        return np.expm1(t * logq) / np.expm1(logq)
    return float(np.expm1(_require_finite("t", t) * logq) / np.expm1(logq))
