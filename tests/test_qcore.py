"""Tests for the q-arithmetic primitives.

Expected values for the product-based functions are frozen from a
high-precision mpmath oracle (recomputed live in the oracle tests); the
gamma recurrence and classical limits are checked against independent
routes (direct products, math.gamma).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from oracles import PoleError, q_binomial, q_factorial, q_gamma, q_gamma_ratio, q_pochhammer_inf
from qnabla.qcore import QParam, q_integer

QS = (0.2, 0.5, 0.9)
TS = (0.3, 0.5, 1.7, 2.5, 4.2)


def poch_oracle(x: float, q: float, factors: int = 80) -> float:
    """Direct high-precision truncated product, independent of the library."""
    with mpmath.workdps(50):
        return float(mpmath.fprod(1 - mpmath.mpf(x) * mpmath.mpf(q) ** j
                                  for j in range(factors)))


class TestQParam:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, float("nan"), float("inf")])
    def test_rejects_bad_q(self, bad):
        with pytest.raises(ValueError, match="q"):
            QParam(bad)


class TestQInteger:
    def test_zero(self):
        for q in QS:
            assert q_integer(0.0, QParam(q)) == 0.0

    def test_three_at_half(self):
        # 1 + 0.5 + 0.25
        assert q_integer(3.0, QParam(0.5)) == pytest.approx(1.75, abs=1e-15)

    def test_one(self):
        for q in QS:
            assert q_integer(1.0, QParam(q)) == 1.0
        # Exact at 0 and 1 on a seeded grid of q, scalar and array alike.
        for q in np.random.default_rng(21).uniform(1e-3, 0.9999, 20000):
            qp = QParam(float(q))
            assert q_integer(0.0, qp) == 0.0 and q_integer(1.0, qp) == 1.0
            assert q_integer(np.array([0.0, 1.0]), qp).tolist() == [0.0, 1.0]

    def test_integer_matches_geometric_sum(self):
        for q in QS:
            qp = QParam(q)
            for n in range(8):
                assert q_integer(float(n), qp) == pytest.approx(
                    sum(q**j for j in range(n)), rel=1e-14
                )

    def test_classical_limit(self):
        qp = QParam(1 - 1e-6)
        for t in np.linspace(0.1, 10.0, 34):
            assert abs(q_integer(float(t), qp) - t) <= 1e-4 * abs(t)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="t"):
            q_integer(float("nan"), QParam(0.5))

    @pytest.mark.parametrize("q", [1 - 1e-9, 1 - 1e-12])
    def test_near_one_matches_oracle(self, q):
        # (1 - q^t) / (1 - q) cancels about log10(1 / (1 - q)) digits.
        qp = QParam(q)
        for t in (0.3, 0.5, 1.7, 2.0, 4.2, 250.5):
            with mpmath.workdps(60):
                qm = mpmath.mpf(q)
                ref = float((1 - qm ** mpmath.mpf(t)) / (1 - qm))
            assert abs(q_integer(t, qp) - ref) <= 1e-14 * ref

    def test_array_matches_scalar(self):
        qp = QParam(0.83)
        t = np.array([0.0, 1.0, 2.5, 7.0])
        out = q_integer(t, qp)
        assert out[0] == 0.0 and out[1] == 1.0
        assert list(out) == [q_integer(float(v), qp) for v in t]
        # One value per (t, q) on a seeded grid, and a scalar comes back a float.
        rng = np.random.default_rng(22)
        for q, v in zip(rng.uniform(1e-3, 0.9999, 20000), rng.uniform(-50.0, 50.0, 20000)):
            qp = QParam(float(q))
            scalar = q_integer(float(v), qp)
            assert type(scalar) is float and scalar == q_integer(np.array([v]), qp)[0]


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, QParam(0.7)) == 1.0

    def test_small_values_at_half(self):
        qp = QParam(0.5)
        assert q_factorial(2, qp) == pytest.approx(1.5, rel=1e-14)
        assert q_factorial(3, qp) == pytest.approx(2.625, rel=1e-14)

    def test_matches_direct_product(self):
        for q in QS:
            qp = QParam(q)
            direct = 1.0
            for n in range(1, 10):
                direct *= (1 - q**n) / (1 - q)
                assert q_factorial(n, qp) == pytest.approx(direct, rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1, QParam(0.5))


class TestQBinomial:
    def test_edge_values(self):
        qp = QParam(0.37)
        assert q_binomial(0, 0, qp) == 1.0
        assert q_binomial(5, 0, qp) == 1.0
        assert q_binomial(5, 5, qp) == 1.0
        assert q_binomial(2, 3, qp) == 0.0

    def test_two_choose_one(self):
        assert q_binomial(2, 1, QParam(0.5)) == pytest.approx(1.5, rel=1e-14)

    def test_symmetry(self):
        for q in QS:
            qp = QParam(q)
            for mu in range(9):
                for nu in range(mu + 1):
                    lhs = q_binomial(mu, mu - nu, qp)
                    rhs = q_binomial(mu, nu, qp)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestQPochhammer:
    def test_zero_argument(self):
        for q in QS:
            assert q_pochhammer_inf(0.0, QParam(q)) == 1.0

    def test_vanishes_at_one(self):
        # The j = 0 factor is (1 - 1) = 0.
        assert q_pochhammer_inf(1.0, QParam(0.5)) == 0.0

    def test_euler_product_value(self):
        # (q, q)_inf at q = 0.5; frozen from the 80-factor 50-digit oracle.
        assert q_pochhammer_inf(0.5, QParam(0.5)) == pytest.approx(
            0.2887880950866024, rel=1e-12
        )

    def test_matches_high_precision_oracle(self):
        for q in QS:
            qp = QParam(q)
            for x in (-1.3, -0.4, 0.25, 0.8, float(q)):
                assert q_pochhammer_inf(x, qp) == pytest.approx(
                    poch_oracle(x, q, factors=500), rel=1e-12, abs=1e-14
                )

    def test_factor_shift_identity(self):
        # (x, q)_inf = (1 - x) * (xq, q)_inf
        for q in QS:
            qp = QParam(q)
            for x in (-0.7, 0.3, 0.9):
                lhs = q_pochhammer_inf(x, qp)
                rhs = (1 - x) * q_pochhammer_inf(x * q, qp)
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQGamma:
    def test_value_at_one(self):
        for q in QS:
            assert q_gamma(1.0, QParam(q)) == pytest.approx(1.0, rel=1e-13)

    def test_factorial_value(self):
        # gamma_q(4) is the q-factorial of 3: 2.625 at q = 0.5.
        assert q_gamma(4.0, QParam(0.5)) == pytest.approx(2.625, rel=1e-12)

    def test_matches_q_factorial(self):
        for q in QS:
            qp = QParam(q)
            for n in range(1, 9):
                fact = q_factorial(n, qp)
                assert abs(q_gamma(n + 1.0, qp) - fact) <= 1e-12 * fact

    def test_recurrence(self):
        for t in TS:
            for q in QS:
                qp = QParam(q)
                lhs = q_gamma(t + 1.0, qp)
                rhs = q_integer(t, qp) * q_gamma(t, qp)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            q_gamma(0.0, QParam(0.5))

    def test_pole_at_negative_integers(self):
        qp = QParam(0.5)
        for n in (-1.0, -3.0, -7.0):
            with pytest.raises(PoleError):
                q_gamma(n, qp)
        # Within eps of a pole also counts.
        with pytest.raises(PoleError):
            q_gamma(-2.0 + 1e-14, qp)

    def test_negative_noninteger_is_finite(self):
        val = q_gamma(-0.5, QParam(0.5))
        assert math.isfinite(val)

    def test_classical_limit(self):
        qp = QParam(1 - 1e-6)
        for t in (0.5, 1.5, 2.5, 4.0):
            ref = math.gamma(t)
            assert abs(q_gamma(t, qp) - ref) <= 1e-3 * ref

    def test_determinism(self):
        qp = QParam(0.73)
        assert q_gamma(2.31, qp) == q_gamma(2.31, qp)
        assert q_pochhammer_inf(0.4, qp) == q_pochhammer_inf(0.4, qp)


class TestQGammaRatio:
    def test_equal_arguments(self):
        assert q_gamma_ratio(2.0, 2.0, QParam(0.5)) == 1.0

    def test_denominator_pole_gives_zero(self):
        assert q_gamma_ratio(3.0, -1.0, QParam(0.5)) == 0.0
        assert q_gamma_ratio(0.5, 0.0, QParam(0.9)) == 0.0

    def test_recurrence_step(self):
        # gamma_q(2) / gamma_q(1) = [1]_q = 1
        assert q_gamma_ratio(2.0, 1.0, QParam(0.5)) == pytest.approx(1.0, rel=1e-13)

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            q_gamma_ratio(-2.0, 1.0, QParam(0.5))

    def test_agrees_with_quotient_when_pole_free(self):
        for q in QS:
            qp = QParam(q)
            for a, b in ((1.3, 0.4), (2.5, 2.5), (0.7, 3.2), (4.0, 1.5)):
                expect = q_gamma(a, qp) / q_gamma(b, qp)
                assert q_gamma_ratio(a, b, qp) == pytest.approx(expect, rel=1e-12)
