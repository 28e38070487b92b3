"""Tests for the operator coefficient streams and window transforms."""

from __future__ import annotations

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    full_formula_stream,
    q_binomial,
    q_factorial,
    q_gamma_ratio,
    toeplitz_window,
)
from qnabla import fracdiff
from qnabla.fracdiff import (
    CoeffStream,
    Kind,
    MismatchedParameter,
    SeqWindow,
    apply_forward,
    apply_inverse,
    compose_coeffs,
    forward_coeffs,
    inverse_coeffs,
    semigroup_defect,
    verify_inverse,
)
from qnabla.duals import MatrixWindow, SubsetMode, alpha_dual_check, subset_sup
from qnabla.matclass import ClassQuery, Source, Target
from qnabla.qcore import QParam, q_integer
from qnabla.spaces import PExponent

FLOOR = fracdiff._SPLIT_FLOOR

GAMMAS = (0.3, 0.5, 1.0, 1.7, 2.0, 2.5)
QS = (0.2, 0.5, 0.9)
FRACTIONAL = (0.3, 0.5, 1.7, 2.5)

finite_seq = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)


class TestSeqWindow:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="window must be ≥ 1"):
            SeqWindow(np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SeqWindow(np.array([1.0, float("inf")]))

    def test_values_are_readonly(self):
        g = SeqWindow(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_results_are_readonly_and_own_their_entries(self):
        # Results the library builds skip the constructor's copy: none may
        # be writable or share memory with the caller's window.
        x = np.random.default_rng(5).standard_normal(600)
        g = SeqWindow(x)
        qp = QParam(0.9)
        for out in (apply_forward(g, 0.7, qp).values, apply_inverse(g, 0.7, qp).values,
                    apply_forward(g, 2.0, qp).values, forward_coeffs(0.7, qp, 9).coeffs):
            assert not out.flags.writeable
            assert not np.shares_memory(out, x) and not np.shares_memory(out, g.values)


class TestCoeffStream:
    def test_public_constructor_copies_and_freezes(self):
        c = np.array([1.0, -0.5, 0.25])
        stream = CoeffStream(None, QParam(0.5), Kind.COMPOSED, c)
        assert stream.truncation == 2
        assert stream.coeffs.tolist() == c.tolist()
        assert not stream.coeffs.flags.writeable
        assert not np.shares_memory(stream.coeffs, c)
        c[0] = 7.0  # the caller's array stays writable and apart
        assert stream.coeffs[0] == 1.0

    @pytest.mark.parametrize("coeffs, text", [
        ([], "coeffs must be a nonempty one-dimensional array"),
        (np.ones((2, 2)), "coeffs must be a nonempty one-dimensional array"),
        ([1.0, float("nan")], "coeffs must be finite"),
        ([1.0, float("inf")], "coeffs must be finite"),
    ])
    def test_public_constructor_refusals(self, coeffs, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            CoeffStream(0.5, QParam(0.5), Kind.FORWARD, coeffs)

    def test_forward_and_inverse_streams_hold_the_coefficients_of_their_order(self):
        # A hand-built inverse stream of other coefficients was trusted, and
        # its product took the geometric tail of its order: 100% off.
        qp, noise = QParam(0.6), np.random.default_rng(7).normal(size=4000)
        text = r"^coeffs are not the inverse coefficients of order 0\.5 at q = 0\.6; other coefficients are Kind\.COMPOSED$"
        with pytest.raises(ValueError, match=text):
            CoeffStream(0.5, qp, Kind.INVERSE, noise)
        with pytest.raises(ValueError, match="^coeffs are not the forward coefficients of order None"):
            CoeffStream(None, qp, Kind.FORWARD, [1.0])  # was a raw TypeError in the product
        with pytest.raises(ValueError, match="^order must be finite, got nan$"):
            CoeffStream(float("nan"), qp, Kind.FORWARD, [1.0])
        for build in (forward_coeffs, inverse_coeffs):
            lib = build(0.7, qp, 3999)
            stream = CoeffStream(0.7, 0.6, lib.kind.value, lib.coeffs)  # a plain q and kind
            assert stream.qp == qp and stream.kind is lib.kind
            assert stream.coeffs.tobytes() == lib.coeffs.tobytes()
        # Composed coefficients take no tail, whatever order they carry.
        b = forward_coeffs(0.7, qp, 3999)
        want = np.convolve(noise, b.coeffs)[:4000]
        for order in (None, 0.5):
            got = compose_coeffs(CoeffStream(order, qp, Kind.COMPOSED, noise), b).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_built_streams_report_their_truncation(self):
        assert forward_coeffs(0.5, QParam(0.5), 9).truncation == 9
        assert inverse_coeffs(0.5, QParam(0.5), 0).truncation == 0


class TestBuilt:
    """``_built`` is the one refusal for arrays the library computes."""

    def test_wraps_read_only_without_a_copy(self):
        out = np.array([1.0, 2.0])
        g = fracdiff._built(SeqWindow, lambda: "a window", values=out)
        assert g.values is out and not out.flags.writeable

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_refuses_a_non_finite_entry_by_name(self, bad):
        with pytest.raises(OverflowError, match="^the test window leaves double range$"):
            fracdiff._built(SeqWindow, lambda: "the test window", values=np.array([1.0, bad]))


class TestCheckInt:
    @pytest.mark.parametrize("value, minimum", [(2.5, 1), (0, 1), (-1, 0), (1.0000001, 1)])
    def test_refusals(self, value, minimum):
        with pytest.raises(ValueError,
                           match=rf"^n must be an integer ≥ {minimum}, got {value!r}$"):
            fracdiff._check_int("n", value, minimum)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), None, "3"])
    def test_values_that_are_not_real_integers_are_refused_by_name(self, bad):
        # inf raised OverflowError, NaN a ValueError and None a TypeError,
        # each from int() and naming neither the argument nor the rule.
        def refused(name):
            text = f"^{name} must be an integer ≥ 1, got {re.escape(repr(bad))}$"
            return pytest.raises(ValueError, match=text)

        with refused("n"):
            verify_inverse(0.5, QParam(0.5), bad)
        for mode in SubsetMode:
            with refused("row_limit"):
                subset_sup(MatrixWindow(np.eye(4)), 1.0, mode, bad)
        with refused("window"):
            ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(1.0), 0.5, QParam(0.5), window=bad)
        text = rf"^row_limits must be integers, got \({re.escape(repr(bad))},\)$"
        with pytest.raises(ValueError, match=text):
            alpha_dual_check(SeqWindow(np.ones(8)), 1.0, QParam(0.5), PExponent(2.0), [bad])

    def test_integral_values_come_back_as_int(self):
        for value in (3, 3.0, np.int64(3), np.float64(3.0)):
            out = fracdiff._check_int("n", value, 1)
            assert out == 3 and type(out) is int


class TestForwardCoeffs:
    def test_order_one_is_backward_difference(self):
        for q in QS:
            c = forward_coeffs(1.0, QParam(q), 6).coeffs
            assert c[0] == 1.0 and c[1] == -1.0
            assert np.all(c[2:] == 0.0)

    def test_order_two(self):
        for q in QS:
            c = forward_coeffs(2.0, QParam(q), 6).coeffs
            assert abs(c[1] + (1.0 + q)) <= 1e-12
            assert abs(c[2] - q) <= 1e-12
            assert np.all(c[3:] == 0.0)

    def test_order_zero_is_identity(self):
        c = forward_coeffs(0.0, QParam(0.5), 5).coeffs
        assert c[0] == 1.0 and np.all(c[1:] == 0.0)

    def test_half_order_first_lag(self):
        # c_1 = -[1/2]_q = -(1 - 0.5) / 0.75 at q = 0.25
        c = forward_coeffs(0.5, QParam(0.25), 3).coeffs
        assert c[1] == pytest.approx(-2.0 / 3.0, rel=1e-12)

    def test_recurrence_matches_closed_form(self):
        # Independent route: signed q-power times gamma-ratio over q-factorial.
        for gamma in FRACTIONAL:
            for q in QS:
                qp = QParam(q)
                c = forward_coeffs(gamma, qp, 25).coeffs
                for k in range(26):
                    direct = (
                        (-1) ** k
                        * q ** (k * (k - 1) // 2)
                        * q_gamma_ratio(gamma + 1.0, gamma - k + 1.0, qp)
                        / q_factorial(k, qp)
                    )
                    assert abs(c[k] - direct) <= 1e-10 * max(abs(direct), 1e-300)

    def test_integer_order_truncates_to_signed_q_binomials(self):
        for r in (1, 2, 3, 4):
            for q in QS:
                qp = QParam(q)
                c = forward_coeffs(float(r), qp, 10).coeffs
                assert np.count_nonzero(c) == r + 1
                for k in range(r + 1):
                    expect = (-1) ** k * q ** (k * (k - 1) // 2) * q_binomial(r, k, qp)
                    assert abs(c[k] - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_geometric_decay(self):
        for gamma in FRACTIONAL:
            for q in QS:
                qp = QParam(q)
                c = forward_coeffs(gamma, qp, 25).coeffs
                k0 = math.ceil(gamma) + 3
                rate = q**gamma + 0.1
                for k in range(k0 + 1, 26):
                    assert abs(c[k]) <= abs(c[k0]) * rate ** (k - k0)

    def test_classical_limit(self):
        qp = QParam(1 - 1e-5)
        for gamma in (0.5, 1.5):
            c = forward_coeffs(gamma, qp, 10).coeffs
            for k in range(11):
                classical = (
                    (-1) ** k
                    * math.gamma(gamma + 1)
                    / (math.gamma(k + 1) * math.gamma(gamma - k + 1))
                )
                assert abs(c[k] - classical) <= 1e-3 * abs(classical)


class TestInverseCoeffs:
    def test_order_one_is_partial_sum_operator(self):
        e = inverse_coeffs(1.0, QParam(0.5), 8).coeffs
        assert np.all(e == 1.0)

    def test_first_lag_is_q_bracket(self):
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                e = inverse_coeffs(gamma, qp, 1).coeffs
                assert e[1] == pytest.approx(q_integer(gamma, qp), rel=1e-14)

    def test_order_zero_is_identity(self):
        e = inverse_coeffs(0.0, QParam(0.7), 5).coeffs
        assert e[0] == 1.0 and np.all(e[1:] == 0.0)

    def test_nonnegative_for_positive_order(self):
        for gamma in GAMMAS:
            for q in QS:
                assert np.all(inverse_coeffs(gamma, QParam(q), 30).coeffs >= 0.0)

    def test_matches_rising_ratio_oracle(self):
        # e_k = [gamma]_q ... [gamma+k-1]_q / [k]_q! via gamma ratios.
        for gamma in FRACTIONAL:
            for q in QS:
                qp = QParam(q)
                e = inverse_coeffs(gamma, qp, 20).coeffs
                for k in range(21):
                    direct = q_gamma_ratio(gamma + k, gamma, qp) / q_gamma_ratio(
                        k + 1.0, 1.0, qp
                    )
                    assert abs(e[k] - direct) <= 1e-12 * max(abs(direct), 1e-300)


class TestApply:
    def test_difference_of_constant(self):
        out = apply_forward(SeqWindow(np.ones(4)), 1.0, QParam(0.5))
        assert np.array_equal(out.values, [1.0, 0.0, 0.0, 0.0])

    def test_impulse_response_is_coefficients(self):
        qp = QParam(0.5)
        g = SeqWindow(np.array([1.0, 0.0, 0.0, 0.0]))
        out = apply_forward(g, 2.0, qp)
        assert np.allclose(out.values, [1.0, -1.5, 0.5, 0.0], atol=1e-12)

    def test_plain_float_q_is_its_type(self):
        # A float q failed with a raw AttributeError (no `.q`).
        g = SeqWindow(np.random.default_rng(7).normal(size=16))
        got = apply_forward(g, 0.7, 0.6).values
        assert got.tobytes() == apply_forward(g, 0.7, QParam(0.6)).values.tobytes()
        with pytest.raises(ValueError, match=r"^q must lie strictly inside \(0, 1\), got 1.5$"):
            apply_forward(g, 0.7, 1.5)

    def test_zero_window_maps_to_zero(self):
        out = apply_forward(SeqWindow(np.zeros(6)), 0.5, QParam(0.25))
        assert np.all(out.values == 0.0)

    def test_inverse_of_impulse_is_partial_sums(self):
        out = apply_inverse(SeqWindow(np.array([1.0, 0.0, 0.0, 0.0])), 1.0, QParam(0.5))
        assert np.array_equal(out.values, np.ones(4))

    def test_round_trip_on_grid(self):
        rng = np.random.default_rng(42)
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                g = SeqWindow(rng.uniform(-1, 1, 24))
                back = apply_inverse(apply_forward(g, gamma, qp), gamma, qp)
                assert np.max(np.abs(back.values - g.values)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(data=finite_seq, alpha=st.floats(-5, 5, allow_nan=False),
           beta=st.floats(-5, 5, allow_nan=False))
    def test_linearity(self, data, alpha, beta):
        qp = QParam(0.5)
        rng = np.random.default_rng(len(data))
        g = np.asarray(data)
        h = rng.uniform(-100, 100, g.size)
        lhs = apply_forward(SeqWindow(alpha * g + beta * h), 0.7, qp).values
        rhs = (
            alpha * apply_forward(SeqWindow(g), 0.7, qp).values
            + beta * apply_forward(SeqWindow(h), 0.7, qp).values
        )
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestToeplitzStructure:
    def test_constant_diagonals(self):
        stream = forward_coeffs(1.3, QParam(0.6), 9)
        m = fracdiff._lower_toeplitz(stream.coeffs, 10)
        assert np.array_equal(m[1:, 1:], m[:-1, :-1])
        assert np.all(np.triu(m, k=1) == 0.0)

    def test_entries_are_lagged_coefficients(self):
        # Entry (j, k) is c_{j-k}; lags past the stream's truncation are zero.
        stream = inverse_coeffs(0.8, QParam(0.4), 5)
        m = fracdiff._lower_toeplitz(stream.coeffs, 9)
        for j in range(9):
            for k in range(9):
                lag = j - k
                expect = stream.coeffs[lag] if 0 <= lag <= 5 else 0.0
                assert m[j, k] == expect
        assert np.array_equal(toeplitz_window(stream, 9), m)

    def test_window_is_one_read_only_view(self):
        # The n x n window is a read-only strided view of O(n) coefficients.
        stream = inverse_coeffs(0.7, QParam(0.5), 63)
        m = fracdiff._lower_toeplitz(stream.coeffs, 64)
        assert not m.flags.writeable
        assert m.base.nbytes < 2 * 64 * m.itemsize


class TestCompose:
    def test_identity_element(self):
        qp = QParam(0.5)
        fwd = forward_coeffs(1.7, qp, 8)
        ident = forward_coeffs(0.0, qp, 8)
        composed = compose_coeffs(fwd, ident)
        assert composed.kind is Kind.COMPOSED
        assert np.array_equal(composed.coeffs, fwd.coeffs)

    def test_forward_inverse_collapse_to_impulse(self):
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                c = compose_coeffs(
                    forward_coeffs(gamma, qp, 20), inverse_coeffs(gamma, qp, 20)
                ).coeffs
                target = np.zeros(21)
                target[0] = 1.0
                assert np.max(np.abs(c - target)) <= 1e-10

    def test_half_order_self_composition_first_lag(self):
        qp = QParam(0.25)
        half = forward_coeffs(0.5, qp, 4)
        composed = compose_coeffs(half, half).coeffs
        assert composed[1] == pytest.approx(-4.0 / 3.0, rel=1e-12)
        assert composed[1] == pytest.approx(-2.0 * q_integer(0.5, qp), rel=1e-12)

    def test_product_past_double_range_is_an_overflow(self):
        # Both streams fit (c_2050 is about 1.6e308); their product does not.
        a = forward_coeffs(-0.5, QParam(0.5), 2050)
        with pytest.raises(OverflowError, match="composed stream of 2051 coefficients"):
            compose_coeffs(a, a)

    def test_mismatched_q_rejected(self):
        a = forward_coeffs(0.5, QParam(0.25), 4)
        b = forward_coeffs(0.5, QParam(0.5), 4)
        with pytest.raises(MismatchedParameter):
            compose_coeffs(a, b)

    def test_second_lag_closed_form_pitfall(self):
        # The half-order self-composition has second-lag coefficient
        # 2 c_2 + c_1^2.  The tempting closed form (1 + 5q - 4 sqrt(q)) /
        # ((1+q)(1-q)^2) is NOT equal to it; hand expansions go wrong here,
        # so the mismatch is pinned down rather than trusted.
        for q in (0.25, 0.5, 0.9):
            qp = QParam(q)
            half = forward_coeffs(0.5, qp, 4).coeffs
            composed = compose_coeffs(
                forward_coeffs(0.5, qp, 4), forward_coeffs(0.5, qp, 4)
            ).coeffs
            by_hand = 2.0 * half[2] + half[1] ** 2
            assert composed[2] == pytest.approx(by_hand, rel=1e-12)
            printed = (1 + 5 * q - 4 * math.sqrt(q)) / ((1 + q) * (1 - q) ** 2)
            assert abs(composed[2] - printed) > 0.1


class TestVerifyInverse:
    def test_order_one_telescopes_exactly(self):
        for q in QS:
            assert verify_inverse(1.0, QParam(q), 20) == 0.0

    def test_grid(self):
        for gamma in GAMMAS:
            for q in QS:
                assert verify_inverse(gamma, QParam(q), 30) <= 1e-10

    def test_both_orderings_coincide(self):
        # Convolution commutes; the two orderings differ only by float
        # summation order, so their residuals must agree at rounding level.
        for gamma in (0.5, 1.7, 2.5):
            for q in QS:
                qp = QParam(q)
                c = forward_coeffs(gamma, qp, 29).coeffs
                e = inverse_coeffs(gamma, qp, 29).coeffs
                r1 = np.convolve(c, e)[:30]
                r2 = np.convolve(e, c)[:30]
                assert np.max(np.abs(r1 - r2)) <= 1e-12

    @pytest.mark.parametrize(
        "gamma,q,n",
        [
            (2.0, 0.5, 3000),  # forward support 3, inverse support n
            (0.7, 0.05, 3000),  # forward stream underflows to zero early
            (0.7, 0.9, 3000),  # both supports span the window
            (1.7, 0.5, 40),
        ],
    )
    def test_one_product_for_any_supports(self, gamma, q, n, monkeypatch):
        qp = QParam(q)
        c = forward_coeffs(gamma, qp, n - 1).coeffs
        e = inverse_coeffs(gamma, qp, n - 1).coeffs
        residual = np.max(np.abs(fracdiff._causal(c, e, n) - np.eye(1, n)[0]))
        convs = TestHeadTailSplit._counting(monkeypatch, "_causal")
        assert verify_inverse(gamma, qp, n) == residual
        assert len(convs) == 1

    def test_against_dense_matrix_product(self):
        # Independent oracle: multiply the dense triangular windows and
        # compare against the identity window.
        for gamma, q in ((0.5, 0.5), (2.5, 0.9), (1.7, 0.2)):
            qp = QParam(q)
            fwd = toeplitz_window(forward_coeffs(gamma, qp, 29), 30)
            inv = toeplitz_window(inverse_coeffs(gamma, qp, 29), 30)
            assert np.max(np.abs(fwd @ inv - np.eye(30))) <= 1e-10
            assert np.max(np.abs(inv @ fwd - np.eye(30))) <= 1e-10


class TestSemigroupDefect:
    def test_identity_composition_has_no_defect(self):
        assert semigroup_defect(0.0, 0.7, QParam(0.5), 10) == 0.0

    def test_half_plus_half_witness(self):
        # Analytic first-lag value |-2 [1/2]_q + [1]_q| = 1/3 at q = 1/4.
        defect = semigroup_defect(0.5, 0.5, QParam(0.25), 8)
        assert defect >= 0.333

    def test_one_plus_one(self):
        # (1,-1,0)*(1,-1,0) = (1,-2,1) against (1, -(1+q), q): gap 1 - q.
        assert semigroup_defect(1.0, 1.0, QParam(0.5), 8) == pytest.approx(0.5)

    def test_defect_vanishes_classically(self):
        assert semigroup_defect(0.5, 0.5, QParam(1 - 1e-4), 7) <= 1e-3


def stream_oracle(kind: str, gamma: float, q: float, m: int, dps: int = 60) -> list:
    """First m forward or inverse coefficients by the recurrence in mpmath."""
    with mpmath.workdps(dps):
        qm, g = mpmath.mpf(q), mpmath.mpf(gamma)

        def br(t):
            return (1 - qm**t) / (1 - qm)

        out = [mpmath.mpf(1)]
        for i in range(m - 1):
            if kind == "forward":
                out.append(-out[-1] * qm**i * br(g - i) / br(i + 1))
            else:
                out.append(out[-1] * br(g + i) / br(i + 1))
        return out


class TestStreamRange:
    """Streams across the whole parameter range: q next to 1, long windows,
    deep tails and large orders."""

    @pytest.mark.parametrize("q", [1 - 1e-9, 1 - 1e-12])
    @pytest.mark.parametrize("kind", ["forward", "inverse"])
    def test_near_one_matches_oracle(self, q, kind):
        build = forward_coeffs if kind == "forward" else inverse_coeffs
        got = build(0.5, QParam(q), 40).coeffs
        ref = np.array([float(v) for v in stream_oracle(kind, 0.5, q, 41)])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_long_window_past_overflow_lag(self):
        # q^(-k) overflows past k = 709.8 / ln 2, about 1,024 at q = 0.5.
        qp = QParam(0.5)
        g = SeqWindow(np.random.default_rng(3).standard_normal(5000))
        h = apply_forward(g, 0.5, qp)
        back = apply_inverse(h, 0.5, qp)
        assert np.all(np.isfinite(h.values)) and np.all(np.isfinite(back.values))
        assert verify_inverse(0.5, qp, 5000) <= 1e-12

    def test_underflowed_tail_is_zero(self):
        # |c_3985| is about 1e-425, far below the smallest double.
        c = forward_coeffs(2.035, QParam(0.8868), 3985).coeffs
        assert c[3985] == 0.0

    def test_long_tail_matches_oracle(self):
        c = forward_coeffs(0.7, QParam(0.93), 6999).coeffs
        ref = float(stream_oracle("forward", 0.7, 0.93, 7000, dps=30)[-1])
        assert abs(ref + 1.0726e-157) <= 1e-4 * 1.0726e-157
        assert abs(c[6999] - ref) <= 1e-11 * abs(ref)

    def test_no_subnormal_entries(self):
        tiny = np.finfo(np.float64).tiny
        streams = [forward_coeffs(800.0, QParam(0.2), 2000)]
        for gamma in (0.5, 2.035, 3.0):
            for q in (0.05, 0.5, 0.93):
                streams.append(forward_coeffs(gamma, QParam(q), 8000))
                streams.append(inverse_coeffs(-gamma, QParam(q), 300))
        for stream in streams:
            c = stream.coeffs
            assert np.all(np.isfinite(c))
            assert np.all((c == 0.0) | (np.abs(c) >= tiny))
        assert np.count_nonzero(streams[0].coeffs) > 1

    def test_negative_order_overflow_names_the_lag(self):
        # For a negative order the lag ratios tend to q^gamma, sqrt(2) here,
        # so c_k grows like 2^(k/2) and first leaves double range at lag 2051.
        with pytest.raises(OverflowError, match="order -0.5 at q = 0.5") as exc:
            forward_coeffs(-0.5, QParam(0.5), 3000)
        assert "lag 2051" in str(exc.value) and "K = 2050" in str(exc.value)

    def test_negative_order_largest_fitting_truncation(self):
        c = forward_coeffs(-0.5, QParam(0.5), 2050).coeffs
        assert np.all(np.isfinite(c)) and c[-1] > 1e307


class TestStreamBits:
    """The streams carry the bits of the full-formula builder of
    ``oracles.full_formula_stream``, whose forward factor takes sign, minimum
    and exp at every lag, and refuse what it refuses with the same text.
    The library relies on ``np.exp`` giving an entry the same bits at any
    position and array length."""

    ORDERS = (-2.5, -1.0, -0.3, 0.0, 0.1, 0.7, 1.0, 2.0, 2.97, 3.0, 10.0)
    QS = (1e-3, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12)
    KS = (0, 1, 2, 3, 3000)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("kind", [Kind.FORWARD, Kind.INVERSE])
    def test_bytes_match_the_full_formula(self, kind, order):
        build = forward_coeffs if kind is Kind.FORWARD else inverse_coeffs
        refused = 0
        for q, k in itertools.product(self.QS, self.KS):
            qp = QParam(q)
            try:
                want = full_formula_stream(kind, order, qp, k)
            except OverflowError as exc:
                with pytest.raises(OverflowError) as got:
                    build(order, qp, k)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            assert build(order, qp, k).coeffs.tobytes() == want.tobytes()
        # Only forward streams of a negative order leave double range.
        assert (refused > 0) == (kind is Kind.FORWARD and order < 0.0)

    @pytest.mark.parametrize("order", [5000.0, 5000.5])
    def test_a_large_positive_order_is_refused(self, order):
        # |c_k| passes 1e308 near lag 388 at q = 0.999; an integer order's
        # zero ratio then gives NaN at lag 5001, with zeros after it.
        qp = QParam(0.999)
        with pytest.raises(OverflowError) as want:
            full_formula_stream(Kind.FORWARD, order, qp, 20000)
        with pytest.raises(OverflowError, match=re.escape(str(want.value))):
            forward_coeffs(order, qp, 20000)


class TestHeadTailSplit:
    """Transforms split into a short head and a geometric tail must agree
    with the direct convolution, and must stay off it where it is exact or
    no cheaper."""

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        inner = getattr(fracdiff, name)

        def wrapper(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(fracdiff, name, wrapper)
        return calls

    @pytest.mark.parametrize("n", [1024, 8192])
    def test_matches_direct_convolution(self, n, monkeypatch):
        scans = self._counting(monkeypatch, "_geometric_scan")
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        g = SeqWindow(x)
        for q in (0.05, 0.5, 0.9, 0.99, 0.995):
            qp = QParam(q)
            mixed = inverse_coeffs(1.3, qp, n - 1)
            for gamma in (0.1, 0.7, 2.5, 5.3):
                fwd = forward_coeffs(gamma, qp, n - 1)
                inv = inverse_coeffs(gamma, qp, n - 1).coeffs
                cases = [
                    (apply_forward(g, gamma, qp).values, fwd.coeffs, x),
                    (apply_inverse(g, gamma, qp).values, inv, x),
                    (compose_coeffs(fwd, mixed).coeffs, fwd.coeffs, mixed.coeffs),
                ]
                for got, a, b in cases:
                    ref = fracdiff._causal(a, b, n)
                    scale = fracdiff._causal(np.abs(a), np.abs(b), n)
                    assert np.all(np.abs(got - ref) <= 1e-13 * scale), (q, gamma)
        assert len(scans) >= 30  # the split ran on at least half of the 60 cases

    def test_integer_inverse_orders(self):
        # Order 1 is all ones (head length 0, a plain cumsum); order 2 tends
        # to 1 / (1 - q).
        x = np.random.default_rng(5).standard_normal(4096)
        for gamma in (1.0, 2.0):
            qp = QParam(0.7)
            e = inverse_coeffs(gamma, qp, 4095)
            assert fracdiff._repaid(*fracdiff._tail(e), 4096, 4096, 4096)
            got = apply_inverse(SeqWindow(x), gamma, qp).values
            ref = fracdiff._causal(e.coeffs, x, 4096)
            scale = fracdiff._causal(e.coeffs, np.abs(x), 4096)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_inverse_against_mpmath_oracle(self):
        n, q, gamma = 4096, 0.9, 0.7
        x = np.random.default_rng(17).standard_normal(n)
        got = apply_inverse(SeqWindow(x), gamma, QParam(q)).values
        e = stream_oracle("inverse", gamma, q, n, dps=30)
        with mpmath.workdps(30):
            for j in (0, 1, 377, 2048, n - 1):
                exact = mpmath.fsum(e[j - k] * mpmath.mpf(x[k]) for k in range(j + 1))
                scale = mpmath.fsum(abs(e[j - k] * mpmath.mpf(x[k])) for k in range(j + 1))
                assert abs(got[j] - exact) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "kind,gamma,q,n",
        [
            ("forward", 2.0, 0.9, 8192),  # integer order: exact finite support
            ("forward", 3.0, 0.5, 4096),
            ("forward", -0.5, 0.9, 4096),  # negative orders
            ("inverse", -0.5, 0.9, 4096),
            ("forward", 0.7, 1 - 1e-7, 8192),  # q within 1e-6 of 1
            ("inverse", 0.7, 1 - 1e-7, 8192),
            ("forward", 0.7, 0.5, 256),  # short windows
            ("inverse", 0.7, 0.5, 256),
            ("forward", 0.7, 0.947833, 1024),  # near 40/n: repays no scan
        ],
    )
    def test_direct_path_where_split_does_not_apply(self, kind, gamma, q, n):
        qp = QParam(q)
        x = np.random.default_rng(n).standard_normal(n)
        build, apply = {
            "forward": (forward_coeffs, apply_forward),
            "inverse": (inverse_coeffs, apply_inverse),
        }[kind]
        stream = build(gamma, qp, n - 1)
        tail = fracdiff._tail(stream)
        assert tail is None or fracdiff._repaid(*tail, n, n, n) == 0
        direct = fracdiff._causal(stream.coeffs, x, n)
        assert np.array_equal(apply(SeqWindow(x), gamma, qp).values, direct)
        assert np.array_equal(compose_coeffs(stream, stream).coeffs,
                              fracdiff._causal(stream.coeffs, stream.coeffs, n))

    @pytest.mark.parametrize("q,n,k", [(0.947833, 1024, 765), (0.978418, 2048, 1917),
                                       (0.994717, 8192, 8157)])
    def test_split_declines_heads_that_do_not_repay_the_scan(self, q, n, k):
        # These heads drop more than the 2^18 floor's lags times entries, but
        # the dropped lags lie near n and reach few outputs: fewer than the
        # 64 multiply-adds per entry that the forward scan costs.
        stream = forward_coeffs(0.7, QParam(q), n - 1)
        assert fracdiff._tail(stream)[0] == k  # the head length itself
        assert (n - k - 1) * n > FLOOR
        assert fracdiff._saved(k, n, n, n) < 64 * n
        assert fracdiff._repaid(*fracdiff._tail(stream), n, n, n) == 0

    def test_split_runs_from_a_head_of_half_the_window(self):
        k, rho = fracdiff._tail(forward_coeffs(0.7, QParam(0.96052), 2047))
        assert k == 1023 and fracdiff._repaid(k, rho, 2048, 2048, 2048)

    def test_split_runs_on_a_short_support(self, monkeypatch):
        # The order-2.5 forward stream at q = 0.6 ends at lag 553, far from
        # n = 8192, so each of the 473 lags past its head of 81 reaches
        # nearly every entry; the split is about twice as fast as the direct
        # product here.
        scans = self._counting(monkeypatch, "_geometric_scan")
        n, qp = 8192, QParam(0.6)
        stream = forward_coeffs(2.5, qp, n - 1)
        assert fracdiff._support(stream.coeffs).size == 554
        assert fracdiff._tail(stream)[0] == 80
        x = np.random.default_rng(41).standard_normal(n)
        got = apply_forward(SeqWindow(x), 2.5, qp).values
        scale = fracdiff._causal(np.abs(stream.coeffs), np.abs(x), n)
        assert np.all(np.abs(got - fracdiff._causal(stream.coeffs, x, n)) <= 1e-13 * scale)
        assert len(scans) == 1

    def test_saved_counts_each_lag_over_the_outputs_it_reaches(self):
        for n in range(1, 25):
            for m, sx, k in itertools.product(range(1, n + 1), range(1, n + 1), range(n)):
                if k < m:
                    want = sum(min(n - j, sx) for j in range(k + 1, m))
                    assert fracdiff._saved(k, m, sx, n) == want, (k, m, sx, n)

    def test_no_split_up_to_512_entries(self):
        # So every window of 512 entries or fewer keeps its bits.
        for n in (2, 100, 511, 512):
            for k, rho in itertools.product(range(n), (1.0, 0.9)):
                assert not fracdiff._repaid(k, rho, n, n, n)

    def test_longer_supports_repay_where_shorter_ones_do(self):
        # `_convolve` decides a split on the supports alone: a split that
        # repays on supports m, sx <= n also repays on any longer ones, n, n
        # included, so a check on the cut lengths could never decline one.
        rng = np.random.default_rng(53)
        repaid = 0
        for _ in range(20000):
            n = int(rng.integers(1, (1 << 14) + 1))
            m, sx = (int(v) for v in rng.integers(1, n + 1, 2))
            m2, sx2 = int(rng.integers(m, n + 1)), int(rng.integers(sx, n + 1))
            k, rho = int(rng.integers(0, n + 1)), (1.0, 0.9)[int(rng.integers(2))]
            if fracdiff._repaid(k, rho, m, sx, n) > 0:
                repaid += 1
                assert fracdiff._repaid(k, rho, n, n, n) > 0, (k, rho, m, sx, n)
                assert fracdiff._repaid(k, rho, m2, sx2, n) > 0, (k, rho, m, sx, m2, sx2, n)
        assert repaid > 1000

    def test_head_is_short_at_moderate_q(self, monkeypatch):
        # A structural guard rather than a timing: at n = 8192, q = 0.9 every
        # transform convolves a head shorter than n / 10, so a regression to
        # the dense O(n^2) convolution fails here.
        n, gamma, qp = 8192, 0.7, QParam(0.9)
        for build in (forward_coeffs, inverse_coeffs):
            k, _ = fracdiff._tail(build(gamma, qp, n - 1))
            assert k < n / 10
        convs = self._counting(monkeypatch, "_causal")
        g = SeqWindow(np.random.default_rng(9).standard_normal(n))
        apply_forward(g, gamma, qp)
        apply_inverse(g, gamma, qp)
        compose_coeffs(forward_coeffs(gamma, qp, n - 1), inverse_coeffs(gamma, qp, n - 1))
        semigroup_defect(gamma, 0.4, qp, n)
        assert len(convs) == 4
        assert max(min(a.size, b.size) for a, b, _ in convs) < n / 10


def reference_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the Cauchy product by ``np.convolve`` alone."""
    out = np.convolve(a[:n], b[:n])[:n]
    return np.pad(out, (0, n - out.size))


class TestBlockedKernel:
    """``_causal`` above the floor is a blocked Toeplitz matmul; these check
    it against references that do not go through it."""

    @pytest.mark.parametrize("n", [513, 1000, 4097, 8192])
    def test_matches_numpy_convolve(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n + 7)  # longer than the window
        cut = x.copy()
        cut[n - 100 :] = 0.0  # trailing zeros, inside the window and past it
        blocked = 0
        for m in (1, 2, 63, 64, 65, 400, n):
            kernel = rng.standard_normal(m)
            padded = np.concatenate((kernel, np.zeros(5)))
            for a in (kernel, padded):
                for b in (x, cut):
                    sizes = fracdiff._support(a[:n]).size, fracdiff._support(b[:n]).size
                    blocked += sizes[0] * sizes[1] > FLOOR
                    scale = reference_product(np.abs(a), np.abs(b), n)
                    for lhs, rhs in ((a, b), (b, a)):
                        got = fracdiff._causal(lhs, rhs, n)
                        assert got.shape == (n,)
                        gap = np.abs(got - reference_product(lhs, rhs, n))
                        assert np.all(gap <= 1e-14 * scale), (m, lhs.size, rhs.size)
        assert blocked >= 2  # at least the full-length kernel

    @pytest.mark.parametrize("m,size", [(512, 512), (511, 513), (300, 800), (1, 5000)])
    def test_bit_identical_at_and_below_the_floor(self, m, size):
        assert m * size <= FLOOR
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal(m), rng.standard_normal(size)
        for lhs, rhs in ((a, b), (b, a)):
            assert np.array_equal(fracdiff._causal(lhs, rhs, size),
                                  reference_product(lhs, rhs, size))

    def test_dense_near_one_against_mpmath_oracle(self):
        # q within 40/n of 1: the head spans the window, so the transform is
        # one dense product of 8003 by 8003 entries.
        n, q, gamma = 8003, 1 - 3e-9, 0.7
        qp = QParam(q)
        assert fracdiff._repaid(*fracdiff._tail(forward_coeffs(gamma, qp, n - 1)), n, n, n) == 0
        x = np.random.default_rng(23).standard_normal(n)
        got = apply_forward(SeqWindow(x), gamma, qp).values
        c = stream_oracle("forward", gamma, q, n, dps=30)
        with mpmath.workdps(30):
            for j in (1, 64, 2500, 6001, n - 1):
                exact = mpmath.fsum(c[j - k] * mpmath.mpf(x[k]) for k in range(j + 1))
                scale = mpmath.fsum(abs(c[j - k] * mpmath.mpf(x[k])) for k in range(j + 1))
                assert abs(got[j] - exact) <= 1e-13 * scale, j

    def test_no_numpy_convolve_above_the_floor(self, monkeypatch):
        # A structural guard rather than a timing: a dense near-1 transform
        # and a split one at n = 8192 run every product above the floor on
        # the blocked kernel.
        sizes = []
        inner = np.convolve

        def counting(a, v, *args, **kwargs):
            sizes.append(len(a) * len(v))
            return inner(a, v, *args, **kwargs)

        monkeypatch.setattr(fracdiff.np, "convolve", counting)
        blocked = TestHeadTailSplit._counting(monkeypatch, "_blocked_causal")
        n, gamma = 8192, 0.7
        g = SeqWindow(np.random.default_rng(31).standard_normal(n))
        near_one = QParam(1 - 3e-9)
        tail = fracdiff._tail(forward_coeffs(gamma, near_one, n - 1))
        assert fracdiff._repaid(*tail, n, n, n) == 0
        apply_forward(g, gamma, near_one)
        apply_inverse(g, gamma, QParam(0.9))
        assert len(blocked) == 2
        assert all(size <= FLOOR for size in sizes)
