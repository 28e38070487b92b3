"""Tests for domain-space norms, basis vectors, and membership profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import window_norm
from qnabla.fracdiff import SeqWindow, apply_forward, apply_inverse
from qnabla.qcore import QParam
from qnabla.spaces import (
    NormReport,
    P_INF,
    PExponent,
    default_checkpoints,
    domain_norm,
    lp_norm,
    membership_diagnostic,
    schauder_basis_vector,
    schauder_reconstruct,
)

GAMMAS = (0.3, 0.5, 1.0, 1.7, 2.0, 2.5)
QS = (0.2, 0.5, 0.9)


class TestPExponent:
    def test_inf_marker(self):
        assert P_INF.is_inf
        assert str(P_INF) == "inf"
        assert PExponent.parse("inf").is_inf

    def test_parse_finite(self):
        assert PExponent.parse("2").value == 2.0
        assert PExponent.parse("0.5").value == 0.5

    def test_conjugate(self):
        assert PExponent(2.0).conjugate == 2.0
        assert PExponent(4.0).conjugate == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValueError):
            _ = PExponent(1.0).conjugate
        with pytest.raises(ValueError):
            _ = P_INF.conjugate

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PExponent(bad)

    @pytest.mark.parametrize("text", ["x", "", "-1"])
    def test_parse_refusal_names_the_text(self, text):
        refusal = rf"^p must be a positive real or 'inf', got {text!r}$"
        with pytest.raises(ValueError, match=refusal):
            PExponent.parse(text)


class TestLpNorm:
    def test_euclidean(self):
        assert lp_norm(SeqWindow(np.array([3.0, 4.0])), PExponent(2.0)) == 5.0

    def test_subunit_exponent_sums_without_root(self):
        assert lp_norm(SeqWindow(np.ones(3)), PExponent(0.5)) == 3.0

    def test_sup(self):
        assert lp_norm(SeqWindow(np.array([-2.0, 1.0])), P_INF) == 2.0

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-1, 1, 12)
        for alpha in (-3.0, 0.25, 7.5):
            for p in (PExponent(1.0), PExponent(2.0), PExponent(3.5), P_INF):
                lhs = lp_norm(SeqWindow(alpha * g), p)
                rhs = abs(alpha) * lp_norm(SeqWindow(g), p)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
            for p in (PExponent(0.3), PExponent(0.5)):
                lhs = lp_norm(SeqWindow(alpha * g), p)
                rhs = abs(alpha) ** p.value * lp_norm(SeqWindow(g), p)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_triangle_inequality_spot_checks(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(-1, 1, 10)
            h = rng.uniform(-1, 1, 10)
            for p in (PExponent(0.5), PExponent(1.0), PExponent(2.0), P_INF):
                lhs = lp_norm(SeqWindow(g + h), p)
                rhs = lp_norm(SeqWindow(g), p) + lp_norm(SeqWindow(h), p)
                assert lhs <= rhs + 1e-12


    def test_overflowing_sum_is_rescaled(self):
        # 4 x (1e200)^2 leaves double range, the norm 2e200 does not.  The
        # suite turns warnings into errors, so no overflow may reach numpy's
        # warning machinery.
        assert lp_norm(SeqWindow(np.full(4, 1e200)), PExponent(2.0)) == 2e200
        assert lp_norm(SeqWindow(np.full(4, 1e250)), PExponent(1.5)) == pytest.approx(
            4 ** (1 / 1.5) * 1e250, rel=1e-15
        )

    def test_norm_outside_double_range_raises(self):
        with pytest.raises(OverflowError, match="p = 1.0 norm of a 4-entry window"):
            lp_norm(SeqWindow(np.full(4, 1e308)), PExponent(1.0))
        # Below p = 1 the norm is the p-sum itself: 4 x 4.9e307 overflows.
        with pytest.raises(OverflowError, match="p = 0.999 norm"):
            lp_norm(SeqWindow(np.full(4, 1e308)), PExponent(0.999))

    def test_finite_results_keep_their_bits(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, 64)
        for p in (0.5, 1.0, 1.5, 2.0, 3.5):
            assert lp_norm(SeqWindow(a), PExponent(p)) == float(np.sum(np.abs(a) ** p)) ** (
                1.0 / p if p >= 1.0 else 1.0
            )
        # 64 (1e154)^2 bounds the plain sum past double range, but the sum
        # itself, 1e308 plus change, is finite and keeps the plain path.
        near = np.concatenate([[1e154], a[1:]])
        assert lp_norm(SeqWindow(near), PExponent(2.0)) == float(np.sum(near**2)) ** 0.5


class TestDefaultCheckpoints:
    def test_powers_of_two_up_to_window(self):
        assert default_checkpoints(32) == (1, 2, 4, 8, 16, 32)
        assert default_checkpoints(12) == (1, 2, 4, 8, 12)
        assert default_checkpoints(1) == (1,)
        assert default_checkpoints(12, start=4) == (4, 8, 12)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_window_is_refused(self, n):
        with pytest.raises(ValueError, match=f"^window length must be ≥ 1, got {n}$"):
            default_checkpoints(n)


class TestDomainNorm:
    def test_first_order_constant_window(self):
        report = domain_norm(SeqWindow(np.ones(4)), 1.0, QParam(0.5), PExponent(1.0))
        assert report.value == 1.0

    def test_basis_vector_has_unit_norm(self):
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                zeta0 = schauder_basis_vector(0, gamma, qp, 12)
                for p in (PExponent(1.0), PExponent(2.0), P_INF):
                    report = domain_norm(zeta0, gamma, qp, p)
                    assert report.value == pytest.approx(1.0, abs=1e-12)
                # |x|^p with p < 1 is steep at 0, so ~1e-13 rounding residue
                # in the transform inflates to ~1e-6 in the p-sum.
                report = domain_norm(zeta0, gamma, qp, PExponent(0.5))
                assert report.value == pytest.approx(1.0, abs=5e-6)

    def test_second_order_sup(self):
        report = domain_norm(
            SeqWindow(np.array([1.0, 0.0, 0.0])), 2.0, QParam(0.5), P_INF
        )
        assert report.value == pytest.approx(1.5, abs=1e-12)

    def test_value_is_norm_of_transform(self):
        rng = np.random.default_rng(8)
        g = SeqWindow(rng.uniform(-1, 1, 16))
        qp = QParam(0.5)
        for p in (PExponent(0.5), PExponent(2.0), P_INF):
            report = domain_norm(g, 1.7, qp, p)
            assert report.value == lp_norm(apply_forward(g, 1.7, qp), p)

    def test_partials_nondecreasing(self):
        rng = np.random.default_rng(9)
        g = SeqWindow(rng.uniform(-1, 1, 32))
        for p in (PExponent(0.5), PExponent(1.0), PExponent(2.0), P_INF):
            report = domain_norm(g, 0.5, QParam(0.5), p)
            vals = [v for _, v in report.partials]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_huge_window_scales_without_warning(self):
        # The suite turns warnings into errors, so this also checks that the
        # overflowing plain sums stay quiet.
        qp = QParam(0.5)
        unit = domain_norm(SeqWindow(np.ones(4)), 0.5, qp, PExponent(2.0))
        huge = domain_norm(SeqWindow(np.full(4, 1e200)), 0.5, qp, PExponent(2.0))
        for (_, u), (_, h) in zip(unit.partials, huge.partials):
            assert h == pytest.approx(1e200 * u, rel=1e-14)

    def test_isometry_through_inverse(self):
        rng = np.random.default_rng(10)
        qp = QParam(0.5)
        h = SeqWindow(rng.uniform(-1, 1, 20))
        for p in (PExponent(1.0), PExponent(2.0), P_INF):
            back = apply_forward(apply_inverse(h, 1.7, qp), 1.7, qp)
            assert abs(lp_norm(back, p) - lp_norm(h, p)) <= 1e-10


class TestSchauderBasis:
    def test_first_order_leading_vector_is_all_ones(self):
        vec = schauder_basis_vector(0, 1.0, QParam(0.5), 8)
        assert np.array_equal(vec.values, np.ones(8))

    def test_transform_is_unit_impulse(self):
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                for k in (0, 3, 9):
                    vec = schauder_basis_vector(k, gamma, qp, 10)
                    out = apply_forward(vec, gamma, qp).values
                    target = np.zeros(10)
                    target[k] = 1.0
                    assert np.max(np.abs(out - target)) <= 1e-12

    def test_last_vector_is_trailing_impulse(self):
        vec = schauder_basis_vector(9, 1.3, QParam(0.5), 10)
        assert np.array_equal(vec.values, np.eye(10)[9])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            schauder_basis_vector(10, 1.0, QParam(0.5), 10)
        with pytest.raises(IndexError):
            schauder_basis_vector(-1, 1.0, QParam(0.5), 10)


class TestSchauderReconstruct:
    def test_impulse_yields_leading_basis_vector(self):
        qp = QParam(0.5)
        h = SeqWindow(np.eye(6)[0])
        out = schauder_reconstruct(h, 0.7, qp)
        expect = schauder_basis_vector(0, 0.7, qp, 6)
        assert np.array_equal(out.values, expect.values)

    def test_equals_explicit_basis_sum(self):
        # One shared inverse stream gives the same sum, bit for bit, as
        # adding every separately built basis vector.
        # Windows of 40 entries fit one chunk of rows; 700 entries take 8.
        rng = np.random.default_rng(14)
        cases = ((0.7, 0.5, 40), (2.0, 0.9, 40), (1.3, 1 - 1e-9, 40),
                 (0.7, 0.9, 700), (1.3, 1 - 1e-9, 700))
        for gamma, q, n in cases:
            qp = QParam(q)
            h = SeqWindow(rng.uniform(-1, 1, n))
            acc = np.zeros(n)
            for k in range(n):
                acc += h.values[k] * schauder_basis_vector(k, gamma, qp, n).values
            assert np.array_equal(schauder_reconstruct(h, gamma, qp).values, acc)

    def test_sum_past_double_range_is_an_overflow(self):
        # The basis sum leaves double range, not the window: the refusal
        # names order and q, as apply_inverse's does, and nothing warns.
        h = SeqWindow(np.full(50, 1e307))
        for gamma in (0.7, 2.0):
            with pytest.raises(OverflowError, match=f"order {gamma} at q = 0.9 leaves double"):
                schauder_reconstruct(h, gamma, QParam(0.9))
            with pytest.raises(OverflowError, match=f"order {gamma} at q = 0.9 leaves double"):
                apply_inverse(h, gamma, QParam(0.9))

    def test_results_are_readonly_and_own_their_entries(self):
        h = SeqWindow(np.random.default_rng(15).uniform(-1, 1, 30))
        for out in (schauder_reconstruct(h, 0.7, QParam(0.5)).values,
                    schauder_basis_vector(3, 0.7, QParam(0.5), 30).values):
            assert not out.flags.writeable
            assert not np.shares_memory(out, h.values)

    def test_zeros(self):
        out = schauder_reconstruct(SeqWindow(np.zeros(5)), 0.5, QParam(0.5))
        assert np.all(out.values == 0.0)

    def test_round_trip_on_grid(self):
        rng = np.random.default_rng(12)
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                g = SeqWindow(rng.uniform(-1, 1, 24))
                back = schauder_reconstruct(apply_forward(g, gamma, qp), gamma, qp)
                assert np.max(np.abs(back.values - g.values)) <= 1e-10

    def test_two_routes_agree(self):
        # Explicit basis expansion against the inverse transform.
        rng = np.random.default_rng(13)
        qp = QParam(0.9)
        h = SeqWindow(rng.uniform(-1, 1, 20))
        via_basis = schauder_reconstruct(h, 2.5, qp)
        via_inverse = apply_inverse(h, 2.5, qp)
        assert np.max(np.abs(via_basis.values - via_inverse.values)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, data):
        qp = QParam(0.5)
        g = SeqWindow(np.asarray(data))
        back = schauder_reconstruct(apply_forward(g, 0.5, qp), 0.5, qp)
        scale = max(1.0, float(np.max(np.abs(g.values))))
        assert np.max(np.abs(back.values - g.values)) <= 1e-10 * scale


class TestMembershipDiagnostic:
    def test_finitely_supported_transform_stabilizes(self):
        # Window whose forward transform vanishes past its support.
        qp = QParam(0.5)
        g = apply_inverse(SeqWindow(np.array([1.0, 2.0] + [0.0] * 14)), 0.7, qp)
        report = membership_diagnostic(g, 0.7, qp, PExponent(1.0), [2, 4, 8, 16])
        vals = [v for _, v in report.partials]
        assert vals[1] == pytest.approx(vals[-1], rel=1e-12)

    def test_ramp_sup_profile_is_flat(self):
        g = SeqWindow(np.arange(16, dtype=float))
        report = membership_diagnostic(g, 1.0, QParam(0.5), P_INF, [2, 4, 8, 16])
        assert all(v == 1.0 for _, v in report.partials)

    def test_ramp_l1_profile_grows_linearly(self):
        g = SeqWindow(np.arange(17, dtype=float))
        report = membership_diagnostic(g, 1.0, QParam(0.5), PExponent(1.0), [4, 8, 16])
        vals = dict(report.partials)
        assert vals[4] == pytest.approx(3.0)
        assert vals[8] == pytest.approx(7.0)
        assert vals[16] == pytest.approx(15.0)

    def test_checkpoint_validation(self):
        g = SeqWindow(np.ones(8))
        qp = QParam(0.5)
        with pytest.raises(ValueError):
            membership_diagnostic(g, 1.0, qp, PExponent(1.0), [4, 2])
        with pytest.raises(ValueError):
            membership_diagnostic(g, 1.0, qp, PExponent(1.0), [2, 9])
        with pytest.raises(ValueError):
            membership_diagnostic(g, 1.0, qp, PExponent(1.0), [])

    def test_non_integral_checkpoints_are_refused(self):
        # They were truncated: [2.5, 4.9] reported at prefixes 2 and 4.
        g = SeqWindow(np.ones(8))
        for cps in ([2.5, 4.9], [2, 4.5], (np.float64(4.25),)):
            with pytest.raises(ValueError, match=r"^checkpoints must be integers, got \("):
                membership_diagnostic(g, 1.0, QParam(0.5), PExponent(1.0), cps)
        # Integral floats are integers; the other texts keep their order.
        report = membership_diagnostic(g, 1.0, QParam(0.5), PExponent(1.0), [2.0, 4.0])
        assert [n for n, _ in report.partials] == [2, 4]
        assert all(type(n) is int for n, _ in report.partials)
        for cps, text in (([], "nonempty"), ([4, 2.0], "strictly increasing"),
                          ([0, 4], r"lie in \[1, 8\]"), ([2, 9], r"lie in \[1, 8\]")):
            with pytest.raises(ValueError, match=f"^checkpoints must (be )?{text}"):
                membership_diagnostic(g, 1.0, QParam(0.5), PExponent(1.0), cps)


def _norm_bytes(norm) -> bytes | str:
    """The bits of a norm, or the text of its OverflowError."""
    try:
        return np.float64(norm()).tobytes()
    except OverflowError as exc:
        return str(exc)


class TestProfileBits:
    """The one-pass profile gives, at every checkpoint, the bits of
    ``lp_norm`` on that prefix alone, and those of ``oracles.window_norm``,
    which sums the prefix's |h|^p afresh; it refuses with the text of the
    first prefix whose norm leaves double range."""

    # Positive entries between 5e7 and 1e8, so no transform leaves double
    # range: scaled by 1e200, |h|^p overflows for p >= 1.7 and the root-sum
    # is taken again scaled; by 1e300, norms with p >= 1 leave double range.
    BASE = 1e8 * np.random.default_rng(31).uniform(0.5, 1.0, 300)
    PATHS = {0.3: {"plain"}, 0.5: {"plain"}, None: {"plain"}, 1.0: {"plain", "refused"},
             1.7: {"plain", "rescaled", "refused"}, 2.0: {"plain", "rescaled", "refused"},
             3.0: {"plain", "rescaled", "refused"}}

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.7, 2.0, 3.0, None])
    def test_partials_are_the_prefix_norms(self, p):
        pe = P_INF if p is None else PExponent(p)
        qp = QParam(0.5)
        paths = set()
        for scale in (1e-300, 1.0, 1e150, 1e200, 1e300):
            g = SeqWindow(self.BASE * scale)
            for order in (0.0, 0.7):  # order 0 leaves the window as it is
                h = apply_forward(g, order, qp)
                for cps in (None, [1, 3, 7, 50, 300]):
                    ms = default_checkpoints(g.n) if cps is None else cps
                    want = [_norm_bytes(lambda: lp_norm(h.prefix(m), pe)) for m in ms]
                    assert want == [_norm_bytes(lambda: window_norm(h.values[:m], p)) for m in ms]
                    refusal = next((w for w in want if isinstance(w, str)), None)
                    if refusal is None:
                        report = membership_diagnostic(g, order, qp, pe, cps)
                        assert [np.float64(v).tobytes() for _, v in report.partials] == want
                        with np.errstate(over="ignore"):
                            plain = p is None or np.isfinite(np.sum(np.abs(h.values) ** p))
                        paths.add("plain" if plain else "rescaled")
                    else:
                        with pytest.raises(OverflowError) as exc:
                            membership_diagnostic(g, order, qp, pe, cps)
                        assert str(exc.value) == refusal
                        paths.add("refused")
        assert paths == self.PATHS[p]


class TestNormReport:
    def test_partials_must_be_nonempty(self):
        with pytest.raises(ValueError, match="^partials must be nonempty$"):
            NormReport(value=1.0, p=PExponent(2.0), window=4, partials=())

    def test_partials_must_increase(self):
        with pytest.raises(ValueError):
            NormReport(
                value=1.0, p=PExponent(2.0), window=4,
                partials=((2, 1.0), (2, 1.5)),
            )

    def test_as_dict_round_trips_through_json(self):
        import json

        report = domain_norm(SeqWindow(np.ones(4)), 1.0, QParam(0.5), PExponent(2.0))
        blob = json.dumps(report.as_dict())
        assert json.loads(blob)["window"] == 4
