"""Tests for the matrix-classification machinery and its dispatch tables."""

from __future__ import annotations

import numpy as np
import pytest

from qnabla.duals import (
    Condition,
    InvalidCondition,
    MatrixWindow,
    Verdict,
    matrix_class_condition,
)
from qnabla.fracdiff import SeqWindow, apply_forward, apply_inverse
from qnabla.matclass import (
    CONDITION_CATALOG,
    ClassQuery,
    Source,
    TABLE_CLASSICAL_CELLS,
    TABLE_DOMAIN_CELLS,
    TailError,
    Target,
    build_transform_family,
    cesaro_composite,
    class_check,
    column_cumsum_matrix,
    forward_composite_matrix,
    row_section_matrix,
    section_consistency_residual,
    target_domain_conditions,
    transform_condition,
)
from qnabla.qcore import QParam, q_integer
from qnabla.spaces import P_INF, PExponent

GAMMAS = (0.3, 0.5, 1.0, 1.7, 2.0, 2.5)
QS = (0.2, 0.5, 0.9)


def _source_p(source: Source) -> PExponent:
    return {
        Source.L1_DOMAIN: PExponent(1.0),
        Source.LP_DOMAIN: PExponent(2.0),
        Source.LINF_DOMAIN: P_INF,
    }[source]


class TestRowSectionMatrix:
    def test_identity_first_order_pattern(self):
        qp = QParam(0.5)
        phi = MatrixWindow(np.eye(8), triangular=True)
        section = row_section_matrix(phi, 3, 1.0, qp)
        for m in range(8):
            for k in range(8):
                assert section.entries[m, k] == (1.0 if k <= 3 <= m else 0.0)

    def test_zero_row_gives_zero_window(self):
        phi = MatrixWindow(np.vstack([np.zeros(5), np.eye(5)[:4]]))
        section = row_section_matrix(phi, 0, 0.7, QParam(0.5))
        assert np.all(section.entries == 0.0)

    def test_bad_row_index(self):
        phi = MatrixWindow(np.eye(4), triangular=True)
        with pytest.raises(IndexError):
            row_section_matrix(phi, 4, 1.0, QParam(0.5))

    def test_last_row_equals_full_window_row(self):
        rng = np.random.default_rng(51)
        qp = QParam(0.9)
        phi = MatrixWindow(np.tril(rng.uniform(-1, 1, (10, 10))), triangular=True)
        full = build_transform_family(phi, 1.7, qp).full
        for j in range(10):
            section = row_section_matrix(phi, j, 1.7, qp)
            assert np.array_equal(section.entries[-1], full.entries[j])


class TestInverseCompositeMatrix:
    def test_identity_first_order(self):
        full = build_transform_family(
            MatrixWindow(np.eye(8), triangular=True), 1.0, QParam(0.5)
        ).full
        assert np.array_equal(full.entries, np.tril(np.ones((8, 8))))
        assert full.tail_bounds == (0.0,) * 8

    def test_finitely_supported_row_is_exact(self):
        row = np.concatenate([[2.0, -1.0, 0.5], np.zeros(13)])
        full = build_transform_family(MatrixWindow(row[None, :]), 0.5, QParam(0.5)).full
        assert full.tail_bounds == (0.0,)

    def test_geometric_row_matches_long_oracle(self):
        # Frozen against a 200-term rising-product oracle (50-digit mpmath);
        # the comparison is absolute because the rightmost entries sit at
        # the 1e-23 scale of the window's own truncation bound.
        import mpmath

        r, order, q, n = 0.1, 0.5, 0.5, 24
        qp = QParam(q)
        row = r ** np.arange(n, dtype=float)
        psi = build_transform_family(MatrixWindow(row[None, :]), order, qp,
                                     tail_rtol=1e-6).full
        with mpmath.workdps(50):
            qm, om, rm = mpmath.mpf(q), mpmath.mpf(order), mpmath.mpf(r)

            def e_mp(k):
                out = mpmath.mpf(1)
                for i in range(k):
                    out *= (1 - qm ** (om + i)) / (1 - qm ** (i + 1))
                return out

            for k in range(n):
                oracle = mpmath.fsum(e_mp(v - k) * rm**v for v in range(k, 200))
                assert abs(float(psi.entries[0, k] - oracle)) <= 1e-10

    def test_non_decaying_row_refused(self):
        with pytest.raises(TailError, match="row 1"):
            build_transform_family(
                MatrixWindow(np.vstack([np.zeros(12), np.ones(12)])),
                0.5,
                QParam(0.5),
            )

    def test_triangular_rows_are_always_exact(self):
        # Window-edge rows of a triangular matrix still have provably zero
        # tails beyond the window.
        m = MatrixWindow(np.tril(np.ones((12, 12))), triangular=True)
        full = build_transform_family(m, 0.5, QParam(0.9)).full
        assert full.tail_bounds == (0.0,) * 12


class TestSectionConsistency:
    def test_zero_window(self):
        phi = MatrixWindow(np.eye(6), triangular=True)
        g = SeqWindow(np.zeros(6))
        assert section_consistency_residual(phi, g, 0.5, QParam(0.5)) == 0.0

    def test_random_triangular_grid(self):
        rng = np.random.default_rng(52)
        worst = 0.0
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                phi = MatrixWindow(np.tril(rng.uniform(-1, 1, (12, 12))),
                                   triangular=True)
                g = SeqWindow(rng.uniform(-1, 1, 12))
                worst = max(worst, section_consistency_residual(phi, g, gamma, qp))
        assert worst <= 1e-10

    def test_identity_matrix_reduces_to_reconstruction(self):
        rng = np.random.default_rng(53)
        phi = MatrixWindow(np.eye(12), triangular=True)
        g = SeqWindow(rng.uniform(-1, 1, 12))
        assert section_consistency_residual(phi, g, 1.7, QParam(0.5)) <= 1e-12

    def test_dimension_mismatch(self):
        phi = MatrixWindow(np.eye(4), triangular=True)
        with pytest.raises(ValueError):
            section_consistency_residual(phi, SeqWindow(np.ones(5)), 1.0, QParam(0.5))

    def test_residual_outside_double_range_raises(self):
        # Row sums of 1e308 entries overflow, and inf - inf is nan: the
        # residual must not fall back to the rows that stayed finite.
        phi = MatrixWindow(np.full((3, 3), 1e308))
        with pytest.raises(OverflowError, match="row 0 leaves double range"):
            section_consistency_residual(phi, SeqWindow(np.full(3, 1e308)), 1.0, QParam(0.5))


class TestTransformCondition:
    def test_zero_matrix_all_conditions_vanish(self):
        qp = QParam(0.5)
        family = build_transform_family(
            MatrixWindow(np.zeros((8, 8)), triangular=True), 0.5, qp
        )
        for cond in (
            Condition.SECTION_COLUMN_LIMITS,
            Condition.SECTION_ENTRY_SUP,
            Condition.SECTION_ABS_SUM_MATCH,
        ):
            rep = transform_condition(family, cond, PExponent(2.0))
            assert all(v == 0.0 for _, v in rep.values)
        rep = matrix_class_condition(family.full, Condition.VANISHING_ROW_ABS_SUM)
        assert all(v == 0.0 for _, v in rep.values)
        rep = transform_condition(family, Condition.SECTION_POWER_SUM_SUP, PExponent(2.0))
        assert all(v == 0.0 for _, v in rep.values)

    def test_identity_entry_sup_is_one(self):
        qp = QParam(0.5)
        family = build_transform_family(
            MatrixWindow(np.eye(8), triangular=True), 1.0, qp
        )
        rep = transform_condition(family, Condition.SECTION_ENTRY_SUP)
        assert all(v == 1.0 for _, v in rep.values)

    def test_all_ones_triangle_row_sums_grow(self):
        qp = QParam(0.5)
        family = build_transform_family(
            MatrixWindow(np.tril(np.ones((16, 16))), triangular=True), 1.0, qp
        )
        rep = matrix_class_condition(family.full, Condition.VANISHING_ROW_ABS_SUM)
        assert rep.verdict is Verdict.GROWING

    def test_power_sum_needs_mid_regime(self):
        family = build_transform_family(
            MatrixWindow(np.eye(4), triangular=True), 1.0, QParam(0.5)
        )
        with pytest.raises(InvalidCondition):
            transform_condition(family, Condition.SECTION_POWER_SUM_SUP, PExponent(1.0))

    def test_single_matrix_condition_rejected(self):
        family = build_transform_family(
            MatrixWindow(np.eye(4), triangular=True), 1.0, QParam(0.5)
        )
        with pytest.raises(InvalidCondition):
            transform_condition(family, Condition.ROW_ABS_SUM_SUP)


class TestForwardComposite:
    def test_identity_first_order_is_bidiagonal(self):
        up = forward_composite_matrix(
            MatrixWindow(np.eye(8), triangular=True), 1.0, QParam(0.5)
        )
        expect = np.eye(8)
        expect[np.arange(1, 8), np.arange(7)] = -1.0
        assert np.array_equal(up.entries, expect)

    def test_order_zero_is_the_matrix_itself(self):
        rng = np.random.default_rng(54)
        phi = MatrixWindow(rng.uniform(-1, 1, (6, 6)))
        up = forward_composite_matrix(phi, 0.0, QParam(0.5))
        assert np.array_equal(up.entries, phi.entries)

    def test_columns_share_the_transform_code_path(self):
        rng = np.random.default_rng(55)
        qp = QParam(0.9)
        phi = MatrixWindow(rng.uniform(-1, 1, (9, 9)))
        up = forward_composite_matrix(phi, 1.3, qp)
        for k in range(9):
            col = apply_forward(SeqWindow(phi.entries[:, k]), 1.3, qp).values
            assert np.array_equal(up.entries[:, k], col)

    def test_inverse_recovers_original_columns(self):
        rng = np.random.default_rng(56)
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                phi = MatrixWindow(rng.uniform(-1, 1, (10, 10)))
                up = forward_composite_matrix(phi, gamma, qp)
                rec = np.column_stack(
                    [
                        apply_inverse(SeqWindow(up.entries[:, k]), gamma, qp).values
                        for k in range(10)
                    ]
                )
                assert np.max(np.abs(rec - phi.entries)) <= 1e-10


class TestTargetDomainConditions:
    def test_zero_matrix(self):
        reports = target_domain_conditions(
            MatrixWindow(np.zeros((8, 8))), PExponent(2.0), row_limit=8
        )
        for rep in reports:
            assert all(v == 0.0 for _, v in rep.values)

    def test_identity_values(self):
        # Row power sums stay at 1; disjoint column subsets add across rows,
        # so the column-subset sup equals the window row count.
        reports = target_domain_conditions(
            MatrixWindow(np.eye(8)), PExponent(2.0), row_limit=8
        )
        a_rep, b_rep = reports
        assert a_rep.condition_id is Condition.ROW_POWER_SUM_SUP
        assert all(v == 1.0 for _, v in a_rep.values)
        assert b_rep.condition_id is Condition.COLUMN_SUBSET_POWER_SUM
        assert dict(b_rep.values)[8] == 8.0

    def test_geometric_rows_match_reverse_enumeration(self):
        rng = np.random.default_rng(57)
        entries = np.array([0.5 ** np.arange(8) * rng.uniform(0.5, 1) for _ in range(8)])
        m = MatrixWindow(entries)
        _, b_rep = target_domain_conditions(m, PExponent(2.0), row_limit=8)
        # Independent reverse-order enumeration over column subsets.
        best = -np.inf
        for mask in range((1 << 8) - 1, 0, -1):
            idx = [k for k in range(8) if mask >> k & 1]
            best = max(best, float(np.sum(np.abs(entries[:, idx].sum(axis=1)) ** 2.0)))
        assert dict(b_rep.values)[8] == best

    def test_needs_finite_exponent(self):
        with pytest.raises(InvalidCondition):
            target_domain_conditions(MatrixWindow(np.eye(4)), P_INF, row_limit=4)


class TestRunningSumComposite:
    def test_identity_becomes_all_ones_triangle(self):
        sig = column_cumsum_matrix(MatrixWindow(np.eye(4), triangular=True))
        assert np.array_equal(sig.entries, np.tril(np.ones((4, 4))))

    def test_difference_matrix_telescopes_to_identity(self):
        diff = np.eye(4) - np.eye(4, k=-1)
        sig = column_cumsum_matrix(MatrixWindow(diff, triangular=True))
        assert np.array_equal(sig.entries, np.eye(4))

    def test_row_differences_recover_rows_exactly(self):
        rng = np.random.default_rng(58)
        entries = rng.integers(-4, 5, size=(6, 6)).astype(float)
        sig = column_cumsum_matrix(MatrixWindow(entries))
        for j in range(1, 6):
            assert np.array_equal(sig.entries[j] - sig.entries[j - 1], entries[j])


class TestCesaroComposite:
    def test_identity_second_row_weights(self):
        ces = cesaro_composite(MatrixWindow(np.eye(8), triangular=True), QParam(0.5))
        assert ces.entries[1, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert ces.entries[1, 1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_row_weights_sum_to_one(self):
        for q in QS:
            qp = QParam(q)
            n = 24
            weights = qp.q ** np.arange(n)
            for j in range(n):
                total = float(np.sum(weights[: j + 1])) / q_integer(j + 1.0, qp)
                assert abs(total - 1.0) <= 1e-14

    def test_zero_matrix(self):
        ces = cesaro_composite(MatrixWindow(np.zeros((5, 5))), QParam(0.5))
        assert np.all(ces.entries == 0.0)


class TestDispatchTables:
    # Hard-coded transcriptions, kept independent of the module constants.
    EXPECTED_DOMAIN = {
        ("l1-domain", "l1"): {1, 11},
        ("l1-domain", "c0"): {1, 5, 13},
        ("l1-domain", "c"): {1, 6, 13},
        ("l1-domain", "linf"): {1, 13},
        ("lp-domain", "l1"): {2, 12},
        ("lp-domain", "c0"): {2, 5, 10},
        ("lp-domain", "c"): {2, 6, 10},
        ("lp-domain", "linf"): {2, 10},
        ("linf-domain", "l1"): {3, 4},
        ("linf-domain", "c0"): {3, 8},
        ("linf-domain", "c"): {3, 6, 9},
        ("linf-domain", "linf"): {3, 7},
    }
    EXPECTED_CLASSICAL = {
        ("l1", "lp-domain"): {"A'"},
        ("c0", "lp-domain"): {"B'"},
        ("c", "lp-domain"): {"B'"},
        ("linf", "lp-domain"): {"B'"},
        ("l1", "linf-domain"): {13},
        ("c0", "linf-domain"): {7},
        ("c", "linf-domain"): {7},
        ("linf", "linf-domain"): {7},
    }

    def test_domain_table_matches_transcription(self):
        assert len(TABLE_DOMAIN_CELLS) == 12
        for (src, tgt), bundle in TABLE_DOMAIN_CELLS.items():
            assert set(bundle) == self.EXPECTED_DOMAIN[(src.value, tgt.value)]

    def test_classical_table_matches_transcription(self):
        assert len(TABLE_CLASSICAL_CELLS) == 8
        for (src, tgt), bundle in TABLE_CLASSICAL_CELLS.items():
            assert set(bundle) == self.EXPECTED_CLASSICAL[(src.value, tgt.value)]

    def test_domain_bundles_nonempty_and_distinct(self):
        bundles = [frozenset(b) for b in TABLE_DOMAIN_CELLS.values()]
        assert all(bundles)
        assert len(set(bundles)) == len(bundles)

    def test_catalog_covers_all_numbered_items(self):
        assert set(CONDITION_CATALOG) == set(range(1, 14)) | {"A'", "B'"}
        assert all(CONDITION_CATALOG[i] for i in CONDITION_CATALOG)


class TestClassCheck:
    def test_zero_matrix_passes_every_domain_cell(self):
        qp = QParam(0.5)
        zero = MatrixWindow(np.zeros((8, 8)), triangular=True)
        for (src, tgt), bundle in TABLE_DOMAIN_CELLS.items():
            query = ClassQuery(src, tgt, _source_p(src), 0.5, qp, window=8)
            reports = class_check(query, zero)
            assert {r.detail["item"] for r in reports} == set(bundle)
            assert all(v == 0.0 for r in reports for _, v in r.values)
            assert all(r.detail["table"] == 1 for r in reports)

    def test_zero_matrix_passes_every_classical_cell(self):
        qp = QParam(0.5)
        zero = MatrixWindow(np.zeros((8, 8)), triangular=True)
        for (src, tgt), bundle in TABLE_CLASSICAL_CELLS.items():
            p = PExponent(2.0) if tgt is Target.LP_DOMAIN else PExponent(1.0)
            query = ClassQuery(src, tgt, p, 0.5, qp, window=8)
            reports = class_check(query, zero)
            assert {r.detail["item"] for r in reports} == set(bundle)
            assert all(r.detail["table"] == 2 for r in reports)

    def test_sup_to_sup_cell_on_identity(self):
        qp = QParam(0.5)
        query = ClassQuery(
            Source.LINF_DOMAIN, Target.LINF, P_INF, 1.0, qp, window=8
        )
        reports = class_check(query, MatrixWindow(np.eye(8), triangular=True))
        items = sorted({r.detail["item"] for r in reports})
        assert items == [3, 7]
        by_item = {r.detail["item"]: r for r in reports if r.detail["item"] == 7}
        # The rewritten identity is the all-ones triangle: row sums grow.
        assert by_item[7].verdict is Verdict.GROWING

    def test_mid_to_l1_cell(self):
        qp = QParam(0.5)
        query = ClassQuery(
            Source.LP_DOMAIN, Target.L1, PExponent(2.0), 1.0, qp, window=8
        )
        reports = class_check(query, MatrixWindow(np.eye(8), triangular=True))
        assert sorted({r.detail["item"] for r in reports}) == [2, 12]

    def test_series_target_goes_through_running_sum(self):
        qp = QParam(0.5)
        query = ClassQuery(
            Source.LP_DOMAIN, Target.CS, PExponent(2.0), 0.5, qp, window=8
        )
        reports = class_check(query, MatrixWindow(np.zeros((8, 8)), triangular=True))
        assert {r.detail["item"] for r in reports} == {2, 6, 10}
        assert all(r.detail["composite"] == "running-sum" for r in reports)

    def test_cesaro_target_goes_through_cesaro_composite(self):
        qp = QParam(0.5)
        query = ClassQuery(
            Source.L1_DOMAIN, Target.QCES_C0, PExponent(1.0), 0.5, qp, window=8
        )
        reports = class_check(query, MatrixWindow(np.zeros((8, 8)), triangular=True))
        assert {r.detail["item"] for r in reports} == {1, 5, 13}
        assert all(r.detail["composite"] == "q-cesaro" for r in reports)

    def test_query_validation(self):
        qp = QParam(0.5)
        with pytest.raises(ValueError, match="p = 1"):
            ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(2.0), 0.5, qp, window=8)
        with pytest.raises(ValueError, match="1 < p < inf"):
            ClassQuery(Source.LP_DOMAIN, Target.L1, PExponent(1.0), 0.5, qp, window=8)
        with pytest.raises(ValueError, match="p = inf"):
            ClassQuery(Source.LINF_DOMAIN, Target.L1, PExponent(2.0), 0.5, qp, window=8)
        with pytest.raises(ValueError, match="operator-domain"):
            ClassQuery(Source.L1_DOMAIN, Target.LP_DOMAIN, PExponent(1.0), 0.5, qp,
                       window=8)
        with pytest.raises(ValueError, match="classical"):
            ClassQuery(Source.C0, Target.C, PExponent(2.0), 0.5, qp, window=8)

    def test_window_larger_than_matrix_rejected(self):
        qp = QParam(0.5)
        query = ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(1.0), 0.5, qp,
                           window=10)
        with pytest.raises(ValueError, match="window"):
            class_check(query, MatrixWindow(np.eye(8), triangular=True))

    def test_tail_error_propagates(self):
        qp = QParam(0.5)
        dense = MatrixWindow(np.ones((8, 8)))
        query = ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(1.0), 0.5, qp,
                           window=8)
        with pytest.raises(TailError):
            class_check(query, dense)
