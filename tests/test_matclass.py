"""Tests for the matrix-classification machinery and its dispatch tables."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import dense_section, section_consistency_residual
from qnabla import matclass
from qnabla.duals import (
    Condition,
    InvalidCondition,
    MatrixWindow,
    Verdict,
    _resolve_exponent,
    _sections,
    matrix_class_condition,
)
from qnabla.fracdiff import (
    SeqWindow, _lower_toeplitz, apply_forward, apply_inverse, inverse_coeffs,
)
from qnabla.matclass import (
    CONDITION_CATALOG,
    ClassQuery,
    Source,
    TABLE_CLASSICAL_CELLS,
    TABLE_DOMAIN_CELLS,
    TailError,
    Target,
    _column_means,
    class_check,
    forward_composite_matrix,
    inverse_composite_matrix,
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


def inverse_toeplitz(n: int, order: float, qp: QParam) -> np.ndarray:
    """The n x n Toeplitz window T_e of the inverse stream."""
    return _lower_toeplitz(inverse_coeffs(order, qp, n - 1).coeffs, n)


def kernel_section(phi: MatrixWindow, j: int, order: float, qp: QParam) -> np.ndarray:
    """Row j's section window, stacked from the section kernel's chunks."""
    t_e = inverse_toeplitz(phi.entries.shape[1], order, qp)
    return np.concatenate([c[:, 0].copy() for c in _sections(phi.entries[j : j + 1], t_e)])


class TestRowSectionMatrix:
    def test_identity_first_order_pattern(self):
        qp = QParam(0.5)
        phi = MatrixWindow(np.eye(8), triangular=True)
        section = kernel_section(phi, 3, 1.0, qp)
        for m in range(8):
            for k in range(8):
                assert section[m, k] == (1.0 if k <= 3 <= m else 0.0)

    def test_zero_row_gives_zero_window(self):
        phi = MatrixWindow(np.vstack([np.zeros(5), np.eye(5)[:4]]))
        section = kernel_section(phi, 0, 0.7, QParam(0.5))
        assert np.all(section == 0.0)

    def test_last_row_equals_full_window_row(self):
        rng = np.random.default_rng(51)
        qp = QParam(0.9)
        phi = MatrixWindow(np.tril(rng.uniform(-1, 1, (10, 10))), triangular=True)
        full = inverse_composite_matrix(phi, 1.7, qp)
        t_e = np.array(inverse_toeplitz(10, 1.7, qp))
        for j in range(10):
            section = kernel_section(phi, j, 1.7, qp)
            assert np.array_equal(section, dense_section(phi.entries[j], t_e))
            assert np.array_equal(section[-1], full.entries[j])


class TestInverseCompositeMatrix:
    def test_identity_first_order(self):
        full = inverse_composite_matrix(MatrixWindow(np.eye(8), triangular=True), 1.0, QParam(0.5))
        assert np.array_equal(full.entries, np.tril(np.ones((8, 8))))
        assert full.tail_bounds == (0.0,) * 8

    def test_finitely_supported_row_is_exact(self):
        row = np.concatenate([[2.0, -1.0, 0.5], np.zeros(13)])
        full = inverse_composite_matrix(MatrixWindow(row[None, :]), 0.5, QParam(0.5))
        assert full.tail_bounds == (0.0,)

    def test_geometric_row_matches_long_oracle(self):
        # Frozen against a 200-term rising-product oracle (50-digit mpmath);
        # the comparison is absolute because the rightmost entries sit at
        # the 1e-23 scale of the window's own truncation bound.
        import mpmath

        r, order, q, n = 0.1, 0.5, 0.5, 24
        qp = QParam(q)
        row = r ** np.arange(n, dtype=float)
        psi = inverse_composite_matrix(MatrixWindow(row[None, :]), order, qp)
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
            inverse_composite_matrix(
                MatrixWindow(np.vstack([np.zeros(12), np.ones(12)])),
                0.5,
                QParam(0.5),
            )
        # Rows 2 and 4 fail; the refusal names the first.
        rows = np.vstack([np.zeros(12), np.eye(12)[:1], np.ones(12), np.zeros(12),
                          np.full(12, 3.0)])
        with pytest.raises(TailError, match=r"^row 2 tail mass 3\.000e\+00 .* head \(9\.000e\+00\)"):
            inverse_composite_matrix(MatrixWindow(rows), 0.5, QParam(0.5))

    def test_triangular_rows_are_always_exact(self):
        # Window-edge rows of a triangular matrix still have provably zero
        # tails beyond the window.
        m = MatrixWindow(np.tril(np.ones((12, 12))), triangular=True)
        full = inverse_composite_matrix(m, 0.5, QParam(0.9))
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
        phi = MatrixWindow(np.zeros((8, 8)), triangular=True)
        for cond in (
            Condition.SECTION_COLUMN_LIMITS,
            Condition.SECTION_ENTRY_SUP,
            Condition.SECTION_ABS_SUM_MATCH,
        ):
            rep = transform_condition(phi, 0.5, qp, cond, PExponent(2.0))
            assert all(v == 0.0 for _, v in rep.values)
        full = inverse_composite_matrix(phi, 0.5, qp)
        rep = matrix_class_condition(full, Condition.VANISHING_ROW_ABS_SUM)
        assert all(v == 0.0 for _, v in rep.values)
        rep = transform_condition(phi, 0.5, qp, Condition.SECTION_POWER_SUM_SUP, PExponent(2.0))
        assert all(v == 0.0 for _, v in rep.values)

    def test_identity_entry_sup_is_one(self):
        phi = MatrixWindow(np.eye(8), triangular=True)
        rep = transform_condition(phi, 1.0, QParam(0.5), Condition.SECTION_ENTRY_SUP)
        assert all(v == 1.0 for _, v in rep.values)

    def test_all_ones_triangle_row_sums_grow(self):
        full = inverse_composite_matrix(
            MatrixWindow(np.tril(np.ones((16, 16))), triangular=True), 1.0, QParam(0.5)
        )
        rep = matrix_class_condition(full, Condition.VANISHING_ROW_ABS_SUM)
        assert rep.verdict is Verdict.GROWING

    def test_power_sum_needs_mid_regime(self):
        phi = MatrixWindow(np.eye(4), triangular=True)
        with pytest.raises(InvalidCondition):
            transform_condition(phi, 1.0, QParam(0.5), Condition.SECTION_POWER_SUM_SUP,
                                PExponent(1.0))

    def test_single_matrix_condition_rejected(self):
        phi = MatrixWindow(np.eye(4), triangular=True)
        with pytest.raises(InvalidCondition):
            transform_condition(phi, 1.0, QParam(0.5), Condition.ROW_ABS_SUM_SUP)

    def test_non_decaying_row_refused(self):
        phi = MatrixWindow(np.vstack([np.zeros(12), np.ones(12)]))
        with pytest.raises(TailError, match="row 1"):
            transform_condition(phi, 0.5, QParam(0.5), Condition.SECTION_ENTRY_SUP)


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
    """Catalog items A' (l1 -> lp-domain) and B' (c0 -> lp-domain) through
    `class_check` at order 0, whose forward composite is the matrix itself."""

    @staticmethod
    def _item(source: Source, m: MatrixWindow, row_limit: int):
        query = ClassQuery(source=source, target=Target.LP_DOMAIN, p=PExponent(2.0),
                           order=0.0, qp=QParam(0.5), window=8, row_limit=row_limit)
        (report,) = class_check(query, m)
        return report

    def test_zero_matrix(self):
        for source in (Source.L1, Source.C0):
            rep = self._item(source, MatrixWindow(np.zeros((8, 8))), row_limit=8)
            assert all(v == 0.0 for _, v in rep.values)

    def test_identity_values(self):
        # Row power sums stay at 1; disjoint column subsets add across rows,
        # so the column-subset sup equals the window row count.
        a_rep = self._item(Source.L1, MatrixWindow(np.eye(8)), row_limit=8)
        b_rep = self._item(Source.C0, MatrixWindow(np.eye(8)), row_limit=8)
        assert a_rep.condition_id is Condition.ROW_POWER_SUM_SUP
        assert a_rep.detail["item"] == "A'"
        assert all(v == 1.0 for _, v in a_rep.values)
        assert b_rep.condition_id is Condition.COLUMN_SUBSET_POWER_SUM
        assert b_rep.detail["item"] == "B'"
        assert dict(b_rep.values)[8] == 8.0

    def test_geometric_rows_match_reverse_enumeration(self):
        rng = np.random.default_rng(57)
        entries = np.array([0.5 ** np.arange(8) * rng.uniform(0.5, 1) for _ in range(8)])
        b_rep = self._item(Source.C0, MatrixWindow(entries), row_limit=8)
        # Independent reverse-order enumeration over column subsets.
        best = -np.inf
        for mask in range((1 << 8) - 1, 0, -1):
            idx = [k for k in range(8) if mask >> k & 1]
            best = max(best, float(np.sum(np.abs(entries[:, idx].sum(axis=1)) ** 2.0)))
        assert dict(b_rep.values)[8] == best

    def test_needs_finite_exponent(self):
        with pytest.raises(ValueError, match="target lp-domain requires 1 < p < inf"):
            ClassQuery(source=Source.C0, target=Target.LP_DOMAIN, p=P_INF, order=0.0,
                       qp=QParam(0.5), window=4)
        for cond, rule in CONDITION_CATALOG["A'"] + CONDITION_CATALOG["B'"]:
            with pytest.raises(InvalidCondition, match="requires a finite exponent"):
                _resolve_exponent(cond, P_INF, None, rule)


# Extreme finite entries: signed zeros, the smallest subnormal, and
# magnitudes whose running sums cancel instead of overflowing.
_EXTREME = np.array([
    [1e308, -0.0, 5e-324, -5e-324],
    [-1e308, 0.0, -0.0, 5e-324],
    [-0.0, 5e-324, 1e308, -0.0],
    [5e-324, -1e308, -1e308, 1.5],
])


def _running_sum(phi: MatrixWindow) -> MatrixWindow:
    return _column_means(phi, "running-sum", QParam(0.5))


class TestRunningSumComposite:
    def test_identity_becomes_all_ones_triangle(self):
        sig = _running_sum(MatrixWindow(np.eye(4), triangular=True))
        assert np.array_equal(sig.entries, np.tril(np.ones((4, 4))))

    def test_difference_matrix_telescopes_to_identity(self):
        diff = np.eye(4) - np.eye(4, k=-1)
        sig = _running_sum(MatrixWindow(diff, triangular=True))
        assert np.array_equal(sig.entries, np.eye(4))

    def test_row_differences_recover_rows_exactly(self):
        rng = np.random.default_rng(58)
        entries = rng.integers(-4, 5, size=(6, 6)).astype(float)
        sig = _running_sum(MatrixWindow(entries))
        for j in range(1, 6):
            assert np.array_equal(sig.entries[j] - sig.entries[j - 1], entries[j])

    def test_bits_are_the_plain_column_cumsum(self):
        # Unit weights and divisors are exact in IEEE arithmetic.
        sig = _running_sum(MatrixWindow(_EXTREME))
        assert sig.entries.tobytes() == np.cumsum(_EXTREME, axis=0).tobytes()


class TestCesaroComposite:
    def test_identity_second_row_weights(self):
        ces = _column_means(MatrixWindow(np.eye(8), triangular=True), "q-cesaro", QParam(0.5))
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
        ces = _column_means(MatrixWindow(np.zeros((5, 5))), "q-cesaro", QParam(0.5))
        assert np.all(ces.entries == 0.0)

    @pytest.mark.parametrize("q", QS)
    def test_bits_are_the_weighted_cumsum_over_the_q_bracket(self, q):
        qp = QParam(q)
        v = np.arange(4, dtype=np.float64)
        ces = _column_means(MatrixWindow(_EXTREME), "q-cesaro", qp)
        expected = np.cumsum(q**v[:, None] * _EXTREME, axis=0) / q_integer(v + 1.0, qp)[:, None]
        assert ces.entries.tobytes() == expected.tobytes()


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

    def test_window_and_row_limit_are_checked_integers(self):
        # window=4.0 passed validation and class_check then failed on the
        # float slice index; integral floats are stored as ints now.
        qp, p = QParam(0.5), PExponent(1.0)
        query = ClassQuery(Source.L1_DOMAIN, Target.L1, p, 0.5, qp, window=4.0, row_limit=3.0)
        assert (query.window, query.row_limit) == (4, 3)
        assert type(query.window) is int and type(query.row_limit) is int
        phi = MatrixWindow(np.eye(8), triangular=True)
        expect = class_check(ClassQuery(Source.L1_DOMAIN, Target.L1, p, 0.5, qp, 4, 3), phi)
        assert [r.as_dict() for r in class_check(query, phi)] == [r.as_dict() for r in expect]
        for name, bad in (("window", 4.5), ("window", 0), ("row_limit", 2.5), ("row_limit", 0)):
            with pytest.raises(ValueError,
                               match=rf"^{name} must be an integer ≥ 1, got {bad!r}$"):
                ClassQuery(Source.L1_DOMAIN, Target.L1, p, 0.5, qp, **{"window": 4, name: bad})

    def test_window_larger_than_matrix_rejected(self):
        qp = QParam(0.5)
        query = ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(1.0), 0.5, qp,
                           window=10)
        with pytest.raises(ValueError, match="window"):
            class_check(query, MatrixWindow(np.eye(8), triangular=True))

    @pytest.mark.parametrize("source", [Source.L1_DOMAIN, Source.LP_DOMAIN, Source.LINF_DOMAIN],
                             ids=lambda s: s.value)
    def test_one_section_sweep_per_query(self, source, monkeypatch):
        # 300 x 300 section entries pass 2^16, so the sweep takes one section
        # row a chunk, and the abs-sum match's reference comes from the last.
        w, order, qp = 300, 0.7, QParam(0.6)
        phi = MatrixWindow(np.tril(np.random.default_rng(65).uniform(-1.0, 1.0, (w, w))),
                           triangular=True)
        sweeps = []

        def counted(*args):
            sweeps.append(args)
            return sections(*args)

        sections = matclass._sections
        monkeypatch.setattr(matclass, "_sections", counted)
        query = ClassQuery(source, Target.C, _source_p(source), order, qp, window=w)
        reports = class_check(query, phi)
        assert len(sweeps) == 1
        full = inverse_composite_matrix(phi, order, qp)
        cps = [cp for cp, _ in reports[0].values]
        for rep in reports:
            if rep.detail["matrix"] == "sections":
                expect = transform_condition(phi, order, qp, rep.condition_id, query.p,
                                             checkpoints=cps)
            else:
                expect = matrix_class_condition(full, rep.condition_id, checkpoints=cps,
                                                exponent=rep.detail.get("exponent"))
            assert rep.values == expect.values
            assert rep.verdict is expect.verdict

    def test_windows_past_double_range_are_named(self):
        # Every entry is finite; the window each route builds first is not.
        # The suite turns numpy's warnings into errors: none may be raised.
        phi = MatrixWindow(np.tril(np.full((8, 8), 1e308)), triangular=True)
        qp = QParam(0.9)
        inverse = r"inverse composite of order 2\.0 at q = 0\.9"
        with pytest.raises(OverflowError, match=f"^{inverse} leaves double range$"):
            inverse_composite_matrix(phi, 2.0, qp)
        with pytest.raises(OverflowError, match=f"^{inverse} leaves double range$"):
            transform_condition(phi, 2.0, qp, Condition.SECTION_ENTRY_SUP, PExponent(1.0))
        for target, what in ((Target.C, inverse),
                             (Target.CS, r"running-sum composite at q = 0\.9"),
                             (Target.QCES_C, r"q-cesaro composite at q = 0\.9")):
            query = ClassQuery(Source.LP_DOMAIN, target, PExponent(2.0), 2.0, qp, window=8)
            with pytest.raises(OverflowError, match=f"^{what} leaves double range$"):
                class_check(query, phi)

    def test_tail_error_propagates(self):
        qp = QParam(0.5)
        dense = MatrixWindow(np.ones((8, 8)))
        query = ClassQuery(Source.L1_DOMAIN, Target.L1, PExponent(1.0), 0.5, qp,
                           window=8)
        with pytest.raises(TailError):
            class_check(query, dense)
