"""Tests for the dual-set windows, subset suprema, and condition reports."""

from __future__ import annotations

import gc
import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import (
    dense_estimate,
    dense_section,
    dual_reports,
    partial_sum_window,
    subtree_bounds_at,
    sup_closed_form,
    termwise_window,
)
from test_condition_fixture import inverse_composite, section_report
from qnabla import duals
from qnabla.duals import (
    Condition,
    ConditionReport,
    InvalidCondition,
    LimitError,
    MatrixWindow,
    SubsetMode,
    Verdict,
    alpha_dual_check,
    beta_dual_check,
    gamma_dual_check,
    matrix_class_condition,
    subset_sup,
)
from qnabla.fracdiff import SeqWindow, _lower_toeplitz, apply_forward, inverse_coeffs
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent

GAMMAS = (0.3, 0.5, 1.0, 1.7, 2.0, 2.5)
QS = (0.2, 0.5, 0.9)


def subset_sup_oracle(entries, exponent, mode, row_limit):
    """Independent re-enumeration in reverse order over all nonempty subsets."""
    rows = min(row_limit, entries.shape[0])
    best, witness = -np.inf, None
    for mask in range((1 << rows) - 1, 0, -1):
        idx = [j for j in range(rows) if mask >> j & 1]
        s = np.abs(entries[idx].sum(axis=0)) ** exponent
        val = float(s.sum() if mode is SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM else s.max())
        if val > best or (val == best and tuple(idx) < witness):
            best, witness = val, tuple(idx)
    return best, witness


def exhaustive_sum_walk(block, exponent):
    """Sum mode by the walk that evaluates every subset: the low-row table
    and the depth-first walk over the high rows of `duals._sum_exhaustive`,
    without the subtree bound.  Pruning must reproduce it bit for bit."""
    rows, n = block.shape
    low = min(rows, duals._LOW_ROWS)
    table = np.zeros((1 << low, n))
    for j in range(low):
        np.add(table[: 1 << j], block[j], out=table[1 << j : 2 << j])
    sums = [table] + [np.empty_like(table) for _ in range(rows - low)]
    work = np.empty_like(table)
    low_masks = np.arange(1 << low, dtype=np.int64)
    best, best_witness, path = -np.inf, (), []
    while True:
        np.abs(sums[len(path)], out=work)
        work **= exponent
        vals = work.sum(axis=1)
        if not path:
            vals[0] = -np.inf
        top = float(vals.max())
        if top >= best:
            witness = duals._lex_least(low_masks[vals == top] | sum(1 << h for h in path))
            if top > best or witness < best_witness:
                best, best_witness = top, witness
        nxt = path[-1] + 1 if path else low
        if nxt < rows:
            path.append(nxt)
        else:
            while path and path[-1] + 1 == rows:
                path.pop()
            if not path:
                return best, best_witness
            path[-1] += 1
        np.add(sums[len(path) - 1], block[path[-1]], out=sums[len(path)])


def greedy_lower_bound(entries, exponent, mode, row_limit, seed):
    """Random-restart greedy: add rows while the objective improves."""
    rng = np.random.default_rng(seed)
    rows = min(row_limit, entries.shape[0])

    def value(idx):
        s = np.abs(entries[sorted(idx)].sum(axis=0)) ** exponent
        return float(s.sum() if mode is SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM else s.max())

    best = -np.inf
    for _ in range(5):
        current = {int(rng.integers(rows))}
        improved = True
        while improved:
            improved = False
            for j in range(rows):
                if j in current:
                    continue
                if value(current | {j}) > value(current):
                    current.add(j)
                    improved = True
        best = max(best, value(current))
    return best


class TestMatrixWindow:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MatrixWindow(np.array([[1.0, float("nan")]]))

    def test_rejects_false_triangular_claim(self):
        with pytest.raises(ValueError):
            MatrixWindow(np.ones((3, 3)), triangular=True)

    def test_entries_readonly(self):
        m = MatrixWindow(np.eye(3), triangular=True)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


def kernel_partial_sums(a: SeqWindow, order: float, qp: QParam) -> np.ndarray:
    """The partial-sum window of a, stacked from the section kernel's chunks."""
    t_e = _lower_toeplitz(inverse_coeffs(order, qp, a.n - 1).coeffs, a.n)
    return np.concatenate([c[:, 0].copy() for c in duals._sections(a.values[None], t_e)])


class TestTermwiseProductMatrix:
    def test_all_ones_first_order(self):
        lam = termwise_window(SeqWindow(np.ones(5)), 1.0, QParam(0.5))
        assert np.array_equal(lam, np.tril(np.ones((5, 5))))

    def test_leading_impulse(self):
        lam = termwise_window(SeqWindow(np.eye(6)[0]), 0.7, QParam(0.5))
        expect = np.zeros((6, 6))
        expect[0, 0] = 1.0
        assert np.array_equal(lam, expect)

    def test_action_recovers_termwise_products(self):
        rng = np.random.default_rng(21)
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                a = SeqWindow(rng.uniform(-1, 1, 16))
                g = SeqWindow(rng.uniform(-1, 1, 16))
                h = apply_forward(g, gamma, qp)
                got = termwise_window(a, gamma, qp) @ h.values
                target = a.values * g.values
                assert np.max(np.abs(got - target) / (1 + np.abs(target))) <= 1e-10

    def test_alpha_check_reads_the_dense_rows(self):
        # The alpha check builds only the rows its suprema read; per row
        # limit its value and witness are subset_sup's on the dense Lambda.
        rng = np.random.default_rng(24)
        qp = QParam(0.6)
        a = SeqWindow(rng.normal(size=40) * 0.9 ** np.arange(40))
        lam = termwise_window(a, 0.7, qp)
        rls = (3, 7, 12)
        for p in (PExponent(0.5), PExponent(2.0), P_INF):
            rep = alpha_dual_check(a, 0.7, qp, p, rls)
            mode, e = duals._CONDITIONS[rep.condition_id].estimate, rep.detail["exponent"]
            sups = [subset_sup(MatrixWindow(lam[:rl]), e, mode, rl) for rl in rls]
            assert rep.values == tuple((rl, v) for rl, (v, _) in zip(rls, sups))
            assert rep.detail["witness"] == list(sups[-1][1])


class TestPartialSumMatrix:
    def test_first_order_impulse_pattern(self):
        # Impulse multiplier at position m: entry (j, k) is 1 iff k <= m <= j.
        m_pos = 2
        om = kernel_partial_sums(SeqWindow(np.eye(6)[m_pos]), 1.0, QParam(0.5))
        for j in range(6):
            for k in range(6):
                expect = 1.0 if k <= m_pos <= j else 0.0
                assert om[j, k] == expect

    def test_action_recovers_partial_sums(self):
        rng = np.random.default_rng(22)
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                a = SeqWindow(rng.uniform(-1, 1, 16))
                g = SeqWindow(rng.uniform(-1, 1, 16))
                h = apply_forward(g, gamma, qp)
                om = kernel_partial_sums(a, gamma, qp)
                assert np.array_equal(om, partial_sum_window(a, gamma, qp))
                got = om @ h.values
                target = np.cumsum(a.values * g.values)
                assert np.max(np.abs(got - target) / (1 + np.abs(target))) <= 1e-10

    def test_zero_multiplier(self):
        om = kernel_partial_sums(SeqWindow(np.zeros(4)), 0.5, QParam(0.5))
        assert np.all(om == 0.0)

    def test_row_difference_recovers_termwise_rows_exactly(self):
        # Dyadic inputs and unit inverse coefficients keep every partial sum
        # exact, so the row-difference identity holds bit-for-bit.
        qp = QParam(0.5)
        a = SeqWindow(np.array([3.0, -1.5, 2.25, 0.5, -4.0, 1.0]))
        lam = termwise_window(a, 1.0, qp)
        om = kernel_partial_sums(a, 1.0, qp)
        for j in range(1, 6):
            assert np.array_equal(om[j] - om[j - 1], lam[j])

    def test_row_difference_near_exact_generic(self):
        rng = np.random.default_rng(23)
        qp = QParam(0.9)
        a = SeqWindow(rng.uniform(-1, 1, 12))
        lam = termwise_window(a, 1.7, qp)
        om = kernel_partial_sums(a, 1.7, qp)
        scale = np.max(np.abs(om))
        for j in range(1, 12):
            gap = np.max(np.abs((om[j] - om[j - 1]) - lam[j]))
            assert gap <= 8 * np.finfo(float).eps * scale


class TestSubsetSup:
    def test_identity_sum_mode(self):
        val, witness = subset_sup(
            MatrixWindow(np.eye(4), triangular=True),
            1.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 4,
        )
        assert val == 4.0
        assert witness == (0, 1, 2, 3)

    def test_single_live_row(self):
        r = np.array([1.0, -2.0, 0.5])
        m = MatrixWindow(np.vstack([r, np.zeros(3), np.zeros(3)]))
        val, witness = subset_sup(m, 1.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 3)
        assert val == 3.5
        assert witness == (0,)
        val, witness = subset_sup(m, 2.0, SubsetMode.SUP_OVER_COLS_OF_ABS, 3)
        assert val == 4.0
        assert witness == (0,)

    def test_mode_given_by_value_is_its_member(self):
        # "sup-over-cols" ran sum mode, (7.0, (1,)), and so did None.
        m = MatrixWindow(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert subset_sup(m, 1.0, "sup-over-cols", 2) == (4.0, (0, 1))
        for mode in SubsetMode:
            assert subset_sup(m, 1.0, mode.value, 2) == subset_sup(m, 1.0, mode, 2)
        for bad in (None, "sup", 1):
            with pytest.raises(ValueError, match=f"^{bad!r} is not a valid SubsetMode$"):
                subset_sup(m, 1.0, bad, 2)

    def test_cancelling_rows_never_both_selected(self):
        rng = np.random.default_rng(31)
        r = rng.uniform(0.5, 1.0, 6)
        m = MatrixWindow(np.vstack([r, -r, np.zeros(6), np.zeros(6)]))
        for mode in SubsetMode:
            val, witness = subset_sup(m, 1.0, mode, 4)
            assert not ({0, 1} <= set(witness))
            oracle_val, _ = subset_sup_oracle(m.entries, 1.0, mode, 4)
            assert val == oracle_val

    def test_matches_reverse_order_oracle(self):
        rng = np.random.default_rng(32)
        for trial in range(10):
            entries = rng.uniform(-1, 1, (8, 8))
            m = MatrixWindow(entries)
            for mode in SubsetMode:
                for e in (1.0, 2.0):
                    val, wit = subset_sup(m, e, mode, 8)
                    oval, owit = subset_sup_oracle(entries, e, mode, 8)
                    assert val == oval
                    assert wit == owit

    @staticmethod
    def _checked(entries, exponent, mode=SubsetMode.SUP_OVER_COLS_OF_ABS):
        rows = entries.shape[0]
        got = subset_sup(MatrixWindow(entries), exponent, mode, rows)
        assert got == subset_sup_oracle(entries, exponent, mode, rows)
        return got

    def test_all_zero_block(self):
        for mode in SubsetMode:
            assert self._checked(np.zeros((5, 3)), 1.37, mode) == (0.0, (0,))

    def test_sup_witness_takes_zero_rows_above_the_last_live_row(self):
        assert self._checked(np.array([[0.0], [0.0], [1.0]]), 2.0) == (1.0, (0, 1, 2))
        assert self._checked(np.array([[1.0], [0.0]]), 2.0) == (1.0, (0,))

    def test_negative_entries_dominate(self):
        entries = np.array([[0.5, 0.1], [-2.0, 0.2], [0.0, 0.1], [-1.5, -0.3]])
        assert self._checked(entries, 0.5) == (float(np.sqrt(3.5)), (1, 2, 3))
        self._checked(entries, 1.37, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM)

    def test_tied_columns_give_the_least_witness(self):
        # Column 0 reaches 2 through rows 1 and 3 below its zero row 0,
        # column 1 through rows 0 and 2: the lexicographically least wins.
        entries = np.array([[0.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]])
        assert self._checked(entries, 1.0) == (2.0, (0, 1, 3))
        self._checked(entries, 3.4, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM)

    def test_negative_zero_entries(self):
        entries = np.array([[-0.0, 0.0], [-0.0, -1.0], [2.0, -0.0]])
        for exponent in (0.5, 1.0, 2.0):
            assert self._checked(entries, exponent)[1] == (0, 1, 2)
            self._checked(entries, exponent, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM)
        for mode in SubsetMode:
            assert self._checked(np.full((3, 2), -0.0), 1.0, mode) == (0.0, (0,))

    def test_rounding_ties_keep_the_exhaustive_witness(self):
        # -1e-20 vanishes beside 1.0, so (0, 1, 2) sums to exactly what
        # (0, 2) does; 1e-17 vanishes likewise, so (0,) ties with (0, 1).
        assert self._checked(np.array([[1.0], [-1e-20], [1.0]]), 1.0) == (2.0, (0, 1, 2))
        assert self._checked(np.array([[1.0, 0.0], [1e-17, 0.5]]), 0.5) == (1.0, (0,))
        rng = np.random.default_rng(35)
        for _ in range(20):
            entries = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-9, 9, (6, 4))
            for mode in SubsetMode:
                self._checked(entries, 1.37, mode)

    def test_greedy_never_exceeds_exhaustive(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            entries = rng.uniform(-1, 1, (8, 8))
            m = MatrixWindow(entries)
            val, _ = subset_sup(m, 2.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 8)
            lower = greedy_lower_bound(
                entries, 2.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 8, seed=trial
            )
            assert lower <= val + 1e-12

    def test_monotone_in_row_limit(self):
        rng = np.random.default_rng(34)
        m = MatrixWindow(rng.uniform(-1, 1, (10, 6)))
        prev = -np.inf
        for rl in range(1, 11):
            val, _ = subset_sup(m, 1.5, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, rl)
            assert val >= prev
            prev = val

    def test_row_cap(self):
        m = MatrixWindow(np.eye(4))
        with pytest.raises(LimitError):
            subset_sup(m, 1.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 21)

    @pytest.mark.parametrize("mode", list(SubsetMode))
    def test_row_limit_is_one_checked_integer(self, mode):
        m = MatrixWindow(np.eye(4))
        assert subset_sup(m, 1.0, mode, 3.0) == subset_sup(m, 1.0, mode, 3)
        for bad in (2.5, 0, -1):
            with pytest.raises(ValueError,
                               match=rf"^row_limit must be an integer ≥ 1, got {bad!r}$"):
                subset_sup(m, 1.0, mode, bad)

    def test_bad_exponent(self):
        m = MatrixWindow(np.eye(4))
        with pytest.raises(ValueError):
            subset_sup(m, 0.0, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 4)

    @pytest.mark.parametrize("mode", list(SubsetMode))
    def test_supremum_outside_double_range_raises(self, mode):
        # At 16 rows, mixed signs send the subtree bounds of the high rows
        # to inf - inf, which must neither warn nor prune.
        for rows in (4, 16):
            signs = np.where(np.arange(rows) % 3 == 0, 1.0, -1.0)[:, None]
            for entries in (np.full((rows, 4), 1e308), signs * np.full((rows, 4), 1e308)):
                with pytest.raises(OverflowError, match=f"over {rows} rows with exponent 2.0 leaves"):
                    subset_sup(MatrixWindow(entries), 2.0, mode, rows)


def same_bits(got, want):
    """Subset suprema with equal value bits and equal witnesses."""
    return got[0].hex() == want[0].hex() and got[1] == want[1]


class TestSupWitnessScan:
    """Sup mode finds its witness in one pass over each column that attains
    the maximum; it must give the bits and the witness of the greedy that
    rebuilds every candidate's completion (`oracles.least_reaching`)."""

    EXPONENTS = (0.3, 0.73, 1.0, 1.5, 3.0)

    @staticmethod
    def _checked(block, exponent):
        got = duals._sup_closed_form(np.asarray(block, dtype=float), exponent)
        assert same_bits(got, sup_closed_form(np.asarray(block, dtype=float), exponent))
        return got

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_random_columns(self, e):
        rng = np.random.default_rng(int(e * 100))
        for rows in range(1, 21):
            for cols in (1, 3):
                block = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-9, 9, (rows, cols))
                block[rng.random((rows, cols)) < 0.2] = 0.0
                self._checked(block, e)
                # Small integers: ties across columns and signs, and zero rows.
                self._checked(rng.integers(-2, 3, (rows, 4)).astype(float), e)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_negatives_that_round_away(self, e):
        # 1 + (-1e-20) is 1: the negative row's reach ties the best value.
        for col in ([1.0, -1e-20, 1.0], [-1e-20, 1.0, 0.0], [1.0, -1e-20, -1e-20, 2.0],
                    [2.0, -2.0**-53, 1.0, -2.0**-52, 1.0]):
            self._checked(np.array(col)[:, None], e)
        # Negatives of a few ulps of the best value.  (1 - 2^-53)^0.3 rounds
        # to 1, so at e = 0.3 a reach below the base reaches the best value:
        # the first pass guesses that it misses, and the pass runs again.
        tiny = np.array([0.5, -(2.0**-53), 0.5])[:, None]
        assert self._checked(tiny, e)[1] == ((0, 1, 2) if e == 0.3 else (0, 2))
        for k in range(1, 40):
            col = np.array([1.0, -k * 2.0**-52, 1.0, -k * 2.0**-53, 0.5])
            self._checked(col[:, None], e)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_zeros_and_negative_zeros(self, e):
        for col in ([0.0, -0.0, 1.0, -0.0, 0.0], [-0.0, -0.0, 2.0], [-0.0, 1.0, -0.0, -1.0],
                    [0.0, 0.0, 0.0], [-0.0, -0.0]):
            self._checked(np.array(col)[:, None], e)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_equal_maxima_across_columns_and_signs(self, e):
        block = np.array([[1.0, -1.0, 0.0, 1.0], [-1.0, 1.0, 1.0, 0.0],
                          [1.0, -1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -0.0]])
        self._checked(block, e)
        for cols in ([[2.0, -2.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.5, -1.0], [1.5, 0.0]]):
            self._checked(np.array(cols), e)
        self._checked(np.ones((20, 6)), e)

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 1024, 8192])
    def test_row_fold_adds_in_row_order_from_positive_zero(self, n):
        # The column sums are one numpy fold; they must be the row-order loop
        # of `oracles.sup_closed_form` bit for bit.  At n = 1 a fold over a
        # 2 x r x n layout runs numpy's pairwise sum, which groups 8 or more
        # rows apart; sums of terms within a few decades make that show.  An
        # odd power keeps the sign of a zero sum: all -0.0 or all-zero blocks
        # must give +0.0, as the loop's +0.0 start does.
        rng = np.random.default_rng(n)
        for rows in [1, 7, 8] + [9, 16, 20] * 4:
            block = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
            block[rng.random((rows, n)) < 0.3] = -0.0
            block[:, 1::4] = 0.0  # all-zero columns, but at n = 1
            block[:, 2::4] = -0.0
            for e in (1.0, 3.0):
                self._checked(block, e)
                for zeros in (np.zeros((rows, n)), np.full((rows, n), -0.0)):
                    assert self._checked(zeros, e)[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_positive_tail_below_one_ulp(self, e):
        # Every entry after the first adds less than half an ulp of 1, so
        # each reach is 1 and the first row alone reaches the best value.
        for col in ([1.0, 1e-17, 1e-17, 1e-17], [1.0, -0.5, 1e-17, 0.5, 1e-17],
                    [1e-17, 1.0, 1e-17, -1e-17, 1e-17]):
            self._checked(np.array(col)[:, None], e)


class TestLiveColumnCut:
    """Both subset modes run on the live column prefix of a block, cut where
    numpy's pairwise sum keeps the bits (`duals._live_width`)."""

    def test_cut_rows_sum_to_the_bits_of_the_full_rows(self):
        rng = np.random.default_rng(71)
        cut = 0
        for n in [*range(1, 301), 513, 1000, 2048, 8192]:
            rows = np.tril(rng.random((min(n, 300), n)) * 10.0 ** rng.uniform(-5, 5, (1, n)))
            full = rows.sum(axis=1)
            for live, row in enumerate(rows, 1):
                w = duals._live_width(n, live)
                assert w == n or (w % 8 == 0 and live <= w < n)
                assert row[:w].sum().hex() == full[live - 1].hex()
                cut += w < n
        assert cut > 10_000

    def test_a_live_prefix_past_the_leftmost_block_keeps_every_column(self):
        # Past 128 columns numpy sums the halves apart, the first 96 of 200
        # columns alone, so 127 live columns padded to 128 sum otherwise.
        rng = np.random.default_rng(72)
        rows = np.abs(rng.normal(size=(50, 200))) * 10.0 ** rng.uniform(-5, 5, (50, 200))
        rows[:, 127:] = 0.0
        assert duals._live_width(200, 127) == 200
        assert (rows[:, :128].sum(axis=1) != rows.sum(axis=1)).any()

    @pytest.mark.parametrize("live", [7, 8, 9, 127, 128, 129])
    def test_cut_searches_match_the_uncut_ones(self, live):
        # Rows ending at row live - 1 of a lower-triangular window have
        # exactly ``live`` live columns; the width passes 128 both ways.
        # Past 128 live columns no leftmost block holds them: nothing is cut.
        rng = np.random.default_rng(live)
        rows = min(live, 8)
        widths = []
        for n in (live, live + 1, 120, 128, 129, 136, 200, 260, 264, 300):
            if n < live:
                continue
            window = np.tril(rng.normal(size=(live, n)) * 10.0 ** rng.uniform(-5, 4, (live, 1)))
            block = window[live - rows :]
            widths.append(duals._live_width(n, live) < n)
            m = MatrixWindow(block)
            for e in (0.73, 1.0, 2.0, 3.0):
                got = subset_sup(m, e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, rows)
                assert same_bits(got, duals._sum_exhaustive(block, e))
                assert same_bits(got, exhaustive_sum_walk(block, e))
                got = subset_sup(m, e, SubsetMode.SUP_OVER_COLS_OF_ABS, rows)
                assert same_bits(got, sup_closed_form(block, e))
        assert any(widths) == (live <= 128) and not all(widths)


class TestSumModePruning:
    """Sum mode past the low-row table skips provably losing subtrees; every
    value and witness must stay those of the walk that visits every node."""

    @staticmethod
    def _counted(monkeypatch, block, exponent):
        """Result of the walk, checked against the exhaustive one, with the
        nodes it visits (`_norm_bounds` forms each node's bound row, once
        per visited node), the calls of `_node_values` (once for the seed,
        once for the root's probe and once at each node where some subset's
        norm bound reaches the best value's limit) and the split, the rows of
        the low table, from the walk's one bound build (`_subtree_bound`)."""
        visits, calls, splits = [], [], []
        for name, log in (("_norm_bounds", visits), ("_node_values", calls)):

            def counted(*args, inner=getattr(duals, name), log=log):
                log.append(1)
                return inner(*args)

            monkeypatch.setattr(duals, name, counted)

        def build(*args, inner=duals._subtree_bound):
            low, bounds = inner(*args)
            splits.append(low)
            return low, bounds

        monkeypatch.setattr(duals, "_subtree_bound", build)
        got = subset_sup(
            MatrixWindow(block), exponent, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, block.shape[0]
        )
        assert got == exhaustive_sum_walk(block, exponent)
        assert len(splits) == 1
        return got, len(visits), len(calls), splits[0]

    def test_termwise_window_visits_few_nodes(self, monkeypatch):
        a = SeqWindow(np.random.default_rng(2).normal(size=36))
        lam = termwise_window(a, 0.7, QParam(0.6))
        _, visited, evaluated, split = self._counted(monkeypatch, lam[:20], 2.0)
        assert split < 13
        assert visited <= 2 ** (20 - split) // 64  # of the sets of high rows
        assert evaluated <= visited + 1

    def test_a_later_subtree_keeps_its_smaller_tie(self, monkeypatch):
        # The negative rows reach -12 at the node {13}; +12 needs rows 14
        # and 15, a later subtree, whose witness (0, 1, 2, ...) is smaller.
        col = [0, 0, 3, 0, 3, -3, 1, 1, 0, -3, -2, -3, 0, -1, 1, 3]
        got, visited, evaluated, split = self._counted(
            monkeypatch, np.array(col, float)[:, None], 2.0
        )
        assert got == (144.0, (0, 1, 2, 3, 4, 6, 7, 8, 12, 14, 15))
        assert visited < 2 ** (16 - split) // 4  # of the sets of high rows
        assert evaluated <= visited + 1

    @pytest.mark.parametrize("ks", [(-1, 3, 2), (3, -1, 2), (6, 3, 2), (6, 4, 2)])
    def test_rounding_slack_keeps_the_exhaustive_result(self, monkeypatch, ks):
        # Sums of 1.0 and multiples of 2^-54 round differently in the walk's
        # row order and in the bound's order.  Without rounding slack the
        # bound falls below the best value on these blocks, and the walk
        # loses the best value or the least witness of a tie.
        col = np.zeros(16)
        col[0] = 1.0
        col[13:] = np.array(ks) * 2.0**-54
        self._counted(monkeypatch, col[:, None], 1.0)

    def test_rounding_ties_match_the_exhaustive_walk(self, monkeypatch):
        rng = np.random.default_rng(36)
        for _ in range(6):
            entries = rng.normal(size=(16, 3)) * 10.0 ** rng.integers(-9, 9, (16, 3))
            for e in (0.5, 1.37, 2.0):
                self._counted(monkeypatch, entries, e)

    @pytest.mark.parametrize("rows", [1, 13, 16, 20])
    def test_all_zero_blocks_match_the_exhaustive_walk(self, rows):
        signed = np.where(np.random.default_rng(rows).random((rows, 5)) < 0.5, -0.0, 0.0)
        for block in (np.zeros((rows, 5)), signed):
            for e in (0.5, 1.0, 2.6):
                got, walked = duals._sum_exhaustive(block, e), exhaustive_sum_walk(block, e)
                assert got == walked == (0.0, (0,))
                assert np.signbit(got[0]) == np.signbit(walked[0])

    def test_nodes_that_keep_no_subset_skip_the_gather(self, monkeypatch):
        # A node whose norm bounds keep no subset must gather and value
        # nothing: `_node_values` is called once for the seed, once for the
        # root's probe and once per node that keeps a subset.
        widths, visits = [], []
        node_values, norm_bounds = duals._node_values, duals._norm_bounds

        def logged_node_values(rows, e):
            widths.append(rows.shape[0])
            return node_values(rows, e)

        def logged_norm_bounds(*args):
            visits.append(1)  # once per visited node
            return norm_bounds(*args)

        monkeypatch.setattr(duals, "_node_values", logged_node_values)
        monkeypatch.setattr(duals, "_norm_bounds", logged_norm_bounds)
        skipped = 0
        for seed in range(3):
            lam = termwise_window(SeqWindow(np.random.default_rng(seed).normal(size=36)),
                                  0.7, QParam(0.6))[:20]
            for e in (0.73, 1.5, 2.0):
                widths.clear()
                visits.clear()
                got = subset_sup(MatrixWindow(lam), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 20)
                assert got == exhaustive_sum_walk(lam, e)
                assert min(widths) > 0
                skipped += len(visits) - (len(widths) - 2)
        assert skipped > 0

    EXPONENTS = (0.5, 0.8, 1.0, 1.5, 2.0, 3.0)

    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("ks", [(0, 0, 0), (-1, 3, 2), (3, -1, 2), (6, 4, -5)])
    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("scale", [1.0, 3.0**-225])
    def test_rounding_slack_where_the_bound_is_exact(self, e, ks, n, scale):
        # Rows c_j v with v of +-1 entries: every |s_k| of a subset is
        # |sum c_j|, where each norm inequality is an equality.  Scaled by
        # 3^-225, about 1e-107, the cubes are subnormal and many values tie.
        c = np.zeros(16)
        c[[0, 5]] = scale, -scale
        c[13:] = np.array(ks) * scale * 2.0**-54
        v = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
        block = np.outer(c, v)
        got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 16)
        assert got == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("e", (0.5, 1.0, 1.5, 3.0))
    @pytest.mark.parametrize("kind", ("gaussian", "tiny", "signed-zeros"))
    def test_node_values_take_each_row_alone_and_either_sign(self, e, kind):
        # The walk values gathered rows in one call, the exhaustive walk one
        # subset at a time: each row's value must have the bits of that row
        # valued alone, and a sum and its negation the same non-negative bits.
        block = random_block(kind, np.random.default_rng(61), 6, 9)
        sums = np.ascontiguousarray(subset_column_sums(block).T)
        values = duals._node_values(sums.copy(), e)
        alone = [duals._node_values(row[None].copy(), e)[0] for row in sums]
        assert np.array_equal(values, alone)
        assert np.array_equal(values, duals._node_values(-sums, e))
        assert not np.signbit(values).any()

    @pytest.mark.parametrize("e", (0.7, 1.5, 3.0))
    def test_nan_bounds_never_prune(self, e):
        # A NaN in row 3 makes half the subsets of every node NaN, so the
        # exhaustive walk takes no node's maximum; pruning the NaN bounds
        # would leave the finite subsets and report one of them.
        block = np.random.default_rng(37).normal(size=(16, 3))
        block[3, 1] = np.nan
        with np.errstate(invalid="ignore"):
            assert duals._sum_exhaustive(block, e) == exhaustive_sum_walk(block, e)

    KINDS = ("gaussian", "integers", "triangular", "wide", "sparse", "tiny")

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_blocks_match_the_exhaustive_walk(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        # Both sides of e = 1 and e = 2, and the sqrt and square fast paths.
        exponents = (0.5, 0.73, 1.0, 1.37, 2.0, 2.6)
        for trial in range(20):
            r, n = ((1, 1), (18, 40))[trial] if trial < 2 else rng.integers(1, (19, 41))
            block = random_block(kind, rng, r, n)
            e = exponents[trial % len(exponents)]
            got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, r)
            assert got == exhaustive_sum_walk(block, e), (trial, r, n, e)

    @pytest.mark.parametrize("e", (1.0, 1.5, 3.0))
    def test_wide_class_check_blocks_match_the_exhaustive_walk(self, e):
        # Twelve rows, the default row limit of class-check's subset
        # conditions, 64 to 512 columns wide, every column live: the leading
        # rows of a transposed lower-triangular window with geometric decay
        # off the diagonal (the column-subset condition reads the forward
        # composite transposed), and rows decaying along the columns (the
        # inverse composite of a decaying window).  The table holds every
        # row, so the root alone keeps and values subsets.
        rng = np.random.default_rng(int(e * 10))
        for w in (64, 128, 256, 512):
            j, k = np.indices((12, w))
            tri = np.where(k >= j, rng.normal(size=(12, w)) * rng.uniform(0.3, 0.9) ** (k - j), 0.0)
            rho = 10.0 ** (-12.0 / (0.75 * w)) * rng.uniform(0.5, 1.0)
            decay = rng.normal(size=(12, w)) * rho**k
            for block in (tri, decay):
                assert block.any(axis=0).all()
                got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 12)
                assert got == exhaustive_sum_walk(block, e), (w, e)

    @pytest.mark.parametrize("e", (1.28, 2.0))
    def test_gaussian_blocks_raise_few_subsets(self, monkeypatch, e):
        evaluate, rows = duals._node_values, []

        def node_values(sums, exponent):
            rows.append(sums.shape[0])
            return evaluate(sums, exponent)

        monkeypatch.setattr(duals, "_node_values", node_values)
        block = np.random.default_rng(41).normal(size=(20, 16))
        got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 20)
        assert got == exhaustive_sum_walk(block, e)
        assert sum(rows) < 0.01 * (2**20 - 1)

    def test_a_walk_leaves_no_reference_cycle(self):
        # The walk's visit refers to itself; dropping it after the walk frees
        # the table and buffers at once, with nothing left for the collector.
        block = np.random.default_rng(41).normal(size=(16, 12))
        gc.collect()
        gc.disable()
        try:
            for e in (0.73, 1.5, 2.6):
                duals._sum_exhaustive(block, e)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_node_frees_its_arrays_before_its_subtrees(self):
        # The visit recurses; were a node's norm bounds, gathered sums and
        # values kept while its subtrees run, each depth would hold its own.
        # The walk holds its table (n x 2^13), its per-depth buffer
        # (rows - 12 rows) and its Gram rows (rows - 13), each row with n
        # more entries; one node at a time adds at most its gathered sums and
        # their copy for the powers (n x 2^13 each) and 16 vectors of 2^13
        # (bounds, indices, masks, values), which also covers the Gram
        # product before it is stacked (rows - 13 rows).
        rng = np.random.default_rng(5)
        for block in (rng.normal(size=(20, 40)),
                      np.tril(rng.normal(size=(20, 24)) * 0.6 ** np.arange(24))):
            rows, n = block.shape
            walk = 8 * (2**13 + n) * (n + 2 * (rows - 12))
            node = 8 * 2**13 * (2 * n + 16)
            for e in (0.73, 2.6):
                tracemalloc.start()
                duals._sum_exhaustive(block, e)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < walk + node, (n, e, peak / (walk + node))

    def test_all_zero_block_returns_at_once(self):
        m = MatrixWindow(np.zeros((20, 40)))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            assert subset_sup(m, 1.5, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 20) == (0.0, (0,))
            best = min(best, time.perf_counter() - t0)
        assert best <= 0.010


def random_block(kind, rng, r, n):
    """A seeded r x n test block of one kind."""
    if kind == "gaussian":
        return rng.normal(size=(r, n))
    if kind == "integers":
        return rng.integers(-2, 3, (r, n)).astype(float)
    if kind == "triangular":
        return np.tril(rng.normal(size=(r, n)) * 0.6 ** np.arange(n))
    if kind == "wide":
        return rng.normal(size=(r, n)) * 10.0 ** rng.integers(-9, 10, (r, n))
    if kind == "sparse":
        return rng.normal(size=(r, n)) * (rng.random((r, n)) < 0.1)
    if kind == "tiny":  # squares, and some powers, below the normal range
        return rng.normal(size=(r, n)) * 10.0 ** rng.integers(-175, -140)
    assert kind == "signed-zeros"
    return rng.choice([-0.0, 0.0, -1.0, 0.5, 2.0], size=(r, n), p=[0.4, 0.4, 0.1, 0.05, 0.05])


def subset_column_sums(block):
    """Row-order column sums of every subset of the rows of ``block``, one
    subset per column: the transposed low-row table of `duals._sum_exhaustive`."""
    rows, n = block.shape
    sums = np.zeros((n, 1 << rows))
    for j in range(rows):
        np.add(sums[:, : 1 << j], block[j, :, None], out=sums[:, 1 << j : 2 << j])
    return sums


def walk_value(block, subset, exponent):
    """Sum-mode value of ``subset`` in the walk's arithmetic: its rows added
    to +0.0 in row order, then `duals._node_values`."""
    sums = np.zeros((1, block.shape[1]))
    for j in subset:
        sums += block[j]
    return float(duals._node_values(sums, exponent)[0])


class TestSumModeSeed:
    """Past the low-row table the walk starts from a hill-climbed subset
    (`duals._climb`), valued as the walk values every subset; the results
    must stay those of the walk that evaluates every subset, bit for bit."""

    @pytest.mark.parametrize("e", (0.6, 1.0, 1.37, 2.0, 3.0))
    def test_seeded_walk_matches_the_exhaustive_walk(self, e):
        rng = np.random.default_rng(int(e * 100))
        for r in range(14, 21):
            a = SeqWindow(rng.normal(size=r + 16))
            lam = termwise_window(a, float(rng.uniform(0.1, 2.9)), QParam(rng.uniform(0.1, 0.9)))
            for block in (rng.normal(size=(r, int(rng.integers(1, 33)))), lam[:r, : r + 4]):
                got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, r)
                assert got == exhaustive_sum_walk(block, e), (r, e)

    def test_a_smaller_subset_that_ties_the_seed_is_the_witness(self):
        # Zero rows and duplicated rows leave the sums of a subset as they
        # are, so many subsets tie: the climb never adds a zero row, yet the
        # least witness takes every zero row below its last nonzero one.
        rng = np.random.default_rng(43)
        smaller = 0
        for trial in range(24):
            r, n = 14 + trial % 7, int(rng.integers(1, 9))
            block = rng.integers(-2, 3, (r, n)).astype(float)
            if trial % 2:
                block[rng.random(r) < 0.3] = 0.0
            else:
                block[r // 2 :] = block[: r - r // 2]
            for e in (0.5, 1.0, 2.0):
                got = duals._sum_exhaustive(block, e)
                assert got == exhaustive_sum_walk(block, e), (trial, e)
                seed = duals._climb(block, e)
                if walk_value(block, seed, e) == got[0] and got[1] != seed:
                    assert got[1] < seed
                    smaller += 1
        assert smaller > 10

    def test_sums_past_double_range_still_raise(self):
        # Row 13 alone is a finite local maximum of the climb: adding row 14
        # or 15 cancels two of its columns.  Rows 14 and 15 together pass
        # double range, so the seeded walk must still reach them and refuse.
        block = np.zeros((16, 3))
        block[13] = 0.5e154, 0.5e154, 0.9e154
        block[14:] = -0.5e154, -0.5e154, 0.0
        assert duals._climb(block, 2.0) == (13,)
        assert math.isfinite(walk_value(block, (13,), 2.0))
        wide = np.random.default_rng(44).uniform(-1.0, 1.0, (16, 6)) * 1e308
        for m, e in ((block, 2.0), (wide, 1.0), (wide, 3.0)):
            with pytest.raises(OverflowError, match="leaves double range$"):
                subset_sup(MatrixWindow(m), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, len(m))

    @pytest.mark.parametrize("kind", ("gaussian", "integers", "triangular", "wide", "sparse",
                                      "tiny", "signed-zeros"))
    def test_climb_returns_a_sorted_nonempty_row_tuple(self, kind):
        rng = np.random.default_rng(len(kind))
        for r in range(14, 21):
            block = random_block(kind, rng, r, int(rng.integers(1, 41)))
            if not block.any():
                continue
            for e in (0.5, 1.0, 2.6):
                seed = duals._climb(block, e)
                assert seed and list(seed) == sorted(set(seed))
                assert all(type(j) is int and 0 <= j < r for j in seed)

    def test_the_seed_spares_most_raised_subsets(self, monkeypatch):
        # Without a good seed the cut starts at the root's probe and the
        # walk raises many subsets a better cut would have skipped.  Counted
        # as the rows `_node_values` is given; no timing.
        lam = termwise_window(SeqWindow(np.random.default_rng(2).normal(size=36)),
                              0.7, QParam(0.6))[:20]
        evaluate, rows = duals._node_values, []

        def node_values(sums, exponent):
            rows.append(sums.shape[0])
            return evaluate(sums, exponent)

        monkeypatch.setattr(duals, "_node_values", node_values)
        raised, results = [], []
        for climb in (duals._climb, lambda block, e: (0,)):
            monkeypatch.setattr(duals, "_climb", climb)
            rows.clear()
            results.append([subset_sup(MatrixWindow(lam), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM,
                                       20) for e in (0.73, 1.5, 2.0)])
            raised.append(sum(rows))
        monkeypatch.undo()
        assert results[0] == results[1] == [exhaustive_sum_walk(lam, e) for e in (0.73, 1.5, 2.0)]
        assert raised[0] < raised[1] / 10


def overflowing_gram_block(signs):
    """An 18 x 5 block whose high rows 13, 14, ... are +-x v, signed by
    ``signs``: at 1e200 over low rows scaled by 1e110 for two signs, so
    each Gram product 2 <a_h, t> with a low subset t overflows, and for
    four signs so that only the sum of the first two products does."""
    block = np.random.default_rng(40).normal(size=(18, 5))
    v = block[13].copy()
    if len(signs) == 2:
        block[:13] *= 1e110
    g = 2.0 * v @ subset_column_sums(block[:13])
    x = 1e200 if len(signs) == 2 else -0.75 * np.finfo(float).max / g[np.abs(g).argmax()]
    block[13 : 13 + len(signs)] = np.outer(signs, x * v)
    return block


def assert_no_bound_below_its_limit(sq, values, n, e, where):
    """No bound sq[j] lies below `duals._norm_limit` of values[j].  The
    limit is 0.0 or within a few units in the last place of a numpy
    estimate, so only the bounds below the estimate widened by 2^-40 (and
    a few subnormal steps) are checked against the Python-float limit."""
    scale = n ** max(1.0 - e / 2, 0.0) * (1.0 + 4 * (n + 16) * duals._UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = (np.maximum(values - duals._SMALLEST_NORMAL, 0.0) / scale) ** (2.0 / e)
        near = ~(sq >= estimate * (1.0 + 2.0**-40) + 2.0**-1060) & ~np.isnan(sq)
    for j in np.flatnonzero(near).tolist():
        assert not sq[j] < duals._norm_limit(float(values[j]), int(n), e), (where, j)


class TestSubsetNormBounds:
    """Each visited node of the sum-mode walk keeps only the subsets whose
    squared-norm bound (`duals._norm_bounds`) is not below the limit of the
    best value (`duals._norm_limit`); no subset may be dropped at a cut its
    own value reaches, whatever the summation order of the bound's Gram
    product and of its sums over each node's rows."""

    @staticmethod
    def _check_every_node(monkeypatch, block, e, split=None):
        """Walk ``block`` with no subtree skipped, so the nodes come in
        lexicographic order, at the walk's own split or at ``split``, and
        check each node's bound row (`_norm_bounds`, formed once per visited
        node) against the values `_node_values` computes for all of its
        subsets: no bound may lie below its subset's `_norm_limit`."""
        recorded, splits = [], []

        def norm_bounds(*args, inner=duals._norm_bounds):
            sq = inner(*args)
            recorded.append(sq.copy())
            return sq

        def never_pruning(block, e, best, inner=duals._subtree_bound):
            low = inner(block, e, best)[0] if split is None else min(split, len(block))
            splits.append(low)
            return low, lambda head, first: [np.inf] * (len(block) - first)

        monkeypatch.setattr(duals, "_norm_bounds", norm_bounds)
        monkeypatch.setattr(duals, "_subtree_bound", never_pruning)
        with np.errstate(over="ignore", invalid="ignore"):
            got = duals._sum_exhaustive(block, e)
        monkeypatch.undo()
        rows = block.shape[0]
        low = splits[0] if splits else rows  # an all-zero block returns first
        high = range(low, rows)
        paths = sorted(p for d in range(len(high) + 1) for p in itertools.combinations(high, d))
        assert len(recorded) == (len(paths) if splits else 0)
        table = subset_column_sums(block[:low])
        live = np.count_nonzero(block.any(axis=0))
        for path, sq in zip(paths, recorded):
            sums = table.copy()
            for h in path:
                sums += block[h, :, None]
            with np.errstate(over="ignore", invalid="ignore"):
                values = duals._node_values(np.ascontiguousarray(sums.T), e)
            assert_no_bound_below_its_limit(sq, values, live, e, path)
        return got, recorded
    @pytest.mark.parametrize("e", TestSumModePruning.EXPONENTS)
    @pytest.mark.parametrize("ks", [(-1, 3, 2), (6, 4, -5)])
    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("scale", [1.0, 3.0**-225])
    def test_rounding_slack_where_the_bound_is_exact(self, monkeypatch, e, ks, n, scale):
        # Rows c_j v with v of +-1 entries and three zero columns: every
        # nonzero |s_k| of a subset is |sum c_j|, where the power-mean
        # inequality over the n live columns is an equality (and
        # ||s||_e = ||s||_2 at n = 1), so only the rounding slack keeps the
        # bound above the computed values.  At 3^-225 the cubes are subnormal.
        c = np.zeros(16)
        c[[0, 5]] = scale, -scale
        c[13:] = np.array(ks) * scale * 2.0**-54
        v = np.r_[0.0, np.where(np.arange(n) % 3 == 1, -1.0, 1.0), -0.0, 0.0]
        got, _ = self._check_every_node(monkeypatch, np.outer(c, v), e)
        if scale == 1.0:  # subnormal values tie and survive, which makes the walk slow
            assert got == exhaustive_sum_walk(np.outer(c, v), e)

    @pytest.mark.parametrize("e", TestSumModePruning.EXPONENTS)
    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize(
        "rows",
        [
            # Row order rounds 3 * 2^-14 + 2^40 up to 2^40 + 2^-12, so the
            # subset {0, 13, 14} sums to 2^-12, while the table's 3 * 2^-14
            # plus the head 2^40 - 2^40 is a quarter less.
            {0: 3 * 2.0**-14, 13: 2.0**40, 14: -(2.0**40)},
            # {0, 13} sums to 2^-30, but the square of the head -1 + 2^-30
            # loses its 2^-60, and the expansion of ||t + c||^2 reads 0.
            {0: 1.0, 13: -1.0 + 2.0**-30},
        ],
    )
    def test_the_walk_and_the_expansion_round_apart(self, monkeypatch, e, n, rows):
        c = np.zeros(16)
        c[list(rows)] = list(rows.values())
        self._check_every_node(monkeypatch, np.outer(c, np.ones(n)), e)

    KINDS = TestSumModePruning.KINDS + ("signed-zeros",)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_node_drops_a_subset_its_value_reaches(self, monkeypatch, kind):
        rng = np.random.default_rng(50 + self.KINDS.index(kind))
        # Both sides of e = 2, where the power-mean factor n^(1-e/2) ends.
        exponents = (0.5, 1.37, 2.0, 3.4)
        for e in exponents[self.KINDS.index(kind) % 2 :: 2]:
            block = random_block(kind, rng, int(rng.integers(16, 21)), int(rng.integers(1, 41)))
            for split in (None, 11):
                got, _ = self._check_every_node(monkeypatch, block, e, split)
                assert got == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("n", [1, 8, 40])
    def test_a_single_tiny_row_keeps_its_only_subset(self, monkeypatch, n):
        # The squares round to 0 or to the least subnormal, while the limit
        # on ||s||_2^2 of the row's value is a few subnormal steps.
        rng = np.random.default_rng(n)
        for _ in range(4):
            block = rng.uniform(0.5, 1.5, size=(1, n)) * 1e-162
            for e in (0.5, 1.0, 1.5):
                got, _ = self._check_every_node(monkeypatch, block, e)
                assert got == exhaustive_sum_walk(block, e)
                assert got[0] > 0.0

    @pytest.mark.parametrize("e", (0.73, 1.37, 2.0))
    @pytest.mark.parametrize("signs", [(1, -1), (1, 1, -1, -1)])
    def test_overflowed_gram_products_are_never_pruned(self, monkeypatch, e, signs):
        # High rows +-x v cancel in the head of the deepest node, while
        # their Gram products 2 <a_h, t> with the low subsets overflow: at
        # 1e200 over low rows scaled by 1e110 each of them, and for
        # (1, 1, -1, -1) only the partial sum of the first two, which
        # reaches -inf on some subsets.  No bound may read -inf there: it
        # would drop every subset of the node.
        block = overflowing_gram_block(signs)
        table = subset_column_sums(block[:13])
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (2.0 * block[13:]) @ table
            pair = gram[0] + gram[1]
        if len(signs) == 2:
            assert np.isinf(gram).any()
        else:
            assert np.isfinite(gram).all() and np.isneginf(pair).any()
        got, recorded = self._check_every_node(monkeypatch, block, e)
        assert not any(np.isneginf(sq).any() for sq in recorded)
        with np.errstate(over="ignore"):
            assert got == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("split", (None, 7))
    @pytest.mark.parametrize("e", (0.73, 2.0))
    def test_per_row_dot_products_round_apart_from_the_head(self, monkeypatch, e, split):
        # Seven high rows near +-2^40 leave a head near 2^40: the sum of
        # their seven Gram products, rounded at 2^-12 or so each, differs
        # from one product with the head on the deepest path.  At split 7
        # up to 13 products are added to the table's norm terms.
        rng = np.random.default_rng(42)
        block = rng.normal(size=(20, 6))
        block[13:] += np.where(np.arange(7) % 2 == 0, 2.0**40, -(2.0**40))[:, None]
        table = subset_column_sums(block[:13])
        gram = (2.0 * block[13:]) @ table
        dots, head = np.zeros(table.shape[1]), np.zeros(6)
        for h in range(13, 20):
            dots, head = dots + gram[h - 13], head + block[h]
        assert not np.array_equal(dots, (2.0 * head) @ table)
        got, _ = self._check_every_node(monkeypatch, block, e, split)
        assert got == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("tied", [False, True])
    def test_witness_of_one_or_several_maximisers(self, monkeypatch, tied):
        # Rows 0 and 1 of 2^-80 are lost in any sum with the other rows, so
        # with them every node's top is reached by four subsets, the least
        # holding both; a Gaussian block has one maximiser per node.
        block = np.random.default_rng(43).normal(size=(16, 4))
        if tied:
            block[:2] = 2.0**-80
        sizes = []

        def lex_least(masks, inner=duals._lex_least):
            sizes.append(masks.size)
            witness = inner(masks)
            assert witness == min(
                tuple(j for j in range(16) if m >> j & 1) for m in masks.tolist()
            )
            return witness

        monkeypatch.setattr(duals, "_lex_least", lex_least)
        got = duals._sum_exhaustive(block, 1.37)
        monkeypatch.undo()
        assert got == exhaustive_sum_walk(block, 1.37)
        assert set(sizes) == ({4} if tied else {1})
        if tied:
            assert got[1][:2] == (0, 1)

    @pytest.mark.parametrize("row", [3, 17])
    def test_nan_rows_are_never_pruned(self, monkeypatch, row):
        block = np.random.default_rng(38).normal(size=(18, 6))
        block[row, 2] = np.nan
        _, recorded = self._check_every_node(monkeypatch, block, 1.37)
        assert all(np.isnan(sq).all() for sq in recorded)  # the drift term is NaN
        with np.errstate(invalid="ignore"):
            assert duals._sum_exhaustive(block, 1.37) == exhaustive_sum_walk(block, 1.37)


def per_child_bound(block, low, exponent):
    """Subtree bounds of one child at a time, ``bound(head, h)``: the sum
    over columns of max(|tmax + H + a_h + P|, |tmin + H + a_h + N|) plus
    slack, raised and scaled, each child's row on its own."""
    rows, n = block.shape

    def reach(part):
        after = np.vstack([np.cumsum(part[:low:-1], axis=0)[::-1], np.zeros((1, n))])
        return part[:low].sum(axis=0) + after

    upper = reach(np.maximum(block, 0.0)) + block[low:]
    lower = reach(np.minimum(block, 0.0)) + block[low:]
    slack = 4 * rows * duals._UNIT_ROUNDOFF * np.abs(block).sum(axis=0)
    scale = 1.0 + 4 * (n + 16) * duals._UNIT_ROUNDOFF

    def bound(head, h):
        ends = np.maximum(np.abs(head + upper[h - low]), np.abs(head + lower[h - low]))
        return float(((ends + slack) ** exponent).sum()) * scale + duals._SMALLEST_NORMAL

    return bound


class TestSumModeSplit:
    """The walk's low table holds the first s rows, s chosen per block by
    its bound build (`duals._subtree_bound`).  A subset's sums are its rows
    added in row order from +0.0 whichever rows the table holds, so every s
    from 7 to 13, forced by putting the per-split builder
    (`oracles.subtree_bounds_at`) in the build's place, must give the value
    and the witness of the walk that evaluates every subset, bit for bit."""

    @staticmethod
    def _at_every_split(monkeypatch, block, e):
        with np.errstate(over="ignore", invalid="ignore"):
            want = exhaustive_sum_walk(block, e)
            for s in range(7, 14):
                monkeypatch.setattr(duals, "_subtree_bound", lambda b, e, best, s=s: (
                    min(s, len(b)), subtree_bounds_at(b, s, e) if len(b) > s else None))
                assert same_bits(duals._sum_exhaustive(block, e), want), s
        monkeypatch.undo()
        return want

    @pytest.mark.parametrize("kind", TestSubsetNormBounds.KINDS)
    def test_random_blocks(self, monkeypatch, kind):
        rng = np.random.default_rng(80 + TestSubsetNormBounds.KINDS.index(kind))
        for trial in range(3):
            block = random_block(kind, rng, int(rng.integers(8, 19)), int(rng.integers(1, 25)))
            self._at_every_split(monkeypatch, block, (0.6, 1.37, 2.9)[trial])

    def test_termwise_windows(self, monkeypatch):
        for seed in range(2):
            a = SeqWindow(np.random.default_rng(seed).normal(size=36))
            lam = termwise_window(a, 0.7, QParam(0.6))
            for r, e in ((16, 0.73), (20, 1.5), (18, 3.0)):
                self._at_every_split(monkeypatch, lam[:r], e)

    @pytest.mark.parametrize("rows", [(2,), (14,), (3, 15), (16,)])
    def test_nan_rows(self, monkeypatch, rows):
        # The walk passes over every node holding a NaN value, finite
        # subsets and all, so which subsets share a node with a NaN row
        # decides the result.  A row below 7 is in the table at every split
        # (no subset is taken: the result is (-inf, ())) and a row past 12
        # is a high row at every split.  A NaN between them would be taken
        # apart by the splits; a block with NaN gets no seed, and the walk
        # keeps 13 rows for it.
        block = np.random.default_rng(39).normal(size=(17, 5))
        block[list(rows), 1] = np.nan
        block[rows[-1]] = np.nan
        want = self._at_every_split(monkeypatch, block, 1.37)
        assert (want[0] == -math.inf) == (min(rows) < 7)
        assert duals._subtree_bound(block, 1.37, -math.inf)[0] == 13

    @pytest.mark.parametrize("signs", [(1, -1), (1, 1, -1, -1)])
    def test_overflowing_gram_products(self, monkeypatch, signs):
        self._at_every_split(monkeypatch, overflowing_gram_block(signs), 1.37)

    def test_signed_zeros_and_subnormal_scale(self, monkeypatch):
        # Rows c_j v of the rounding-slack blocks, whose norm bounds are
        # exact; at 3^-225 the values are subnormal and tie.
        c = np.zeros(16)
        c[[0, 5]] = 1.0, -1.0
        c[13:] = np.array((6, 4, -5)) * 2.0**-54
        v = np.r_[0.0, -0.0, 1.0, -1.0, 1.0]
        for scale in (1.0, 3.0**-225):
            for e in (0.5, 1.0, 3.0):
                self._at_every_split(monkeypatch, np.outer(c * scale, v), e)
        signed = np.where(np.random.default_rng(5).random((15, 4)) < 0.5, -0.0, 0.0)
        signed[[3, 9, 14], 2] = -1.0, 0.5, 2.0
        self._at_every_split(monkeypatch, signed, 1.5)

    def test_the_chosen_split(self, monkeypatch):
        # Dense Gaussian blocks prune no child of the root: 13 rows.  On a
        # termwise-product window the root keeps few children: fewer rows.
        splits = []

        def build(*args, inner=duals._subtree_bound):
            low, bounds = inner(*args)
            splits.append(low)
            return low, bounds

        monkeypatch.setattr(duals, "_subtree_bound", build)
        for seed in range(3):
            block = np.random.default_rng(seed).normal(size=(20, 16))
            for e in (0.73, 1.28, 2.0, 2.6):
                duals._sum_exhaustive(block, e)
        assert splits == [13] * 12
        lam = termwise_window(SeqWindow(np.random.default_rng(2).normal(size=36)), 0.7, QParam(0.6))
        duals._sum_exhaustive(lam[:20], 2.0)
        assert splits[-1] < 13


class TestNormLimit:
    """`duals._norm_limit` takes the cut as a Python float.  At every edge of
    the double range it returns 0.0, or a q whose computed F(q) is below the
    cut and whose exact F(q), less the spare of its rounding factor, is too."""

    CUTS = (-math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-310, 2.0**-1022 / 2, 2.0**-1022,
            math.nextafter(2.0**-1022, 1.0), 3 * 2.0**-1022, 1e-300, 1e-150, 1e-5, 1.0, 2.0,
            1e150, 1e300, 1e308, float(np.finfo(float).max), math.inf, math.nan)
    EXPONENTS = tuple(np.geomspace(1e-3, 1e3, 13).tolist()) + (0.73, 1.0, 2.0, 2.6)
    NS = (1, 2, 3, 8, 40, 1000, 2**20)

    def test_zero_or_a_limit_below_the_cut(self):
        u, tiny = duals._UNIT_ROUNDOFF, duals._SMALLEST_NORMAL
        positive = 0
        for cut, e, n in itertools.product(self.CUTS, self.EXPONENTS, self.NS):
            q = duals._norm_limit(cut, n, e)
            assert type(q) is float
            if not tiny < cut < math.inf:
                assert q == 0.0, (cut, e, n)
            if q == 0.0:
                continue
            positive += 1
            a = max(1.0 - e / 2, 0.0)
            scale = n**a * (1.0 + 4 * (n + 16) * u)
            assert 0.0 < q < math.inf and q ** (e / 2) * scale + tiny < cut, (cut, e, n)
            with mpmath.workdps(60):
                exact = mpmath.mpf(n) ** a * mpmath.mpf(q) ** (mpmath.mpf(e) / 2)
                assert exact * (1 + (n + 16) * mpmath.mpf(u)) < cut, (cut, e, n)
        assert positive > len(self.EXPONENTS) * len(self.NS) * 6


class TestSubtreeBounds:
    """`duals._subtree_bound` builds the walk's bounds once per block, for
    the split it chooses, and bounds all of a node's children in one call.
    The split must be the one the per-split builder
    (`oracles.subtree_bounds_at`) gives by the rule of three candidates,
    the smallest s of 10 to 12 with at most 13 - s depth-1 bounds reaching
    the best value, else 13; each bound must have the bits of that builder
    and of the child's own evaluation at every column count, and must bound
    every subset of its subtree."""

    @staticmethod
    def _nodes(rng, block, low):
        """(head, first) for each high row ``first``: a random set of the
        high rows before it, summed from +0.0 in row order as the walk does."""
        for first in range(low, len(block)):
            head = np.zeros(block.shape[1])
            for h in range(low, first):
                if rng.random() < 0.5:
                    head += block[h]
            yield head, first

    @staticmethod
    def _split_rule(block, e, best):
        """The smallest s of 10 to 12 with at most 13 - s depth-1 bounds of
        the per-split builder reaching ``best``, else 13."""
        zeros = np.zeros(block.shape[1])
        return next((s for s in (10, 11, 12)
                     if sum(not b < best for b in subtree_bounds_at(block, s, e)(zeros, s)) <= 13 - s),
                    13)

    @pytest.mark.parametrize("kind", TestSubsetNormBounds.KINDS + ("nan", "inf"))
    def test_one_build_matches_each_split_and_child(self, kind):
        rng = np.random.default_rng(90 + len(kind))
        checked, splits = 0, set()
        for trial in range(16):
            r = int(rng.integers(14, 21))
            n = 1 if trial % 4 == 3 else int(rng.integers(2, 41))  # one column: a pairwise sum
            if kind in ("nan", "inf"):
                block = rng.normal(size=(r, n))
                bad = rng.random((r, n)) < 0.05
                bad[rng.integers(r)] = True  # and one whole row
                block[bad] = np.nan if kind == "nan" else np.where(rng.random(bad.sum()) < 0.5,
                                                                   -np.inf, np.inf)
            else:
                block = random_block(kind, rng, r, n)
            e = float(rng.choice([0.5, 0.73, 1.0, 1.37, 2.0, 2.6, 3.4]))
            with np.errstate(over="ignore", invalid="ignore"):
                root = subtree_bounds_at(block, 10, e)(np.zeros(n), 10)
                best = (-math.inf, math.inf, float(np.median(root)))[trial % 3]
                low, bounds = duals._subtree_bound(block, e, best)
                assert low == self._split_rule(block, e, best), trial
                splits.add(low)
                split, own = subtree_bounds_at(block, low, e), per_child_bound(block, low, e)
                for head, first in self._nodes(rng, block, low):
                    got = bounds(head, first)
                    want = split(head, first)
                    assert len(got) == len(want) == r - first
                    for h, (g, w) in enumerate(zip(got, want), first):
                        assert type(g) is float
                        assert g.hex() == w.hex() or (math.isnan(g) and math.isnan(w)), (trial, h)
                        x = own(head, h)
                        assert g.hex() == x.hex() or (math.isnan(g) and math.isnan(x)), (trial, h)
                    checked += len(got)
        assert checked > 100
        assert {10, 13} <= splits or kind in ("nan", "inf")

    def test_one_column_bounds_cover_their_subtrees(self):
        # Every subset L + H + {h} + S is checked against the bound of each
        # node on its path, at the splits of three best values, valued in
        # the walk's arithmetic.
        rng = np.random.default_rng(94)
        checked, splits = 0, set()
        for trial in range(6):
            r = int(rng.integers(14, 16))
            block = rng.normal(size=(r, 1)) * 10.0 ** rng.integers(-8, 9, (r, 1))
            if trial % 3 == 1:
                block = np.round(block * 4) / 4
            e = (0.5, 1.0, 2.6)[trial % 3]
            values = duals._node_values(np.ascontiguousarray(subset_column_sums(block).T), e)
            for best in (-math.inf, float(values.max()), math.inf):
                low, bounds = duals._subtree_bound(block, e, best)
                splits.add(low)
                for high in range(1, 1 << (r - low)):
                    path = [low + j for j in range(r - low) if high >> j & 1]
                    masks = np.arange(1 << low) | sum(1 << h for h in path)
                    head = np.zeros(1)
                    for i, h in enumerate(path):  # the subtree of child h at node path[:i]
                        first = path[i - 1] + 1 if i else low
                        bound = bounds(head, first)[h - first]
                        assert not (values[masks] > bound).any(), (trial, low, path[: i + 1])
                        head += block[h]
                        checked += 1
        assert {10, 13} <= splits and checked > 500


class TestMatrixClassCondition:
    def test_row_abs_sum_on_identity(self):
        rep = matrix_class_condition(
            MatrixWindow(np.eye(16), triangular=True), Condition.ROW_ABS_SUM_SUP
        )
        assert all(v == 1.0 for _, v in rep.values)
        assert rep.verdict is Verdict.BOUNDED_ON_WINDOW

    def test_column_limits_on_shrinking_rows(self):
        n = 32
        entries = np.array([[1.0 / (j + 1)] * n for j in range(n)])
        rep = matrix_class_condition(MatrixWindow(entries), Condition.COLUMN_LIMITS)
        vals = [v for _, v in rep.values]
        assert vals[-1] < vals[0]
        assert rep.verdict is Verdict.BOUNDED_ON_WINDOW

    def test_row_sums_grow_on_all_ones_triangle(self):
        m = MatrixWindow(np.tril(np.ones((32, 32))), triangular=True)
        rep = matrix_class_condition(m, Condition.ROW_ABS_SUM_SUP)
        assert rep.verdict is Verdict.GROWING
        assert dict(rep.values)[32] == 32.0

    def test_regime_mismatch_raises(self):
        m = MatrixWindow(np.eye(8))
        with pytest.raises(InvalidCondition):
            matrix_class_condition(m, Condition.ROW_POWER_SUM_SUP, PExponent(0.5))
        with pytest.raises(InvalidCondition):
            matrix_class_condition(m, Condition.ENTRY_SUP, PExponent(2.0))
        with pytest.raises(InvalidCondition):
            matrix_class_condition(m, Condition.SECTION_ENTRY_SUP)

    def test_condition_given_by_value_is_its_member(self):
        # "entry-sup" ran the row abs-sum, 7.0, in a report without as_dict.
        m, p = MatrixWindow(np.array([[1.0, -2.0], [3.0, 4.0]])), PExponent(0.5)
        rep = matrix_class_condition(m, "entry-sup", p)
        assert rep.values == ((2, 2.0),)
        assert rep.as_dict() == matrix_class_condition(m, Condition.ENTRY_SUP, p).as_dict()
        for bad in (None, "entry", SubsetMode.SUP_OVER_COLS_OF_ABS):
            with pytest.raises(ValueError, match="is not a valid Condition$"):
                matrix_class_condition(m, bad, p)

    def test_plain_float_p_is_its_type(self):
        # A float p failed in `_regime` with a raw AttributeError.
        m = MatrixWindow(np.array([[1.0, -2.0], [3.0, 4.0]]))
        for cond, p in ((Condition.ENTRY_SUP, 0.5), (Condition.ROW_POWER_SUM_SUP, 3.0)):
            expect = matrix_class_condition(m, cond, PExponent(p))
            assert matrix_class_condition(m, cond, p).as_dict() == expect.as_dict()
        with pytest.raises(ValueError, match="^p must be positive and finite, got -2.0$"):
            matrix_class_condition(m, Condition.ENTRY_SUP, -2.0)

    def test_value_outside_double_range_raises_overflow_error(self):
        # The suite turns warnings into errors: the refusal must be the
        # OverflowError, not numpy's RuntimeWarning.
        m = MatrixWindow(np.full((4, 4), 1e308))
        with pytest.raises(OverflowError, match="^row-abs-sum-sup at window size 4 leaves"):
            matrix_class_condition(m, Condition.ROW_ABS_SUM_SUP)
        with pytest.raises(OverflowError, match="entry-sup at window size 4 with exponent 2.0"):
            matrix_class_condition(m, Condition.ENTRY_SUP, exponent=2.0)
        with pytest.raises(OverflowError, match="row-subset-entry-sup at window size 4"):
            matrix_class_condition(m, Condition.SUBSET_ENTRY_SUP, PExponent(0.5))

    def test_dual_checks_refuse_overflow(self):
        big = SeqWindow(np.full(4, 1e308))
        with pytest.raises(OverflowError, match="row-subset-abs-colsum-sup"):
            alpha_dual_check(big, 1.0, QParam(0.5), PExponent(2.0), (4,))
        with pytest.raises(OverflowError,
                           match="^partial-sum window of order 1.0 at q = 0.5 leaves"):
            beta_dual_check(big, 1.0, QParam(0.5), PExponent(2.0))
        # p' = 4.5e15 sends 1.0 ** p' to 1 but the partial sum 2.0 past range.
        with pytest.raises(OverflowError, match="row-power-sum-sup at window size 4"):
            gamma_dual_check(SeqWindow(np.ones(8)), 1.0, QParam(0.5),
                             PExponent(1.0000000000000002))

    @pytest.mark.parametrize("p", [PExponent(0.5), PExponent(2.0), P_INF], ids=str)
    def test_dual_windows_past_double_range_are_named(self, p):
        # e_1 = [2]_q = 1.9 at order 2, q = 0.9: the windows' entries pass
        # 1e308 although every input entry is finite.  The suite turns
        # numpy's warnings into errors, so none may be raised on the way.
        big, qp = SeqWindow(np.full(16, 1e308)), QParam(0.9)
        with pytest.raises(OverflowError, match=r"^termwise-product window of order 2\.0 "
                                                r"at q = 0\.9 leaves double range$"):
            alpha_dual_check(big, 2.0, qp, p, (4, 8, 16))
        for check in (beta_dual_check, gamma_dual_check):
            with pytest.raises(OverflowError, match=r"^partial-sum window of order 2\.0 "
                                                    r"at q = 0\.9 leaves double range$"):
                check(big, 2.0, qp, p)

    def test_alpha_row_limits_must_be_integers(self):
        # [1.5, 3] was read as row limits 1 and 3.
        with pytest.raises(ValueError, match=r"^row_limits must be integers, got \(1\.5, 3\)$"):
            alpha_dual_check(SeqWindow(np.ones(8)), 1.0, QParam(0.5), PExponent(2.0), [1.5, 3])


class TestConditionTable:
    """Each condition's estimate, limit and exponent rule stand in its one
    row of `duals._CONDITIONS`; a section condition's row names its twin."""

    SECTIONS = {
        Condition.SECTION_COLUMN_LIMITS: Condition.COLUMN_LIMITS,
        Condition.SECTION_ENTRY_SUP: Condition.ENTRY_SUP,
        Condition.SECTION_POWER_SUM_SUP: Condition.ROW_POWER_SUM_SUP,
        Condition.SECTION_ABS_SUM_MATCH: Condition.ABS_ROW_SUM_INTERCHANGE,
    }

    def test_one_row_per_condition(self):
        assert len(duals._CONDITIONS) == len(Condition)
        assert set(duals._CONDITIONS) == set(Condition)
        for facts in duals._CONDITIONS.values():
            assert isinstance(facts.estimate, (Condition, SubsetMode)) or facts.estimate in (
                "entries", "max", "sum")
            assert facts.limit in (None, "zero", "spread")
            assert facts.rule in (None, "conjugate", "strict", "le1", "finite")
            assert facts.columns in (False, isinstance(facts.estimate, SubsetMode))

    def test_section_rows_name_a_single_window_twin(self):
        twins = {cond: facts.estimate for cond, facts in duals._CONDITIONS.items()
                 if isinstance(facts.estimate, Condition)}
        assert twins == self.SECTIONS
        for cond, twin in twins.items():
            assert duals._single(cond) is twin and duals._single(twin) is twin
            # Neither a section nor a subset condition: an estimate to fold.
            assert isinstance(duals._CONDITIONS[twin].estimate, str)

    def test_a_section_condition_shrinks_as_its_twin(self):
        # The shrink flag is stated once, on the twin's row: a falling
        # profile reads as bounded for a limit, inconclusive for a supremum.
        for cond, twin in self.SECTIONS.items():
            assert duals._CONDITIONS[cond].limit is None
            shrinks = duals._CONDITIONS[twin].limit is not None
            limits = (Condition.COLUMN_LIMITS, Condition.ABS_ROW_SUM_INTERCHANGE)
            assert shrinks == (twin in limits)
            for c in (cond, twin):
                rep = duals._report(c, (1, 2), iter([1.0, 0.1]), None, {})
                want = Verdict.BOUNDED_ON_WINDOW if shrinks else Verdict.INCONCLUSIVE
                assert rep.verdict is want

    @pytest.mark.parametrize("p", [PExponent(0.5), PExponent(1.0), PExponent(2.0), P_INF],
                             ids=str)
    def test_dual_checks_evaluate_the_conditions_of_the_regime(self, p):
        a, qp = SeqWindow(np.ones(8)), QParam(0.5)
        want = {check: row[duals._regime(p)] for check, row in duals._DUAL_CONDITIONS.items()}
        assert alpha_dual_check(a, 1.0, qp, p, [4, 8]).condition_id is want["alpha"]
        beta = [rep.condition_id for rep in beta_dual_check(a, 1.0, qp, p)]
        assert beta == [Condition.COLUMN_LIMITS, want["beta"]]
        assert gamma_dual_check(a, 1.0, qp, p).condition_id is want["gamma"]


class TestAlphaDual:
    def test_sup_mode_reports_take_subset_sups(self):
        # Each value is subset_sup's on its window, and the witness is the
        # last window's.
        a = SeqWindow(np.random.default_rng(25).normal(size=24))
        rls = (2, 5, 9, 14, 20)
        rep = alpha_dual_check(a, 0.7, QParam(0.6), PExponent(0.7), rls)
        m = MatrixWindow(termwise_window(a, 0.7, QParam(0.6)))
        sups = [subset_sup(m, 0.7, SubsetMode.SUP_OVER_COLS_OF_ABS, rl) for rl in rls]
        assert rep.values == tuple((rl, v) for rl, (v, _) in zip(rls, sups))
        assert rep.detail["witness"] == list(sups[-1][1])
        rep = matrix_class_condition(m, Condition.SUBSET_ENTRY_SUP, PExponent(0.5), row_limit=20)
        sups = [subset_sup(MatrixWindow(m.entries[:cp, :cp]), 0.5, SubsetMode.SUP_OVER_COLS_OF_ABS,
                           min(cp, 20)) for cp, _ in rep.values]
        assert rep.values == tuple((cp, v) for (cp, _), (v, _) in zip(rep.values, sups))
        assert rep.detail["witness"] == list(sups[-1][1])

    def test_stream_stops_at_the_last_row_read(self, monkeypatch):
        # Row j of the window reads lags up to j, so the rows the suprema
        # read (at most 20) need no lag past the last of them.
        lags = []

        def recorded(order, qp, k):
            lags.append(k)
            return inverse_coeffs(order, qp, k)

        monkeypatch.setattr(duals, "inverse_coeffs", recorded)
        a = SeqWindow(np.random.default_rng(26).normal(size=64))
        for rls in ((3,), (4, 8, 12), (5, 20), (8, 16, 24)):
            try:
                alpha_dual_check(a, 0.7, QParam(0.6), PExponent(2.0), rls)
            except LimitError:  # past the 20-row cap: the stream is built first
                assert rls[-1] > duals.MAX_SUBSET_ROWS
            assert lags.pop() == min(rls[-1], duals.MAX_SUBSET_ROWS) - 1
        assert not lags

    @pytest.mark.parametrize("n", [36, 8192, 65536])
    def test_window_matches_the_one_cut_from_every_lag(self, n):
        # The same rows cut from the window of the whole n-lag stream, an
        # n x n Toeplitz view: every report and witness keeps its bits.
        a = SeqWindow(np.random.default_rng(n).normal(size=n))
        qp = QParam(0.6)
        for order, p, rls in ((0.7, P_INF, (4, 8)), (-0.5, PExponent(0.7), (4, 12)),
                              (1.3, PExponent(1.25), (3, 8)), (2.0, PExponent(2.0), (4, 12))):
            rep = alpha_dual_check(a, order, qp, p, rls)
            t_e = _lower_toeplitz(inverse_coeffs(order, qp, n - 1).coeffs, n)
            lam = MatrixWindow(a.values[: rls[-1], None]
                               * t_e[: rls[-1], : duals._live_width(n, rls[-1])])
            mode, e = duals._CONDITIONS[rep.condition_id].estimate, rep.detail["exponent"]
            sups = [subset_sup(lam, e, mode, rl) for rl in rls]
            assert rep.values == tuple((rl, v) for rl, (v, _) in zip(rls, sups))
            assert rep.detail["witness"] == list(sups[-1][1])

    def test_finitely_supported_multiplier_stabilizes(self):
        a = SeqWindow(np.concatenate([[1.0, -2.0], np.zeros(14)]))
        rep = alpha_dual_check(a, 1.0, QParam(0.5), PExponent(2.0), [4, 8, 12])
        vals = [v for _, v in rep.values]
        assert vals[0] == vals[-1]
        assert rep.verdict is Verdict.BOUNDED_ON_WINDOW

    def test_all_ones_grows(self):
        # Exhaustive direct enumeration gives 30, 204, 650 at limits 4, 8, 12
        # (the full subset maximizes; column sums m-k with squares summed).
        a = SeqWindow(np.ones(16))
        rep = alpha_dual_check(a, 1.0, QParam(0.5), PExponent(2.0), [4, 8, 12])
        assert [v for _, v in rep.values] == [30.0, 204.0, 650.0]
        assert rep.verdict is Verdict.GROWING

    def test_zero_multiplier(self):
        rep = alpha_dual_check(
            SeqWindow(np.zeros(16)), 0.5, QParam(0.5), P_INF, [4, 8]
        )
        assert all(v == 0.0 for _, v in rep.values)
        assert rep.verdict is Verdict.BOUNDED_ON_WINDOW

    def test_case_split_conditions(self):
        a = SeqWindow(np.ones(8))
        qp = QParam(0.5)
        rep_low = alpha_dual_check(a, 1.0, qp, PExponent(1.0), [4, 8])
        assert rep_low.condition_id is Condition.SUBSET_ENTRY_SUP
        rep_mid = alpha_dual_check(a, 1.0, qp, PExponent(2.0), [4, 8])
        assert rep_mid.condition_id is Condition.SUBSET_ABS_COLSUM_SUP
        assert rep_mid.detail["exponent"] == 2.0
        rep_inf = alpha_dual_check(a, 1.0, qp, P_INF, [4, 8])
        assert rep_inf.condition_id is Condition.SUBSET_ABS_COLSUM_SUP
        assert rep_inf.detail["exponent"] == 1.0

    def test_row_limits_must_increase(self):
        with pytest.raises(ValueError):
            alpha_dual_check(
                SeqWindow(np.ones(8)), 1.0, QParam(0.5), PExponent(2.0), [8, 4]
            )

    def test_row_limits_past_the_window_raise(self):
        with pytest.raises(ValueError, match=r"^row_limits must lie in \[1, 4\]$"):
            alpha_dual_check(
                SeqWindow(np.ones(4)), 0.7, QParam(0.6), PExponent(2.0), [4, 8, 16]
            )

    def test_limit_error_propagates(self):
        with pytest.raises(LimitError):
            alpha_dual_check(
                SeqWindow(np.ones(24)), 1.0, QParam(0.5), PExponent(2.0), [21]
            )

    def test_plain_float_q_and_p_are_their_types(self):
        # A float q or p failed with a raw AttributeError (no `.q`, no `.is_inf`).
        a = SeqWindow(np.random.default_rng(3).normal(size=16))
        expect = alpha_dual_check(a, 0.7, QParam(0.6), PExponent(2.0), [4, 14])
        assert alpha_dual_check(a, 0.7, 0.6, 2.0, [4, 14]).as_dict() == expect.as_dict()
        with pytest.raises(ValueError, match=r"^q must lie strictly inside \(0, 1\), got 1.5$"):
            alpha_dual_check(a, 0.7, 1.5, 2.0, [4, 14])
        with pytest.raises(ValueError, match="^p must be positive and finite, got -2.0$"):
            alpha_dual_check(a, 0.7, 0.6, -2.0, [4, 14])


class TestBetaDual:
    def test_leading_impulse(self):
        a = SeqWindow(np.eye(32)[0])
        first, second = beta_dual_check(a, 1.0, QParam(0.5), PExponent(2.0))
        assert first.condition_id is Condition.COLUMN_LIMITS
        assert all(v == 0.0 for _, v in first.values)
        assert second.condition_id is Condition.ROW_POWER_SUM_SUP
        assert all(v == 1.0 for _, v in second.values)
        assert second.verdict is Verdict.BOUNDED_ON_WINDOW

    def test_zero_multiplier_holds_with_zero(self):
        reports = beta_dual_check(
            SeqWindow(np.zeros(16)), 0.7, QParam(0.9), PExponent(0.5)
        )
        for rep in reports:
            assert all(v == 0.0 for _, v in rep.values)

    def test_alternating_multiplier_never_settles(self):
        a = SeqWindow((-1.0) ** np.arange(32))
        first, _ = beta_dual_check(a, 1.0, QParam(0.5), PExponent(2.0))
        assert first.verdict in (Verdict.INCONCLUSIVE, Verdict.GROWING)
        assert dict(first.values)[32] >= 1.0

    def test_case_split(self):
        a = SeqWindow(np.ones(16))
        qp = QParam(0.5)
        _, low = beta_dual_check(a, 1.0, qp, PExponent(1.0))
        assert low.condition_id is Condition.ENTRY_SUP
        _, mid = beta_dual_check(a, 1.0, qp, PExponent(3.0))
        assert mid.condition_id is Condition.ROW_POWER_SUM_SUP
        _, top = beta_dual_check(a, 1.0, qp, P_INF)
        assert top.condition_id is Condition.ABS_ROW_SUM_INTERCHANGE

    def test_plain_float_q_and_p_are_their_types(self):
        # A float p failed in `_regime` with a raw AttributeError.
        a = SeqWindow(np.random.default_rng(4).normal(size=16))
        expect = beta_dual_check(a, 0.7, QParam(0.6), PExponent(0.5))
        got = beta_dual_check(a, 0.7, 0.6, 0.5)
        assert [r.as_dict() for r in got] == [r.as_dict() for r in expect]
        with pytest.raises(ValueError, match=r"^q must lie strictly inside \(0, 1\), got 1.5$"):
            beta_dual_check(a, 0.7, 1.5, 0.5)
        with pytest.raises(ValueError, match="^p must be positive and finite, got -2.0$"):
            beta_dual_check(a, 0.7, 0.6, -2.0)


class TestGammaDual:
    def test_leading_impulse_bounded_at_one(self):
        rep = gamma_dual_check(
            SeqWindow(np.eye(16)[0]), 1.0, QParam(0.5), PExponent(2.0)
        )
        assert all(v == 1.0 for _, v in rep.values)

    def test_zero_multiplier(self):
        rep = gamma_dual_check(SeqWindow(np.zeros(8)), 0.5, QParam(0.5), PExponent(1.0))
        assert all(v == 0.0 for _, v in rep.values)

    def test_shares_value_with_beta_companion(self):
        rng = np.random.default_rng(41)
        a = SeqWindow(rng.uniform(-1, 1, 16))
        qp = QParam(0.5)
        for p in (PExponent(0.5), PExponent(1.0), PExponent(2.0)):
            _, beta_second = beta_dual_check(a, 1.7, qp, p)
            gamma_rep = gamma_dual_check(a, 1.7, qp, p)
            assert gamma_rep.values == beta_second.values

    def test_sup_source_uses_unit_exponent(self):
        rep = gamma_dual_check(SeqWindow(np.ones(8)), 1.0, QParam(0.5), P_INF)
        assert rep.condition_id is Condition.ROW_POWER_SUM_SUP
        assert rep.detail["exponent"] == 1.0


class TestSectionKernel:
    """The streamed sections against dense windows built whole
    (`oracles.dense_section` and `oracles.dense_estimate`), bit for bit, on
    windows that span several chunks.  A 1000-entry sequence takes 65
    section rows a chunk; a matrix of 300 rows, whose 300 x 300 section
    entries pass 2^16, takes one.  Checkpoints fall on, just before and just past chunk
    ends, and below the window's end."""

    N, W = 1000, 300
    ORDER, QP = 0.7, QParam(0.6)
    SEQ_WINDOWS = (None, (3, 64, 65, 66, 130, 131, 500, 1000), (2, 65, 400))
    FAMILY_CHECKPOINTS = (None, (3, 5, 9, 150, 299))

    def test_windows_span_several_chunks(self):
        t_e = _lower_toeplitz(inverse_coeffs(self.ORDER, self.QP, self.N - 1).coeffs, self.N)
        rows = [c.shape[0] for c in duals._sections(np.ones((1, self.N)), t_e)]
        assert rows[:2] == [65, 65] and sum(rows) == self.N
        t_e = t_e[: self.W, : self.W]
        rows = [c.shape[0] for c in duals._sections(np.ones((self.W, self.W)), t_e)]
        assert rows == [1] * self.W

    @pytest.mark.parametrize("order", [0.0, 0.7])
    @pytest.mark.parametrize("chunk", [1, 3 * 40 * 7, 3 * 40 * 40],
                             ids=("row-chunks", "seven-row-chunks", "one-chunk"))
    def test_chunks_give_the_dense_cumsum_bytes(self, order, chunk, monkeypatch):
        # Chunks of one row, of seven (the last one five) and one chunk, the
        # dense cumsum itself; each chunk's first row is carried on from the
        # previous chunk's last.  Negative entries against the zero entries
        # of T_e (above its diagonal; off it at order 0, where T_e is the
        # identity) make -0.0 products, which the first row keeps and adds
        # of -0.0 carry; a zero row entry against them makes +0.0.
        rows = np.random.default_rng(64).uniform(-1.0, 1.0, (3, 40))
        rows[0] = -np.abs(rows[0])
        rows[1, ::4] = 0.0
        t_e = _lower_toeplitz(inverse_coeffs(order, self.QP, 39).coeffs, 40)
        monkeypatch.setattr(duals, "_CHUNK_ENTRIES", chunk)
        got = np.concatenate([c.copy() for c in duals._sections(rows, t_e)])
        expect = np.stack([dense_section(r, t_e) for r in rows], axis=1)
        zeros = expect == 0.0
        assert np.signbit(expect[zeros]).any() and not np.signbit(expect[zeros]).all()
        assert got.tobytes() == expect.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(expect))

    @pytest.mark.parametrize("p", [PExponent(0.5), PExponent(1.5), PExponent(3.0), P_INF], ids=str)
    def test_dual_checks_match_the_dense_window(self, p):
        a = SeqWindow(np.random.default_rng(60).normal(size=self.N))
        omega = partial_sum_window(a, self.ORDER, self.QP)
        for windows in self.SEQ_WINDOWS:
            reports = dual_reports("beta", a, self.ORDER, self.QP, p, windows)
            reports.append(dual_reports("gamma", a, self.ORDER, self.QP, p, windows))
            for rep in reports:
                e = rep.detail.get("exponent")
                assert list(rep.values) == [
                    (cp, dense_estimate(rep.condition_id, omega[:cp, :cp], e, True))
                    for cp, _ in rep.values
                ]

    def test_dense_windows_match_the_dense_estimate(self):
        # A dense window is one chunk; checkpoints from 1 put the tail start
        # at row 0, where a tail column block is narrower than the block,
        # and the growing diagonal lies outside it.
        rng = np.random.default_rng(63)
        tri = np.tril(rng.uniform(-1.0, 1.0, (12, 12))) + np.diag(np.arange(12.0))
        windows = (MatrixWindow(tri, triangular=True),
                   MatrixWindow(rng.normal(size=(14, 9))))
        cps = (1, 2, 3, 7, 12)
        for m in windows:
            for cond in Condition:
                if not isinstance(duals._CONDITIONS[cond].estimate, str):  # subset, section
                    continue
                e = 1.5 if duals._CONDITIONS[cond].rule else None
                (values,), _ = duals._profile(((cond, e),), (m.entries[:, None],), cps,
                                              lambda: duals._triangular(m.entries))
                assert values == [dense_estimate(cond, m.entries[:cp, :cp], e, m.triangular)
                                  for cp in cps]

    def test_section_conditions_match_the_dense_sections(self):
        rng = np.random.default_rng(61)
        phi = MatrixWindow(np.tril(rng.uniform(-1.0, 1.0, (self.W, self.W))), triangular=True)
        full = inverse_composite(phi, self.ORDER, self.QP)
        refs = np.sum(np.abs(full.entries), axis=1)
        t_e = np.array(_lower_toeplitz(inverse_coeffs(self.ORDER, self.QP, self.W - 1).coeffs,
                                       self.W))
        # Power sums with p' = 2 take numpy's square; p' = 1.5 takes pow.
        default, short = self.FAMILY_CHECKPOINTS
        cases = [
            (cond, PExponent(2.0), cps)
            for cond in Condition
            if cond.value.startswith("section-")
            for cps in (default, short)
        ]
        cases.append((Condition.SECTION_POWER_SUM_SUP, PExponent(3.0), short))
        reports = [section_report(phi, self.ORDER, self.QP, cond, p, cps)
                   for cond, p, cps in cases]
        worst = [np.zeros(len(rep.values)) for rep in reports]
        for j, row in enumerate(phi.entries):  # one dense section at a time
            section = dense_section(row, t_e)
            assert np.array_equal(section[-1], full.entries[j])
            for rep, top in zip(reports, worst):
                single, e = duals._single(rep.condition_id), rep.detail.get("exponent")
                values = [dense_estimate(single, section[:cp, :cp], e, True, refs[j])
                          for cp, _ in rep.values]
                np.maximum(top, values, out=top)
        for rep, top in zip(reports, worst):
            assert list(rep.values) == list(zip((cp for cp, _ in rep.values), top.tolist()))


class TestDualCheckMemory:
    def test_peak_memory_is_linear_in_the_window(self):
        # The dense n x n windows took 528 MB at n = 4096; the section rows
        # stream through chunks of 2^16 doubles, and alpha builds the 12 rows
        # its suprema read.  512 doubles per entry leave room for a dozen
        # chunk-sized work arrays.
        n = 4096
        a = SeqWindow(np.random.default_rng(62).normal(size=n))
        qp = QParam(0.6)
        checks = (
            lambda: beta_dual_check(a, 0.7, qp, PExponent(2.0)),
            lambda: gamma_dual_check(a, 0.7, qp, PExponent(2.0)),
            lambda: alpha_dual_check(a, 0.7, qp, PExponent(0.5), (4, 8, 12)),
        )
        for check in checks:
            tracemalloc.start()
            try:
                check()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 512 * 8 * n


class TestConditionReport:
    def test_values_must_be_nonempty(self):
        with pytest.raises(ValueError, match="^values must be nonempty$"):
            ConditionReport(condition_id=Condition.ENTRY_SUP, values=(),
                            verdict=Verdict.INCONCLUSIVE)

    def test_values_must_increase(self):
        with pytest.raises(ValueError):
            ConditionReport(
                condition_id=Condition.ENTRY_SUP,
                values=((4, 1.0), (4, 2.0)),
                verdict=Verdict.INCONCLUSIVE,
            )

    def test_as_dict_is_json_ready(self):
        import json

        rep = alpha_dual_check(
            SeqWindow(np.ones(8)), 1.0, QParam(0.5), PExponent(2.0), [4, 8]
        )
        blob = json.dumps(rep.as_dict())
        parsed = json.loads(blob)
        assert parsed["condition"] == "row-subset-abs-colsum-sup"
        assert parsed["verdict"] in {"bounded-on-window", "growing", "inconclusive"}
