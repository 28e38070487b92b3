"""Tests for the dual-set windows, subset suprema, and condition reports."""

from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_estimate,
    dense_section,
    partial_sum_window,
    sup_closed_form,
    termwise_window,
)
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
from qnabla.matclass import inverse_composite_matrix, transform_condition
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
            mode, e = duals._SUBSET_MODE[rep.condition_id], rep.detail["exponent"]
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
        nodes it visits (`_norm_bounds` runs once at each) and the calls of
        `_node_values` (once for the root's probe and once at each node
        where some subset's row bound reaches the best value)."""
        visits, calls = [], []
        for name, log in (("_norm_bounds", visits), ("_node_values", calls)):

            def counted(*args, inner=getattr(duals, name), log=log):
                log.append(1)
                return inner(*args)

            monkeypatch.setattr(duals, name, counted)
        got = subset_sup(
            MatrixWindow(block), exponent, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, block.shape[0]
        )
        assert got == exhaustive_sum_walk(block, exponent)
        return got, len(visits), len(calls)

    def test_termwise_window_visits_few_nodes(self, monkeypatch):
        a = SeqWindow(np.random.default_rng(2).normal(size=36))
        lam = termwise_window(a, 0.7, QParam(0.6))
        _, visited, evaluated = self._counted(monkeypatch, lam[:20], 2.0)
        assert visited <= 32  # of the 2^7 = 128 sets of high rows
        assert evaluated <= visited + 1

    def test_a_later_subtree_keeps_its_smaller_tie(self, monkeypatch):
        # The negative rows reach -12 at the node {13}; +12 needs rows 14
        # and 15, a later subtree, whose witness (0, 1, 2, ...) is smaller.
        col = [0, 0, 3, 0, 3, -3, 1, 1, 0, -3, -2, -3, 0, -1, 1, 3]
        got, visited, evaluated = self._counted(monkeypatch, np.array(col, float)[:, None], 2.0)
        assert got == (144.0, (0, 1, 2, 3, 4, 6, 7, 8, 12, 14, 15))
        assert visited < 8
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
    subset per column, as the low-row table of `duals._sum_exhaustive`."""
    rows, n = block.shape
    sums = np.zeros((n, 1 << rows))
    for j in range(rows):
        np.add(sums[:, : 1 << j], block[j, :, None], out=sums[:, 1 << j : 2 << j])
    return sums


class TestSubsetRowBounds:
    """Sum mode raises to the power only the subsets whose row bound
    (`duals._row_bounds`) is not strictly below the best value; every value
    and witness must stay those of the walk that evaluates every subset."""

    EXPONENTS = (0.5, 0.8, 1.0, 1.5, 2.0, 3.0)

    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("ks", [(0, 0, 0), (-1, 3, 2), (3, -1, 2), (6, 4, -5)])
    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("scale", [1.0, 3.0**-225])
    def test_rounding_slack_where_the_bound_is_exact(self, e, ks, n, scale):
        # Rows c_j v with v of +-1 entries: every |s_k| of a subset is
        # |sum c_j|, where each norm inequality of the bound is an equality,
        # so only the rounding slack keeps it above the computed values.
        # Scaled by 3^-225, about 1e-107, the cubes are subnormal.
        c = np.zeros(16)
        c[[0, 5]] = scale, -scale
        c[13:] = np.array(ks) * scale * 2.0**-54
        v = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
        block = np.outer(c, v)
        sums = subset_column_sums(block[[0, 5, 13, 14, 15]])
        bounds = duals._row_bounds(sums, e)
        values = duals._node_values(np.ascontiguousarray(sums.T), e)
        assert np.all(bounds >= values)
        if scale == 1.0:  # subnormal values tie and survive, which makes the walk slow
            got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 16)
            assert got == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("e", (0.7, 1.5, 3.0))
    def test_nan_bounds_never_prune(self, e):
        # A NaN in row 3 makes half the subsets of every node NaN, so the
        # exhaustive walk takes no node's maximum; pruning the NaN bounds
        # would leave the finite subsets and report one of them.
        block = np.random.default_rng(37).normal(size=(16, 3))
        block[3, 1] = np.nan
        with np.errstate(invalid="ignore"):
            bounds = duals._row_bounds(subset_column_sums(block[:4]), e)
            assert np.array_equal(np.isnan(bounds), np.arange(16) >= 8)
            assert duals._sum_exhaustive(block, e) == exhaustive_sum_walk(block, e)

    @pytest.mark.parametrize("e", (0.5, 1.0, 1.5, 3.0))
    @pytest.mark.parametrize("kind", ("gaussian", "tiny", "signed-zeros"))
    def test_bounds_leave_abs_sums_of_the_same_values(self, e, kind):
        # `_row_bounds` takes |s| in place; `_node_values` takes |.| again,
        # exact on entries already >= 0, so its bits do not move.
        sums = subset_column_sums(random_block(kind, np.random.default_rng(61), 6, 9))
        signed = sums.copy()
        duals._row_bounds(sums, e)
        assert np.array_equal(sums, np.abs(signed))
        assert not np.signbit(sums).any()
        assert np.array_equal(duals._node_values(np.ascontiguousarray(sums.T), e),
                              duals._node_values(np.ascontiguousarray(signed.T), e))

    KINDS = ("gaussian", "integers", "triangular", "wide", "sparse", "tiny")

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_blocks_match_the_exhaustive_walk(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        # The three bound branches, and the sqrt and square fast paths.
        exponents = (0.5, 0.73, 1.0, 1.37, 2.0, 2.6)
        for trial in range(20):
            r, n = ((1, 1), (18, 40))[trial] if trial < 2 else rng.integers(1, (19, 41))
            block = random_block(kind, rng, r, n)
            e = exponents[trial % len(exponents)]
            got = subset_sup(MatrixWindow(block), e, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, r)
            assert got == exhaustive_sum_walk(block, e), (trial, r, n, e)

    @pytest.mark.parametrize("e", (0.6, 1.28, 2.0))
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


class TestSubsetNormBounds:
    """Each visited node of the sum-mode walk keeps only the subsets whose
    squared-norm bound (`duals._norm_bounds`) is not below the limit of the
    best value (`duals._norm_limit`); no subset may be dropped at a cut its
    own value reaches, whatever the summation order of the bound's Gram
    product and of its sums over each node's rows."""

    @staticmethod
    def _check_every_node(monkeypatch, block, e):
        """Walk ``block`` with no subtree skipped, so the nodes come in
        lexicographic order, and check each node's norm bounds against the
        values `_node_values` computes for all of its subsets."""
        recorded = []

        def norm_bounds(*args, inner=duals._norm_bounds):
            sq = inner(*args)
            recorded.append(sq.copy())
            return sq

        monkeypatch.setattr(duals, "_norm_bounds", norm_bounds)
        monkeypatch.setattr(duals, "_subtree_bound", lambda *args: lambda head, h: np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            got = duals._sum_exhaustive(block, e)
        monkeypatch.undo()
        rows = block.shape[0]
        low = min(rows, duals._LOW_ROWS)
        high = range(low, rows)
        paths = sorted(p for d in range(len(high) + 1) for p in itertools.combinations(high, d))
        assert len(recorded) == len(paths)
        table = subset_column_sums(block[:low])
        live = np.count_nonzero(block.any(axis=0))
        for path, sq in zip(paths, recorded):
            sums = table.copy()
            for h in path:
                sums += block[h, :, None]
            with np.errstate(over="ignore", invalid="ignore"):
                values = duals._node_values(np.ascontiguousarray(sums.T), e)
                assert not np.any(sq < duals._norm_limit(values, live, e)), path
        return got, recorded

    @pytest.mark.parametrize("e", TestSubsetRowBounds.EXPONENTS)
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

    @pytest.mark.parametrize("e", TestSubsetRowBounds.EXPONENTS)
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

    KINDS = TestSubsetRowBounds.KINDS + ("signed-zeros",)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_node_drops_a_subset_its_value_reaches(self, monkeypatch, kind):
        rng = np.random.default_rng(50 + self.KINDS.index(kind))
        # Both sides of e = 2, where the power-mean factor n^(1-e/2) ends.
        exponents = (0.5, 1.37, 2.0, 3.4)
        for e in exponents[self.KINDS.index(kind) % 2 :: 2]:
            block = random_block(kind, rng, int(rng.integers(16, 21)), int(rng.integers(1, 41)))
            got, _ = self._check_every_node(monkeypatch, block, e)
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
        rng = np.random.default_rng(40)
        block = rng.normal(size=(18, 5))
        v = block[13].copy()
        if len(signs) == 2:
            block[:13] *= 1e110
        table = subset_column_sums(block[:13])
        g = 2.0 * v @ table
        x = 1e200 if len(signs) == 2 else -0.75 * np.finfo(float).max / g[np.abs(g).argmax()]
        block[13 : 13 + len(signs)] = np.outer(signs, x * v)
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

    @pytest.mark.parametrize("e", (0.73, 2.0))
    def test_per_row_dot_products_round_apart_from_the_head(self, monkeypatch, e):
        # Seven high rows near +-2^40 leave a head near 2^40: the sum of
        # their seven Gram products, rounded at 2^-12 or so each, differs
        # from one product with the head on the deepest path.
        rng = np.random.default_rng(42)
        block = rng.normal(size=(20, 6))
        block[13:] += np.where(np.arange(7) % 2 == 0, 2.0**40, -(2.0**40))[:, None]
        table = subset_column_sums(block[:13])
        gram = (2.0 * block[13:]) @ table
        dots, head = np.zeros(table.shape[1]), np.zeros(6)
        for h in range(13, 20):
            dots, head = dots + gram[h - 13], head + block[h]
        assert not np.array_equal(dots, (2.0 * head) @ table)
        got, _ = self._check_every_node(monkeypatch, block, e)
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

    def test_checkpoint_validation(self):
        m = MatrixWindow(np.eye(8))
        with pytest.raises(ValueError):
            matrix_class_condition(m, Condition.ROW_ABS_SUM_SUP, checkpoints=[4, 2])
        with pytest.raises(ValueError):
            matrix_class_condition(m, Condition.ROW_ABS_SUM_SUP, checkpoints=[2, 9])


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


class TestAlphaDual:
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

    @pytest.mark.parametrize("p", [PExponent(0.5), PExponent(1.5), PExponent(3.0), P_INF], ids=str)
    def test_dual_checks_match_the_dense_window(self, p):
        a = SeqWindow(np.random.default_rng(60).normal(size=self.N))
        omega = partial_sum_window(a, self.ORDER, self.QP)
        for windows in self.SEQ_WINDOWS:
            reports = beta_dual_check(a, self.ORDER, self.QP, p, windows)
            reports.append(gamma_dual_check(a, self.ORDER, self.QP, p, windows))
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
        for m in windows:
            for cond in Condition:
                if cond in duals._SUBSET_MODE or cond in duals._SECTION_OF:
                    continue
                e = 1.5 if cond in duals._EXPONENT_RULE else None
                rep = matrix_class_condition(m, cond, exponent=e, checkpoints=(1, 2, 3, 7, 12))
                assert list(rep.values) == [
                    (cp, dense_estimate(cond, m.entries[:cp, :cp], e, m.triangular))
                    for cp, _ in rep.values
                ]

    def test_section_conditions_match_the_dense_sections(self):
        rng = np.random.default_rng(61)
        phi = MatrixWindow(np.tril(rng.uniform(-1.0, 1.0, (self.W, self.W))), triangular=True)
        full = inverse_composite_matrix(phi, self.ORDER, self.QP)
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
        reports = [transform_condition(phi, self.ORDER, self.QP, cond, p, checkpoints=cps)
                   for cond, p, cps in cases]
        worst = [np.zeros(len(rep.values)) for rep in reports]
        for j, row in enumerate(phi.entries):  # one dense section at a time
            section = dense_section(row, t_e)
            assert np.array_equal(section[-1], full.entries[j])
            for rep, top in zip(reports, worst):
                single, e = duals._SECTION_OF[rep.condition_id], rep.detail.get("exponent")
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
