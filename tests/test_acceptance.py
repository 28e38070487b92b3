"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and enforces its runtime budget.  Tolerances are pinned
here, not calibrated elsewhere.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import (
    partial_sum_window,
    q_gamma,
    section_consistency_residual,
    termwise_window,
    toeplitz_window,
)
from qnabla.cli import cli
from qnabla.duals import MatrixWindow, SubsetMode, _sections, alpha_dual_check, subset_sup
from qnabla.fracdiff import (
    SeqWindow,
    _lower_toeplitz,
    apply_forward,
    forward_coeffs,
    inverse_coeffs,
    semigroup_defect,
    verify_inverse,
)
from qnabla.matclass import (
    ClassQuery,
    Source,
    TABLE_CLASSICAL_CELLS,
    TABLE_DOMAIN_CELLS,
    Target,
    class_check,
)
from qnabla.qcore import QParam, q_integer
from qnabla.spaces import P_INF, PExponent, schauder_reconstruct

GAMMAS = (0.3, 0.5, 1.0, 1.7, 2.0, 2.5)
QS = (0.2, 0.5, 0.9)


class _Budget:
    """Context manager asserting a runtime budget and printing the verdict."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_01_q_gamma_recurrence():
    with _Budget("1 q-gamma recurrence", 1.0):
        for t in (0.3, 0.5, 1.7, 2.5, 4.2):
            for q in QS:
                qp = QParam(q)
                lhs = q_gamma(t + 1.0, qp)
                rhs = q_integer(t, qp) * q_gamma(t, qp)
                assert abs(lhs - rhs) / abs(lhs) <= 1e-10, (t, q)


def test_02_integer_order_reduction():
    with _Budget("2 integer-order reduction", 1.0):
        for q in QS:
            qp = QParam(q)
            c1 = forward_coeffs(1.0, qp, 10).coeffs
            assert c1[0] == 1.0 and c1[1] == -1.0 and np.all(c1[2:] == 0.0)
            c2 = forward_coeffs(2.0, qp, 10).coeffs
            expect = np.zeros(11)
            expect[:3] = (1.0, -(1.0 + q), q)
            assert np.max(np.abs(c2 - expect)) <= 1e-12


def test_03_inverse_identity_with_matrix_oracle():
    with _Budget("3 inverse identity", 1.0):
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                assert verify_inverse(gamma, qp, 30) <= 1e-10, (gamma, q)
                # Independent dense triangular matrix-product oracle.
                fwd = toeplitz_window(forward_coeffs(gamma, qp, 29), 30)
                inv = toeplitz_window(inverse_coeffs(gamma, qp, 29), 30)
                assert np.max(np.abs(fwd @ inv - np.eye(30))) <= 1e-10, (gamma, q)


def test_04_non_semigroup_witness():
    with _Budget("4 non-semigroup witness", 1.0):
        assert semigroup_defect(0.5, 0.5, QParam(0.25), 8) >= 0.333
        assert semigroup_defect(0.5, 0.5, QParam(1 - 1e-4), 7) <= 1e-3


def test_05_classical_limit_coefficients():
    import math

    with _Budget("5 classical-limit coefficients", 1.0):
        qp = QParam(1 - 1e-5)
        for gamma in (0.5, 1.5):
            c = forward_coeffs(gamma, qp, 10).coeffs
            for k in range(11):
                classical = (
                    (-1) ** k
                    * math.gamma(gamma + 1)
                    / (math.gamma(k + 1) * math.gamma(gamma - k + 1))
                )
                assert abs(c[k] - classical) <= 1e-3 * abs(classical), (gamma, k)


def test_06_schauder_reconstruction():
    with _Budget("6 basis reconstruction", 5.0):
        rng = np.random.default_rng(2024)
        windows = [SeqWindow(rng.uniform(-1, 1, 32)) for _ in range(100)]
        grid = [(g, q) for g in GAMMAS for q in QS]
        for i, g in enumerate(windows):
            gamma, q = grid[i % len(grid)]
            qp = QParam(q)
            back = schauder_reconstruct(apply_forward(g, gamma, qp), gamma, qp)
            assert np.max(np.abs(back.values - g.values)) <= 1e-10, (gamma, q, i)
        # Full-grid sweep on a fixed window so every (gamma, q) pair is hit.
        g = windows[0]
        for gamma, q in grid:
            qp = QParam(q)
            back = schauder_reconstruct(apply_forward(g, gamma, qp), gamma, qp)
            assert np.max(np.abs(back.values - g.values)) <= 1e-10, (gamma, q)


def test_07_dual_window_defining_equalities():
    with _Budget("7 dual-window equalities", 5.0):
        rng = np.random.default_rng(2025)
        pairs = [
            (SeqWindow(rng.uniform(-1, 1, 16)), SeqWindow(rng.uniform(-1, 1, 16)))
            for _ in range(50)
        ]
        grid = [(g, q) for g in GAMMAS for q in QS]
        for i, (a, g) in enumerate(pairs):
            gamma, q = grid[i % len(grid)]
            qp = QParam(q)
            h = apply_forward(g, gamma, qp)
            lam = termwise_window(a, gamma, qp) @ h.values
            target = a.values * g.values
            assert np.max(np.abs(lam - target) / (1 + np.abs(target))) <= 1e-10
            # The library streams the partial-sum window: its rows, stacked,
            # are the dense window bit for bit.
            t_e = _lower_toeplitz(inverse_coeffs(gamma, qp, a.n - 1).coeffs, a.n)
            rows = np.concatenate([c[:, 0].copy() for c in _sections(a.values[None], t_e)])
            assert np.array_equal(rows, partial_sum_window(a, gamma, qp))
            om = rows @ h.values
            target2 = np.cumsum(a.values * g.values)
            assert np.max(np.abs(om - target2) / (1 + np.abs(target2))) <= 1e-10


def test_08_section_rewrite_consistency():
    with _Budget("8 section rewrite consistency", 10.0):
        rng = np.random.default_rng(2026)
        cases = [
            (
                MatrixWindow(np.tril(rng.uniform(-1, 1, (12, 12))), triangular=True),
                SeqWindow(rng.uniform(-1, 1, 12)),
            )
            for _ in range(25)
        ]
        for gamma in GAMMAS:
            for q in QS:
                qp = QParam(q)
                phi, g = cases[(hash((gamma, q)) % 25)]
                assert section_consistency_residual(phi, g, gamma, qp) <= 1e-10
        for phi, g in cases:
            assert section_consistency_residual(phi, g, 1.7, QParam(0.5)) <= 1e-10


def test_09_subset_sup_oracle_equivalence():
    with _Budget("9 subset-sup oracle equivalence", 5.0):
        rng = np.random.default_rng(2027)
        for trial in range(20):
            entries = rng.uniform(-1, 1, (8, 8))
            m = MatrixWindow(entries)
            for mode in SubsetMode:
                val, wit = subset_sup(m, 1.0, mode, 8)
                # Reverse-order exhaustive re-enumeration.
                best, best_wit = -np.inf, None
                for mask in range(255, 0, -1):
                    idx = [j for j in range(8) if mask >> j & 1]
                    s = np.abs(entries[idx].sum(axis=0))
                    v = float(s.sum() if mode is SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
                              else s.max())
                    if v > best or (v == best and tuple(idx) < best_wit):
                        best, best_wit = v, tuple(idx)
                assert val == best and wit == best_wit
                # Greedy lower bound never exceeds the exhaustive value.
                current = {int(rng.integers(8))}

                def value(idx_set):
                    s = np.abs(entries[sorted(idx_set)].sum(axis=0))
                    return float(
                        s.sum() if mode is SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM
                        else s.max()
                    )

                improved = True
                while improved:
                    improved = False
                    for j in range(8):
                        if j not in current and value(current | {j}) > value(current):
                            current.add(j)
                            improved = True
                assert value(current) <= val + 1e-12


def test_10_table_dispatch_transcription():
    expected_domain = {
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
    expected_classical = {
        ("l1", "lp-domain"): {"A'"},
        ("c0", "lp-domain"): {"B'"},
        ("c", "lp-domain"): {"B'"},
        ("linf", "lp-domain"): {"B'"},
        ("l1", "linf-domain"): {13},
        ("c0", "linf-domain"): {7},
        ("c", "linf-domain"): {7},
        ("linf", "linf-domain"): {7},
    }
    with _Budget("10 table dispatch", 1.0):
        assert len(TABLE_DOMAIN_CELLS) == 12 and len(TABLE_CLASSICAL_CELLS) == 8
        qp = QParam(0.5)
        zero = MatrixWindow(np.zeros((8, 8)), triangular=True)
        src_p = {
            Source.L1_DOMAIN: PExponent(1.0),
            Source.LP_DOMAIN: PExponent(2.0),
            Source.LINF_DOMAIN: P_INF,
        }
        for (src, tgt), bundle in TABLE_DOMAIN_CELLS.items():
            assert set(bundle) == expected_domain[(src.value, tgt.value)]
            reports = class_check(
                ClassQuery(src, tgt, src_p[src], 0.5, qp, window=8), zero
            )
            assert {r.detail["item"] for r in reports} == set(bundle)
        for (src, tgt), bundle in TABLE_CLASSICAL_CELLS.items():
            assert set(bundle) == expected_classical[(src.value, tgt.value)]
            p = PExponent(2.0) if tgt is Target.LP_DOMAIN else PExponent(1.0)
            reports = class_check(ClassQuery(src, tgt, p, 0.5, qp, window=8), zero)
            assert {r.detail["item"] for r in reports} == set(bundle)


def test_11_cli_round_trip(tmp_path):
    with _Budget("11 CLI round trip", 1.0):
        runner = CliRunner()
        rng = np.random.default_rng(2028)
        values = rng.uniform(-1, 1, 64)
        src = tmp_path / "g.json"
        src.write_text(json.dumps(list(values)))
        mid = tmp_path / "h.json"
        back = tmp_path / "back.json"
        mid2 = tmp_path / "h2.json"

        args = ["transform", "--gamma", "0.5", "--q", "0.5",
                "--input", str(src), "--output", str(mid)]
        assert runner.invoke(cli, args).exit_code == 0
        assert runner.invoke(
            cli,
            ["invert", "--gamma", "0.5", "--q", "0.5",
             "--input", str(mid), "--output", str(back)],
        ).exit_code == 0
        restored = np.asarray(json.loads(back.read_text()))
        assert np.max(np.abs(restored - values)) <= 1e-10
        # Byte-identical reruns.
        args2 = ["transform", "--gamma", "0.5", "--q", "0.5",
                 "--input", str(src), "--output", str(mid2)]
        assert runner.invoke(cli, args2).exit_code == 0
        assert mid.read_bytes() == mid2.read_bytes()


def test_12_alpha_dual_at_a_long_window():
    # The suprema read at most 20 rows of the termwise-product window, whose
    # live columns end by column 20: the window is built 24 columns wide,
    # not 8192, and so is its sum-mode table.  Built 20 x 8192, it took
    # 1 to 2 s and about 700 MB on a 2-vCPU x86-64 VM.
    a = SeqWindow(np.random.default_rng(2029).normal(size=8192))
    with _Budget("12 alpha dual at n = 8192", 0.5):
        tracemalloc.start()
        try:
            rep = alpha_dual_check(a, 0.7, QParam(0.6), PExponent(2.0), (4, 8, 16, 20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [n for n, _ in rep.values] == [4, 8, 16, 20]
        assert peak < 60e6
