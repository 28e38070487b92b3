"""Pinned `subset_sup` results, and the time and memory budgets at the row cap.

The fixture under ``tests/data/`` holds, for a small seeded grid, the value
and witness of `subset_sup` in both modes and the ``as_dict()`` reports of
`alpha_dual_check` in all three exponent regimes.  It was recorded from the
implementation that enumerated every subset through a dense 0/1 selection
matrix product, so any change to how suprema are evaluated must leave each
result bit-identical.  Rewrite it only when an output change is intended:

    PYTHONPATH=src python tests/test_subset_sup_fixture.py
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from qnabla.duals import MatrixWindow, SubsetMode, alpha_dual_check, subset_sup
from qnabla.fracdiff import SeqWindow
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent

FIXTURE = Path(__file__).parent / "data" / "subset_sup_grid.json"
EXPONENTS = (0.5, 1.0, 2.0, 1.37, 3.4)
COLUMNS = (2, 5, 11, 30)
ALPHA_ROW_LIMITS = (4, 8, 12)


def _blocks(rows: int) -> dict[str, np.ndarray]:
    """Three kinds of block whose first ``rows`` rows are enumerated.

    "alpha" has the shape `alpha_dual_check` feeds: the leading rows of a
    lower-triangular window, so its trailing columns are zero, with two more
    rows than the limit lets in.  "integer" holds small integers, about 40%
    of them zero, so sums are exact and subsets tie.
    """
    rng = np.random.default_rng(2000 + rows)
    cols = COLUMNS[rows % len(COLUMNS)]
    alpha_cols = max(cols, rows + 2)
    ints = rng.integers(-3, 4, (rows, cols)) * (rng.random((rows, cols)) >= 0.4)
    return {
        "gaussian": rng.normal(size=(rows, cols)),
        "alpha": np.tril(rng.normal(size=(rows + 2, alpha_cols))),
        "integer": ints.astype(np.float64),
    }


def _alpha_windows() -> dict[str, SeqWindow]:
    rng = np.random.default_rng(2100)
    return {
        "ones": SeqWindow(np.ones(16)),
        "gaussian": SeqWindow(rng.normal(size=16)),
    }


def grid_outputs() -> list[dict]:
    out = []
    for rows in range(1, 15):
        for kind, entries in _blocks(rows).items():
            m = MatrixWindow(entries)
            for e in EXPONENTS:
                for mode in SubsetMode:
                    val, witness = subset_sup(m, e, mode, rows)
                    out.append({
                        "kind": kind, "shape": list(entries.shape),
                        "row_limit": rows, "exponent": e, "mode": mode.value,
                        "value": val, "witness": list(witness),
                    })
    for name, a in _alpha_windows().items():
        for order in (0.5, 1.0, 1.7):
            for q in (0.3, 0.8):
                for p in (PExponent(0.5), PExponent(2.0), P_INF):
                    rep = alpha_dual_check(a, order, QParam(q), p, ALPHA_ROW_LIMITS)
                    out.append({
                        "window": name, "order": order, "q": q, "p": str(p),
                        "report": rep.as_dict(),
                    })
    return out


def test_grid_outputs_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(grid_outputs()))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


def _cap_block() -> MatrixWindow:
    return MatrixWindow(np.random.default_rng(41).normal(size=(24, 40)))


def test_sup_mode_at_the_row_cap_is_fast():
    m = _cap_block()
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        subset_sup(m, 1.37, SubsetMode.SUP_OVER_COLS_OF_ABS, 20)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.050


def test_sum_mode_peak_memory_at_the_row_cap():
    # The 2^13-row table of low-row sums, one buffer of its size per high
    # row and one work buffer: 8192 x 40 doubles are 2.6 MB, 7 rows are high.
    m = _cap_block()
    tracemalloc.start()
    try:
        subset_sup(m, 1.37, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 2**20


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = (json.dumps(rec, separators=(",", ":")) for rec in grid_outputs())
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {FIXTURE}")
