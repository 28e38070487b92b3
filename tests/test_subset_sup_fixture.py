"""Pinned `subset_sup` results, and the time and memory budgets at the row cap.

The fixtures under ``tests/data/`` hold the value and witness of
`subset_sup` in both modes.  ``subset_sup_grid.json`` covers a small seeded
grid up to 14 rows and the ``as_dict()`` reports of `alpha_dual_check` in all
three exponent regimes; it was recorded from the implementation that
enumerated every subset through a dense 0/1 selection matrix product.
``subset_sup_high_rows.json`` covers 14 to 20 rows, where sum mode walks the
subsets of the rows past its low-row table; it was recorded from the walk
that evaluated every one of those subsets, before subtrees were pruned.  Any
change to how suprema are evaluated must leave each result bit-identical.
Rewrite the fixtures only when an output change is intended:

    PYTHONPATH=src python tests/test_subset_sup_fixture.py
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from oracles import termwise_window
from qnabla.duals import MatrixWindow, SubsetMode, alpha_dual_check, subset_sup
from qnabla.fracdiff import SeqWindow
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent

FIXTURE = Path(__file__).parent / "data" / "subset_sup_grid.json"
HIGH_FIXTURE = Path(__file__).parent / "data" / "subset_sup_high_rows.json"
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


HIGH_ROWS = (14, 16, 18, 20)
HIGH_EXPONENTS = (0.5, 1.37, 2.0)
# (order, q) of the termwise-product windows: one decays fast, one slowly.
TERMWISE = ((0.7, 0.6), (1.5, 0.9))


def _high_row_blocks() -> dict[str, np.ndarray]:
    """Blocks whose first 14 to 20 rows are enumerated.

    The termwise-product windows are 28 x 28, so every row limit leaves
    trailing zero columns, as in `alpha_dual_check`.  "integer" holds
    entries in -2..2, about 40% of them zero, so sums are exact and many
    subsets tie.
    """
    rng = np.random.default_rng(2200)
    a = SeqWindow(rng.normal(size=28))
    blocks = {"gaussian": rng.normal(size=(20, 16))}
    for order, q in TERMWISE:
        blocks[f"termwise-{order}-{q}"] = termwise_window(a, order, QParam(q))
    ints = rng.integers(-2, 3, (20, 6)) * (rng.random((20, 6)) >= 0.4)
    blocks["integer"] = ints.astype(np.float64)
    return blocks


def high_row_outputs() -> list[dict]:
    out = []
    for kind, entries in _high_row_blocks().items():
        m = MatrixWindow(entries)
        for rows in HIGH_ROWS:
            for e in HIGH_EXPONENTS:
                for mode in SubsetMode:
                    val, witness = subset_sup(m, e, mode, rows)
                    out.append({
                        "kind": kind, "shape": list(entries.shape),
                        "row_limit": rows, "exponent": e, "mode": mode.value,
                        "value": val, "witness": list(witness),
                    })
    return out


def _assert_matches(fixture: Path, got: list[dict]) -> None:
    expected = json.loads(fixture.read_text())
    got = json.loads(json.dumps(got))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


def test_grid_outputs_match_fixture():
    _assert_matches(FIXTURE, grid_outputs())


def test_high_row_outputs_match_fixture():
    _assert_matches(HIGH_FIXTURE, high_row_outputs())


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
    # The 2^13-column table of low-row sums and what a node gathers from
    # it: 8192 x 40 doubles are 2.6 MB.  No buffer of the table's size is
    # kept per high row (7 rows are high).
    m = _cap_block()
    tracemalloc.start()
    try:
        subset_sup(m, 1.37, SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    for path, outputs in ((FIXTURE, grid_outputs), (HIGH_FIXTURE, high_row_outputs)):
        lines = (json.dumps(rec, separators=(",", ":")) for rec in outputs())
        path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"wrote {path}")
