"""Pinned `class_check` outputs and the memory ceiling of one classification.

The fixture under ``tests/data/`` holds, for a small seeded grid, the
``as_dict()`` reports (or the ``TailError`` text) of every dispatch cell and
composite target.  It was recorded from the implementation that stored
every section window, so any change to how sections are derived must leave
each report bit-identical.  Rewrite it only when an output change is
intended:

    PYTHONPATH=src python tests/test_class_check_fixture.py
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np

from qnabla.duals import MatrixWindow
from qnabla.matclass import (
    ClassQuery,
    Source,
    TABLE_CLASSICAL_CELLS,
    TABLE_DOMAIN_CELLS,
    TailError,
    Target,
    _COMPOSITE_TARGETS,
    class_check,
)
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent

FIXTURE = Path(__file__).parent / "data" / "class_check_grid.json"
WINDOWS = (8, 20)
ORDERS_QS = ((0.7, 0.6), (1.7, 0.9))
_P = {
    Source.L1_DOMAIN: PExponent(1.0),
    Source.LP_DOMAIN: PExponent(1.5),
    Source.LINF_DOMAIN: P_INF,
}


def _cells() -> list[tuple[Source, Target, PExponent]]:
    cells = [(s, t, _P[s]) for s, t in TABLE_DOMAIN_CELLS]
    # Composite targets only change the block fed to table 1; one source
    # each, in turn, covers every source and every composite.
    sources = list(_P)
    cells += [
        (sources[i % 3], t, _P[sources[i % 3]]) for i, t in enumerate(_COMPOSITE_TARGETS)
    ]
    cells += [
        (s, t, PExponent(1.5) if t is Target.LP_DOMAIN else PExponent(1.0))
        for s, t in TABLE_CLASSICAL_CELLS
    ]
    return cells


def _matrices(w: int) -> dict[str, MatrixWindow]:
    # The dense matrix decays along its rows by 0.1 per column: at w = 20
    # its tails pass the truncation test, at w = 8 they are refused.
    rng = np.random.default_rng(1000 + w)
    tri = np.tril(rng.uniform(-1.0, 1.0, (w, w)))
    dense = rng.uniform(-1.0, 1.0, (w, w)) * 0.1 ** np.arange(w)[None, :]
    return {
        "triangular": MatrixWindow(tri, triangular=True),
        "dense": MatrixWindow(dense),
    }


def grid_outputs() -> list[dict]:
    out = []
    for w in WINDOWS:
        for name, phi in _matrices(w).items():
            for order, q in ORDERS_QS:
                for source, target, p in _cells():
                    query = ClassQuery(source, target, p, order, QParam(q), window=w)
                    rec: dict = {
                        "source": source.value, "target": target.value,
                        "p": p.value, "order": order, "q": q, "window": w,
                        "matrix": name,
                    }
                    try:
                        rec["reports"] = [r.as_dict() for r in class_check(query, phi)]
                    except TailError as exc:
                        rec["tail_error"] = str(exc)
                    out.append(rec)
    return out


def test_grid_outputs_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    # The grid holds refusals as well as dense-matrix reports.
    assert any("tail_error" in rec for rec in expected)
    assert any("reports" in rec and rec["matrix"] == "dense" for rec in expected)
    got = json.loads(json.dumps(grid_outputs()))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


def test_peak_memory_is_quadratic_in_the_window():
    # The w x w test matrix and a handful of w x w work arrays: 256^2
    # doubles are 0.5 MB, so 16 MB leaves room for about 30 of them.
    w = 256
    rng = np.random.default_rng(7)
    phi = MatrixWindow(np.tril(rng.uniform(-1.0, 1.0, (w, w))), triangular=True)
    query = ClassQuery(Source.LP_DOMAIN, Target.C, PExponent(2.0), 0.7, QParam(0.6),
                       window=w)
    tracemalloc.start()
    try:
        class_check(query, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = (json.dumps(rec, separators=(",", ":")) for rec in grid_outputs())
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {FIXTURE}")
