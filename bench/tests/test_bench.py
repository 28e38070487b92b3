"""Self-tests of the benchmark itself: ``python3 -m pytest bench/tests``.

They live outside ``tests/`` so the library's own suite does not collect
them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SAMPLE = {"stream": 30, "classify": 8, "subsets": 16, "cli": 12}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    catalog = spans.per_layer_catalog(inputs.CLI_SUBCOMMANDS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == catalog
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    a = b"".join(op.digest_bytes() for op in islice(inputs.schedule(workload, 7), SAMPLE[workload]))
    b = b"".join(op.digest_bytes() for op in islice(inputs.schedule(workload, 7), SAMPLE[workload]))
    assert a == b


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_another_seed_changes_the_inputs(workload):
    a = inputs.digest(islice(inputs.schedule(workload, 7), SAMPLE[workload]))
    b = inputs.digest(islice(inputs.schedule(workload, 8), SAMPLE[workload]))
    assert a != b


@pytest.mark.parametrize("order", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("q", [0.05, 0.5, 0.99, 1 - 1e-9, 1 - 1e-12])
def test_references_agree_with_the_oracle(order, q):
    for kind, build in (("forward", verify.ref_forward), ("inverse", verify.ref_inverse)):
        ref = verify.oracle_prefix(kind, order, q, 12)
        got = build(order, q, 12)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 1e-300), (kind, order, q)


def _loop(workload: str, seed: int, n: int) -> tuple[dict, str, dict]:
    runner = run.Runner(seed)
    with run.cli_workdir():
        records, sha = run.run_loop(runner, islice(inputs.schedule(workload, seed), n),
                                    inputs.ROUND[workload])
    return run.summarize(records), sha, runner.state


@pytest.mark.parametrize("workload", ["subsets", "cli"])
def test_two_runs_of_one_seed_agree(workload):
    first, first_sha, first_state = _loop(workload, 3, SAMPLE[workload])
    second, second_sha, second_state = _loop(workload, 3, SAMPLE[workload])
    assert first["attempted"] == SAMPLE[workload]
    assert first_sha == second_sha
    for key in ("attempted", "failed", "correct", "reasons"):
        assert first[key] == second[key]
    assert first_state == second_state


def test_two_seeds_fail_alike():
    first, _, _ = _loop("subsets", 3, SAMPLE["subsets"])
    second, _, _ = _loop("subsets", 4, SAMPLE["subsets"])
    assert first["failed"] == second["failed"] > 0
    assert first["reasons"] == second["reasons"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_a_run_holds_whole_rounds_and_enough_operations(workload):
    rounds = [run.rounds_for(workload, seconds) for seconds in (0, 1, 10, 45, 60)]
    assert all(r * inputs.ROUND[workload] >= run.MIN_OPS for r in rounds)
    assert rounds == sorted(rounds) and rounds[-1] > rounds[0]


def _traced(monkeypatch, seed: int) -> dict:
    monkeypatch.setattr(run, "CENSUS", {"stream": 3, "classify": 2, "subsets": 3, "cli": 4})
    with run.cli_workdir():
        return run.traced(SimpleNamespace(seed=seed, workload="stream", trace=1))


def test_two_traced_runs_of_one_seed_count_the_same(monkeypatch):
    first, second = _traced(monkeypatch, 3), _traced(monkeypatch, 3)
    assert first["input_sha256"] == second["input_sha256"]
    catalog = spans.per_layer_catalog(inputs.CLI_SUBCOMMANDS)
    assert [(k, u) for k, (_, u) in first["metrics"].items()] == catalog
    for name, unit in catalog:
        if unit in (spans.COUNT, spans.BYTES):
            assert first["metrics"][name] == second["metrics"][name], name
    for key in ("attempted", "failed"):
        assert first["summary"][key] == second["summary"][key]


def test_refuses_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
