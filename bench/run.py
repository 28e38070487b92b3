#!/usr/bin/env python3
"""The qnabla benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; the library is imported from ``src/``
of that checkout and nowhere else, so the command fails (exit 2, no result
line) where the sources are missing.

Each workload runs in its own process as a closed loop with one client:
every call waits for the previous one, the benchmark starts no threads,
and BLAS runs one thread (at most ``nproc``).  A run is a fixed number of
rounds of the input schedule (``inputs.py``): ``--seconds`` divided by the
workload's nominal round time (``ROUND_SECONDS``, the wall time of one
round with its output checks on a 2-vCPU x86-64 VM), and at least 100
operations.  The count depends on ``--seconds`` alone, never on how fast
the host happens to be, and the known-defect inputs do not depend on the
seed (``inputs.py``), so every run of one length attempts as many
operations and fails as many; a slower or faster program runs longer or
shorter.  Every output is checked against an independent
reference (``verify.py``).

Workloads and work units (a property of the input, never of the algorithm):
  stream    window entries through qcore / fracdiff / spaces
  classify  evaluation-window entries w^2 through class_check (matclass)
  subsets   nominal row subsets 2^r - 1 per requested row limit (duals)
  cli       ``python -m qnabla`` invocations, one per subcommand
BENCHMARK.json lists stream and subsets, whose timings stay steadiest from
run to run on a shared host; classify and cli, whose timings moved by up
to a third of their median between runs of one minute there, run on
request, and all four feed the traced census.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
  setup_s         median over 9 fresh interpreters of importing qnabla and
                  finishing the workload's warm-up call (input building
                  excluded), started between rounds spread over the run,
                  so that one slow spell of the host moves one sample
  work_per_s      work units of correctly completed operations per second
                  of loop time (the sum of the timed calls, which excludes
                  the benchmark's own output checks)
  latency_p50_ms  per-operation wall time, median
  latency_p90_ms  per-operation wall time, 90th percentile
  error_rate      failed / attempted operations
  peak_rss_mb     peak resident memory of the workload process (for cli,
                  of the largest child)
The three timings are taken over the run's slowest quarter of rounds, by
work per second, and over at least 100 operations; every round carries
the same input mix.  On a shared
host a run can meet a spell in which the neighbours are idle and the
library runs up to a third faster throughout; a whole-run median follows
such spells, but nearly every run also holds contended rounds, so the
slowest quarter repeats from run to run.  The figures are sustained ones,
not best cases, and a faster program moves them as it moves the whole run.
A failed operation is an unexpected exception, an output that fails its
check, a refusal the input did not call for, or a CLI exit carrying a raw
traceback.  ``correct`` is false when an operation whose input carries no
known-defect property (q within 1e-6 of 1, a window past the overflow lag)
fails, or when a CLI invocation is not reproducible.

With ``--trace 1`` a separate traced run covers a fixed census of
operations from every workload (``spans.py``), whatever ``--workload``
names, since every per-layer metric comes from it; the spans and counts
are written to ``bench/results/trace-s<seed>.json.gz`` and the per-layer
metrics on the last line are computed from that file alone.

Every run also writes ``bench/results/<workload>-s<seed>.json`` (untraced)
or ``bench/results/trace-s<seed>.json`` (traced) with the metrics, sample
counts, input-property mix, failure reasons, the input digest and the
environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # a single client: one BLAS thread keeps runs steady on shared cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # must precede the first numpy import
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from itertools import islice  # noqa: E402

MIN_OPS = 100
HARD_CAP_S = 150.0
SETUP_REPS = 9
# Timings come from the slowest 1/SLOW_SHARE of a run's rounds (see above).
SLOW_SHARE = 4
# Nominal wall seconds of one round, timed calls plus output checks.
ROUND_SECONDS = {"stream": 1.2, "classify": 8.5, "subsets": 3.5, "cli": 11.0}
IMPORT_REPS = 3
CENSUS = {"stream": 44, "classify": 17, "subsets": 16, "cli": 50}
PROPERTIES = ("int_gamma", "q_near1", "past_lag", "nontriangular", "r_ge_16")
END_TO_END_UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "error_rate": "ratio", "peak_rss_mb": "MB",
}
NONDETERMINISTIC = "check:cli:nondeterministic"
WORK_UNIT = {
    "stream": "window entries", "classify": "w^2 entries",
    "subsets": "nominal subsets", "cli": "invocations",
}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    src = ROOT / "src"
    if not (src / "qnabla" / "__init__.py").is_file():
        fail(f"no qnabla sources under {src}")
    sys.path.insert(0, str(src))
    import qnabla

    if not Path(qnabla.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"qnabla was imported from {qnabla.__file__}, not from {src}")
    return qnabla


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------- environment


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = out.stdout.strip() or None
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "blas_threads_set": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_in_force": _blas_threads(),
    }


# --------------------------------------------------------------------- set-up


def setup_seconds(workload: str, reps: int) -> list[float]:
    """Wall time of fresh interpreters importing qnabla and finishing the
    warm-up call, input building excluded."""
    from probe import CLI_WARM_UP

    env = child_env()
    out = []
    for _ in range(reps):
        if workload == "cli":
            cmd = [sys.executable, "-m", "qnabla", *CLI_WARM_UP]
        else:
            cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(ROOT)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-2000:]}")
        gen = 0.0 if workload == "cli" else float(proc.stdout.split()[-1])
        out.append(wall - gen)
    return out


def import_seconds() -> list[float]:
    """In-child time of ``import qnabla.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import qnabla.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=child_env(), cwd=ROOT, timeout=120)
        out.append(float(proc.stdout.split()[-1]))
    return out


# ------------------------------------------------------------------- the loop


class Runner:
    """Executes operations one at a time and classifies each outcome."""

    def __init__(self, seed: int):
        import numpy as np

        self.rng = np.random.default_rng([seed, 99])
        self.state: dict = {}
        self.tracer = None
        self.env = child_env()

    def execute(self, op) -> dict:
        """Time one call; the outcome is judged later, outside the timing."""
        import ops

        span = None
        if self.tracer is not None:
            self.tracer.begin_op(op.workload)
            label = f"cli.{op.kind}" if op.workload == "cli" else f"op.{op.workload}"
            span = self.tracer.open(self.tracer.intern(label))
        for path, data in op.files.items():
            Path(ROOT / path).write_bytes(data)
        out = err = None
        t0 = time.perf_counter()
        try:
            out = ops.call(op, self.env, str(ROOT))
        except Exception as exc:  # an operation's failure is a measurement
            err = exc
        dur = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span, err)
        return {"op": op, "dur": dur, "out": out, "err": err}

    def judge(self, run: dict) -> dict:
        """Classify an executed operation's outcome against its check."""
        import ops
        from verify import CheckFailed

        op, err = run["op"], run["err"]
        reason = None
        if err is not None:
            if type(err).__name__ != op.expect:
                reason = f"exception:{type(err).__name__}"
        elif op.workload != "cli" and op.expect != "ok":
            reason = f"missing-refusal:{op.expect}"
        else:
            try:
                ops.check(op, run["out"], self.rng, self.state)
            except CheckFailed as cf:
                reason = f"check:{cf}"
        return {"dur": run["dur"], "ok": reason is None, "reason": reason, "work": op.work,
                "hazard": op.hazard, "props": op.props}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of nominally ``seconds``; a function of its
    arguments only, so the operation count never follows the host."""
    from inputs import ROUND

    return max(math.ceil(MIN_OPS / ROUND[workload]), round(seconds / ROUND_SECONDS[workload]))


def run_loop(runner: Runner, schedule, round_size: int, between=None):
    """The timed closed loop over ``schedule``, which is finite.  Outputs
    are checked at each round boundary, outside the timed calls, which
    keeps held outputs to one round; ``between(i)`` then runs after round
    ``i``.  Only a run past ``HARD_CAP_S`` stops early, at a round
    boundary.  Returns the judged records and the digest of the inputs
    attempted."""
    import hashlib

    records, pending, digest = [], [], hashlib.sha256()
    t_start = time.perf_counter()
    for n, op in enumerate(schedule, start=1):
        pending.append(runner.execute(op))
        digest.update(op.digest_bytes())
        if n % round_size == 0:
            records += [runner.judge(run) for run in pending]
            pending.clear()
            if between is not None:
                between(n // round_size - 1)
            if time.perf_counter() - t_start >= HARD_CAP_S:
                break
    records += [runner.judge(run) for run in pending]
    return records, digest.hexdigest()


def round_rate(rnd: list[dict]) -> float:
    """Work units of a round's correctly completed operations per second."""
    return sum(r["work"] for r in rnd if r["ok"]) / sum(r["dur"] for r in rnd)


def summarize(records: list[dict]) -> dict:
    import numpy as np

    durs = np.array([r["dur"] for r in records])
    failed = sum(not r["ok"] for r in records)
    reasons: dict[str, int] = {}
    for r in records:
        if r["reason"]:
            reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
    mix = {p: sum(bool(r["props"].get(p)) for r in records) / len(records) for p in PROPERTIES}
    return {
        "attempted": len(records),
        "failed": failed,
        "work_done": sum(r["work"] for r in records if r["ok"]),
        "loop_s": float(durs.sum()),
        "p50_ms": float(np.percentile(durs, 50)) * 1e3,
        "p90_ms": float(np.percentile(durs, 90)) * 1e3,
        "beyond_p90": int(np.sum(durs > np.percentile(durs, 90))),
        "reasons": dict(sorted(reasons.items())),
        "property_mix": mix,
        "correct": not any(
            (not r["ok"] and not r["hazard"]) or r["reason"] == NONDETERMINISTIC for r in records
        ),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------- entry points


@contextmanager
def cli_workdir():
    """The directory the cli workload's input files are written to; it is
    emptied and removed on the way out."""
    workdir = RESULTS / "cli-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    finally:
        for f in workdir.glob("*"):
            f.unlink()
        workdir.rmdir()


def untraced(args) -> dict:
    from inputs import ROUND, schedule
    from probe import warm_up

    size = ROUND[args.workload]
    rounds = rounds_for(args.workload, args.seconds)
    # Set-up probes after evenly spaced rounds, the first after round 0,
    # SETUP_REPS in all.
    marks = [-(-i * SETUP_REPS // rounds) for i in range(rounds + 1)]  # ceil(i * reps / rounds)
    due = [b - a for a, b in zip(marks, marks[1:])]
    setup: list[float] = []
    if args.workload != "cli":
        warm_up(args.workload)
    runner = Runner(args.seed)
    records, input_sha256 = run_loop(
        runner, islice(schedule(args.workload, args.seed), rounds * size), size,
        between=lambda i: setup.extend(setup_seconds(args.workload, due[i])))
    s = summarize(records)
    by_round = [records[i:i + size] for i in range(0, len(records), size)]
    rates = [round_rate(rnd) for rnd in by_round]
    # At least MIN_OPS operations, so that ten or more lie beyond the p90.
    keep = max(-(-len(by_round) // SLOW_SHARE), -(-MIN_OPS // size))
    slow = sorted(by_round, key=round_rate)[:keep]
    t = summarize([r for rnd in slow for r in rnd])
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": t["work_done"] / t["loop_s"],
        "latency_p50_ms": t["p50_ms"],
        "latency_p90_ms": t["p90_ms"],
        "error_rate": s["failed"] / s["attempted"],
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    of_slow = f"slowest {len(slow)} of {len(by_round)} rounds"
    samples = {
        "setup_s": f"median of {len(setup)}",
        "work_per_s": f"{of_slow}: {t['work_done']:.0f} {WORK_UNIT[args.workload]} / "
                      f"{t['loop_s']:.3f} s",
        "latency_p50_ms": f"{of_slow}, n={t['attempted']} of {s['attempted']}",
        "latency_p90_ms": f"{of_slow}, n={t['attempted']}, {t['beyond_p90']} beyond",
        "error_rate": f"{s['failed']}/{s['attempted']}",
        "peak_rss_mb": "children" if args.workload == "cli" else "self",
    }
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "samples": samples,
        "summary": s,
        "setup_samples": setup,
        "round_work_per_s": rates,
        "op_seconds": [r["dur"] for r in records],
        "input_sha256": input_sha256,
        "counts": {k: v for k, v in runner.state.items() if isinstance(k, str)},
    }


def traced(args) -> dict:
    """The traced census of every workload; ``--workload`` does not enter."""
    import spans
    from inputs import CLI_SUBCOMMANDS, digest, schedule
    from probe import warm_up

    tracer = spans.Tracer()
    all_records, all_ops = [], []
    for workload in ("stream", "classify", "subsets", "cli"):
        ops_list = list(islice(schedule(workload, args.seed), CENSUS[workload]))
        runner = Runner(args.seed)
        if workload != "cli":
            warm_up(workload)
            untraced_s = sum(runner.execute(op)["dur"] for op in ops_list)
            undo = spans.install(tracer)
        runner.tracer = tracer
        try:
            runs = [runner.execute(op) for op in ops_list]
        finally:
            runner.tracer = None
            if workload != "cli":
                spans.uninstall(undo)
        recs = [runner.judge(run) for run in runs]
        if workload != "cli":
            # Untraced passes before and after the traced one, so that
            # neither side alone pays for cold caches.
            untraced_s += sum(runner.execute(op)["dur"] for op in ops_list)
            tracer.passes[workload] = {
                "ops": len(ops_list),
                "untraced_s": untraced_s / 2,
                "traced_s": sum(r["dur"] for r in recs),
            }
        else:
            for key in ("traceback_exits", "nondeterministic_outputs"):
                tracer.counts[f"cli.{key}"] += runner.state.get(key, 0)
        all_records += recs
        all_ops += ops_list
    tracer.samples["cli.import_s"] = import_seconds()
    path = RESULTS / f"trace-s{args.seed}.json.gz"
    tracer.write(path)
    s = summarize(all_records)
    return {
        "metrics": spans.layer_metrics(path, CLI_SUBCOMMANDS),
        "samples": {},
        "summary": s,
        "trace_file": str(path.relative_to(ROOT)),
        "input_sha256": digest(all_ops),
        "counts": dict(tracer.counts),
    }


def print_table(label: str, result: dict) -> None:
    s = result["summary"]
    print(f"{label} attempted={s['attempted']} failed={s['failed']} correct={s['correct']}")
    for name, (value, unit) in result["metrics"].items():
        note = result["samples"].get(name, "")
        print(f"  {name:<44} {value:>16.6g} {unit:<6} {note}")
    mix = ", ".join(f"{k}={v:.3f}" for k, v in s["property_mix"].items())
    print(f"  input mix: {mix}")
    if s["reasons"]:
        print("  failures: " + ", ".join(f"{k}={v}" for k, v in s["reasons"].items()))


def run_all(args) -> None:
    """Every untraced workload, each in its own process."""
    from inputs import WORKLOADS

    lines = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"workload {workload} failed:\n{proc.stderr[-4000:]}")
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        lines[workload] = json.loads(out[-1])
    print(json.dumps(lines, sort_keys=True))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stream", "classify", "subsets", "cli", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_library()
    if args.workload == "all" and not args.trace:
        run_all(args)
        return
    with cli_workdir():
        result = traced(args) if args.trace else untraced(args)
    result["env"] = environment()
    result["args"] = vars(args)
    label = "traced-census" if args.trace else args.workload
    name = f"trace-s{args.seed}" if args.trace else f"{args.workload}-s{args.seed}"
    (RESULTS / f"{name}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print_table(label, result)
    s = result["summary"]
    print(json.dumps({
        "correct": bool(s["correct"]),
        "attempted": int(s["attempted"]),
        "failed": int(s["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
