"""Span tracing of the library's layer boundaries, from outside the library.

:func:`install` wraps every function named in the ``__all__`` of each layer
module, and replaces the copies of those functions that other qnabla
modules imported, so nested calls (matclass -> duals -> fracdiff -> qcore)
become parent and child spans.  A span records its name, start, end,
parent, operation id and, when an exception left it, the exception's name
and whether it started there.  Counts are taken from the call arguments at
the same boundaries.  Spans stay in memory until :meth:`Tracer.write`;
:func:`layer_metrics` derives every per-layer figure from the written file.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("qcore", "fracdiff", "spaces", "duals", "matclass")
OVERHEAD_WORKLOADS = ("stream", "classify", "subsets")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_forward(t, args, kwargs, result):
    t.counts["fracdiff.forward_coeffs.lags"] += int(_arg(args, kwargs, 2, "k"))


def _count_inverse(t, args, kwargs, result):
    order, qp, k = (_arg(args, kwargs, i, n) for i, n in enumerate(("order", "qp", "k")))
    t.counts["fracdiff.inverse_coeffs.lags"] += int(k)
    t.distinct["fracdiff.inverse_coeffs"].add((float(order), float(qp.q), int(k)))


def _count_toeplitz(t, args, kwargs, result):
    t.counts["fracdiff.toeplitz_matrix.entries"] += int(_arg(args, kwargs, 1, "n")) ** 2


def _count_subsets(t, args, kwargs, result):
    m, row_limit = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 3, "row_limit")
    t.counts["duals.subset_sup.subsets"] += 2 ** min(int(row_limit), m.entries.shape[0]) - 1


def _count_section(t, args, kwargs, result):
    t.counts["matclass.section_bytes"] += int(result.entries.nbytes)


# Counters run on entry (from the arguments) or, for sizes, on the result.
ENTRY_COUNTERS = {
    "fracdiff.forward_coeffs": _count_forward,
    "fracdiff.inverse_coeffs": _count_inverse,
    "fracdiff.toeplitz_matrix": _count_toeplitz,
    "duals.subset_sup": _count_subsets,
}
RESULT_COUNTERS = {"matclass.row_section_matrix": _count_section}


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.names: list[str] = [""]
        self._ids: dict[str, int] = {"": 0}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.exc: list[int] = []
        self.origin: list[bool] = []
        self.stack = [-1]
        self.current_op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.samples: dict[str, list] = defaultdict(list)
        self.passes: dict[str, dict] = {}
        self.op_workload: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.exc.append(0)
        self.origin.append(False)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter() - self.t0)
        return idx

    def close(self, idx: int, exc: BaseException | None = None) -> None:
        self.end[idx] = time.perf_counter() - self.t0
        self.stack.pop()
        if exc is not None:
            self.exc[idx] = self.intern(type(exc).__name__)
            if not getattr(exc, "_bench_seen", False):
                self.origin[idx] = True
                try:
                    exc._bench_seen = True
                except AttributeError:
                    pass

    def begin_op(self, workload: str) -> None:
        self.current_op = len(self.op_workload)
        self.op_workload.append(workload)

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "exc": self.exc,
                "origin": self.origin,
            },
            "op_workload": self.op_workload,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "samples": dict(self.samples),
            "passes": self.passes,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, qualname: str, fn):
    name_id = tracer.intern(qualname)
    on_entry = ENTRY_COUNTERS.get(qualname)
    on_result = RESULT_COUNTERS.get(qualname)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_entry is not None:
            on_entry(tracer, args, kwargs, None)
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, exc)
            raise
        tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the layer functions everywhere qnabla holds them; returns the
    list of (module, attribute, original) needed to undo it."""
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"qnabla.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                originals[id(fn)] = (fn, _wrap(tracer, f"{layer}.{name}", fn))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "qnabla" and not modname.startswith("qnabla."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    return undo


def uninstall(undo) -> None:
    for mod, attr, val in undo:
        setattr(mod, attr, val)


# ------------------------------------------------------------------ analysis

COUNT, SECONDS, RATIO, MS, BYTES = "count", "s", "ratio", "ms", "bytes"


def per_layer_catalog(subcommands) -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = [
        ("qcore.q_integer.calls", COUNT), ("qcore.self_s", SECONDS),
        ("fracdiff.forward_coeffs.lags", COUNT), ("fracdiff.inverse_coeffs.lags", COUNT),
        ("fracdiff.toeplitz_matrix.entries", COUNT), ("fracdiff.busy_s", SECONDS),
        ("fracdiff.self_s", SECONDS), ("fracdiff.failed", COUNT),
        ("fracdiff.inverse_coeffs.distinct_ratio", RATIO),
        ("spaces.basis_vectors", COUNT), ("spaces.schauder_reconstruct.busy_s", SECONDS),
        ("spaces.self_s", SECONDS),
        ("duals.subset_sup.calls", COUNT), ("duals.subset_sup.subsets", COUNT),
        ("duals.subset_sup.busy_s", SECONDS), ("duals.matrix_class_condition.calls", COUNT),
        ("duals.self_s", SECONDS), ("duals.limit_refusals", COUNT),
        ("matclass.row_section_matrix.calls", COUNT),
        ("matclass.build_transform_family.busy_s", SECONDS),
        ("matclass.transform_condition.busy_s", SECONDS), ("matclass.self_s", SECONDS),
        ("matclass.section_bytes", BYTES), ("matclass.tail_refusals", COUNT),
        ("cli.import_s", SECONDS),
    ]
    out += [(f"cli.{name}.p50_ms", MS) for name in subcommands]
    out += [("cli.traceback_exits", COUNT), ("cli.nondeterministic_outputs", COUNT)]
    out += [(f"trace.{w}.overhead_ratio", RATIO) for w in OVERHEAD_WORKLOADS]
    out += [("trace.spans", COUNT)]
    return out


def layer_metrics(path, subcommands) -> dict[str, tuple[float, str]]:
    """Per-layer metrics computed from a written trace file alone."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    s = doc["spans"]
    name = np.array(s["name"], dtype=np.int64)
    dur = np.array(s["end"]) - np.array(s["start"])
    parent = np.array(s["parent"], dtype=np.int64)
    exc = np.array(s["exc"], dtype=np.int64)
    origin = np.array(s["origin"], dtype=bool)
    layer_of_name = np.array([n.split(".")[0] for n in names])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    self_t = dur - child
    layer = layer_of_name[name]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    ids = {n: i for i, n in enumerate(names)}

    def of(qual):
        return name == ids.get(qual, -2)

    def busy(qual):
        return float(dur[of(qual) & (parent_name != ids.get(qual, -2))].sum())

    def entries(lay):
        return (layer == lay) & (parent_layer != lay)

    def refusals(exc_name):
        return int(np.sum(origin & (exc == ids.get(exc_name, -2))))

    counts = doc["counts"]
    calls_inv = int(of("fracdiff.inverse_coeffs").sum())
    m: dict[str, float] = {
        "qcore.q_integer.calls": int(of("qcore.q_integer").sum()),
        "fracdiff.forward_coeffs.lags": counts.get("fracdiff.forward_coeffs.lags", 0),
        "fracdiff.inverse_coeffs.lags": counts.get("fracdiff.inverse_coeffs.lags", 0),
        "fracdiff.toeplitz_matrix.entries": counts.get("fracdiff.toeplitz_matrix.entries", 0),
        "fracdiff.busy_s": float(dur[entries("fracdiff")].sum()),
        "fracdiff.failed": int(np.sum(entries("fracdiff") & (exc > 0))),
        "fracdiff.inverse_coeffs.distinct_ratio":
            doc["distinct"].get("fracdiff.inverse_coeffs", 0) / calls_inv if calls_inv else 0.0,
        "spaces.basis_vectors": int(of("spaces.schauder_basis_vector").sum()),
        "spaces.schauder_reconstruct.busy_s": busy("spaces.schauder_reconstruct"),
        "duals.subset_sup.calls": int(of("duals.subset_sup").sum()),
        "duals.subset_sup.subsets": counts.get("duals.subset_sup.subsets", 0),
        "duals.subset_sup.busy_s": busy("duals.subset_sup"),
        "duals.matrix_class_condition.calls": int(of("duals.matrix_class_condition").sum()),
        "duals.limit_refusals": refusals("LimitError"),
        "matclass.row_section_matrix.calls": int(of("matclass.row_section_matrix").sum()),
        "matclass.build_transform_family.busy_s": busy("matclass.build_transform_family"),
        "matclass.transform_condition.busy_s": busy("matclass.transform_condition"),
        "matclass.section_bytes": counts.get("matclass.section_bytes", 0),
        "matclass.tail_refusals": refusals("TailError"),
        "cli.import_s": statistics.median(doc["samples"].get("cli.import_s", [0.0])),
        "cli.traceback_exits": counts.get("cli.traceback_exits", 0),
        "cli.nondeterministic_outputs": counts.get("cli.nondeterministic_outputs", 0),
        "trace.spans": int(name.size),
    }
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(self_t[layer == lay].sum())
    for sub in subcommands:
        d = dur[of(f"cli.{sub}")]
        m[f"cli.{sub}.p50_ms"] = float(np.median(d)) * 1e3 if d.size else 0.0
    for w in OVERHEAD_WORKLOADS:
        p = doc["passes"].get(w)
        m[f"trace.{w}.overhead_ratio"] = p["traced_s"] / p["untraced_s"] if p else 0.0
    return {k: (m[k], unit) for k, unit in per_layer_catalog(subcommands)}
