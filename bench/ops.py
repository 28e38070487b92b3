"""Calling the library for one operation, and checking what came back.

``call`` goes through the public functions of the layer modules, looked up
at call time, so the traced run sees every call.  ``check`` compares the
result with the references in :mod:`verify` and raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
from qnabla import duals, fracdiff, matclass, qcore, spaces

import verify as V
from inputs import Op

TRACEBACK = b"Traceback (most recent call last)"
CLI_TIMEOUT_S = 120


def _qp(op: Op):
    return qcore.QParam(op.params["q"])


def _p(value):
    return spaces.P_INF if value is None else spaces.PExponent(value)


def _win(op: Op, name: str = "x"):
    return fracdiff.SeqWindow(op.arrays[name])


# --------------------------------------------------------------------- calls


def call_stream(op: Op):
    P, n = op.params, op.params["n"]
    f = op.kind
    if f == "forward_coeffs":
        return fracdiff.forward_coeffs(P["order"], _qp(op), n - 1).coeffs
    if f == "inverse_coeffs":
        return fracdiff.inverse_coeffs(P["order"], _qp(op), n - 1).coeffs
    if f == "apply_forward":
        return fracdiff.apply_forward(_win(op), P["order"], _qp(op)).values
    if f == "apply_inverse":
        return fracdiff.apply_inverse(_win(op), P["order"], _qp(op)).values
    if f == "verify_inverse":
        return fracdiff.verify_inverse(P["order"], _qp(op), n)
    if f == "semigroup_defect":
        return fracdiff.semigroup_defect(P["mu"], P["nu"], _qp(op), n)
    if f == "compose_coeffs":
        qp = _qp(op)
        a = fracdiff.forward_coeffs(P["mu"], qp, n - 1)
        b = fracdiff.inverse_coeffs(P["nu"], qp, n - 1)
        return fracdiff.compose_coeffs(a, b).coeffs
    if f == "domain_norm":
        return spaces.domain_norm(_win(op), P["order"], _qp(op), _p(P["p"]))
    if f == "membership_diagnostic":
        return spaces.membership_diagnostic(
            _win(op), P["order"], _qp(op), _p(P["p"]), P["checkpoints"])
    if f == "schauder_reconstruct":
        return spaces.schauder_reconstruct(_win(op), P["order"], _qp(op)).values
    return spaces.schauder_basis_vector(P["k"], P["order"], _qp(op), n).values


def call_classify(op: Op):
    P = op.params
    query = matclass.ClassQuery(
        source=matclass.Source(P["source"]), target=matclass.Target(P["target"]),
        p=_p(P["p"]), order=P["order"], qp=_qp(op), window=P["w"],
        row_limit=P["row_limit"],
    )
    phi = duals.MatrixWindow(op.arrays["phi"], triangular=P["matrix"] == "tri")
    return [r.as_dict() for r in matclass.class_check(query, phi)]


def call_subsets(op: Op):
    P = op.params
    if op.kind.startswith("subset"):
        mode = (duals.SubsetMode.SUP_OVER_COLS_OF_ABS if op.kind == "subset_sup"
                else duals.SubsetMode.SUM_OVER_COLS_OF_ABS_COLSUM)
        m = duals.MatrixWindow(op.arrays["m"])
        return duals.subset_sup(m, P["exponent"], mode, P["r"])
    a, qp, p = _win(op, "a"), _qp(op), _p(P["p"])
    if op.kind.startswith("alpha"):
        return [duals.alpha_dual_check(a, P["order"], qp, p, P["row_limits"]).as_dict()]
    if op.kind == "beta":
        return [r.as_dict() for r in duals.beta_dual_check(a, P["order"], qp, p)]
    return [duals.gamma_dual_check(a, P["order"], qp, p).as_dict()]


def call_cli(op: Op, env: dict, cwd: str):
    return subprocess.run(
        [sys.executable, "-m", "qnabla", *op.params["args"]],
        capture_output=True, env=env, cwd=cwd, timeout=CLI_TIMEOUT_S,
    )


# -------------------------------------------------------------------- checks


def _conv_abs(a, b):
    return V.causal(np.abs(a), np.abs(b))


def check_stream(op: Op, out) -> None:
    P, n, f = op.params, op.params["n"], op.kind
    q = P["q"]
    if f in ("forward_coeffs", "inverse_coeffs"):
        V.stream_matches(f.split("_")[0], np.asarray(out), P["order"], q, f)
        return
    if f == "compose_coeffs":
        V.conv_matches(out, V.ref_inverse(P["nu"], q, n), V.ref_forward(P["mu"], q, n), f)
        return
    if f == "semigroup_defect":
        V.defect_matches(out, P["mu"], P["nu"], q, n, f)
        return
    if f == "verify_inverse":
        V.residual_small(out, P["order"], q, n, f)
        return
    c = V.ref_forward(P["order"], q, n)
    e = V.ref_inverse(P["order"], q, n)
    x = op.arrays.get("x")
    if f == "apply_forward":
        V.conv_matches(out, c, x, f)
        V.close_each(out[: V.ORACLE_TERMS],
                     V.causal(V.oracle_prefix("forward", P["order"], q, min(n, V.ORACLE_TERMS)), x[: V.ORACLE_TERMS]),
                     _conv_abs(c, x)[: V.ORACLE_TERMS], f"{f}:oracle")
        # Round trip back to the input through the reference inverse.
        V.close_each(V.causal(e, out), x, _conv_abs(e, _conv_abs(c, x)), f"{f}:round-trip")
    elif f in ("apply_inverse", "schauder_reconstruct"):
        V.conv_matches(out, e, x, f)
        V.close_each(V.causal(c, out), x, _conv_abs(c, _conv_abs(e, x)), f"{f}:round-trip")
    elif f == "schauder_basis_vector":
        k = P["k"]
        V.require(bool(np.all(out[:k] == 0.0)), f"{f}:leading-zeros")
        V.stream_matches("inverse", np.asarray(out[k:]), P["order"], q, f)
    else:  # domain_norm, membership_diagnostic
        h = V.causal(c, x)
        scale = _conv_abs(c, x)
        partials = [(int(m), float(v)) for m, v in out.partials]
        if f == "domain_norm":
            V.norm_profile([(n, float(out.value))], h, scale, P["p"], f)
        else:
            V.require([m for m, _ in partials] == P["checkpoints"], f"{f}:checkpoints")
        V.norm_profile(partials, h, scale, P["p"], f)


def _composite(phi: np.ndarray, target: str, q: float) -> np.ndarray:
    if target in ("bs", "cs", "cs0"):
        return np.cumsum(phi, axis=0)
    if target.startswith("qcesaro"):
        j = np.arange(phi.shape[0], dtype=np.float64)
        weights = np.exp(j * math.log(q))[:, None]
        return np.cumsum(weights * phi, axis=0) / V.q_bracket(j + 1.0, q)[:, None]
    return phi


def check_classify(op: Op, reports, rng) -> None:
    P, phi = op.params, op.arrays["phi"]
    w, q = P["w"], P["q"]
    V.require(bool(reports), "class_check:empty")
    for rep in reports:
        d = rep["detail"]
        V.require(d.get("source") == P["source"] and d.get("target") == P["target"], "class_check:cell")
        V.report_shape(rep, w, "class_check")
    if P["source"].endswith("-domain"):
        b = _composite(phi, P["target"], q)
        absb = _composite(np.abs(phi), P["target"], q)
        e = V.ref_inverse(P["order"], q, w)
        te = V.toeplitz(e, w)
        full, absfull = b @ te, absb @ np.abs(te)
        V.section_reports(reports, b, absb, e, "class_check")
    else:
        tc = V.toeplitz(V.ref_forward(P["order"], q, w), w)
        full, absfull = tc @ phi, np.abs(tc) @ np.abs(phi)
    for rep in reports:
        if rep["detail"].get("matrix") in ("inverse-composite", "forward-composite"):
            V.matrix_report(rep, full, absfull, P["matrix"] == "tri", P["row_limit"], rng,
                            "class_check")


def _alpha_rule(p):
    """(condition, exponent, sup-mode) the alpha dual uses for exponent p."""
    if p is None:
        return "row-subset-abs-colsum-sup", 1.0, False
    if p <= 1.0:
        return "row-subset-entry-sup", p, True
    return "row-subset-abs-colsum-sup", p / (p - 1.0), False


def check_subsets(op: Op, out, rng) -> None:
    P = op.params
    if op.kind.startswith("subset"):
        value, witness = out
        e, sup = P["exponent"], op.kind == "subset_sup"
        block = op.arrays["m"][: P["r"]]
        absblock = np.abs(block)
        if sup:
            V.sup_closed_form(value, block, absblock, e, op.kind)
        else:
            V.dominates(value, block, absblock, e, False, rng, op.kind)
        V.witness_matches(value, witness, block, absblock, e, sup, op.kind)
        return
    a, n, q, p = op.arrays["a"], P["n"], P["q"], P["p"]
    lam = V.toeplitz(V.ref_inverse(P["order"], q, n), n) * a[:, None]
    abslam = np.abs(lam)
    if op.kind.startswith("alpha"):
        (rep,) = out
        cond, e, sup = _alpha_rule(p)
        V.require(rep["condition"] == cond, "alpha:condition")
        V.report_shape(rep, P["row_limits"][-1], "alpha")
        V.require(abs(rep["detail"]["exponent"] - e) <= 1e-12 * e, "alpha:exponent")
        for rl, v in rep["values"]:
            rows = min(int(rl), n)
            if sup:
                V.sup_closed_form(v, lam[:rows], abslam[:rows], e, "alpha")
            else:
                V.dominates(v, lam[:rows], abslam[:rows], e, False, rng, "alpha")
        rows = min(P["row_limits"][-1], n)
        V.witness_matches(rep["values"][-1][1], rep["detail"]["witness"], lam[:rows],
                          abslam[:rows], e, sup, "alpha")
        return
    omega, absomega = np.cumsum(lam, axis=0), np.cumsum(abslam, axis=0)
    for rep in out:
        V.report_shape(rep, n, op.kind)
        V.matrix_report(rep, omega, absomega, True, n, rng, op.kind)


def check_cli(op: Op, proc, state: dict) -> None:
    """Exit code, traceback, byte-identical repeat, and the output itself."""
    P = op.params
    if TRACEBACK in proc.stderr:
        state["traceback_exits"] = state.get("traceback_exits", 0) + 1
        raise V.CheckFailed("cli:traceback")
    pair = P["pair"]
    if P["repeat"]:
        first = state.pop(("out", pair), None)
        if first is not None and first != (proc.returncode, proc.stdout):
            state["nondeterministic_outputs"] = state.get("nondeterministic_outputs", 0) + 1
            raise V.CheckFailed("cli:nondeterministic")
    else:
        state[("out", pair)] = (proc.returncode, proc.stdout)
    V.require(str(proc.returncode) == op.expect, f"cli:exit-{proc.returncode}")
    if proc.returncode != 0:
        return
    data = json.loads(proc.stdout)
    name, C = op.kind, P["check"]
    q = C["q"]
    if name == "coeffs":
        V.stream_matches(C["kind"], np.array(data, dtype=np.float64), C["order"], q, "cli:coeffs")
    elif name in ("transform", "invert"):
        x = op.arrays["x"]
        build = V.ref_forward if name == "transform" else V.ref_inverse
        V.conv_matches(np.array(data, dtype=np.float64), build(C["order"], q, x.size), x, f"cli:{name}")
    elif name == "verify-inverse":
        V.residual_small(data["residual"], C["order"], q, C["n"], "cli:verify-inverse")
    elif name == "semigroup-defect":
        V.defect_matches(data["defect"], C["mu"], C["nu"], q, C["n"], "cli:semigroup-defect")
    elif name == "compose":
        n = C["n"]
        V.conv_matches(np.array(data, dtype=np.float64), V.ref_forward(C["nu"], q, n),
                       V.ref_forward(C["mu"], q, n), "cli:compose")
    elif name == "norm":
        x = op.arrays["x"]
        c = V.ref_forward(C["order"], q, x.size)
        p = None if C["p"] == "inf" else float(C["p"])
        V.norm_profile([(x.size, data["value"])] + [tuple(v) for v in data["partials"]],
                       V.causal(c, x), _conv_abs(c, x), p, "cli:norm")
    elif name == "basis":
        vec = np.array(data, dtype=np.float64)
        V.require(bool(np.all(vec[: C["k"]] == 0.0)), "cli:basis-zeros")
        V.stream_matches("inverse", vec[C["k"]:], C["order"], q, "cli:basis")
    else:  # report-producing commands
        V.require(bool(data.get("reports")), f"cli:{name}:reports")
        for rep in data["reports"]:
            V.report_shape(rep, C["last"], f"cli:{name}")


def call(op: Op, env: dict | None = None, cwd: str | None = None):
    if op.workload == "stream":
        return call_stream(op)
    if op.workload == "classify":
        return call_classify(op)
    if op.workload == "subsets":
        return call_subsets(op)
    return call_cli(op, env, cwd)


def check(op: Op, out, rng, state: dict) -> None:
    if op.workload == "stream":
        check_stream(op, out)
    elif op.workload == "classify":
        check_classify(op, out, rng)
    elif op.workload == "subsets":
        check_subsets(op, out, rng)
    else:
        check_cli(op, out, state)
