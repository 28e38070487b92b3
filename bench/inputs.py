"""Seeded input schedules for the four workloads.

Each workload is an endless sequence of rounds of ``ROUND[workload]``
operations.  Which function, size class and input stratum an operation
gets depends only on its position in the round, and the seed draws every
value inside that (q, orders, exponents, matrix and window
entries).  A run is whole rounds, so every run carries exactly the same
property mix and two seeds differ in values, not in shares.

Inputs of the known-defect strata (near1, deep1, past_lag below) are drawn
from their position in the schedule alone, not from the seed.  Some of
them sit at the edge of a defect (q within 1e-6.5 of 1 at order 1, a
basis vector whose checked tail is one entry), so whether they fail varies
from draw to draw; drawn by position, they fail alike for every seed, and
a run's failure count depends on its length only.  The seed draws every
other input, all of which pass.

q strata:
  regular   the window ends at least 10% before the overflow lag
            709.78 / |ln q| (plus the order), and 1 - q >= 1e-4;
  near1     1 - q is drawn from one of six decades between 1e-6 and 1e-12,
            the decade fixed by the slot;
  deep1     1 - q between 1e-10 and 1e-12 with an order below 1, where the
            cancellation defect shows on every input (classify and subsets
            use it so that their error_rate is steady rather than zero);
  past_lag  the window runs at least 10% past the overflow lag.
Inputs with q within 1e-6 of 1 or a window past the overflow lag carry a
known-defect property: their failures count in ``error_rate`` but not
against ``correct``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import count, cycle

import numpy as np

LAG = 709.78  # log of the largest double: q^(-t) overflows past t = LAG / |ln q|
WORKLOADS = ("stream", "classify", "subsets", "cli")
HAZARDS = ("q_near1", "past_lag")
HAZARD_STRATA = ("near1", "deep1", "past_lag")

STREAM_FUNCS = (
    "forward_coeffs", "inverse_coeffs", "apply_forward", "apply_inverse",
    "verify_inverse", "semigroup_defect", "compose_coeffs", "domain_norm",
    "membership_diagnostic", "schauder_reconstruct", "schauder_basis_vector",
)
SHORT_FUNCS = ("schauder_reconstruct", "schauder_basis_vector")
Q_STRATA = ("regular", "regular", "regular", "near1", "regular", "regular", "regular", "past_lag")
P_CYCLE = (2.0, None, 1.0, 0.5)  # None is the sup-norm exponent

DOMAIN_SOURCES = ("l1-domain", "lp-domain", "linf-domain")
DOMAIN_TARGETS = (
    "l1", "c0", "c", "linf", "bs", "cs", "cs0",
    "qcesaro-l1", "qcesaro-c0", "qcesaro-c", "qcesaro-linf",
)
CLASSICAL_CELLS = tuple(
    (s, t) for t in ("lp-domain", "linf-domain") for s in ("l1", "c0", "c", "linf")
)
DOMAIN_CELLS = tuple((s, t) for s in DOMAIN_SOURCES for t in DOMAIN_TARGETS)
# Every cell once per round, a classical cell after every four domain cells.
CLASSIFY_CELLS = tuple(
    cell for k in range(len(DOMAIN_CELLS))
    for cell in ((DOMAIN_CELLS[k],) + ((CLASSICAL_CELLS[k // 4],) if k % 4 == 3 else ()))
)
CLASSIFY_MATRIX = ("tri", "tri", "decay", "tri", "nondecay", "tri",
                   "decay", "tri", "tri", "decay", "tri", "decay")
CLASSIFY_ROW_LIMIT = 12

SUBSET_R = (12, 16, 13, 17, 14, 18, 12, 19, 15, 20, 13, 14)
SUBSET_KINDS = ("subset_sum", "subset_sup", "alpha_sum", "alpha_sup")

CLI_SLOTS = (
    ("coeffs", "regular"), ("transform", "regular"), ("coeffs", "past_lag"),
    ("invert", "regular"), ("verify-inverse", "regular"), ("transform", "past_lag"),
    ("semigroup-defect", "regular"), ("norm", "regular"), ("verify-inverse", "past_lag"),
    ("basis", "regular"), ("alpha-dual", "regular"), ("alpha-dual", "refusal"),
    ("beta-dual", "regular"), ("class-check", "regular"), ("gamma-dual", "regular"),
    ("semigroup-defect", "past_lag"), ("class-check", "regular"), ("compose", "regular"),
    ("norm", "past_lag"), ("transform", "regular"), ("class-check", "refusal"),
    ("invert", "regular"), ("compose", "past_lag"), ("alpha-dual", "regular"),
    ("beta-dual", "regular"),
)
CLI_SUBCOMMANDS = tuple(dict.fromkeys(name for name, _ in CLI_SLOTS))
ROUND = {"stream": 88, "classify": len(CLASSIFY_CELLS), "subsets": 64, "cli": 2 * len(CLI_SLOTS)}


@dataclass
class Op:
    """One operation: what to call, on what, and what a correct outcome is.

    ``expect`` is "ok", the name of the refusal the input calls for, or, for
    CLI invocations, the exit code.  ``work`` is the operation's work units,
    a property of the input alone.
    """

    workload: str
    index: int
    kind: str
    params: dict
    arrays: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    work: float = 0.0
    props: dict = field(default_factory=dict)
    expect: str = "ok"

    @property
    def hazard(self) -> bool:
        """True when the input carries a known-defect property."""
        return any(self.props.get(p) for p in HAZARDS)

    def digest_bytes(self) -> bytes:
        head = json.dumps(
            [self.workload, self.index, self.kind, self.params, self.props, self.expect,
             self.work, sorted(self.files)],
            sort_keys=True, default=repr,
        ).encode()
        body = b"".join(
            name.encode() + np.ascontiguousarray(a).tobytes()
            for name, a in sorted(self.arrays.items())
        )
        return head + body + b"".join(self.files[k] for k in sorted(self.files))


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.digest_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ helpers


def overflow_lag(order: float, q: float) -> float:
    return order + LAG / abs(math.log(q))


def props_for(order: float, q: float, n: int, **extra) -> dict:
    out = {
        "int_gamma": float(order).is_integer(),
        "q_near1": 1.0 - q <= 1e-6,
        "past_lag": n - 1 > overflow_lag(order, q),
    }
    out.update(extra)
    return out


def draw_q(rng, stratum: str, n: int, order: float, slot: int) -> float:
    if stratum == "near1":
        # One decade per slot, drawn near its middle so that an outcome
        # depends on the decade rather than on where the draw fell.
        b = slot % 6
        return 1.0 - 10.0 ** -rng.uniform(6.4 + b, 6.6 + b)
    if stratum == "deep1":
        return 1.0 - 10.0 ** -rng.uniform(10.0, 12.0)
    if stratum == "past_lag":
        hi = math.exp(-LAG / (0.9 * (n - 1) - order))
        return float(rng.uniform(hi / 10.0, hi))
    lo = math.exp(-LAG / (1.1 * (n - 1) - order))
    return float(rng.uniform(max(lo, 1e-3), 0.9999))


def draw_order(rng, integer: bool, lo: float = 0.1, hi: float = 3.0, top: int = 3) -> float:
    return float(rng.integers(1, top + 1)) if integer else float(rng.uniform(lo, hi))


def log_bin(rng, lo: int, hi: int, b: int, bins: int = 5) -> int:
    a, z = math.log(lo), math.log(hi)
    return int(round(math.exp(rng.uniform(a + (z - a) * b / bins, a + (z - a) * (b + 1) / bins))))


def workload_rng(name: str, seed: int):
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def position_rng(name: str, i: int):
    """The generator for known-defect input ``i`` of a workload, whatever the seed."""
    return np.random.default_rng([WORKLOADS.index(name), int(i), 0xDEFEC7])


def op_rng(name: str, i: int, stratum: str, seeded):
    return position_rng(name, i) if stratum in HAZARD_STRATA else seeded


# ------------------------------------------------------------------ stream


def stream_ops(seed: int):
    seeded = workload_rng("stream", seed)
    for i in count():
        j = i % ROUND["stream"]
        fn = STREAM_FUNCS[j % len(STREAM_FUNCS)]
        stratum = Q_STRATA[j % 8]
        rng = op_rng("stream", i, stratum, seeded)
        integer = ((j // 8) + j) % 2 == 0
        short = fn in SHORT_FUNCS
        n = log_bin(rng, 128, 256, j % 5) if short else log_bin(rng, 256, 8192, j % 5)
        params: dict = {"n": n}
        arrays: dict = {}
        if fn in ("semigroup_defect", "compose_coeffs"):
            mu = draw_order(rng, integer, 0.1, 1.5, 2)
            nu = draw_order(rng, integer, 0.1, 1.5, 2)
            params.update(mu=mu, nu=nu)
            order = mu + nu if fn == "semigroup_defect" else mu
        else:
            order = draw_order(rng, integer)
            params["order"] = order
        q = draw_q(rng, stratum, n, order, j // 8)
        params["q"] = q
        if fn in ("apply_forward", "apply_inverse", "domain_norm",
                  "membership_diagnostic", "schauder_reconstruct"):
            arrays["x"] = rng.standard_normal(n)
        if fn in ("domain_norm", "membership_diagnostic"):
            params["p"] = P_CYCLE[(j // 11) % 4]
        if fn == "membership_diagnostic":
            cps = [4**j for j in range(1, 8) if 4**j < n]
            params["checkpoints"] = cps + [n]
        if fn == "schauder_basis_vector":
            params["k"] = int(rng.integers(0, n))
        yield Op("stream", i, fn, params, arrays, work=float(n), props=props_for(order, q, n))


# ---------------------------------------------------------------- classify


def classify_matrix(rng, kind: str, w: int) -> np.ndarray:
    u = rng.standard_normal((w, w))
    j, k = np.indices((w, w))
    if kind == "tri":
        rho = rng.uniform(0.3, 0.9)
        return np.where(k <= j, u * rho ** np.maximum(j - k, 0), 0.0)
    # Row tails decay below 1e-12 of the head over the last quarter, so the
    # honest-truncation test passes by a wide margin.
    rho = 10.0 ** (-12.0 / (0.75 * w)) * rng.uniform(0.5, 1.0)
    phi = u * rho**k
    if kind == "nondecay":
        # Row 0 always stops decaying: it reaches every composite row with
        # weight one, so every domain cell must refuse.
        bad = {0} | set(rng.choice(w, size=int(rng.integers(0, 3)), replace=False).tolist())
        for r in sorted(bad):
            phi[r] = rng.standard_normal(w) / np.sqrt(np.arange(w) + 1.0)
    return phi


def cell_p(rng, source: str, target: str):
    if source == "l1-domain":
        return 1.0
    if source == "lp-domain" or target == "lp-domain":
        return float(rng.uniform(1.2, 4.0))
    return None


def classify_w(j: int) -> int:
    """24 slots at w = 64, 14 at 128 and 3 at 256 per round; the 256 slots
    take one decaying-row cell of each domain source."""
    if j in (2, 20, 33):
        return 256
    return 128 if j % 3 == 1 else 64


def classify_ops(seed: int):
    seeded = workload_rng("classify", seed)
    for i in count():
        j = i % ROUND["classify"]
        source, target = CLASSIFY_CELLS[j]
        is_domain = source.endswith("-domain")
        w = classify_w(j)
        mkind = CLASSIFY_MATRIX[j % len(CLASSIFY_MATRIX)]
        if not is_domain and (j // 5) % 2:
            stratum = "past_lag"
        else:
            stratum = "deep1" if j % 8 == 3 else "regular"
        rng = op_rng("classify", i, stratum, seeded)
        order = (float(rng.uniform(0.1, 0.9)) if stratum == "deep1"
                 else draw_order(rng, (j // 3) % 2 == 0))
        q = draw_q(rng, stratum, w, order, j)
        p = cell_p(rng, source, target)
        params = {"source": source, "target": target, "order": order, "q": q, "p": p,
                  "w": w, "matrix": mkind, "row_limit": CLASSIFY_ROW_LIMIT}
        phi = classify_matrix(rng, mkind, w)
        expect = "TailError" if (mkind == "nondecay" and is_domain) else "ok"
        props = props_for(order, q, w, nontriangular=mkind != "tri")
        yield Op("classify", i, "class_check", params, {"phi": phi}, work=float(w * w),
                 props=props, expect=expect)


# ----------------------------------------------------------------- subsets


def subsets_ops(seed: int):
    seeded = workload_rng("subsets", seed)
    for i in count():
        j = i % ROUND["subsets"]
        if j % 4 == 3:
            kind = ("beta", "gamma")[(j // 4) % 2]
            r = 0
        else:
            s = (j // 4) * 3 + j % 4
            kind = SUBSET_KINDS[s % 4]
            r = SUBSET_R[(s // 4) % len(SUBSET_R)]
        params: dict = {"r": r}
        arrays: dict = {}
        props = {"r_ge_16": r >= 16, "int_gamma": False, "q_near1": False, "past_lag": False}
        if kind.startswith("subset"):
            # Enumeration cost grows with the column count, so it is fixed
            # per slot rather than drawn.
            arrays["m"] = seeded.standard_normal((r + 4, 16 + 8 * (j % 4)))
            params["exponent"] = float(seeded.uniform(0.5, 2.5))
            work = float(2**r - 1)
        else:
            # Slots 2 and 7 of every ten take q next to 1.
            stratum = "deep1" if j % 10 in (2, 7) else "regular"
            rng = op_rng("subsets", i, stratum, seeded)
            order = (float(rng.uniform(0.1, 0.9)) if stratum == "deep1"
                     else draw_order(rng, (j // 2) % 2 == 0))
            if kind.startswith("alpha"):
                n = r + 4 + 4 * ((j // 4) % 4)
                limits = [r - 4, r]
                params["row_limits"] = limits
                work = float(sum(2 ** min(rl, n) - 1 for rl in limits))
                if kind == "alpha_sup":
                    p = float(rng.uniform(0.3, 1.0))
                else:
                    p = None if (j // 4) % 2 else float(rng.uniform(1.2, 4.0))
            else:
                n = 64 + 32 * ((j // 8) % 6)
                p = (0.5, 2.0, None)[(j // 8) % 3]
                work = 0.0
            q = draw_q(rng, stratum, n, order, j)
            params.update(order=order, q=q, p=p, n=n)
            arrays["a"] = rng.standard_normal(n)
            props.update(props_for(order, q, n))
        yield Op("subsets", i, kind, params, arrays, work=work, props=props)


# --------------------------------------------------------------------- cli


def _seq_file(values) -> bytes:
    return (json.dumps([float(v) for v in values]) + "\n").encode()


def cli_ops(seed: int, workdir: str):
    """Pairs of identical invocations; the second one of each pair must
    reproduce the first byte for byte.  ``workdir`` is relative to the
    checkout root, so the input bytes do not depend on where it lives."""
    seeded = workload_rng("cli", seed)
    cells = cycle(DOMAIN_CELLS + CLASSICAL_CELLS)
    p_text = ("2", "inf", "1")
    for slot in count():
        j = slot % len(CLI_SLOTS)
        name, stratum = CLI_SLOTS[j]
        rng = op_rng("cli", slot, stratum, seeded)
        integer = bool(rng.integers(0, 2))
        order = draw_order(rng, integer)
        past = stratum == "past_lag"
        n = int(rng.integers(200, 401)) if past else int(rng.integers(16, 129))
        params: dict = {"name": name, "stratum": stratum, "pair": slot}
        files: dict = {}
        arrays: dict = {}
        check: dict = {"order": order}
        lag_order = order
        if name in ("semigroup-defect", "compose"):
            mu = draw_order(rng, integer, 0.1, 1.5, 2)
            nu = draw_order(rng, integer, 0.1, 1.5, 2)
            lag_order = mu + nu if name == "semigroup-defect" else max(mu, nu)
            check.update(mu=mu, nu=nu)
            if not past:
                n = int(rng.integers(8, 65))
        q = draw_q(rng, "past_lag" if past else "regular", n, lag_order, j)
        if not past:
            q = max(q, 0.05)
        check["q"] = q
        gq = ["--gamma", repr(order), "--q", repr(q)]
        expect = "0"
        if name == "coeffs":
            kind = "forward" if past or j % 2 else "inverse"
            args = gq + ["--k", str(n - 1), "--kind", kind]
            check.update(kind=kind, n=n)
        elif name in ("transform", "invert", "norm"):
            x = rng.standard_normal(n)
            files["x.json"] = _seq_file(x)
            args = gq + ["--input", "@x.json"]
            if name == "norm":
                p = p_text[j % 3]
                args += ["--p", p]
                check["p"] = p
            arrays["x"] = x
        elif name == "verify-inverse":
            args = gq + ["--window", str(n)]
            check["n"] = n
        elif name == "semigroup-defect":
            args = ["--mu", repr(check["mu"]), "--nu", repr(check["nu"]), "--q", repr(q),
                    "--window", str(n)]
            check["n"] = n
        elif name == "compose":
            args = ["--mu", repr(check["mu"]), "--nu", repr(check["nu"]), "--q", repr(q),
                    "--k", str(n - 1)]
            check["n"] = n
        elif name == "basis":
            k = int(rng.integers(0, n))
            args = gq + ["--window", str(n), "--k", str(k)]
            check.update(n=n, k=k)
        elif name == "alpha-dual":
            m = 32 if stratum == "refusal" else 24
            files["a.json"] = _seq_file(rng.standard_normal(m))
            rl = 24 if stratum == "refusal" else int(rng.integers(8, 15))
            p = "inf" if stratum == "refusal" else p_text[j % 3]
            args = gq + ["--p", p, "--input", "@a.json", "--row-limit", str(rl)]
            check["last"] = rl
            expect = "3" if stratum == "refusal" else "0"
        elif name in ("beta-dual", "gamma-dual"):
            m = int(rng.integers(16, 65))
            files["a.json"] = _seq_file(rng.standard_normal(m))
            args = gq + ["--p", p_text[j % 3], "--input", "@a.json"]
            check["last"] = m
        else:  # class-check
            w = int(rng.integers(12, 25))
            if stratum == "refusal":
                source, target = DOMAIN_CELLS[int(rng.integers(0, len(DOMAIN_CELLS)))]
                phi = classify_matrix(rng, "nondecay", w)
                expect = "3"
            else:
                source, target = next(cells)
                phi = classify_matrix(rng, ("tri", "decay")[j % 2], w)
            p = cell_p(rng, source, target)
            files["phi.json"] = (json.dumps(phi.tolist()) + "\n").encode()
            args = gq + ["--p", "inf" if p is None else repr(p), "--source", source,
                         "--target", target, "--input", "@phi.json"]
            check["last"] = w
        params["args"] = [name] + args
        params["expect_exit"] = expect
        props = props_for(lag_order, q, n)
        paths = {k: f"{workdir}/s{slot}-{k}" for k in files}
        params["args"] = [paths.get(a[1:], a) if a.startswith("@") else a for a in params["args"]]
        params["check"] = check
        for repeat in (False, True):
            yield Op("cli", 2 * slot + int(repeat), name, dict(params, repeat=repeat),
                     arrays=arrays, files={paths[k]: v for k, v in files.items()},
                     work=1.0, props=props, expect=expect)


def schedule(name: str, seed: int, workdir: str = "bench/results/cli-work"):
    if name == "stream":
        return stream_ops(seed)
    if name == "classify":
        return classify_ops(seed)
    if name == "subsets":
        return subsets_ops(seed)
    return cli_ops(seed, workdir)
