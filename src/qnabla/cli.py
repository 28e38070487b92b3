"""Command-line front-end for transforms, identity checks, norms, and
condition reports over file-based sequences and matrices.

Sequence files are either a JSON array or plain text with one real per
line; matrices are JSON arrays of row arrays.  Output goes to stdout or
--output as JSON (default) or CSV.  Floats are serialized with their
shortest round-trip representation, so identical invocations produce
byte-identical output and values reload losslessly.

Exit codes: 0 success, 1 I/O failure, 2 validation error (including a
result outside double range), 3 refusal to truncate a row tail or to
enumerate past the subset cap.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .duals import (
    LimitError,
    MatrixWindow,
    alpha_dual_check,
    beta_dual_check,
    gamma_dual_check,
)
from .fracdiff import (
    Kind,
    SeqWindow,
    apply_forward,
    apply_inverse,
    compose_coeffs,
    forward_coeffs,
    inverse_coeffs,
    semigroup_defect,
    verify_inverse,
)
from .matclass import ClassQuery, Source, TailError, Target, class_check
from .qcore import QParam
from .spaces import PExponent, default_checkpoints, domain_norm, schauder_basis_vector

__all__ = ["cli", "main"]


def _fail(code: int, exc: BaseException) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map library errors onto the documented exit codes."""
    try:
        fn()
    except (LimitError, TailError) as exc:
        _fail(3, exc)
    except (ValueError, ArithmeticError) as exc:
        _fail(2, exc)
    except OSError as exc:
        _fail(1, exc)


def _qparam(q: float) -> QParam:
    try:
        return QParam(q)
    except ValueError as exc:
        raise ValueError(f"--q: {exc}") from exc


def _check_order(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return value


def _check_window(value: int, flag: str = "--window", minimum: int = 1) -> int:
    if value < minimum:
        raise ValueError(f"{flag} must be ≥ {minimum}, got {value}")
    return value


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_sequence(path: str) -> SeqWindow:
    text = _read_text(path).strip()
    if not text:
        raise ValueError(f"--input {path}: window must be ≥ 1 (file is empty)")
    if text.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list) or not all(
            isinstance(v, (int, float)) for v in data
        ):
            raise ValueError(f"--input {path}: expected a flat JSON array of reals")
        values = [float(v) for v in data]
    else:
        try:
            values = [float(line) for line in text.splitlines() if line.strip()]
        except ValueError as exc:
            raise ValueError(f"--input {path}: {exc}") from exc
    if not values:
        raise ValueError(f"--input {path}: window must be ≥ 1")
    return SeqWindow(np.asarray(values, dtype=np.float64))


def _read_matrix(path: str) -> MatrixWindow:
    text = _read_text(path).strip()
    if not text:
        raise ValueError(f"--input {path}: matrix file is empty")
    data = json.loads(text)
    if not isinstance(data, list) or not data or not all(
        isinstance(row, list) for row in data
    ):
        raise ValueError(f"--input {path}: expected a JSON array of row arrays")
    entries = np.asarray(data, dtype=np.float64)
    if entries.ndim != 2:
        raise ValueError(f"--input {path}: rows must all have the same length")
    triangular = entries.shape[0] == entries.shape[1] and bool(
        np.all(np.triu(entries, k=1) == 0.0)
    )
    return MatrixWindow(entries=entries, triangular=triangular)


def _sequence_csv(values) -> str:
    return "\n".join(repr(float(v)) for v in values) + "\n"


def _report_csv(payload: dict) -> str:
    lines: list[str] = []
    if "reports" in payload:
        lines.append("condition,window,value,verdict")
        for rep in payload["reports"]:
            for n, v in rep["values"]:
                lines.append(f"{rep['condition']},{n},{v!r},{rep['verdict']}")
    elif "partials" in payload:
        lines.append("window,value")
        for n, v in payload["partials"]:
            lines.append(f"{n},{v!r}")
        lines.append(f"norm,{payload['value']!r}")
    else:
        for key, val in payload.items():
            if isinstance(val, float):
                lines.append(f"{key},{val!r}")
            else:
                lines.append(f"{key},{val}")
    return "\n".join(lines) + "\n"


def _emit(payload, output: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif isinstance(payload, list):
        text = _sequence_csv(payload)
    else:
        text = _report_csv(payload)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True, help="Output format.",
)
_output_option = click.option(
    "--output", type=click.Path(dir_okay=False), default=None,
    help="Write the result to this file instead of stdout.",
)
_gamma_option = click.option("--gamma", type=float, required=True,
                             help="Operator order.")
_q_option = click.option("--q", type=float, required=True,
                         help="Deformation parameter, strictly inside (0, 1).")
_p_option = click.option("--p", "p_text", default="2", show_default=True,
                         help="Norm exponent: a positive real or 'inf'.")


@click.group()
@click.version_option(package_name="qnabla")
def cli() -> None:
    """Fractional-order q-difference transforms and their window diagnostics."""


@cli.command()
@_gamma_option
@_q_option
@click.option("--k", type=int, required=True, help="Largest retained lag K.")
@click.option("--kind", type=click.Choice(["forward", "inverse"]), default="forward",
              show_default=True, help="Which coefficient stream to emit.")
@_output_option
@_format_option
def coeffs(gamma: float, q: float, k: int, kind: str, output: str | None, fmt: str) -> None:
    """Emit operator coefficients c_0..c_K (or inverse e_0..e_K)."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        if k < 0:
            raise ValueError(f"--k must be ≥ 0, got {k}")
        build = forward_coeffs if kind == "forward" else inverse_coeffs
        _emit([float(c) for c in build(gamma, qp, k).coeffs], output, fmt)

    _guarded(run)


def _transform_command(name: str, apply_fn, help_text: str):
    @cli.command(name=name, help=help_text)
    @_gamma_option
    @_q_option
    @click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
                  required=True, help="Sequence file (JSON array or one real per line).")
    @_output_option
    @_format_option
    def _cmd(gamma: float, q: float, input_path: str, output: str | None, fmt: str) -> None:
        def run() -> None:
            qp = _qparam(q)
            _check_order(gamma, "--gamma")
            g = _read_sequence(input_path)
            out = apply_fn(g, gamma, qp)
            _emit([float(v) for v in out.values], output, fmt)

        _guarded(run)

    return _cmd


transform = _transform_command(
    "transform", apply_forward, "Apply the forward operator to a sequence file."
)
invert = _transform_command(
    "invert", apply_inverse, "Apply the inverse operator to a sequence file."
)


@cli.command(name="verify-inverse")
@_gamma_option
@_q_option
@click.option("--window", type=int, default=30, show_default=True,
              help="Number of lags checked against the unit impulse.")
@_output_option
@_format_option
def verify_inverse_cmd(gamma: float, q: float, window: int, output: str | None, fmt: str) -> None:
    """Residual of forward∘inverse against the identity on a window."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        _check_window(window)
        residual = verify_inverse(gamma, qp, window)
        _emit(
            {"command": "verify-inverse", "gamma": gamma, "q": q,
             "window": window, "residual": residual},
            output, fmt,
        )

    _guarded(run)


@cli.command(name="semigroup-defect")
@click.option("--mu", type=float, required=True, help="First operator order.")
@click.option("--nu", type=float, required=True, help="Second operator order.")
@_q_option
@click.option("--window", type=int, default=8, show_default=True,
              help="Number of coefficient lags compared.")
@_output_option
@_format_option
def semigroup_defect_cmd(mu: float, nu: float, q: float, window: int,
                         output: str | None, fmt: str) -> None:
    """Coefficient gap between composing two orders and their sum."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(mu, "--mu")
        _check_order(nu, "--nu")
        _check_window(window, minimum=2)
        defect = semigroup_defect(mu, nu, qp, window)
        _emit(
            {"command": "semigroup-defect", "mu": mu, "nu": nu, "q": q,
             "window": window, "defect": defect},
            output, fmt,
        )

    _guarded(run)


@cli.command()
@_gamma_option
@_q_option
@_p_option
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Sequence file.")
@_output_option
@_format_option
def norm(gamma: float, q: float, p_text: str, input_path: str,
         output: str | None, fmt: str) -> None:
    """Domain norm of a sequence with its prefix growth profile."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        p = PExponent.parse(p_text)
        report = domain_norm(_read_sequence(input_path), gamma, qp, p)
        payload = {"command": "norm", "gamma": gamma, "q": q}
        payload.update(report.as_dict())
        _emit(payload, output, fmt)

    _guarded(run)


@cli.command()
@_gamma_option
@_q_option
@click.option("--window", type=int, required=True, help="Window length N.")
@click.option("--k", type=int, required=True, help="Basis vector index (0-based).")
@_output_option
@_format_option
def basis(gamma: float, q: float, window: int, k: int, output: str | None, fmt: str) -> None:
    """Emit the k-th domain-space basis vector on an N-window."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        _check_window(window)
        try:
            vec = schauder_basis_vector(k, gamma, qp, window)
        except IndexError as exc:
            raise ValueError(f"--k: {exc}") from exc
        _emit([float(v) for v in vec.values], output, fmt)

    _guarded(run)


def _dual_payload(command: str, gamma: float, q: float, p_text: str, reports) -> dict:
    return {
        "command": command,
        "gamma": gamma,
        "q": q,
        "p": p_text,
        "reports": [r.as_dict() for r in reports],
    }


@cli.command(name="alpha-dual")
@_gamma_option
@_q_option
@_p_option
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Multiplier sequence file.")
@click.option("--row-limit", type=int, default=12, show_default=True,
              help="Largest subset-enumeration row count, clamped to the "
                   "input length (hard cap 20).")
@_output_option
@_format_option
def alpha_dual(gamma: float, q: float, p_text: str, input_path: str, row_limit: int,
               output: str | None, fmt: str) -> None:
    """Subset-supremum diagnostics for alpha-dual membership."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        p = PExponent.parse(p_text)
        a = _read_sequence(input_path)
        # Rows past the input would only repeat the supremum over all of it.
        rows = min(_check_window(row_limit, flag="--row-limit"), a.n)
        limits = default_checkpoints(rows, start=min(4, rows))
        rep = alpha_dual_check(a, gamma, qp, p, limits)
        _emit(_dual_payload("alpha-dual", gamma, q, p_text, [rep]), output, fmt)

    _guarded(run)


def _windowed_dual(command: str, check_fn):
    @cli.command(name=command)
    @_gamma_option
    @_q_option
    @_p_option
    @click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
                  required=True, help="Multiplier sequence file.")
    @click.option("--window", type=int, default=None,
                  help="Evaluate on this prefix of the sequence (default: all of it).")
    @_output_option
    @_format_option
    def _cmd(gamma: float, q: float, p_text: str, input_path: str,
             window: int | None, output: str | None, fmt: str) -> None:
        def run() -> None:
            qp = _qparam(q)
            _check_order(gamma, "--gamma")
            p = PExponent.parse(p_text)
            a = _read_sequence(input_path)
            if window is not None:
                if not 1 <= window <= a.n:
                    raise ValueError(f"--window must lie in [1, {a.n}], got {window}")
                a = a.prefix(window)
            windows = default_checkpoints(a.n, start=min(4, a.n))
            result = check_fn(a, gamma, qp, p, windows)
            reports = result if isinstance(result, list) else [result]
            _emit(_dual_payload(command, gamma, q, p_text, reports), output, fmt)

        _guarded(run)

    return _cmd


beta_dual = _windowed_dual("beta-dual", beta_dual_check)
gamma_dual = _windowed_dual("gamma-dual", gamma_dual_check)


@cli.command(name="class-check")
@_gamma_option
@_q_option
@_p_option
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Test matrix (JSON array of row arrays).")
@click.option("--source", type=click.Choice([s.value for s in Source]), required=True,
              help="Source space of the matrix class.")
@click.option("--target", type=click.Choice([t.value for t in Target]), required=True,
              help="Target space of the matrix class.")
@click.option("--window", type=int, default=None,
              help="Evaluation window (default: the matrix size).")
@click.option("--row-limit", type=int, default=12, show_default=True,
              help="Subset-enumeration cap for subset conditions.")
@_output_option
@_format_option
def class_check_cmd(gamma: float, q: float, p_text: str, input_path: str,
                    source: str, target: str, window: int | None, row_limit: int,
                    output: str | None, fmt: str) -> None:
    """Evaluate the dispatch-table condition bundle for a matrix class."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(gamma, "--gamma")
        p = PExponent.parse(p_text)
        phi = _read_matrix(input_path)
        w = window if window is not None else min(phi.shape)
        query = ClassQuery(
            source=Source(source), target=Target(target), p=p, order=gamma,
            qp=qp, window=w, row_limit=row_limit,
        )
        reports = class_check(query, phi)
        payload = {
            "command": "class-check", "source": source, "target": target,
            "gamma": gamma, "q": q, "p": p_text, "window": w,
            "reports": [r.as_dict() for r in reports],
        }
        _emit(payload, output, fmt)

    _guarded(run)


@cli.command()
@click.option("--mu", type=float, required=True, help="Order of the first stream.")
@click.option("--nu", type=float, required=True, help="Order of the second stream.")
@_q_option
@click.option("--k", type=int, required=True, help="Largest retained lag K.")
@click.option("--kind-mu", type=click.Choice(["forward", "inverse"]), default="forward",
              show_default=True)
@click.option("--kind-nu", type=click.Choice(["forward", "inverse"]), default="forward",
              show_default=True)
@_output_option
@_format_option
def compose(mu: float, nu: float, q: float, k: int, kind_mu: str, kind_nu: str,
            output: str | None, fmt: str) -> None:
    """Convolve two coefficient streams and emit the composed stream."""

    def run() -> None:
        qp = _qparam(q)
        _check_order(mu, "--mu")
        _check_order(nu, "--nu")
        if k < 0:
            raise ValueError(f"--k must be ≥ 0, got {k}")
        builders = {"forward": forward_coeffs, "inverse": inverse_coeffs}
        a = builders[kind_mu](mu, qp, k)
        b = builders[kind_nu](nu, qp, k)
        _emit([float(c) for c in compose_coeffs(a, b).coeffs], output, fmt)

    _guarded(run)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
