"""Command-line front-end for transforms, identity checks, norms, and
condition reports over file-based sequences and matrices.

Sequence files are either a JSON array or plain text with one real per
line; matrices are JSON arrays of row arrays.  Output goes to stdout or
--output as JSON (default) or CSV.  Floats are serialized with their
shortest round-trip representation, so identical invocations produce
byte-identical output and values reload losslessly.

Exit codes: 0 success, 1 I/O failure, 2 validation error (including a
result outside double range or a request too large to allocate), 3 refusal
to truncate a row tail or to enumerate past the subset cap.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .duals import (
    LimitError,
    MatrixWindow,
    alpha_dual_check,
    beta_dual_check,
    gamma_dual_check,
)
from .fracdiff import (
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


def _qparam(q: float) -> QParam:
    try:
        return QParam(q)
    except ValueError as exc:
        raise ValueError(f"--q: {exc}") from exc


def _check_min(value: int, flag: str = "--window", minimum: int = 1) -> int:
    if value < minimum:
        raise ValueError(f"{flag} must be ≥ {minimum}, got {value}")
    return value


def _read_input(path: str, parse):
    """Parse the stripped text of an --input file.  Every error names the
    file, the JSON decoder's RecursionError on deep nesting included."""
    try:
        return parse(Path(path).read_text(encoding="utf-8").strip())
    except (ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"--input {path}: {exc}") from exc


def _parse_sequence(text: str) -> SeqWindow:
    if not text:
        raise ValueError("window must be ≥ 1 (file is empty)")
    if text.startswith("["):
        data = json.loads(text)
        # JSON booleans parse as bool, an int subclass: not a real here.
        if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
            raise ValueError("expected a flat JSON array of reals")
        values = [float(v) for v in data]
    else:
        values = [float(line) for line in text.splitlines() if line.strip()]
    return SeqWindow(np.asarray(values, dtype=np.float64))


def _parse_matrix(text: str) -> MatrixWindow:
    if not text:
        raise ValueError("matrix file is empty")
    data = json.loads(text)
    if not isinstance(data, list) or not data or not all(
        isinstance(row, list) for row in data
    ):
        raise ValueError("expected a JSON array of row arrays")
    if any(isinstance(v, bool) for row in data for v in row):
        raise ValueError("entries must be reals, not booleans")
    if not all(isinstance(v, (int, float)) for row in data for v in row):
        raise ValueError("entries must be reals")
    if len({len(row) for row in data}) != 1:
        raise ValueError("rows must all have the same length")
    entries = np.asarray(data, dtype=np.float64)
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


@click.group()
@click.version_option(version=__version__)
def cli() -> None:
    """Fractional-order q-difference transforms and their window diagnostics."""


def _command(name: str, *options, orders=(("gamma", "Operator order."),), p: bool = False):
    """Register the decorated body as subcommand ``name``.

    The command's help lists each (flag, help) pair of ``orders``, --q,
    --p when ``p`` is set, ``options``, --output and --format.  Before the
    body runs, --q becomes a QParam, each order is checked finite in flag
    order and --p is parsed.  The body receives its own options plus ``qp``
    (and ``p``, next to the raw ``p_text``) and returns the payload: an
    array, a list, or a report that gets the command name as its first key.
    Library errors map onto the documented exit codes.
    """

    def register(body):
        def callback(q: float, output: str | None, fmt: str, **params) -> None:
            try:
                params["qp"] = _qparam(q)
                for flag, _ in orders:
                    if not math.isfinite(params[flag]):
                        raise ValueError(f"--{flag} must be finite, got {params[flag]!r}")
                if p:
                    params["p"] = PExponent.parse(params["p_text"])
                payload = body(**params)
                if isinstance(payload, dict):
                    payload = {"command": name, **payload}
                elif isinstance(payload, np.ndarray):
                    payload = payload.tolist()
                _emit(payload, output, fmt)
            except (LimitError, TailError) as exc:
                _fail(3, exc)
            except (ValueError, ArithmeticError, MemoryError) as exc:
                _fail(2, exc)
            except OSError as exc:
                _fail(1, exc)

        decorators = [click.option(f"--{flag}", type=float, required=True, help=text)
                      for flag, text in orders]
        decorators.append(click.option("--q", type=float, required=True,
                                       help="Deformation parameter, strictly inside (0, 1)."))
        if p:
            decorators.append(click.option("--p", "p_text", default="2", show_default=True,
                                           help="Norm exponent: a positive real or 'inf'."))
        decorators += [
            *options,
            click.option("--output", type=click.Path(dir_okay=False), default=None,
                         help="Write the result to this file instead of stdout."),
            click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                         default="json", show_default=True, help="Output format."),
        ]
        for decorate in reversed(decorators):
            callback = decorate(callback)
        return cli.command(name=name, help=body.__doc__)(callback)

    return register


def _input(help_text: str):
    return click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
                        required=True, help=help_text)


def _kind(flag: str, **attrs):
    return click.option(flag, type=click.Choice(["forward", "inverse"]), default="forward",
                        show_default=True, **attrs)


_LAGS = click.option("--k", type=int, required=True, help="Largest retained lag K.")


def _stream(kind: str, order: float, qp: QParam, k: int):
    build = forward_coeffs if kind == "forward" else inverse_coeffs
    return build(order, qp, _check_min(k, "--k", minimum=0))


@_command("coeffs", _LAGS, _kind("--kind", help="Which coefficient stream to emit."))
def coeffs(gamma: float, qp: QParam, k: int, kind: str):
    """Emit operator coefficients c_0..c_K (or inverse e_0..e_K)."""
    return _stream(kind, gamma, qp, k).coeffs


@_command("transform", _input("Sequence file (JSON array or one real per line)."))
def transform(gamma: float, qp: QParam, input_path: str):
    """Apply the forward operator to a sequence file."""
    return apply_forward(_read_input(input_path, _parse_sequence), gamma, qp).values


@_command("invert", _input("Sequence file (JSON array or one real per line)."))
def invert(gamma: float, qp: QParam, input_path: str):
    """Apply the inverse operator to a sequence file."""
    return apply_inverse(_read_input(input_path, _parse_sequence), gamma, qp).values


@_command("verify-inverse", click.option(
    "--window", type=int, default=30, show_default=True,
    help="Number of lags checked against the unit impulse."))
def verify_inverse_cmd(gamma: float, qp: QParam, window: int):
    """Residual of forward∘inverse against the identity on a window."""
    residual = verify_inverse(gamma, qp, _check_min(window))
    return {"gamma": gamma, "q": qp.q, "window": window, "residual": residual}


@_command("semigroup-defect", click.option(
    "--window", type=int, default=8, show_default=True,
    help="Number of coefficient lags compared."),
    orders=(("mu", "First operator order."), ("nu", "Second operator order.")))
def semigroup_defect_cmd(mu: float, nu: float, qp: QParam, window: int):
    """Coefficient gap between composing two orders and their sum."""
    defect = semigroup_defect(mu, nu, qp, _check_min(window, minimum=2))
    return {"mu": mu, "nu": nu, "q": qp.q, "window": window, "defect": defect}


@_command("norm", _input("Sequence file."), p=True)
def norm(gamma: float, qp: QParam, p: PExponent, p_text: str, input_path: str):
    """Domain norm of a sequence with its prefix growth profile."""
    report = domain_norm(_read_input(input_path, _parse_sequence), gamma, qp, p)
    return {"gamma": gamma, "q": qp.q, **report.as_dict()}


@_command("basis", click.option("--window", type=int, required=True, help="Window length N."),
          click.option("--k", type=int, required=True, help="Basis vector index (0-based)."))
def basis(gamma: float, qp: QParam, window: int, k: int):
    """Emit the k-th domain-space basis vector on an N-window."""
    _check_min(window)
    try:
        return schauder_basis_vector(k, gamma, qp, window).values
    except IndexError as exc:
        raise ValueError(f"--k: {exc}") from exc


def _dual_report(gamma: float, qp: QParam, p_text: str, reports) -> dict:
    return {"gamma": gamma, "q": qp.q, "p": p_text, "reports": [r.as_dict() for r in reports]}


@_command("alpha-dual", _input("Multiplier sequence file."), click.option(
    "--row-limit", type=int, default=12, show_default=True,
    help="Largest subset-enumeration row count, clamped to the "
         "input length (hard cap 20)."),
    p=True)
def alpha_dual(gamma: float, qp: QParam, p: PExponent, p_text: str, input_path: str,
               row_limit: int):
    """Subset-supremum diagnostics for alpha-dual membership."""
    a = _read_input(input_path, _parse_sequence)
    # Rows past the input would only repeat the supremum over all of it.
    rows = min(_check_min(row_limit, "--row-limit"), a.n)
    rep = alpha_dual_check(a, gamma, qp, p, default_checkpoints(rows, start=min(4, rows)))
    return _dual_report(gamma, qp, p_text, [rep])


_PREFIX = click.option("--window", type=int, default=None,
                       help="Evaluate on this prefix of the sequence (default: all of it).")


def _windowed_dual(check_fn, gamma, qp, p, p_text, input_path, window) -> dict:
    a = _read_input(input_path, _parse_sequence)
    if window is not None:
        if not 1 <= window <= a.n:
            raise ValueError(f"--window must lie in [1, {a.n}], got {window}")
        a = a.prefix(window)
    result = check_fn(a, gamma, qp, p)
    return _dual_report(gamma, qp, p_text, result if isinstance(result, list) else [result])


@_command("beta-dual", _input("Multiplier sequence file."), _PREFIX, p=True)
def beta_dual(**params):
    return _windowed_dual(beta_dual_check, **params)


@_command("gamma-dual", _input("Multiplier sequence file."), _PREFIX, p=True)
def gamma_dual(**params):
    return _windowed_dual(gamma_dual_check, **params)


@_command(
    "class-check",
    _input("Test matrix (JSON array of row arrays)."),
    click.option("--source", type=click.Choice([s.value for s in Source]), required=True,
                 help="Source space of the matrix class."),
    click.option("--target", type=click.Choice([t.value for t in Target]), required=True,
                 help="Target space of the matrix class."),
    click.option("--window", type=int, default=None,
                 help="Evaluation window (default: the matrix size)."),
    click.option("--row-limit", type=int, default=12, show_default=True,
                 help="Subset-enumeration cap for subset conditions."),
    p=True,
)
def class_check_cmd(gamma: float, qp: QParam, p: PExponent, p_text: str, input_path: str,
                    source: str, target: str, window: int | None, row_limit: int):
    """Evaluate the dispatch-table condition bundle for a matrix class."""
    phi = _read_input(input_path, _parse_matrix)
    w = window if window is not None else min(phi.shape)
    query = ClassQuery(source=Source(source), target=Target(target), p=p, order=gamma,
                       qp=qp, window=w, row_limit=row_limit)
    reports = class_check(query, phi)
    return {"source": source, "target": target, "gamma": gamma, "q": qp.q, "p": p_text,
            "window": w, "reports": [r.as_dict() for r in reports]}


@_command("compose", _LAGS, _kind("--kind-mu"), _kind("--kind-nu"),
          orders=(("mu", "Order of the first stream."), ("nu", "Order of the second stream.")))
def compose(mu: float, nu: float, qp: QParam, k: int, kind_mu: str, kind_nu: str):
    """Convolve two coefficient streams and emit the composed stream."""
    return compose_coeffs(_stream(kind_mu, mu, qp, k), _stream(kind_nu, nu, qp, k)).coeffs


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
