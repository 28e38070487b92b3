"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qnabla.cli import cli
from qnabla.duals import MatrixWindow
from qnabla.matclass import ClassQuery, Source, Target, class_check
from qnabla.qcore import QParam
from qnabla.spaces import P_INF, PExponent
from test_matclass import TAIL_RATIO_OF_1E308, seeded_lower_triangular


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)


class TestCoeffs:
    def test_second_order_stream(self, runner):
        result = invoke(runner, "coeffs", "--gamma", 2, "--q", 0.5, "--k", 5)
        assert result.exit_code == 0
        values = json.loads(result.output)
        assert values == [1.0, -1.5, 0.5, 0.0, 0.0, 0.0]

    def test_inverse_stream(self, runner):
        result = invoke(runner, "coeffs", "--gamma", 1, "--q", 0.5, "--k", 3,
                        "--kind", "inverse")
        assert json.loads(result.output) == [1.0, 1.0, 1.0, 1.0]

    def test_negative_k_is_validation_error(self, runner):
        result = invoke(runner, "coeffs", "--gamma", 1, "--q", 0.5, "--k", -1)
        assert result.exit_code == 2
        assert "--k" in result.output

    def test_bad_q_is_validation_error(self, runner):
        result = invoke(runner, "coeffs", "--gamma", 1, "--q", 1.5, "--k", 2)
        assert result.exit_code == 2
        assert "q" in result.output

    def test_csv_format(self, runner):
        result = invoke(runner, "coeffs", "--gamma", 1, "--q", 0.5, "--k", 2,
                        "--format", "csv")
        assert result.output.splitlines() == ["1.0", "-1.0", "0.0"]


class TestTransformRoundTrip:
    def test_json_round_trip(self, runner, tmp_path):
        rng = np.random.default_rng(61)
        values = rng.uniform(-1, 1, 64)
        src = tmp_path / "g.json"
        src.write_text(json.dumps(list(values)))
        mid = tmp_path / "h.json"
        out = tmp_path / "back.json"

        r1 = invoke(runner, "transform", "--gamma", 0.5, "--q", 0.5,
                    "--input", src, "--output", mid)
        assert r1.exit_code == 0
        r2 = invoke(runner, "invert", "--gamma", 0.5, "--q", 0.5,
                    "--input", mid, "--output", out)
        assert r2.exit_code == 0
        back = np.asarray(json.loads(out.read_text()))
        assert np.max(np.abs(back - values)) <= 1e-10

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("\n".join(str(v) for v in (0.3, -1.25, 2.0, 0.875)))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            result = invoke(runner, "transform", "--gamma", 1.7, "--q", 0.9,
                            "--input", src, "--output", out)
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_input_is_validation_error(self, runner, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        result = invoke(runner, "transform", "--gamma", 1, "--q", 0.5,
                        "--input", src)
        assert result.exit_code == 2
        assert "window must be ≥ 1" in result.output

    def test_line_format_and_json_format_agree(self, runner, tmp_path):
        lines = tmp_path / "g.txt"
        lines.write_text("1.0\n2.0\n3.0\n")
        arr = tmp_path / "g.json"
        arr.write_text("[1.0, 2.0, 3.0]")
        out_a = invoke(runner, "transform", "--gamma", 1, "--q", 0.5, "--input", lines)
        out_b = invoke(runner, "transform", "--gamma", 1, "--q", 0.5, "--input", arr)
        assert out_a.output == out_b.output

    def test_garbled_input_is_validation_error(self, runner, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("1.0\nnot-a-number\n")
        result = invoke(runner, "transform", "--gamma", 1, "--q", 0.5, "--input", src)
        assert result.exit_code == 2
        assert "--input" in result.output


class TestReportCommands:
    def test_verify_inverse(self, runner):
        result = invoke(runner, "verify-inverse", "--gamma", 0.5, "--q", 0.5,
                        "--window", 30)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["residual"] <= 1e-10

    def test_semigroup_defect(self, runner):
        result = invoke(runner, "semigroup-defect", "--mu", 0.5, "--nu", 0.5,
                        "--q", 0.25, "--window", 8)
        payload = json.loads(result.output)
        assert payload["defect"] >= 0.333

    def test_norm_report(self, runner, tmp_path):
        src = tmp_path / "g.json"
        src.write_text("[1.0, 1.0, 1.0, 1.0]")
        result = invoke(runner, "norm", "--gamma", 1, "--q", 0.5, "--p", 1,
                        "--input", src)
        payload = json.loads(result.output)
        assert payload["value"] == 1.0
        assert payload["partials"][-1] == [4, 1.0]

    def test_norm_inf(self, runner, tmp_path):
        src = tmp_path / "g.json"
        src.write_text("[1.0, 0.0, 0.0]")
        result = invoke(runner, "norm", "--gamma", 2, "--q", 0.5, "--p", "inf",
                        "--input", src)
        payload = json.loads(result.output)
        assert payload["value"] == pytest.approx(1.5, abs=1e-12)

    def test_basis_vector(self, runner):
        result = invoke(runner, "basis", "--gamma", 1, "--q", 0.5,
                        "--window", 5, "--k", 0)
        assert json.loads(result.output) == [1.0] * 5

    def test_basis_bad_index(self, runner):
        result = invoke(runner, "basis", "--gamma", 1, "--q", 0.5,
                        "--window", 5, "--k", 7)
        assert result.exit_code == 2
        assert "--k" in result.output

    def test_compose(self, runner):
        result = invoke(runner, "compose", "--mu", 0.5, "--nu", 0.5, "--q", 0.25,
                        "--k", 4)
        values = json.loads(result.output)
        assert values[1] == pytest.approx(-4.0 / 3.0, rel=1e-12)


class TestDualCommands:
    def test_alpha_dual_growing(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([1.0] * 16))
        result = invoke(runner, "alpha-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src, "--row-limit", 12)
        payload = json.loads(result.output)
        rep = payload["reports"][0]
        assert rep["verdict"] == "growing"
        assert rep["values"][-1] == [12, 650.0]

    def test_alpha_dual_row_limit_is_clamped_to_the_input(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([1.0, -0.5, 2.0, 0.25]))
        result = invoke(runner, "alpha-dual", "--gamma", 0.7, "--q", 0.6, "--p", 2,
                        "--input", src, "--row-limit", 16)
        assert result.exit_code == 0
        rep = json.loads(result.output)["reports"][0]
        assert [n for n, _ in rep["values"]] == [4]
        assert rep["verdict"] == "inconclusive"

    def test_alpha_dual_row_cap_is_exit_3(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([1.0] * 24))
        result = invoke(runner, "alpha-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src, "--row-limit", 21)
        assert result.exit_code == 3

    def test_beta_dual_reports_two_conditions(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps(list(np.eye(16)[0])))
        result = invoke(runner, "beta-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src)
        payload = json.loads(result.output)
        assert [r["condition"] for r in payload["reports"]] == [
            "column-limits", "row-power-sum-sup",
        ]

    def test_gamma_dual(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps(list(np.eye(8)[0])))
        result = invoke(runner, "gamma-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src)
        payload = json.loads(result.output)
        assert len(payload["reports"]) == 1
        assert all(v == 1.0 for _, v in payload["reports"][0]["values"])

    def test_window_prefix_option(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([1.0] * 32))
        result = invoke(runner, "beta-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src, "--window", 8)
        payload = json.loads(result.output)
        assert payload["reports"][0]["values"][-1][0] == 8

    def test_csv_report(self, runner, tmp_path):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([1.0] * 8))
        result = invoke(runner, "gamma-dual", "--gamma", 1, "--q", 0.5, "--p", 2,
                        "--input", src, "--format", "csv")
        lines = result.output.splitlines()
        assert lines[0] == "condition,window,value,verdict"


class TestClassCheck:
    def test_domain_cell(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        src.write_text(json.dumps(np.eye(8).tolist()))
        result = invoke(runner, "class-check", "--gamma", 1, "--q", 0.5,
                        "--p", "inf", "--input", src,
                        "--source", "linf-domain", "--target", "linf")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert sorted({r["detail"]["item"] for r in payload["reports"]}) == [3, 7]

    def test_classical_cell(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        src.write_text(json.dumps(np.zeros((8, 8)).tolist()))
        result = invoke(runner, "class-check", "--gamma", 0.5, "--q", 0.5,
                        "--p", 2, "--input", src,
                        "--source", "c0", "--target", "lp-domain")
        payload = json.loads(result.output)
        assert [r["detail"]["item"] for r in payload["reports"]] == ["B'"]

    def test_tail_refusal_is_exit_3(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        # Non-triangular window with non-decaying rows.
        phi = np.ones((8, 8))
        phi[0, -1] = 2.0
        src.write_text(json.dumps(phi.tolist()))
        result = invoke(runner, "class-check", "--gamma", 0.5, "--q", 0.5,
                        "--p", 1, "--input", src,
                        "--source", "l1-domain", "--target", "l1")
        assert result.exit_code == 3

    def test_bad_pairing_is_exit_2(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        src.write_text(json.dumps(np.eye(4).tolist()))
        result = invoke(runner, "class-check", "--gamma", 0.5, "--q", 0.5,
                        "--p", 1, "--input", src,
                        "--source", "l1-domain", "--target", "lp-domain")
        assert result.exit_code == 2

    def test_triangularity_is_decided_on_the_evaluated_block(self, runner, tmp_path):
        # Read as not triangular, the block's last rows fail the tail test,
        # so entries outside the block must not change how it is read:
        # neither trailing zero columns nor an entry past the block's edge.
        rng = np.random.default_rng(66)
        lower = np.tril(rng.uniform(-1.0, 1.0, (20, 20)))
        corner = lower.copy()
        corner[0, 19] = 1.0
        files = {"block": (lower[:16, :16], ()),
                 "trapezoid": (np.hstack([lower[:16, :16], np.zeros((16, 4))]), ()),
                 "corner": (corner, ("--window", 16))}
        outputs = {}
        for name, (phi, extra) in files.items():
            src = tmp_path / f"{name}.json"
            src.write_text(json.dumps(phi.tolist()))
            result = invoke(runner, "class-check", "--gamma", 0.7, "--q", 0.6, "--p", 2,
                            "--input", src, "--source", "lp-domain", "--target", "c", *extra)
            assert result.exit_code == 0, result.output
            outputs[name] = result.output
        assert outputs["trapezoid"] == outputs["block"]
        assert outputs["corner"] == outputs["block"]

    @pytest.mark.parametrize("source, p, exponent", [("lp-domain", "2", PExponent(2.0)),
                                                     ("linf-domain", "inf", P_INF)])
    def test_reports_are_the_library_reports(self, runner, tmp_path, source, p, exponent):
        # The library reads triangularity from the block as the CLI did, so
        # an unflagged lower-triangular window gives the CLI's reports.
        phi = seeded_lower_triangular()
        src = tmp_path / "phi.json"
        src.write_text(json.dumps(phi.tolist()))
        result = invoke(runner, "class-check", "--gamma", 0.7, "--q", 0.6, "--p", p,
                        "--input", src, "--source", source, "--target", "c")
        assert result.exit_code == 0, result.output
        query = ClassQuery(Source(source), Target.C, exponent, 0.7, QParam(0.6), window=16)
        reports = [r.as_dict() for r in class_check(query, MatrixWindow(phi))]
        assert json.loads(result.output)["reports"] == json.loads(json.dumps(reports))

    @pytest.mark.parametrize("source, target, p", [("lp-domain", "c", "2"),
                                                   ("linf-domain", "l1", "inf")])
    @pytest.mark.parametrize("n", [2, 8])
    def test_tail_mass_past_double_range_is_exit_3(self, runner, tmp_path, source, target, p, n):
        src = tmp_path / "phi.json"
        src.write_text(json.dumps(np.full((n, n), 1e308).tolist()))
        result = invoke(runner, "class-check", "--gamma", 0.7, "--q", 0.6, "--p", p,
                        "--input", src, "--source", source, "--target", target)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert re.match("error: " + TAIL_RATIO_OF_1E308[n], result.stderr)

    def test_ragged_matrix_is_exit_2(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        src.write_text("[[1.0, 2.0], [3.0]]")
        result = invoke(runner, "class-check", "--gamma", 0.5, "--q", 0.5,
                        "--p", 1, "--input", src,
                        "--source", "l1-domain", "--target", "l1")
        assert result.exit_code == 2


class TestCliMisc:
    def test_missing_input_file_is_usage_error(self, runner):
        result = invoke(runner, "transform", "--gamma", 1, "--q", 0.5,
                        "--input", "/nonexistent/g.json")
        assert result.exit_code == 2

    def test_help_lists_all_commands(self, runner):
        result = invoke(runner, "--help")
        for command in ("coeffs", "transform", "invert", "verify-inverse",
                        "semigroup-defect", "norm", "basis", "alpha-dual",
                        "beta-dual", "gamma-dual", "class-check", "compose"):
            assert command in result.output
        # Each command's summary is its body's docstring: none may be empty.
        listed = result.output.split("Commands:\n", 1)[1].splitlines()
        summaries = dict((line.split(None, 1) + [""])[:2] for line in listed)
        assert set(summaries) == set(cli.commands)
        for name, command in cli.commands.items():
            assert command.get_short_help_str() and summaries[name], name


class TestArithmeticBackstop:
    def test_long_integer_order_transform(self, runner, tmp_path):
        # Past lag 1,024 the term q^(gamma - k) of the per-lag bracket form
        # overflows at q = 0.5; the bounded ratio form never forms it.
        rng = np.random.default_rng(7)
        src = tmp_path / "g.json"
        src.write_text(json.dumps(list(rng.uniform(-1, 1, 1030))))
        result = invoke(runner, "transform", "--gamma", 2, "--q", 0.5, "--input", src)
        assert result.exit_code == 0
        assert len(json.loads(result.stdout)) == 1030

    def test_negative_order_overflow_is_exit_2(self, runner):
        result = invoke(runner, "coeffs", "--gamma", -0.5, "--q", 0.5, "--k", 3000)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: forward coefficient stream")
        assert "lag 2051" in result.stderr and "K = 2050" in result.stderr
        assert "Traceback" not in result.stderr

    def test_arithmetic_error_is_exit_2(self, runner, monkeypatch):
        import qnabla.cli as cli_module

        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli_module, "forward_coeffs", overflow)
        result = invoke(runner, "coeffs", "--gamma", 0.5, "--q", 0.5, "--k", 4)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    # Each asks numpy for about 8 PB at once, which no 64-bit host grants,
    # so the request fails before anything is allocated.
    @pytest.mark.parametrize("args", [
        ("coeffs", "--gamma", 0.5, "--q", 0.5, "--k"),
        ("compose", "--mu", 0.5, "--nu", 0.3, "--q", 0.5, "--k"),
        ("verify-inverse", "--gamma", 0.5, "--q", 0.5, "--window"),
        ("semigroup-defect", "--mu", 0.5, "--nu", 0.3, "--q", 0.5, "--window"),
        ("basis", "--gamma", 0.5, "--q", 0.5, "--k", 0, "--window"),
    ], ids=lambda args: args[0])
    def test_unallocatable_request_is_exit_2(self, runner, args):
        result = invoke(runner, *args, 10**15)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


class TestDoubleRange:
    """Values outside double range exit 2 with one error line; the suite
    turns warnings into errors, so no RuntimeWarning may leak either."""

    @pytest.mark.parametrize("args, data", [
        (("beta-dual", "--gamma", 1, "--q", 0.5, "--p", "1.0000000000000002"), [1.0] * 8),
        (("alpha-dual", "--gamma", 1, "--q", 0.5, "--p", 2), [1e308] * 4),
        (("class-check", "--gamma", 1, "--q", 0.5, "--p", 2, "--source", "c",
          "--target", "lp-domain"), [[1e308, 0], [1e308, 1e308]]),
        (("beta-dual", "--gamma", 1, "--q", 0.5, "--p", 2), [1e308] * 4),
        (("class-check", "--gamma", 1, "--q", 0.5, "--p", "inf", "--source", "linf-domain",
          "--target", "linf"), [[1e308, 0], [1e308, 1e308]]),
    ])
    def test_overflow_is_exit_2(self, runner, tmp_path, args, data):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        result = invoke(runner, *args, "--input", src)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("args, data", [
        (("transform",), [1e308] * 3),
        (("class-check", "--p", 2, "--source", "c", "--target", "lp-domain"),
         [[1e308, 0], [1e308, 1e308]]),
    ])
    def test_transform_past_double_range_is_named(self, runner, tmp_path, args, data):
        # The input is finite; the order -0.5 forward transform overflows.
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        result = invoke(runner, *args, "--gamma", -0.5, "--q", 0.5, "--input", src)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: forward transform of order -0.5 at q = 0.5 leaves double range\n"
        )

    @pytest.mark.parametrize("args, data, what", [
        (("alpha-dual",), [1e308] * 16, "termwise-product window"),
        (("beta-dual",), [1e308] * 16, "partial-sum window"),
        (("gamma-dual",), [1e308] * 16, "partial-sum window"),
        (("class-check", "--source", "lp-domain", "--target", "c"),
         np.tril(np.full((8, 8), 1e308)).tolist(), "inverse composite"),
    ])
    def test_window_past_double_range_is_one_line(self, runner, tmp_path, args, data, what):
        # Finite inputs whose computed window overflows: one refusal naming
        # the window, its order and q, and no numpy warning before it.
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        result = invoke(runner, *args, "--gamma", 2, "--q", 0.9, "--p", 2, "--input", src)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {what} of order 2.0 at q = 0.9 leaves double range\n"

    @pytest.mark.parametrize("target, what", [("cs", "running-sum"), ("qcesaro-c", "q-cesaro")])
    def test_column_means_past_double_range_are_one_line(self, runner, tmp_path, target, what):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(np.tril(np.full((8, 8), 1e308)).tolist()))
        result = invoke(runner, "class-check", "--gamma", 2, "--q", 0.9, "--p", 2,
                        "--source", "lp-domain", "--target", target, "--input", src)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {what} composite at q = 0.9 leaves double range\n"

    def test_norm_of_huge_window_is_finite(self, runner, tmp_path):
        src = tmp_path / "g.json"
        src.write_text(json.dumps([1e200] * 4))
        result = invoke(runner, "norm", "--gamma", 0.5, "--q", 0.5, "--p", 2, "--input", src)
        assert result.exit_code == 0
        assert result.stderr == ""
        value = json.loads(result.stdout)["value"]
        assert value == pytest.approx(1.124060513833272e200, rel=1e-14)


class TestEntryPoints:
    def test_version(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert "0.1.0" in result.stdout

    def test_python_dash_m(self):
        # CliRunner never reaches __main__ or main(); run them for real.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qnabla", "coeffs", "--gamma", "2", "--q", "0.5", "--k", "5"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [1.0, -1.5, 0.5, 0.0, 0.0, 0.0]


class TestBooleanInputs:
    """JSON booleans parse as Python bools, an int subclass; no reader may
    take them for reals."""

    def test_sequence_reader(self, runner, tmp_path):
        src = tmp_path / "g.json"
        src.write_text("[true, false, 2]")
        result = invoke(runner, "transform", "--gamma", 1, "--q", 0.5, "--input", src)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: --input {src}:")

    def test_matrix_reader(self, runner, tmp_path):
        src = tmp_path / "phi.json"
        src.write_text("[[true, 0], [1, 1]]")
        result = invoke(runner, "class-check", "--gamma", 0.5, "--q", 0.5, "--p", 1,
                        "--input", src, "--source", "l1-domain", "--target", "l1")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: --input {src}:")


READERS = {
    "sequence": ("transform", "--gamma", 1, "--q", 0.5),
    "matrix": ("class-check", "--gamma", 0.5, "--q", 0.5, "--p", 1,
               "--source", "l1-domain", "--target", "l1"),
}


@pytest.mark.parametrize("reader, name, text", [
    ("sequence", "g.json", "[1, 2"),
    ("sequence", "g.json", "[1, 1e400]"),
    ("sequence", "g.json", "[1, NaN]"),
    ("sequence", "g.json", "[1, " + "9" * 400 + "]"),
    ("sequence", "g.txt", "1\nnan\n"),
    ("sequence", "g.txt", "1\ninf\n"),
    ("sequence", "g.txt", "1\nabc\n"),
    ("sequence", "g.json", "[" * 100_000 + "]" * 100_000),
    ("matrix", "phi.json", '[["a", 0], [1, 1]]'),
    ("matrix", "phi.json", "[[1, 2], [3]]"),
    ("matrix", "phi.json", "[[[1]], [[2]]]"),
    ("matrix", "phi.json", "[[1, null], [1, 1]]"),
    ("matrix", "phi.json", "[[1e400, 0], [1, 1]]"),
    ("matrix", "phi.json", "[[NaN, 0], [1, 1]]"),
    ("matrix", "phi.json", "[[]]"),
    ("matrix", "phi.json", "[[1, 0], [1, 1]"),
])
def test_every_input_error_names_the_file(runner, tmp_path, reader, name, text):
    src = tmp_path / name
    src.write_text(text)
    result = invoke(runner, *READERS[reader], "--input", src)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: --input {src}:")


@pytest.mark.parametrize("reader, name, text, refusal", [
    ("matrix", "phi.json", "", "matrix file is empty"),
    ("matrix", "phi.json", " \n\n", "matrix file is empty"),
    ("matrix", "phi.json", "[]", "expected a JSON array of row arrays"),
    ("matrix", "phi.json", "{}", "expected a JSON array of row arrays"),
    ("matrix", "phi.json", "[1, 2]", "expected a JSON array of row arrays"),
    ("sequence", "g.txt", " \n\n", "window must be ≥ 1 (file is empty)"),
    ("sequence", "g.json", "[]", "window must be ≥ 1"),
])
def test_empty_and_shapeless_inputs_are_refused(runner, tmp_path, reader, name, text, refusal):
    src = tmp_path / name
    src.write_text(text)
    result = invoke(runner, *READERS[reader], "--input", src)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: --input {src}: {refusal}\n"


@pytest.mark.parametrize("command", ["beta-dual", "gamma-dual"])
@pytest.mark.parametrize("window", [0, 9])
def test_dual_window_past_the_input_is_refused(runner, tmp_path, command, window):
    src = tmp_path / "a.json"
    src.write_text(json.dumps([1.0] * 8))
    result = invoke(runner, command, "--gamma", 1, "--q", 0.5, "--input", src,
                    "--window", window)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: --window must lie in [1, 8], got {window}\n"


# One valid invocation per subcommand and its order flags; {seq} and {mat}
# stand for a sequence file and a matrix file.
SUBCOMMANDS = [
    (("coeffs", "--gamma", "0.5", "--q", "0.5", "--k", "4"), ("gamma",)),
    (("transform", "--gamma", "0.5", "--q", "0.5", "--input", "{seq}"), ("gamma",)),
    (("invert", "--gamma", "0.5", "--q", "0.5", "--input", "{seq}"), ("gamma",)),
    (("verify-inverse", "--gamma", "0.5", "--q", "0.5", "--window", "6"), ("gamma",)),
    (("semigroup-defect", "--mu", "0.5", "--nu", "0.25", "--q", "0.5"), ("mu", "nu")),
    (("norm", "--gamma", "0.5", "--q", "0.5", "--p", "2", "--input", "{seq}"), ("gamma",)),
    (("basis", "--gamma", "0.5", "--q", "0.5", "--window", "6", "--k", "2"), ("gamma",)),
    (("alpha-dual", "--gamma", "0.5", "--q", "0.5", "--input", "{seq}"), ("gamma",)),
    (("beta-dual", "--gamma", "0.5", "--q", "0.5", "--input", "{seq}"), ("gamma",)),
    (("gamma-dual", "--gamma", "0.5", "--q", "0.5", "--input", "{seq}"), ("gamma",)),
    (("class-check", "--gamma", "0.5", "--q", "0.5", "--p", "inf", "--input", "{mat}",
      "--source", "linf-domain", "--target", "linf"), ("gamma",)),
    (("compose", "--mu", "0.5", "--nu", "-0.5", "--q", "0.5", "--k", "4"), ("mu", "nu")),
]


class TestSharedOptions:
    """Every subcommand validates --q and its orders and writes --output
    the same way."""

    @pytest.fixture()
    def argv(self, tmp_path):
        seq = tmp_path / "g.json"
        seq.write_text(json.dumps([0.3, -1.25, 2.0, 0.875, 1.5, -0.5]))
        mat = tmp_path / "phi.json"
        mat.write_text(json.dumps(np.eye(4).tolist()))

        def build(args, **values):
            out = [a.format(seq=seq, mat=mat) for a in args]
            for flag, value in values.items():
                out[out.index(f"--{flag}") + 1] = value
            return out

        return build

    def test_all_subcommands_covered(self, runner):
        listed = set(cli.list_commands(None))
        assert {args[0] for args, _ in SUBCOMMANDS} == listed
        assert len(listed) == 12

    @pytest.mark.parametrize("args, orders", SUBCOMMANDS, ids=lambda v: v[0])
    def test_bad_q(self, runner, argv, args, orders):
        result = invoke(runner, *argv(args, q="1.5"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: --q:")
        assert result.stdout == ""

    @pytest.mark.parametrize("args, orders", SUBCOMMANDS, ids=lambda v: v[0])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_order(self, runner, argv, args, orders, bad):
        for flag in orders:
            result = invoke(runner, *argv(args, **{flag: bad}))
            assert result.exit_code == 2
            assert result.stderr.startswith(f"error: --{flag} must be finite")
            assert result.stdout == ""

    @pytest.mark.parametrize("args, orders", SUBCOMMANDS, ids=lambda v: v[0])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_file_matches_stdout(self, runner, argv, tmp_path, args, orders, fmt):
        shown = invoke(runner, *argv(args), "--format", fmt)
        assert shown.exit_code == 0
        assert shown.stdout_bytes
        out = tmp_path / "out"
        written = invoke(runner, *argv(args), "--format", fmt, "--output", out)
        assert written.exit_code == 0
        assert written.stdout == ""
        assert out.read_bytes() == shown.stdout_bytes
