"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner

from qnabla.cli import cli


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
