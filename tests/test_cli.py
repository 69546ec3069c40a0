"""The CLI's exit-code contract and the routes `--method auto` picks."""

import csv
import io
import math

import pytest

from mlcontour.cli import main

PI = math.pi


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def ml_rows(capsys, rho, z_mod, z_arg, method="auto", mu_re=1.0):
    """`mlc grid ml` at the single point (|z|, arg z), parsed from its CSV."""
    code, out = run(capsys, "grid", "ml", "--rho", rho, "--mu-re", mu_re,
                    "--zmod-min", z_mod, "--zmod-max", z_mod, "--zmod-step", 1,
                    "--zarg-min", repr(z_arg), "--zarg-max", repr(z_arg),
                    "--zarg-step", 1, "--method", method)
    return code, list(csv.DictReader(io.StringIO(out)))


class TestExitCodes:
    def test_eval_ok(self, capsys):
        code, out = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                        "--z-arg-pi", 1)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["method"] == "contour"
        assert float(row["value_re"]) == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_grid_with_no_ok_row_is_threshold_failure(self, capsys):
        code, out = run(capsys, "grid", "ml", "--rho", 2, "--mu-re", 1,
                        "--zmod-min", 1, "--zmod-max", 2, "--zmod-step", 1,
                        "--zarg-min", 0, "--zarg-max", 0.5, "--zarg-step", 0.5,
                        "--method", "contour")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 1
        assert len(rows) == 4
        assert {r["status"] for r in rows} == {"window_violation"}

    def test_contour_outside_window_is_precondition_error(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 2, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg", 0, "--method", "contour")
        assert code == 2

    def test_theta_and_theta_pi_are_exclusive(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg-pi", 1, "--method", "dzhrbashyan",
                      "--theta", 2.5, "--theta-pi", 0.75)
        assert code == 2

    def test_zeta_loop_non_convergence(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 2, "--mu-re", 1, "--z-mod", 5,
                      "--z-arg-pi", 1)
        assert code == 3

    def test_series_out_of_terms(self, capsys):
        code, out = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                        "--z-arg-pi", 1, "--method", "series", "--max-terms", 5)
        assert code == 3
        assert "not_converged" in out


class TestSeriesOverflow:
    """Series overflow is a typed outcome: not converged, never a crash."""

    def test_eval_sum_overflow(self, capsys):
        code, out = run(capsys, "eval", "--rho", 4, "--mu-re", 1, "--z-mod", 10,
                        "--z-arg", 0, "--method", "series")
        assert code == 3
        assert "not_converged" in out

    def test_eval_term_modulus_overflow(self, capsys):
        code, out = run(capsys, "eval", "--rho", 4, "--mu-re", 0.5, "--z-mod", 10,
                        "--z-arg-pi", 0.75, "--method", "series")
        assert code == 3
        assert "not_converged" in out

    def test_grid_row_reads_non_convergence(self, capsys):
        code, rows = ml_rows(capsys, 4, 10, 0.75 * PI, method="series", mu_re=0.5)
        assert code == 1
        assert [(r["method"], r["status"]) for r in rows] == [("series", "non_convergence")]

    def test_compare_reports_series_failed(self, capsys):
        code, out = run(capsys, "compare", "--rho", 4, "--mu-re", 0.5, "--z-mod", 10,
                        "--z-arg-pi", 0.75)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        assert rows["series"]["status"] == "failed"


class TestAutoRoute:
    @pytest.mark.parametrize("rho,z_mod,z_arg,route", [
        (0.5, 1.0, PI, "series"),
        (0.5, 3.0, 0.5 * PI, "series"),
        (1.0, 0.0, PI, "series"),
        (2.0, 0.0, PI, "series"),
        (1.0, 1.0, PI, "contour"),
        (1.0, 1.0, 0.0, "series"),
        (1.0, 1.0, 0.5 * PI, "series"),  # the window edge
        (4.0, 5.0, PI, "contour"),
        (4.0, 5.2, PI, "series"),  # (|z|(1 + eps))^rho past OVERFLOW_EXPONENT_LIMIT
    ])
    def test_route(self, capsys, rho, z_mod, z_arg, route):
        _, rows = ml_rows(capsys, rho, z_mod, z_arg)
        assert [r["method"] for r in rows] == [route]

    def test_failed_row_names_its_route(self, capsys):
        code, rows = ml_rows(capsys, 2, 5, PI)
        assert code == 1
        row = rows[0]
        assert (row["method"], row["flags"], row["status"]) == (
            "contour", "", "non_convergence")
