"""The CLI's exit-code contract and the routes `--method auto` picks."""

import cmath
import csv
import io
import json
import math
import pathlib
import re

import pytest
from ml_reference import ml_reference

from mlcontour import ConvergenceError, IntegrandError, cli, recip_gamma_oracle
from mlcontour.cli import _axis, build_parser, main

PI = math.pi
#: F2's point: arg z near the zeta loop's window edge, where one ray barely
#: decays and the loop does not converge.
F2_POINT = ("--rho", 0.75, "--mu-re", 1, "--z-mod", 0.5, "--z-arg", 2.095395102393195)
#: F11's point: past the growth cap at rho = 1, where auto still takes the
#: loop and it does not converge.
F11_POINT = ("--rho", 1, "--mu-re", 1, "--z-mod", 9, "--z-arg-pi", 1)


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
        assert row["method"] == "series"  # |z|^rho = 1
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

    def test_arc_radius_below_zero_is_precondition_error(self, capsys):
        # 1 + eps < 0: refused before (|z|(1 + eps))^rho is formed
        code = main(["eval", "--rho", "1.5", "--mu-re", "1", "--z-mod", "1",
                     "--z-arg-pi", "1", "--method", "contour", "--epsilon-hat=-2"])
        assert code == 2
        assert "epsilon_hat must exceed -1" in capsys.readouterr().err

    def test_theta_and_theta_pi_are_exclusive(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg-pi", 1, "--method", "dzhrbashyan",
                      "--theta", 2.5, "--theta-pi", 0.75)
        assert code == 2

    def test_zeta_loop_non_convergence(self, capsys):
        code, _ = run(capsys, "eval", *F11_POINT)
        assert code == 3

    def test_series_answers_near_the_window_edge(self, capsys):
        # F2: auto took the loop here, which did not converge
        code, out = run(capsys, "eval", *F2_POINT)
        row = next(csv.DictReader(io.StringIO(out)))
        assert (code, row["method"], row["flags"]) == (0, "series", "")
        ref = ml_reference(0.75, 1.0, 0.5 * cmath.exp(2.095395102393195j))
        assert abs(complex(float(row["value_re"]), float(row["value_im"])) - ref) \
            <= 1e-13 * abs(ref)

    def test_former_zeta_loop_non_convergence_answers(self, capsys):
        # the default arc passes inside the pole, at tau-plane radius 1
        code, out = run(capsys, "eval", "--rho", 2, "--mu-re", 1, "--z-mod", 5,
                        "--z-arg-pi", 1)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        value = complex(float(row["value_re"]), float(row["value_im"]))
        ref = ml_reference(2.0, 1.0, -5.0)
        assert row["method"] == "contour"
        assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_compare_dzhrbashyan_arc_inside_z(self, capsys):
        # z left of the theta loop: its arc may pass inside |z|
        code, out = run(capsys, "compare", "--rho", 2, "--mu-re", 1, "--z-mod", 4,
                        "--z-arg-pi", 1, "--dzh-radius", 1)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        row = rows["dzhrbashyan"]
        value = complex(float(row["value_re"]), float(row["value_im"]))
        ref = ml_reference(2.0, 1.0, -4.0)
        assert row["status"] == "ok"
        assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_series_out_of_terms(self, capsys):
        code, out = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                        "--z-arg-pi", 1, "--method", "series", "--max-terms", 5)
        assert code == 3
        assert "not_converged" in out

    @pytest.mark.parametrize("max_terms", [0, -5])
    def test_series_term_budget_below_one(self, capsys, max_terms):
        code, _ = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg", 0, "--method", "series", "--max-terms", max_terms)
        assert code == 2

    def test_contour_ignores_term_budget(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg-pi", 1, "--method", "contour", "--max-terms", 0)
        assert code == 0


class TestErrorTypes:
    """main maps a refusal to exit 2 and a numerical failure to exit 3, and
    nothing else: any other error is a bug and escapes."""

    def test_integrand_error_is_a_convergence_error(self):
        assert issubclass(IntegrandError, ConvergenceError)

    @staticmethod
    def eval_raising(monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "evaluate_ml", broken)
        return main(["eval", "--rho", "1", "--mu-re", "1", "--z-mod", "1", "--z-arg-pi", "1"])

    def test_integrand_error_exits_3(self, capsys, monkeypatch):
        assert self.eval_raising(monkeypatch, IntegrandError("integrand not finite")) == 3
        assert "integrand not finite" in capsys.readouterr().err

    def test_value_error_in_a_command_is_not_a_refusal(self, monkeypatch):
        with pytest.raises(ValueError, match="a bug"):
            self.eval_raising(monkeypatch, ValueError("a bug, not a refusal"))


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


class TestFloatPowerOverflow:
    """Where a float power in a loop route's checks overflows a double, the
    route refuses with a precondition error instead of a traceback."""

    POINT = ("--rho", 2, "--mu-re", 1, "--z-mod", 1e200, "--z-arg-pi", 1)

    @pytest.mark.parametrize("method", ["contour", "bateman"])
    def test_eval_is_precondition_error(self, capsys, method):
        code, _ = run(capsys, "eval", *self.POINT, "--method", method)
        assert code == 2

    def test_dzhrbashyan_arc_power(self, capsys):
        code, _ = run(capsys, "eval", "--rho", 40, "--mu-re", 1, "--z-mod", 1e10,
                      "--z-arg-pi", 1, "--method", "dzhrbashyan")
        assert code == 2

    def test_default_arc_at_tiny_rho(self, capsys):
        # 8.5^(1/rho) in the default arc radius overflows before the rho check
        code, _ = run(capsys, "eval", "--rho", 0.001, "--mu-re", 1, "--z-mod", 1,
                      "--z-arg-pi", 1, "--method", "contour",
                      "--delta1-rho", 1, "--delta2-rho", 1)
        assert code == 2

    def test_compare_skips_loop_routes(self, capsys):
        code, out = run(capsys, "compare", *self.POINT)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        assert rows["contour"]["status"] == "skipped"
        assert rows["bateman"]["status"] == "skipped"

    # epsilon^(1/rho) in the Bateman ray decay overflows at small rho
    TINY_RHO = ("--rho", 0.005, "--mu-re", 1, "--z-mod", 1, "--z-arg-pi", 1)

    def test_bateman_arc_power_at_tiny_rho(self, capsys):
        code, _ = run(capsys, "eval", *self.TINY_RHO, "--method", "bateman",
                      "--arc-radius", 600)
        assert code == 2

    def test_compare_skips_bateman_at_tiny_rho(self, capsys):
        code, out = run(capsys, "compare", *self.TINY_RHO, "--bateman-radius", 600)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        assert rows["bateman"]["status"] == "skipped"

    def test_grid_row_reads_precondition_violation(self, capsys):
        code, out = run(capsys, "grid", "ml", "--rho", 2, "--mu-re", 1,
                        "--zmod-min", 1e200, "--zmod-max", 1e200, "--zmod-step", 1e200,
                        "--zarg-min", repr(PI), "--zarg-max", repr(PI), "--zarg-step", 1,
                        "--method", "contour")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 1
        assert [r["status"] for r in rows] == ["precondition_violation"]


class TestRayBoundEdges:
    """A ray bound that under- or overflows a double gives a typed error: a
    grid row reads it, and a single command exits with its code."""

    def test_gamma_grid_row_reads_precondition_violation(self, capsys):
        # e^(-pi Im s) on the inbound ray underflows to 0
        code, out = run(capsys, "grid", "gamma", "--re-min", 0.5, "--re-max", 0.5,
                        "--re-step", 1, "--im-min", 10000, "--im-max", 10000,
                        "--im-step", 1)
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["status"] for r in rows] == ["precondition_violation"]

    # e^(900 rho (arg z + angle)) on the inbound ray, at angle -2 pi, underflows to 0
    BOUND_UNDERFLOWS = ("grid", "ml", "--rho", 1, "--mu-re", 1, "--mu-im", 900,
                        "--zmod-min", 1, "--zmod-max", 1, "--zmod-step", 1,
                        "--zarg-min", 3, "--zarg-max", 3, "--zarg-step", 1)

    def test_ml_grid_row_reads_precondition_violation(self, capsys):
        code, out = run(capsys, *self.BOUND_UNDERFLOWS, "--method", "contour")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["status"] for r in rows] == ["precondition_violation"]

    def test_ml_grid_auto_row_takes_the_series_where_a_bound_underflows(self, capsys):
        # the loop is refused, so auto takes the series, which overflows here
        code, out = run(capsys, *self.BOUND_UNDERFLOWS)
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["method"], r["status"]) for r in rows] == [("series", "non_convergence")]

    def test_gamma_invariance_at_tiny_radius_is_precondition_error(self, capsys):
        # r0**(-Re s) overflows at r0 = 1e-300: the bound is refused, not the decay
        code = main(["invariance", "gamma", "--s-re", "2", "--epsilon", "1e-300"])
        assert code == 2
        assert "a ray bound overflows a double" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cause", [
        # Dzhrbashyan's ray bound: its peak radius overflows
        (["--rho", "0.6", "--mu-re=-1e200", "--z-arg", "0.5", "--method", "dzhrbashyan"],
         "overflows a double"),
        # Bateman's ray bound: B r0**m underflows to 0
        (["--rho", "0.8", "--mu-re=1e200", "--z-arg", "2.5", "--method", "bateman"],
         "underflows to 0"),
        # the zeta loop's ray bound: B itself underflows to 0
        (["--rho", "1", "--mu-re", "1", "--mu-im", "900", "--z-arg", "3", "--method", "contour"],
         "B underflows to 0"),
    ])
    def test_eval_names_the_bound_that_leaves_the_double_range(self, capsys, argv, cause):
        code = main(["eval", "--z-mod", "1", *argv])
        assert code == 2
        assert cause in capsys.readouterr().err

    def test_gamma_invariance_names_an_underflowed_bound(self, capsys):
        # e^(Im s angle) on the inbound ray underflows to 0
        code = main(["invariance", "gamma", "--s-re", "0.5", "--s-im", "300"])
        assert code == 2
        assert "B underflows to 0" in capsys.readouterr().err

    # Where the zeta loop's ray bounds leave the double range, auto answers
    # with the series (TestZetaLoopDecides checks it against mpmath) and
    # contour still refuses
    @pytest.mark.parametrize("argv, value", [
        (("--rho", 1, "--mu-re", 0.5, "--mu-im", -300, "--z-mod", 1, "--z-arg-pi", 1),
         -1.5358055453983208e+204 - 9.5528694998256745e+203j),
    ])
    def test_eval_where_the_loop_is_refused(self, capsys, argv, value):
        code, out = run(capsys, "eval", *argv)
        row = next(csv.DictReader(io.StringIO(out)))
        assert (code, row["method"]) == (0, "series")
        assert complex(float(row["value_re"]), float(row["value_im"])) == value
        code = main([str(a) for a in ("eval", *argv, "--method", "contour")])
        assert code == 2
        assert "a ray bound overflows a double" in capsys.readouterr().err

    @pytest.mark.parametrize("s_re", ["nan", "inf"])
    def test_non_finite_s_is_precondition_error(self, capsys, s_re):
        code = main(["invariance", "gamma", "--s-re", s_re])
        assert code == 2
        assert "s must be finite" in capsys.readouterr().err


class TestOneRefusal:
    """Each refusal is one typed error, raised where its condition is checked."""

    DZH_POINT = ("--rho", 2, "--mu-re", 1, "--z-mod", 4, "--z-arg-pi", 1)

    @staticmethod
    def refused(capsys, *argv):
        """Exit code, stdout and stderr of a command."""
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("radius", ["-1", "nan"])
    def test_dzhrbashyan_names_a_bad_arc_radius(self, capsys, radius):
        assert self.refused(capsys, "eval", *self.DZH_POINT, "--method", "dzhrbashyan",
                            "--arc-radius", radius) == (
            2, "", f"error: arc radius epsilon must be positive and finite, not {radius}\n")

    def test_compare_skips_dzhrbashyan_at_a_negative_radius(self, capsys):
        code, out = run(capsys, "compare", *self.DZH_POINT, "--dzh-radius", -1)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        assert (rows["dzhrbashyan"]["status"], rows["dzhrbashyan"]["reason"]) == (
            "skipped", "arc radius epsilon must be positive and finite, not -1")

    @pytest.mark.parametrize("flag", ["--delta1-rho", "--delta2-rho"])
    def test_window_ml_refuses_a_lone_delta(self, capsys, flag):
        assert self.refused(capsys, "window", "ml", "--rho", 2, flag, 1.0) == (
            2, "", "error: delta1_rho and delta2_rho go together\n")

    @pytest.mark.parametrize("route", [
        ("--method", "contour"),
        ("--method", "contour", "--delta1-rho", 3, "--delta2-rho", 3),
        ("--method", "dzhrbashyan"),
    ])
    def test_rho_half_gets_one_message(self, capsys, route):
        assert self.refused(capsys, "eval", "--rho", 0.5, "--mu-re", 1, "--z-mod", 1,
                            "--z-arg-pi", 1, *route) == (2, "", "error: rho must exceed 1/2\n")

    def test_grid_at_rho_half_writes_a_precondition_row(self, capsys):
        code, rows = ml_rows(capsys, 0.5, 1, 3, method="contour")
        assert code == 1
        assert [(r["method"], r["status"]) for r in rows] == [
            ("contour", "precondition_violation")]


class TestAxis:
    def test_decimal_steps_reach_max(self):
        assert len(_axis(0.0, 0.3, 0.1)) == 4
        assert _axis(-1.0, 1.0, 0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_small_step_stops_at_max(self):
        lo, hi, step = 1e5 - 0.001, 1e5, 1e-8
        values = _axis(lo, hi, step)
        assert values[-1] <= hi < values[-1] + step

    def test_step_below_resolution(self):
        # 1e200 + 1 rounds to 1e200: the axis is that one point
        assert _axis(1e200, 1e200, 1.0) == [1e200]

    GAMMA = ("grid", "gamma", "--im-min", 0, "--im-max", 0, "--im-step", 1)
    ML = ("grid", "ml", "--rho", 1, "--mu-re", 1,
          "--zarg-min", 0, "--zarg-max", 0, "--zarg-step", 1)

    @pytest.mark.parametrize("argv", [
        (*GAMMA, "--re-min", 0, "--re-max", "inf", "--re-step", 1),
        (*ML, "--zmod-min", 0, "--zmod-max", 1, "--zmod-step", 1e-320),  # span overflows
        (*GAMMA, "--re-min", 0, "--re-max", 1, "--re-step", "nan"),
    ])
    def test_non_finite_axis_is_precondition_error(self, capsys, argv):
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.startswith("error: ") and "must be finite" in err

    @pytest.mark.parametrize("argv", [
        # 1e300 + 1 rows: the axis alone would exhaust memory
        (*GAMMA, "--re-min", 0, "--re-max", 1, "--re-step", 1e-300),
        # 1,001 x 1,001 rows, each axis small
        ("grid", "ml", "--rho", 1, "--mu-re", 1, "--zmod-min", 1, "--zmod-max", 2,
         "--zmod-step", 1e-3, "--zarg-min", 0, "--zarg-max", 1, "--zarg-step", 1e-3),
    ])
    def test_grid_past_the_row_cap_is_refused_before_any_axis(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(cli, "_axis", never)
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.startswith("error: grid of ")
        assert err.endswith(f"rows exceeds {cli.GRID_MAX_ROWS:,}\n")


class TestAutoRoute:
    @pytest.mark.parametrize("rho,z_mod,z_arg,route", [
        (0.5, 1.0, PI, "series"),
        (0.5, 3.0, 0.5 * PI, "series"),
        (1.0, 0.0, PI, "series"),
        (2.0, 0.0, PI, "series"),
        (1.0, 1.0, PI, "series"),  # |z|^rho at most AUTO_SERIES_MODULUS
        (2.0, 3.0, PI, "contour"),
        (1.0, 1.0, 0.0, "series"),
        (1.0, 1.0, 0.5 * PI, "series"),  # the window edge
        (4.0, 5.0, PI, "contour"),
        (4.0, 5.2, PI, "contour"),  # the arc passes inside the pole
        # (|z|(1 + eps))^rho past OVERFLOW_EXPONENT_LIMIT, where a ray
        # half-angle is pi and the arc may not pass inside the pole
        (1.0, 700.0, PI, "series"),
    ])
    def test_route(self, capsys, rho, z_mod, z_arg, route):
        _, rows = ml_rows(capsys, rho, z_mod, z_arg)
        assert [r["method"] for r in rows] == [route]
        if route == "contour":
            value = complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))
            ref = ml_reference(rho, 1.0, z_mod * complex(math.cos(z_arg), math.sin(z_arg)))
            assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_eval_inner_arc_at_large_modulus(self, capsys):
        # the series overflowed here while the inner arc stopped at |z| = 1e3
        code, out = run(capsys, "eval", "--rho", 2, "--mu-re", 1, "--z-mod", 1.5e3,
                        "--z-arg-pi", 1)
        row = next(csv.DictReader(io.StringIO(out)))
        assert (code, row["method"]) == (0, "contour")
        ref = ml_reference(2.0, 1.0, -1.5e3)
        assert abs(complex(float(row["value_re"]), float(row["value_im"])) - ref) \
            <= 1e-13 * abs(ref)

    def test_grid_inner_arc_at_large_modulus(self, capsys):
        code, rows = ml_rows(capsys, 2.0, 1e5, PI)
        assert code == 0
        assert [(r["method"], r["status"]) for r in rows] == [("contour", "ok")]

    def test_failed_row_names_its_route(self, capsys):
        code, rows = ml_rows(capsys, 1.0, 9.0, PI)  # F11's point
        assert code == 1
        row = rows[0]
        assert (row["method"], row["flags"], row["status"]) == (
            "contour", "", "non_convergence")


class TestWindow:
    def test_gamma_window(self, capsys):
        code, out = run(capsys, "window", "gamma", "--delta1", 2.5, "--delta2", 3)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["low"]) == PI / 2 - 3
        assert float(row["high"]) == 2.5 - PI / 2
        assert row["inclusive"] == "false"

    @pytest.mark.parametrize("argv, message", [
        (("gamma", "--delta1", 1.5707963272, "--delta2", 3.14),
         "delta1 out of range (pi/2, pi]"),
        (("ml", "--rho", 2, "--delta1-rho", 0.7853981639, "--delta2-rho", 1),
         "delta1_rho delta out of range"),
    ])
    def test_delta_inside_the_guard_band_is_refused(self, capsys, argv, message):
        # within DEFAULT_BOUNDARY_MARGIN of the open bound, which every
        # route that integrates refuses too
        code = main([str(a) for a in ("window", *argv)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_ml_boundary_samples(self, capsys):
        code, out = run(capsys, "window", "ml", "--rho", 1.5, "--samples", 4,
                        "--format", "json")
        assert code == 0
        assert len(json.loads(out)["boundary"]) == 4

    @pytest.mark.parametrize("target", [("ml", "--rho", 1.5),
                                        ("gamma", "--delta1", 2.5, "--delta2", 3)])
    def test_negative_samples_is_precondition_error(self, capsys, target):
        code = main([str(a) for a in ("window", *target, "--samples", -3)])
        assert code == 2
        assert "--samples must be >= 0" in capsys.readouterr().err


class TestInvariance:
    S = ("--s-re", 2, "--s-im", 1)
    ML = ("--rho", 1.5, "--mu-re", 1, "--z-mod", 1, "--z-arg-pi", 1)

    def test_gamma_passes(self, capsys):
        code, out = run(capsys, "invariance", "gamma", *self.S)
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["passed"] == "true"

    def test_gamma_threshold_failure(self, capsys):
        code, _ = run(capsys, "invariance", "gamma", *self.S, "--threshold", 1e-30)
        assert code == 1

    def test_ml_passes(self, capsys):
        code, _ = run(capsys, "invariance", "ml", *self.ML)
        assert code == 0

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("target", ["gamma", "ml"])
    def test_threshold_must_be_positive_and_finite(self, capsys, target, threshold):
        point = self.S if target == "gamma" else self.ML
        code = main([str(a) for a in ("invariance", target, *point)]
                    + ["--threshold", threshold])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "--threshold must be positive and finite" in err

    def test_ml_too_few_points(self, capsys):
        code, _ = run(capsys, "invariance", "ml", *self.ML, "--points", 2)
        assert code == 2

    def test_ml_skips_points_whose_ray_cannot_be_truncated(self, capsys):
        # every sweep point is refused: the rays start at s = (|z|(1 + eps))^rho,
        # about 1e-200, where the bound's r^(-Re mu) = r^(-2) overflows
        code = main(["invariance", "ml", "--rho", "1", "--mu-re", "2",
                     "--z-mod", "1e-200", "--z-arg-pi", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "sweep point skipped: a ray bound overflows a double" in err
        assert "fewer than 3 admissible sweep points" in err

    def test_ml_at_z_zero_is_precondition_error(self, capsys):
        code = main(["invariance", "ml", "--rho", "1", "--mu-re", "1",
                     "--z-mod", "0", "--z-arg-pi", "1"])
        assert code == 2
        assert "loop route requires |z| > 0" in capsys.readouterr().err


class TestConfigFile:
    POINT = ("--rho", 1, "--mu-re", 1, "--z-mod", 1, "--z-arg-pi", 1)

    def test_file_values_apply_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "mlc.conf"
        cfg.write_text("# route\nmethod = series\nmax_terms = 500\n")
        code, out = run(capsys, "eval", "--config", cfg, *self.POINT)
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["method"] == "series"
        code, out = run(capsys, "eval", "--config", cfg, *self.POINT,
                        "--method", "contour")
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["method"] == "contour"

    def test_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "mlc.conf"
        cfg.write_text("method series\n")
        code, _ = run(capsys, "eval", "--config", cfg, *self.POINT)
        assert code == 2

    def test_missing_path(self, capsys):
        code, _ = run(capsys, "eval", *self.POINT, "--config")
        assert code == 2

    def test_file_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "mlc.conf"
        cfg.write_bytes(b"method = \xff\xfeseries\n")
        code = main(["eval", "--config", str(cfg), *map(str, self.POINT)])
        assert code == 2
        assert "is not UTF-8" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "eval", "--config", tmp_path / "absent.conf", *self.POINT)
        assert code == 2

    @pytest.mark.parametrize("spelling", [("--config={}",), ("--conf", "{}"), ("--c={}",)])
    def test_every_spelling_applies_the_file(self, capsys, tmp_path, spelling):
        cfg = tmp_path / "mlc.conf"
        cfg.write_text("method = series\n")  # auto takes the contour here
        code, out = run(capsys, "eval", *self.POINT, *(a.format(cfg) for a in spelling))
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["method"] == "series"

    @pytest.mark.parametrize("spelling", [("--config={}",), ("--conf", "{}")])
    def test_every_spelling_refuses_a_missing_file(self, capsys, tmp_path, spelling):
        absent = tmp_path / "absent.conf"
        code, _ = run(capsys, "eval", *self.POINT, *(a.format(absent) for a in spelling))
        assert code == 2

    @pytest.mark.parametrize("command", [("eval",), ("grid", "gamma"), ("grid", "ml"),
                                         ("invariance", "gamma"), ("invariance", "ml"),
                                         ("window", "ml"), ("window", "gamma"), ("compare",)])
    def test_no_other_flag_starts_with_dash_dash_c(self, capsys, command):
        # the config file's flag is found before parsing, where any --c...
        # abbreviation is read as --config
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        assert set(re.findall(r"--c[\w-]*", capsys.readouterr().out)) == {"--config"}


class TestOutput:
    def test_selftest_no_match(self, capsys):
        code, _ = run(capsys, "selftest", "--only", "nomatch")
        assert code == 2

    def test_eval_json_matches_csv(self, capsys):
        point = ("eval", "--rho", 1.5, "--mu-re", 1, "--z-mod", 1, "--z-arg-pi", 1)
        _, out = run(capsys, *point)
        row = next(csv.DictReader(io.StringIO(out)))
        _, out = run(capsys, *point, "--format", "json")
        rec = json.loads(out)
        assert rec.keys() == row.keys()
        for key, value in rec.items():
            if value is None:
                assert row[key] == ""
            elif isinstance(value, float):
                assert float(row[key]) == value
            else:
                assert row[key] == str(value)


class TestStrictJson:
    """JSON output is strict RFC 8259: a non-finite float is written as null."""

    POINT = ("--rho", 1, "--mu-re", 1)

    @staticmethod
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    @pytest.mark.parametrize("argv", [
        ("eval", *POINT, "--z-mod", 800, "--z-arg", 0, "--method", "series"),
        ("grid", "ml", *POINT, "--zmod-min", 800, "--zmod-max", 800, "--zmod-step", 1,
         "--zarg-min", 0, "--zarg-max", 0, "--zarg-step", 1, "--method", "series"),
        ("compare", *POINT, "--z-mod", 800, "--z-arg", 0),
        ("grid", "ml", "--rho", 4, "--mu-re", 1, "--zmod-min", 10, "--zmod-max", 10,
         "--zmod-step", 1, "--zarg-min", 0, "--zarg-max", 0, "--zarg-step", 1,
         "--method", "series"),  # the sum overflows to inf
    ])
    def test_parses_without_constants(self, capsys, argv):
        _, out = run(capsys, *argv, "--format", "json")
        json.loads(out, parse_constant=self.refuse)


class TestClosedFormOverflow:
    """Where the closed form leaves the double range, compare skips it."""

    @pytest.mark.parametrize("point", [(1, 1, 800), (1, 2, 800), (0.5, 1, 1e6)])
    def test_compare_skips_the_closed_form(self, capsys, point):
        rho, mu_re, z_mod = point
        code, out = run(capsys, "compare", "--rho", rho, "--mu-re", mu_re,
                        "--z-mod", z_mod, "--z-arg", 0)
        assert code == 0
        rows = {r["method_a"]: r for r in csv.DictReader(io.StringIO(out))
                if r["record"] == "method"}
        assert rows["closed-form"]["status"] == "skipped"
        assert rows["closed-form"]["reason"].startswith("closed form overflows")


class TestQuadratureFlags:
    @pytest.mark.parametrize("command", [("eval",), ("grid", "gamma"), ("grid", "ml"),
                                         ("invariance", "gamma"), ("invariance", "ml"),
                                         ("compare",)])
    def test_only_tolerances(self, capsys, command):
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        out = capsys.readouterr().out
        assert "--rel-tol" in out and "--abs-tol" in out
        for gone in ("--max-refinements", "--initial-panels", "--tail-safety"):
            assert gone not in out

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_precondition_error(self, capsys, flag, value):
        code = main(["eval", "--rho", "1", "--mu-re", "1", "--z-mod", "1",
                     "--z-arg-pi", "1", "--method", "contour", flag, value])
        assert code == 2
        assert "tolerances must be finite and positive" in capsys.readouterr().err


class TestParserReuse:
    COMMANDS = [
        (["eval", "--rho", "1", "--mu-re", "1", "--z-mod", "1", "--z-arg-pi", "1"], 0),
        (["grid", "gamma", "--re-min", "-1", "--re-max", "1", "--re-step", "1",
          "--im-min", "0", "--im-max", "1", "--im-step", "1", "--rel-tol", "1e-8"], 0),
        (["eval", "--rho", "2", "--mu-re", "1", "--z-mod", "1", "--z-arg", "0",
          "--method", "contour"], 2),
    ]

    def test_repeated_main_calls_match_a_fresh_parser(self, capsys):
        # main builds its parser once per process; parsing must not change it
        for _ in range(2):
            for argv, expected_code in self.COMMANDS:
                code = main(argv)
                out, err = capsys.readouterr()
                assert code == expected_code
                if code == 0:
                    ns = build_parser().parse_args(argv)
                    assert ns.func(ns) == 0
                    assert capsys.readouterr().out == out
                else:
                    assert out == "" and err.startswith("error: ")


class TestOracleGrid:
    def test_array_call_matches_scalar_calls(self, capsys):
        code, out = run(capsys, "grid", "gamma", "--re-min", -3, "--re-max", 2.5,
                        "--re-step", 0.5, "--im-min", -1, "--im-max", 1, "--im-step", 0.5,
                        "--method", "oracle", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12 * 5
        for row in rows:
            value = complex(recip_gamma_oracle(complex(row["s_re"], row["s_im"])))
            assert (row["value_re"], row["value_im"]) == (value.real, value.imag)
            assert row["err_estimate"] is None and row["status"] == "ok"
        # the poles at Re s = -3, ..., 0 on the real axis are exact zeros
        assert sum(r["value_re"] == 0.0 and r["value_im"] == 0.0 for r in rows) == 4


class TestOutputBytes:
    """Every command's exact stdout and exit code, in CSV and in JSON, as
    recorded in ``cli_output.txt``: the output format is a contract."""

    GRID_ML = ("grid", "ml", "--zmod-min", 1, "--zmod-max", 1, "--zmod-step", 1)
    CASES = {
        "eval": ("eval", "--rho", 1, "--mu-re", 1, "--z-mod", 1, "--z-arg-pi", 1),
        "eval_contour": ("eval", "--rho", 2, "--mu-re", 1, "--z-mod", 3, "--z-arg-pi", 1),
        "eval_series_overflow": ("eval", "--rho", 1, "--mu-re", 1, "--z-mod", 800,
                                 "--z-arg", 0, "--method", "series"),
        "grid_gamma_contour": ("grid", "gamma", "--re-min", 0.5, "--re-max", 1.5,
                               "--re-step", 1, "--im-min", 0, "--im-max", 0, "--im-step", 1),
        "grid_gamma_oracle": ("grid", "gamma", "--re-min", -1, "--re-max", 0.5,
                              "--re-step", 1.5, "--im-min", 0, "--im-max", 0, "--im-step", 1,
                              "--method", "oracle"),
        "grid_ml_auto": (*GRID_ML, "--rho", 1, "--mu-re", 1, "--zarg-min", 0,
                         "--zarg-max", repr(PI), "--zarg-step", repr(PI)),
        "grid_ml_window_violation": (*GRID_ML, "--rho", 2, "--mu-re", 1, "--zarg-min", 0,
                                     "--zarg-max", 0, "--zarg-step", 1, "--method", "contour"),
        "grid_ml_series_non_convergence": (
            "grid", "ml", "--rho", 4, "--mu-re", 1, "--zmod-min", 1, "--zmod-max", 10,
            "--zmod-step", 9, "--zarg-min", 0, "--zarg-max", 0, "--zarg-step", 1,
            "--method", "series"),
        "invariance": ("invariance", "gamma", "--s-re", 2.5, "--points", 3),
        "window": ("window", "ml", "--rho", 1.5, "--samples", 2),
        "compare": ("compare", "--rho", 2, "--mu-re", 1, "--z-mod", 4, "--z-arg-pi", 1),
    }

    @staticmethod
    def recorded() -> dict:
        sections, key = {}, None
        path = pathlib.Path(__file__).with_name("cli_output.txt")
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            header = re.fullmatch(r"# (\w+) (csv|json) -> (\d+)\n", line)
            if header:
                key = header[1], header[2]
                sections[key] = [int(header[3]), ""]
            elif key is not None:
                sections[key][1] += line
        return sections

    def test_every_case_is_recorded(self):
        assert set(self.recorded()) == {(c, f) for c in self.CASES for f in ("csv", "json")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes(self, capsys, case, fmt):
        code, out = run(capsys, *self.CASES[case], "--format", fmt)
        assert [code, out] == self.recorded()[case, fmt]
