import cmath
import math

import numpy as np
import pytest

from mlcontour import (
    ContourValidityError,
    MLContourSpec,
    MLParams,
    PolarComplex,
    PreconditionError,
    compare_methods,
    default_ml_deltas,
    default_ml_spec,
    dzhrbashyan_theta_window,
    evaluate_ml,
    ml_arg_window,
    ml_bateman,
    ml_closed_form,
    ml_contour,
    ml_dzhrbashyan,
    ml_route,
    ml_series,
    recip_gamma_oracle,
)

PI = math.pi

# frozen reference values, cross-checked against the brute-force partial sums
E_2_1_AT_1 = 5.0089800807622835        # sum_{n} 1/Gamma(1 + n/2), = e*erfc(-1)
E_2_1_AT_MINUS_1 = 0.4275835761558070  # alternating sum, = e*erfc(1)
E_1_2_AT_MINUS_2 = 0.4323323583816936  # (e^{-2} - 1)/(-2)
E_1_MU_AT_MINUS_2 = 0.18561010927548633 + 0.3171484923362945j  # mu = 1 + 0.5i


def brute_force_series(rho, mu, z, terms):
    """Independent oracle: plain partial sums with stdlib gamma via reflection."""
    total = 0j
    for n in range(terms):
        arg = mu + n / rho
        if arg.imag == 0:
            x = arg.real
            if x <= 0 and x == round(x):
                continue
            try:
                g = math.gamma(x)
            except (OverflowError, ValueError):
                continue
            total += z**n / g
        else:
            raise ValueError("real mu only in the brute-force oracle")
    return total


def test_brute_force_oracle_matches_frozen_constants():
    assert brute_force_series(2.0, 1.0 + 0j, 1.0 + 0j, 61) == pytest.approx(E_2_1_AT_1)
    assert brute_force_series(2.0, 1.0 + 0j, -1.0 + 0j, 61) == pytest.approx(E_2_1_AT_MINUS_1)


class TestSeries:
    def test_exponential(self):
        ev = ml_series(MLParams(1.0, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(math.e, rel=1e-12)
        assert ev.diagnostics.converged
        assert not ev.diagnostics.unreliable

    def test_z_zero_single_term(self):
        for mu in (0.5, 2.0, 1 + 0.5j):
            ev = ml_series(MLParams(1.7, mu), PolarComplex(0.0, 0.0))
            assert ev.value == complex(recip_gamma_oracle(mu))
            assert ev.diagnostics.terms_used == 1

    def test_second_parameter_shift(self):
        ev = ml_series(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_against_brute_force(self):
        ev = ml_series(MLParams(2.0, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(E_2_1_AT_1, rel=1e-10)

    def test_gamma_pole_terms_skipped(self):
        # mu = 0 and rho = 1: the n = 0 term sits on a pole and contributes 0
        ev = ml_series(MLParams(1.0, 0.0), PolarComplex(1.0, 0.0))
        # sum_{n>=1} 1/Gamma(n) = sum_{k>=0} 1/k! = e
        assert ev.value == pytest.approx(math.e, rel=1e-12)

    def test_cancellation_flagged(self):
        ev = ml_series(MLParams(2.0, 1.0), PolarComplex(5.0, PI))
        assert ev.diagnostics.cancellation_digits > 9
        assert ev.diagnostics.unreliable

    def test_moderate_cancellation_not_flagged(self):
        ev = ml_series(MLParams(4.0, 1.0), PolarComplex(2.0, PI))
        assert ev.diagnostics.cancellation_digits < 9
        assert not ev.diagnostics.unreliable

    def test_overflow_screening(self):
        ev = ml_series(MLParams(1.0, 1.0), PolarComplex(800.0, 0.0))
        assert not ev.diagnostics.converged
        assert ev.diagnostics.unreliable

    def test_term_budget(self):
        ev = ml_series(MLParams(4.0, 0.5), PolarComplex(5.0, PI), max_terms=50)
        assert not ev.diagnostics.converged

    @pytest.mark.parametrize("mu,z", [
        (1.0, PolarComplex(10.0, 0.0)),        # the sum passes the largest double
        (0.5, PolarComplex(10.0, 0.75 * PI)),  # |term| passes it, parts do not
    ])
    def test_overflow_is_flagged_not_raised(self, mu, z):
        ev = ml_series(MLParams(4.0, mu), z)
        assert not ev.diagnostics.converged
        assert ev.diagnostics.cancellation_digits == math.inf


class TestContour:
    def test_exp_at_minus_one(self):
        ev = ml_contour(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        assert ev.method == "contour"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_closed_form_mu_two(self):
        ev = ml_contour(MLParams(1.0, 2.0), PolarComplex(2.0, PI))
        assert ev.value == pytest.approx(E_1_2_AT_MINUS_2, rel=1e-9)

    def test_rho_two_against_series(self):
        ev = ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, PI))
        assert ev.value == pytest.approx(E_2_1_AT_MINUS_1, rel=1e-8)

    def test_branch_sensitive_case_against_series(self):
        params = MLParams(0.75, 0.5)
        z = PolarComplex(0.8, 2.5)
        contour = ml_contour(params, z).value
        series = ml_series(params, z).value
        assert abs(contour - series) / abs(series) < 1e-8

    def test_complex_mu_against_frozen(self):
        ev = ml_contour(MLParams(1.0, 1 + 0.5j), PolarComplex(2.0, PI))
        assert ev.value == pytest.approx(E_1_MU_AT_MINUS_2, rel=1e-7)

    def test_epsilon_and_delta_invariance(self):
        params = MLParams(1.0, 1.0)
        z = PolarComplex(1.0, PI)
        values = []
        for eps in (0.5, 1.0, 2.0):
            for d in (0.7 * PI, 0.85 * PI, PI):
                spec = MLContourSpec(1.0, 1.0, eps, PI, d, d)
                values.append(ml_contour(params, z, spec).value)
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / abs(values[0]) < 1e-8

    def test_window_rejection(self):
        with pytest.raises(ContourValidityError):
            ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, 0.0))

    def test_spec_mismatch_rejected(self):
        spec = MLContourSpec(1.0, 1.0, 1.0, PI, PI, PI)
        with pytest.raises(PreconditionError):
            ml_contour(MLParams(1.0, 2.0), PolarComplex(1.0, PI), spec)
        with pytest.raises(PreconditionError):
            ml_contour(MLParams(1.0, 1.0), PolarComplex(1.0, PI / 2 + 0.2), spec)

    def test_overflow_guard(self):
        spec = MLContourSpec(4.0, 1.0, 1.0, PI, PI / 4, PI / 4)
        with pytest.raises(PreconditionError, match="too large"):
            ml_contour(MLParams(4.0, 1.0), PolarComplex(5.0, PI), spec)

    def test_default_spec_caps_arc_growth(self):
        spec = default_ml_spec(MLParams(4.0, 1.0), PolarComplex(2.0, PI))
        assert (2.0 * (1 + spec.epsilon_hat)) ** 4.0 < 25.0
        # benign case keeps the spacious default
        spec2 = default_ml_spec(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        assert spec2.epsilon_hat == 1.0

    def test_z_zero_rejected(self):
        with pytest.raises(PreconditionError):
            default_ml_spec(MLParams(1.0, 1.0), PolarComplex(0.0, 0.0))

    def test_pole_term_excluded(self):
        # the loop keeps the simple pole outside: the small-circle residue
        # value rho * exp(z^rho) * z^{rho(1-mu)} is NOT part of the result
        params = MLParams(1.0, 1.0)
        z = PolarComplex(2.0, PI)
        zc = z.to_complex()
        phis = np.linspace(-PI, PI, 4001)[:-1]
        zeta = 1.0 + 0.2 * np.exp(1j * phis)
        integrand = np.exp(zc * zeta) / (zeta - 1.0) * (0.2j * np.exp(1j * phis))
        residue_value = complex(np.mean(integrand)) * 2 * PI / (2j * PI)
        assert residue_value == pytest.approx(cmath.exp(zc), rel=1e-6)
        contour = ml_contour(params, z).value
        series = ml_series(params, z).value
        assert abs(contour - series) < 1e-8
        assert abs(contour - (series + residue_value)) > 0.1


class TestBateman:
    def test_exp_at_minus_one(self):
        ev = ml_bateman(MLParams(1.0, 1.0), PolarComplex(1.0, PI), 2.0)
        assert ev.method == "bateman"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_mu_two(self):
        ev = ml_bateman(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0), 2.0)
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_alpha_half_against_series(self):
        # alpha = 1/rho = 0.5
        ev = ml_bateman(MLParams(2.0, 1.0), PolarComplex(0.5, PI), 1.5)
        series = ml_series(MLParams(2.0, 1.0), PolarComplex(0.5, PI)).value
        assert abs(ev.value - series) / abs(series) < 1e-8

    def test_requires_real_positive_mu(self):
        with pytest.raises(PreconditionError, match="real mu"):
            ml_bateman(MLParams(1.0, 1 + 0.5j), PolarComplex(1.0, PI), 2.0)
        with pytest.raises(PreconditionError, match="real mu"):
            ml_bateman(MLParams(1.0, -1.0), PolarComplex(1.0, PI), 2.0)

    def test_arc_radius_must_clear_pole_factor(self):
        with pytest.raises(PreconditionError, match="exceed"):
            ml_bateman(MLParams(2.0, 1.0), PolarComplex(2.0, PI), 3.0)  # needs eps > |z|^2 = 4


class TestDzhrbashyan:
    def test_exp_at_minus_one(self):
        ev = ml_dzhrbashyan(MLParams(1.0, 1.0), PolarComplex(1.0, PI), 2.0, 3 * PI / 4)
        assert ev.method == "dzhrbashyan"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_imaginary_argument_against_series(self):
        ev = ml_dzhrbashyan(MLParams(2.0, 1.0), PolarComplex(0.5, PI / 2), 1.2, 0.4 * PI)
        series = ml_series(MLParams(2.0, 1.0), PolarComplex(0.5, PI / 2)).value
        assert abs(ev.value - series) / abs(series) < 1e-8

    def test_wide_angle_mu_two(self):
        ev = ml_dzhrbashyan(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0), 2.0, 0.9 * PI)
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_theta_window(self):
        lo, hi = dzhrbashyan_theta_window(2.0)
        assert (lo, hi) == pytest.approx((PI / 4, PI / 2))
        lo, hi = dzhrbashyan_theta_window(0.8)
        assert (lo, hi) == pytest.approx((PI / 1.6, PI))

    def test_theta_out_of_window_rejected(self):
        with pytest.raises(PreconditionError, match="theta"):
            ml_dzhrbashyan(MLParams(2.0, 1.0), PolarComplex(0.5, 0.0), 1.5, PI / 2)

    def test_epsilon_must_exceed_z(self):
        with pytest.raises(PreconditionError, match="exceed"):
            ml_dzhrbashyan(MLParams(1.0, 1.0), PolarComplex(3.0, PI), 2.0, 3 * PI / 4)


class TestClosedForm:
    def test_exponential(self):
        got = ml_closed_form(MLParams(1.0, 1.0), 2 + 1j)
        assert got == pytest.approx(cmath.exp(2 + 1j))

    def test_cosh_sqrt(self):
        got = ml_closed_form(MLParams(0.5, 1.0), 1.0)
        assert got == pytest.approx(1.5430806348152437)

    def test_mu_two_limit_at_zero(self):
        assert ml_closed_form(MLParams(1.0, 2.0), 0.0) == pytest.approx(1.0)

    def test_unknown_case_returns_none(self):
        assert ml_closed_form(MLParams(1.5, 1.0), 1.0) is None
        assert ml_closed_form(MLParams(1.0, 1 + 0.5j), 1.0) is None

    def test_one_parameter_consistency(self):
        # mu = 1 recovers the one-parameter function's closed forms
        ev = ml_series(MLParams(0.5, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(ml_closed_form(MLParams(0.5, 1.0), 1.0), rel=1e-10)


class TestCompareMethods:
    def test_all_methods_agree_at_minus_one(self):
        report = compare_methods(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        ok = {o.method for o in report.outcomes if o.status == "ok"}
        assert {"series", "contour", "bateman", "dzhrbashyan", "closed-form"} <= ok
        for pair, dev in report.deviations.items():
            assert dev < 1e-8, pair
        closed = report.outcome("closed-form")
        assert closed.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_contour_skipped_outside_window(self):
        report = compare_methods(MLParams(2.0, 1.0), PolarComplex(1.0, PI / 4))
        contour = report.outcome("contour")
        assert contour.status == "skipped"
        assert "window" in contour.reason
        usable = {o.method for o in report.outcomes if o.status == "ok"}
        assert {"series", "bateman", "dzhrbashyan"} <= usable
        for pair, dev in report.deviations.items():
            assert dev < 1e-7, pair

    def test_complex_mu_routes(self):
        report = compare_methods(MLParams(1.0, 1 + 0.5j), PolarComplex(2.0, PI))
        assert report.outcome("bateman").status == "skipped"
        dev = report.deviations[("series", "contour")]
        assert dev < 1e-7

    def test_unreliable_series_excluded_from_deviations(self):
        report = compare_methods(MLParams(2.0, 1.0), PolarComplex(5.0, PI))
        series = report.outcome("series")
        assert series.status == "ok" and not series.reliable
        assert not any("series" in pair for pair in report.deviations)


class TestWindowMidpointAgreement:
    @pytest.mark.parametrize("rho", [0.6, 0.75, 1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 1 + 0.5j])
    def test_contour_matches_series_at_midpoint(self, rho, mu):
        d1, d2 = default_ml_deltas(rho)
        lo, hi = ml_arg_window(rho, d1, d2)
        z = PolarComplex(2.0, 0.5 * (lo + hi))
        params = MLParams(rho, mu)
        series = ml_series(params, z)
        assert not series.diagnostics.unreliable
        contour = ml_contour(params, z)
        assert abs(contour.value - series.value) / abs(series.value) < 1e-6


class TestRouteSelection:
    @pytest.mark.parametrize("rho,z,route", [
        (0.5, PolarComplex(1.0, PI), "series"),
        (1.0, PolarComplex(0.0, PI), "series"),
        (1.0, PolarComplex(1.0, PI), "contour"),
        (1.0, PolarComplex(1.0, PI / 2), "series"),
        (4.0, PolarComplex(5.0, PI), "contour"),
        (4.0, PolarComplex(5.2, PI), "series"),
        (2.0, PolarComplex(1e200, PI), "series"),
    ])
    def test_route_matches_contour_preconditions(self, rho, z, route):
        params = MLParams(rho, 1.0)
        assert ml_route(params, z) == route
        if route == "series":
            with pytest.raises((ValueError, OverflowError)):
                ml_contour(params, z)

    def test_auto_runs_the_selected_route(self):
        params = MLParams(1.0, 1.0)
        for z in (PolarComplex(1.0, PI), PolarComplex(1.0, 0.0)):
            auto = evaluate_ml(params, z)
            assert auto.method == ml_route(params, z)
            assert auto.value == evaluate_ml(params, z, auto.method).value

    def test_route_defaults(self):
        params = MLParams(2.0, 1.0)
        z = PolarComplex(1.0, PI)
        lo, hi = dzhrbashyan_theta_window(2.0)
        assert evaluate_ml(params, z, "bateman").value == \
            ml_bateman(params, z, 1.5 * 1.0 ** 2.0 + 0.5).value
        assert evaluate_ml(params, z, "dzhrbashyan").value == \
            ml_dzhrbashyan(params, z, 2.0, 0.5 * (lo + hi)).value

    def test_contour_overrides(self):
        params = MLParams(1.0, 1.0)
        z = PolarComplex(1.0, PI)
        ev = evaluate_ml(params, z, "contour", epsilon_hat=0.5,
                         delta1_rho=0.9 * PI, delta2_rho=0.9 * PI)
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)
        with pytest.raises(PreconditionError, match="go together"):
            evaluate_ml(params, z, "contour", delta1_rho=0.9 * PI)

    def test_unknown_method(self):
        with pytest.raises(PreconditionError, match="unknown method"):
            evaluate_ml(MLParams(1.0, 1.0), PolarComplex(1.0, PI), "trapezoid")
