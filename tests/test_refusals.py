"""Every refusal is one of the package's own errors.

Out-of-domain inputs go to every public route and window helper: rho at and
below 1/2, the loop parameters epsilon, epsilon_hat, theta, delta and psi at
and just past each bound, and non-finite values.  A call may answer or raise,
but whatever it raises must be an ``MlcError``, never a bare ``ValueError``
or an arithmetic error from deep inside a route.
"""

import csv
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcontour import (
    GammaContourSpec,
    MLParams,
    MlcError,
    PolarComplex,
    PreconditionError,
    QuadratureConfig,
    compare_methods,
    default_ml_deltas,
    evaluate_ml,
    gamma_psi_window,
    ml_arg_window,
    ml_bateman,
    ml_contour,
    ml_dzhrbashyan,
    ml_route,
    ml_series,
    recip_gamma_contour,
    validate_gamma_contour,
)
from mlcontour.mittag_leffler import default_ml_spec
from mlcontour.cli import main
from mlcontour.geometry import MLContourSpec, ml_delta_range, validate_ml_contour

PI = math.pi
HALF_PI = 0.5 * PI
NON_FINITE = (math.nan, math.inf, -math.inf)


def typed(call):
    """Run ``call``; anything it raises other than an ``MlcError`` fails the test."""
    try:
        call()
    except MlcError:
        pass


def at_and_past(bound, outward):
    """A bound, the next double past it, and a point 1e-3 past it."""
    return (bound, math.nextafter(bound, outward), bound + math.copysign(1e-3, outward))


#: rho at and below 1/2, the loop routes' lower bound, and two admissible values.
RHOS = (0.3, 0.5, math.nextafter(0.5, 0.0), 1.0, 2.0)

#: |z| and arg z, including z = 0 and the rho = 2 window's edges 3pi/4, 5pi/4.
Z = st.builds(PolarComplex, st.sampled_from((0.0, 1.0, 4.0)),
              st.sampled_from((0.0, HALF_PI, 0.75 * PI, PI, 1.25 * PI)))

#: Z plus |z| = 800 and 1e6, where the closed forms leave the double range.
COMPARE_Z = st.builds(PolarComplex, st.sampled_from((0.0, 1.0, 4.0, 800.0, 1e6)),
                      st.sampled_from((0.0, HALF_PI, 0.75 * PI, PI, 1.25 * PI)))

#: gamma ray half-angles: open at pi/2, closed at pi.
GAMMA_DELTAS = (*at_and_past(HALF_PI, -math.inf), HALF_PI + 1e-10,
                *at_and_past(PI, math.inf), *NON_FINITE)

#: radii whose lower bound is 0.
RADII = (*at_and_past(0.0, -math.inf), *NON_FINITE)


class TestWindowHelpers:
    @given(rho=st.sampled_from(RHOS + NON_FINITE + (-1.0, 0.0)))
    def test_ml_delta_range_and_default_deltas(self, rho):
        typed(lambda: ml_delta_range(rho))
        typed(lambda: default_ml_deltas(rho))

    @given(d1=st.sampled_from(GAMMA_DELTAS), d2=st.sampled_from(GAMMA_DELTAS))
    def test_gamma_psi_window(self, d1, d2):
        typed(lambda: gamma_psi_window(d1, d2))

    @given(rho=st.sampled_from(RHOS + NON_FINITE), d1=st.integers(0, 7), d2=st.integers(0, 7))
    def test_ml_arg_window(self, rho, d1, d2):
        def delta(k):
            lo, hi = ml_delta_range(rho)
            return (*at_and_past(lo, -math.inf), *at_and_past(hi, math.inf), *NON_FINITE[:2])[k]

        typed(lambda: ml_arg_window(rho, delta(d1), delta(d2)))


class TestGammaRoute:
    @given(eps=st.sampled_from(RADII + (1.0,)),
           psi_at=st.integers(0, 7),
           d1=st.sampled_from(GAMMA_DELTAS + (PI,)),
           d2=st.sampled_from(GAMMA_DELTAS + (PI,)),
           lam=st.sampled_from((PolarComplex(1.0, 0.0), PolarComplex(1.0, 0.3),
                                PolarComplex(0.0, 0.0), PolarComplex(1e300, 0.0))))
    @settings(max_examples=200, deadline=None)
    def test_recip_gamma_contour(self, eps, psi_at, d1, d2, lam):
        try:
            lo, hi = gamma_psi_window(d1, d2)
        except PreconditionError:
            lo, hi = -HALF_PI, HALF_PI
        psi = (*at_and_past(lo - lam.argument, -math.inf),
               *at_and_past(hi - lam.argument, math.inf), *NON_FINITE[:2])[psi_at]
        spec = GammaContourSpec(eps, psi, d1, d2)
        typed(lambda: validate_gamma_contour(spec, lam))
        typed(lambda: recip_gamma_contour(2.0 + 1.0j, spec, lam=lam))

    def test_lam_prefactor_past_the_double_range(self):
        # lambda^(1-s) = 1e4^81.5 overflows a double; 1/Gamma(-80.5) does not
        typed(lambda: recip_gamma_contour(-80.5, lam=PolarComplex(1e4, 0.0)))

    @pytest.mark.parametrize("s", [complex(math.nan, 0), complex(1, math.inf)])
    def test_non_finite_s(self, s):
        typed(lambda: recip_gamma_contour(s))

    @pytest.mark.parametrize("tol", NON_FINITE + (0.0, -1.0))
    def test_quadrature_tolerances(self, tol):
        typed(lambda: QuadratureConfig(rel_tol=tol))
        typed(lambda: QuadratureConfig(abs_tol=tol))


class TestMLRoutes:
    @given(rho=st.sampled_from(RHOS + NON_FINITE),
           mu=st.sampled_from((1.0, 0.5 + 1j, complex(math.nan, 0), complex(0, math.inf))))
    def test_params(self, rho, mu):
        typed(lambda: MLParams(rho, mu))

    @pytest.mark.parametrize("modulus, argument", [
        (-1.0, 0.0), (math.nan, 0.0), (math.inf, PI), (1.0, math.nan), (1.0, -math.inf)])
    def test_polar_complex(self, modulus, argument):
        typed(lambda: PolarComplex(modulus, argument))

    @given(rho=st.sampled_from(RHOS), z=Z,
           eps_hat=st.sampled_from((None, *at_and_past(-1.0, -math.inf),
                                    math.nextafter(-1.0, 0.0), 0.0, 1.0, *NON_FINITE)),
           d_at=st.sampled_from((None, 0, 1, 2, 3, 4, 5, 6)))
    @settings(max_examples=200, deadline=None)
    def test_zeta_loop(self, rho, z, eps_hat, d_at):
        deltas = None
        if d_at is not None:
            lo, hi = ml_delta_range(rho) if rho > 0.5 else (HALF_PI / rho, PI)
            d = (*at_and_past(lo, -math.inf), *at_and_past(hi, math.inf), math.nan)[d_at]
            deltas = (d, hi)
        params = MLParams(rho, 1.0)
        typed(lambda: ml_route(params, z))
        typed(lambda: default_ml_spec(params, z, eps_hat, deltas))
        typed(lambda: validate_ml_contour(
            MLContourSpec(rho, 1.0, 1.0 if eps_hat is None else eps_hat, z.argument,
                          *(deltas or (PI, PI)))))
        typed(lambda: ml_contour(params, z, epsilon_hat=eps_hat, deltas=deltas))

    @given(rho=st.sampled_from(RHOS), z=Z,
           eps=st.sampled_from((None, "|z|", "past |z|", 1e-300, 5e-324) + RADII),
           theta_at=st.sampled_from((None, 0, 1, 2, 3, 4, 5, 6, 7)))
    @settings(max_examples=200, deadline=None)
    def test_legacy_loops(self, rho, z, eps, theta_at):
        if eps == "|z|":
            eps = z.modulus
        elif eps == "past |z|":
            eps = math.nextafter(z.modulus, 0.0)
        theta = None
        if theta_at is not None:
            lo, hi = ml_delta_range(rho) if rho > 0.5 else (HALF_PI / rho, PI)
            theta = (*at_and_past(lo, -math.inf), *at_and_past(hi, math.inf),
                     *NON_FINITE[:2])[theta_at]
        params = MLParams(rho, 1.0)
        typed(lambda: ml_bateman(params, z, eps))
        typed(lambda: ml_dzhrbashyan(params, z, eps, theta))
        for method in ("auto", "series", "contour", "bateman", "dzhrbashyan"):
            typed(lambda: evaluate_ml(params, z, method, epsilon=eps, theta=theta))

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_bateman_radius_whose_root_underflows(self, eps):
        # eps > |z|^rho = 0, but eps^(1/rho) rounds to 0 = |z|
        with pytest.raises(PreconditionError, match="too small"):
            ml_bateman(MLParams(0.5, 1.0), PolarComplex(0.0, 0.0), eps)

    @given(rho=st.sampled_from(RHOS), z=COMPARE_Z,
           eps=st.sampled_from((None,) + RADII), theta=st.sampled_from((None, 0.0, math.nan)))
    @example(rho=1.0, z=PolarComplex(800.0, 0.0), eps=None, theta=None)
    @example(rho=0.5, z=PolarComplex(1e6, 0.0), eps=None, theta=None)
    @settings(max_examples=40, deadline=None)
    def test_compare_methods_never_raises(self, rho, z, eps, theta):
        report = compare_methods(MLParams(rho, 1.0), z, bateman_epsilon=eps,
                                 dzh_epsilon=eps, dzh_theta=theta)
        assert {o.status for o in report.outcomes} <= {"ok", "skipped", "failed"}

    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_series_answers_below_half(self, rho):
        assert ml_series(MLParams(rho, 1.0), PolarComplex(1.0, PI)).diagnostics.converged


class TestZetaLoopAtLargeRho:
    """At rho = 50 and |z| = 1e8 the arc passes inside the pole, so the growth
    check passes, while the rays' decay rate |z|^rho leaves the double range:
    the zeta loop refuses, and the auto route takes the series."""

    POINT = ["--rho", "50", "--mu-re", "1", "--z-mod", "1e8", "--z-arg-pi", "1"]

    def test_auto_eval_takes_the_series(self, capsys):
        assert main(["eval", *self.POINT]) == 3  # the series overflows there
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["method"] == "series"
        assert "not_converged" in rows[0]["flags"]

    def test_contour_eval_is_refused(self, capsys):
        assert main(["eval", *self.POINT, "--method", "contour"]) == 2
        assert "|z|^rho overflows" in capsys.readouterr().err

    def test_compare_skips_the_contour(self, capsys):
        args = ["compare", "--rho", "50", "--mu-re", "2", "--mu-im", "0.5",
                "--z-mod", "1e8", "--z-arg-pi", "1"]
        assert main(args) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {r["method_a"]: r["status"] for r in rows}["contour"] == "skipped"

    def test_grid_writes_its_row(self, capsys):
        code = main(["grid", "ml", "--rho", "50", "--mu-re", "1",
                     "--zmod-min", "1e8", "--zmod-max", "1e8", "--zmod-step", "1",
                     "--zarg-min", repr(PI), "--zarg-max", repr(PI), "--zarg-step", "1"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert code == 1  # no row is ok
        assert [(r["method"], r["status"]) for r in rows] == [("series", "non_convergence")]


@pytest.mark.parametrize("method", ["contour", "bateman", "dzhrbashyan"])
def test_grid_at_rho_half_writes_every_row(capsys, method):
    code = main(["grid", "ml", "--rho", "0.5", "--mu-re", "1", "--method", method,
                 "--zmod-min", "1", "--zmod-max", "2", "--zmod-step", "1",
                 "--zarg-min", "2", "--zarg-max", "3", "--zarg-step", "1"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code in (0, 1)
    assert len(rows) == 4
    assert all(r["method"] == method for r in rows)
