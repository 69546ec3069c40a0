"""The public surface: what ``mlcontour`` exports, and the one result type
every route returns.

Every route answers with an ``Evaluation``.  A loop route hands its integral
to ``finish_loop``, which raises ``ConvergenceError`` for a loop that did not
converge and otherwise scales the value and the error estimate by the
route's prefactor.
"""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import mlcontour
from mlcontour import (
    ConvergenceError,
    Evaluation,
    GammaContourSpec,
    MLParams,
    PolarComplex,
    QuadratureResult,
    SeriesDiagnostics,
    evaluate_ml,
    ml_bateman,
    ml_contour,
    ml_dzhrbashyan,
    ml_series,
    recip_gamma_contour,
)
from mlcontour import gamma, mittag_leffler
from mlcontour.quadrature import finish_loop

PI = math.pi
TWO_PI_I = 2j * PI

#: What users call; anything else is reached through a submodule.
PUBLIC = [
    "ComparisonReport", "ContourValidityError", "ConvergenceError",
    "DEFAULT_GAMMA_SPEC", "DEFAULT_QUADRATURE", "Evaluation", "GammaContourSpec",
    "IntegrandError", "MethodOutcome", "MLParams", "MlcError", "PolarComplex",
    "PreconditionError", "QuadratureConfig", "QuadratureResult", "SeriesDiagnostics",
    "compare_methods", "default_ml_deltas", "evaluate_ml", "gamma_psi_window",
    "is_gamma_pole", "log_gamma", "ml_arg_window", "ml_bateman", "ml_closed_form",
    "ml_contour", "ml_dzhrbashyan", "ml_route", "ml_series", "recip_gamma_contour",
    "recip_gamma_oracle", "recip_gamma_points", "reflection_residual",
    "validate_gamma_contour",
]


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(mlcontour.__all__) == sorted(PUBLIC)
    assert all(hasattr(mlcontour, name) for name in mlcontour.__all__)


def test_cli_import_leaves_numpy_polynomial_out():
    # numpy.polynomial costs every process about 1.4 MB of memory; the
    # 15-point rule is a literal table, and the fixed rule's Gauss-Legendre
    # tables are built by Newton's method, so that nothing needs it, not
    # even a gamma grid
    src = str(pathlib.Path(mlcontour.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = textwrap.dedent("""
        import contextlib, io, sys
        import mlcontour.cli
        mlcontour.cli.build_parser()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = mlcontour.cli.main(["grid", "gamma", "--re-min", "-1.5", "--re-max", "12",
                                       "--re-step", "0.5", "--im-min", "-10", "--im-max", "10",
                                       "--im-step", "5"])
        assert code == 0 and out.getvalue().count(",ok\\n") == 140
        print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "[]\n"


P = MLParams(1.5, 1.0)
Z = PolarComplex(1.0, PI)


class TestOneResultType:
    @pytest.mark.parametrize("route", [
        lambda: recip_gamma_contour(2.5),
        lambda: ml_series(P, Z),
        lambda: ml_contour(P, Z),
        lambda: ml_bateman(P, Z),
        lambda: ml_dzhrbashyan(P, Z),
    ], ids=["gamma", "series", "contour", "bateman", "dzhrbashyan"])
    def test_every_route(self, route):
        assert type(route()) is Evaluation

    @pytest.mark.parametrize("method", mittag_leffler.ML_METHODS)
    def test_evaluate_ml(self, method):
        ev = evaluate_ml(P, Z, method)
        assert type(ev) is Evaluation
        assert ev.method == ("series" if method == "auto" else method)  # |z|^rho = 1
        kind = SeriesDiagnostics if ev.method == "series" else QuadratureResult
        assert type(ev.diagnostics) is kind


class TestFailureMessages:
    """Each loop route's text, with the estimate appended by ``finish_loop``."""

    def test_gamma(self):
        spec = GammaContourSpec(1.0, 0.0, PI / 2 + 1e-6, PI / 2 + 1e-6)
        with pytest.raises(ConvergenceError) as info:
            recip_gamma_contour(2 + 1j, spec)
        assert str(info.value) == ("gamma contour quadrature did not converge at s=(2+1j) "
                                   "(error estimate 6.74e-08)")

    def test_zeta(self):
        with pytest.raises(ConvergenceError) as info:
            ml_contour(MLParams(1.0, 1.0), PolarComplex(9.0, PI))
        assert str(info.value) == (
            "zeta-loop quadrature did not converge for rho=1.0, mu=1.0, "
            "z=(9.0, 3.141592653589793) (error estimate 3.44e-13)")

    def test_bateman(self):
        with pytest.raises(ConvergenceError) as info:
            ml_bateman(MLParams(2.0, 1 + 0j), PolarComplex(4.0, PI))
        assert str(info.value) == (
            "classical-loop quadrature did not converge for rho=2.0, mu=(1+0j), "
            "z=(-4+4.898587196589413e-16j) (error estimate 4.55e-07)")

    def test_dzhrbashyan(self):
        with pytest.raises(ConvergenceError) as info:
            ml_dzhrbashyan(MLParams(2.0, 1 + 0j), PolarComplex(4.0, PI))
        assert str(info.value) == (
            "theta-loop quadrature did not converge for rho=2.0, mu=(1+0j), "
            "z=(-4+4.898587196589413e-16j) (error estimate 2.46e-06)")


class TestFinishLoop:
    RAW = QuadratureResult(0.5 - 2j, 3e-12, 7.5, 40, True)

    @staticmethod
    def unused():
        raise AssertionError("the failure message was formatted on success")

    def test_scales_value_and_estimate(self):
        ev = finish_loop(self.RAW, 3 - 4j, "contour", self.unused)
        assert ev == Evaluation((0.5 - 2j) * (3 - 4j), "contour",
                                QuadratureResult((0.5 - 2j) * (3 - 4j), 3e-12 * 5.0, 7.5, 40, True))

    def test_raises_for_a_loop_that_did_not_converge(self):
        raw = QuadratureResult(1.0, 0.25, 0.0, 8, False)
        with pytest.raises(ConvergenceError, match=r"^loop failed \(error estimate 0\.25\)$"):
            finish_loop(raw, 2.0, "contour", lambda: "loop failed")

    @pytest.mark.parametrize("module, route, factor", [
        (gamma, lambda: recip_gamma_contour(2.5, lam=PolarComplex(2.0, 0.3)),
         PolarComplex(2.0, 0.3).power(1.0 - 2.5) / TWO_PI_I),
        (mittag_leffler, lambda: ml_contour(P, Z), 1.0 / TWO_PI_I),
        (mittag_leffler, lambda: ml_bateman(P, Z), 1.0 / TWO_PI_I),
        (mittag_leffler, lambda: ml_dzhrbashyan(P, Z), P.rho / TWO_PI_I),
    ], ids=["gamma", "contour", "bateman", "dzhrbashyan"])
    def test_each_route_scales_by_its_prefactor(self, monkeypatch, module, route, factor):
        # The route's integral is replaced through the module global it calls.
        monkeypatch.setattr(module, "integrate_path", lambda *args, **kwargs: self.RAW)
        ev = route()
        assert ev.value == self.RAW.value * factor
        assert ev.diagnostics.error_estimate == self.RAW.error_estimate * abs(factor)
        assert abs(factor) != 1.0
