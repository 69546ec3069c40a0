"""The fixed-node rule (``mlcontour.fixed_rule``): its Gauss-Legendre
tables, and the default gamma loop's results on it."""

import numpy as np
import pytest

from mlcontour import fixed_rule, recip_gamma_contour


class TestGoldenFixedRule:
    """The default gamma loop on fixed nodes at the five s of TestGolden's
    gamma cases, recorded when it became the default; each is checked
    against mpmath in ``test_within_estimate``."""

    CASES = [
        (3.0,
         "QuadratureResult(value=(0.4999999999999999-1.766974823035287e-17j), "
         "error_estimate=1.2939287431602572e-15, truncation_radius=31.936086709466302, "
         "panels_used=3, converged=True)"),
        (-4.5 + 2j,
         "QuadratureResult(value=(2997.9442295517083-395.28140400965214j), "
         "error_estimate=3.62332315161961e-11, truncation_radius=95.1915333224463, "
         "panels_used=3, converged=True)"),
        (0.5 + 5j,
         "QuadratureResult(value=(-1023.8611659975486-88.32141731486367j), "
         "error_estimate=5.4696752103420755e-08, truncation_radius=50.132680304489256, "
         "panels_used=3, converged=True)"),
        (2 + 10j,
         "QuadratureResult(value=(-75577.63964933742-35020.96116858767j), "
         "error_estimate=9.08936235847808e-08, truncation_radius=62.003459212227185, "
         "panels_used=3, converged=True)"),
        (2 - 10j,
         "QuadratureResult(value=(-75577.63964933771+35020.96116858767j), "
         "error_estimate=9.09563470985325e-08, truncation_radius=62.003459212227185, "
         "panels_used=3, converged=True)"),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_exact_repr(self, case):
        s, expected = self.CASES[case]
        assert repr(recip_gamma_contour(s).diagnostics) == expected

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_within_estimate(self, case):
        # 2 +- 10i, the D1/D2 knife edge on the unit loop, is within 1e-13
        # relative here
        mpmath = pytest.importorskip("mpmath")
        s = self.CASES[case][0]
        diag = recip_gamma_contour(s).diagnostics
        with mpmath.workdps(30):
            ref = complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))
        assert abs(diag.value - ref) <= min(diag.error_estimate, 1e-13 * abs(ref))


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 64, 128, 256])
    def test_matches_leggauss(self, n):
        # numpy's eigenvalue rule, whose weights are less accurate near the
        # ends; the program itself never imports numpy.polynomial
        legendre = pytest.importorskip("numpy.polynomial.legendre")
        nodes, weights = fixed_rule.gauss_legendre(n)
        ref_nodes, ref_weights = legendre.leggauss(n)
        assert np.abs(nodes - ref_nodes).max() <= 2e-16
        assert np.abs(weights / ref_weights - 1.0).max() <= 1e-10
        assert abs(weights.sum() - 2.0) <= 4e-15
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_integrates_polynomials_exactly(self):
        nodes, weights = fixed_rule.gauss_legendre(64)
        for k in (0, 2, 40, 126):
            assert np.dot(weights, nodes ** k) == pytest.approx(2.0 / (k + 1), rel=1e-13)
            assert abs(np.dot(weights, nodes ** (k + 1))) <= 1e-15
