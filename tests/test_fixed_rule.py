"""The fixed-node rule (``mlcontour.fixed_rule``): its Gauss-Legendre
tables, and the default gamma loop's results on it."""

import cmath
import math

import numpy as np
import pytest

from mlcontour import ConvergenceError, fixed_rule, gamma, recip_gamma_contour
from mlcontour.geometry import GammaContourSpec
from mlcontour.quadrature import DEFAULT_QUADRATURE


class TestGoldenFixedRule:
    """The default gamma loop on fixed nodes at the five s of TestGolden's
    gamma cases, recorded when the loop was turned by psi(s); each is
    checked against mpmath in ``test_within_estimate``."""

    CASES = [
        (3.0,
         "QuadratureResult(value=(0.4999999999999999-1.766974823035287e-17j), "
         "error_estimate=1.3183824597086333e-15, truncation_radius=31.936086709466302, "
         "panels_used=3, converged=True)"),
        (-4.5 + 2j,
         "QuadratureResult(value=(2997.944229551709-395.28140400965356j), "
         "error_estimate=5.108917972733049e-09, truncation_radius=96.38863420607454, "
         "panels_used=3, converged=True)"),
        (0.5 + 5j,
         "QuadratureResult(value=(-1023.861165997555-88.32141731486003j), "
         "error_estimate=2.9040787442642372e-11, truncation_radius=53.698273646475585, "
         "panels_used=3, converged=True)"),
        (2 + 10j,
         "QuadratureResult(value=(-75577.63964934186-35020.96116859516j), "
         "error_estimate=9.290162517996637e-09, truncation_radius=64.2295312707528, "
         "panels_used=3, converged=True)"),
        (2 - 10j,
         "QuadratureResult(value=(-75577.63964934186+35020.96116859516j), "
         "error_estimate=9.290162517996636e-09, truncation_radius=64.2295312707528, "
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


class TestOneRay:
    """The default loop's two rays on the cut, integrated as one."""

    S = [3.0, 1 + 1e-9, 2 + 10j, 2 - 10j, -4.5 + 2j]

    @staticmethod
    def ray_nodes(s, monkeypatch) -> tuple[np.ndarray, float]:
        """The t of the ray nodes the default loop's level 0 lays at s, and
        the loop's turn psi: its rays lie at -pi + psi and pi + psi."""
        psi = gamma.rotation(complex(s))
        seen, fixed_loops = [], fixed_rule.fixed_loops

        def recorded(exponent, *args):
            def record(rows, t, log_t):
                seen.append(t[np.isin(log_t.imag, (-math.pi + psi, math.pi + psi))])
                return exponent(rows, t, log_t)
            return fixed_loops(record, *args)

        monkeypatch.setattr(fixed_rule, "fixed_loops", recorded)
        recip_gamma_contour(s)
        monkeypatch.undo()
        assert seen[0].size == 129
        return seen[0], psi

    @pytest.mark.parametrize("s", S)
    def test_upper_side_is_the_lower_side_times_its_shift(self, s, monkeypatch):
        # t = -r e^(i psi) on both sheets; log t = ln r + i (psi -+ pi)
        t, psi = self.ray_nodes(s, monkeypatch)
        assert np.abs(np.angle(-t) - psi).max() <= 1e-15
        log_r = np.log(np.abs(t))
        f = gamma.loop_integrand(s)
        lower, upper = (f(t, log_r + 1j * (a + psi)) for a in (-math.pi, math.pi))
        w_size = 1.0 + sum(np.abs(t - s * (log_r + 1j * (a + psi))) for a in (-math.pi, math.pi))
        gap = np.abs(upper - lower * cmath.exp(-2j * math.pi * s))
        assert (gap <= 4 * 2.0 ** -53 * w_size * np.abs(upper)).all()

    @pytest.mark.parametrize("s", S)
    def test_agrees_with_the_adaptive_engine_on_the_same_loop(self, s):
        ev = recip_gamma_contour(s)
        assert ev.diagnostics.panels_used == 3  # the fixed rule answered
        # the fallback's route: the explicit spec of the same loop
        radius = gamma._default_loop(complex(s), DEFAULT_QUADRATURE).radius
        adaptive = recip_gamma_contour(s, GammaContourSpec(radius, 0.0, math.pi, math.pi))
        assert adaptive.diagnostics.panels_used > 3
        assert abs(ev.value - adaptive.value) <= (ev.diagnostics.error_estimate
                                                  + adaptive.diagnostics.error_estimate)

    @pytest.mark.parametrize("s", [64 + 107j, 64 - 107j])
    def test_within_estimate_where_one_side_is_e_672_times_the_other(self, s):
        # the ray goes on the larger side: from the smaller one, whose terms
        # underflow (e^-770 at the arc), the rule answered past its estimate
        mpmath = pytest.importorskip("mpmath")
        diag = recip_gamma_contour(s).diagnostics
        with mpmath.workdps(30):
            ref = complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))
        assert diag.panels_used == 3
        assert abs(diag.value - ref) <= diag.error_estimate

    @pytest.mark.parametrize("s", [0.5 + 120j, 0.5 - 120j])
    def test_raises_where_e_to_the_shift_overflows(self, s):
        # |e^(-2 pi i s)| = e^754 is past the double range; taken from the
        # lower side the pair came out nan, labelled converged
        with pytest.raises(ConvergenceError, match="did not converge"):
            recip_gamma_contour(s)


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
