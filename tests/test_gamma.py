import cmath
import math

import numpy as np
import pytest

from mlcontour import (
    ContourValidityError,
    ConvergenceError,
    GammaContourSpec,
    PolarComplex,
    PreconditionError,
    gamma_psi_window,
    is_gamma_pole,
    log_gamma,
    recip_gamma_contour,
    recip_gamma_oracle,
    reflection_residual,
)

PI = math.pi
RECIP_GAMMA_2_PLUS_I = 1.2001760188136033 - 0.6305683777769214j  # 1/Gamma(2+i)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestOracle:
    @pytest.mark.parametrize("s,expected", [
        (1.0, 1.0),
        (5.0, 1.0 / 24.0),
        (0.5, 0.5641895835477563),       # 1/sqrt(pi)
        (-0.5, -0.2820947917738781),     # recurrence: Gamma(-1/2) = -2 sqrt(pi)
    ])
    def test_known_values(self, s, expected):
        assert complex(recip_gamma_oracle(s)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -7.0, -20.0])
    def test_exact_zero_at_poles(self, s):
        assert recip_gamma_oracle(s) == 0
        assert is_gamma_pole(s)

    def test_not_pole(self):
        assert not is_gamma_pole(0.5)
        assert not is_gamma_pole(-1 + 1e-9j)
        assert not is_gamma_pole(2.0)

    def test_recurrence_identity(self):
        # 1/Gamma(s+1) = (1/Gamma(s)) / s, relative residual < 1e-12
        for a in np.arange(-6.0, 6.5, 0.5):
            for b in (-3.0, -1.0, 0.0, 1.0, 3.0):
                s = complex(a, b)
                if is_gamma_pole(s) or is_gamma_pole(s + 1):
                    continue
                lhs = complex(recip_gamma_oracle(s + 1))
                rhs = complex(recip_gamma_oracle(s)) / s
                assert rel_err(lhs, rhs) < 1e-12, s

    def test_reflection_identity(self):
        for a in np.arange(-4.0, 4.5, 0.5):
            for b in (-2.0, 0.0, 2.0):
                s = complex(a, b)
                lhs = complex(recip_gamma_oracle(s)) * complex(recip_gamma_oracle(1 - s))
                rhs = cmath.sin(PI * s) / PI
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), s

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(42)
        pts = rng.uniform(-20, 20, size=(300, 2))
        for a, b in pts:
            s = complex(a, b)
            if abs(b) < 0.05 and a < 0.5 and abs(a - round(a)) < 0.05:
                continue  # too close to a pole for a relative comparison
            ref = complex(scipy_special.rgamma(s))
            assert rel_err(complex(recip_gamma_oracle(s)), ref) < 1e-12, s

    def test_vectorized_matches_scalar(self):
        # One kernel serves both: the same bits on either side of Re s = 1/2,
        # at the poles and where 1/Gamma underflows.
        grid = np.array([0.5 + 0j, -1.5 + 2j, 3 - 1j, -4.5 - 3j, 0.3 + 0.7j,
                         0.49 + 0j, -7.25 + 0.1j, -12.6 - 5j, 0j, -3 + 0j, 400 + 0j])
        for fn in (recip_gamma_oracle, log_gamma):
            vec = fn(grid)
            for s, v in zip(grid, vec):
                assert fn(complex(s)) == v, (fn.__name__, s)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for a in np.arange(-15.25, 30.0, 1.5):
            for b in (-12.0, -3.5, -0.5, 0.0, 0.25, 4.0, 15.0):
                s = complex(a, b)
                with mpmath.workdps(30):
                    ref = complex(mpmath.rgamma(mpmath.mpc(a, b)))
                assert rel_err(recip_gamma_oracle(s), ref) <= 1e-12, s
                assert rel_err(cmath.exp(log_gamma(s)), 1.0 / ref) <= 1e-12, s

    def test_left_half_plane_large_imaginary_part(self):
        # sin(pi s) overflows a double past |Im s| ~ 226; the reflection
        # works with its logarithm instead.
        mpmath = pytest.importorskip("mpmath")
        for s in (-3.3 + 250j, -10.5 - 400j, 0.2 + 300j):
            with mpmath.workdps(30):
                ref = complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))
            assert rel_err(recip_gamma_oracle(s), ref) < 1e-11, s
            assert rel_err(cmath.exp(log_gamma(s)), 1.0 / ref) < 1e-11, s

    def test_underflow_region_returns_zero(self):
        assert recip_gamma_oracle(400.0) == 0

    def test_log_gamma_exponentiates_correctly(self):
        scipy_special = pytest.importorskip("scipy.special")
        for s in (0.3 + 0j, 2.5 + 1j, -1.3 + 0.4j, -3.7 - 2j, 0.5 + 5j):
            got = cmath.exp(complex(log_gamma(s)))
            ref = complex(scipy_special.gamma(s))
            assert rel_err(got, ref) < 1e-12, s

    def test_log_gamma_pole(self):
        assert complex(log_gamma(-2.0)).real == math.inf


class TestContour:
    @pytest.mark.parametrize("s,expected,tol", [
        (1.0, 1.0, 1e-10),
        (0.5, 0.5641895835477563, 1e-10),
        (-0.5, -0.2820947917738781, 1e-10),
    ])
    def test_known_values(self, s, expected, tol):
        ev = recip_gamma_contour(s)
        assert ev.method == "contour"
        assert abs(ev.value - expected) <= tol * max(1.0, abs(expected))

    def test_zero_at_gamma_pole(self):
        ev = recip_gamma_contour(0.0)
        assert abs(ev.value) < 1e-10

    def test_matches_oracle_complex(self):
        for s in (2 + 1j, -1.3 + 0.4j, 0.3 + 0.7j, 3.5 - 2j):
            ev = recip_gamma_contour(s)
            assert rel_err(ev.value, complex(recip_gamma_oracle(s))) < 1e-9, s

    def test_psi_invariance(self):
        s = 2 + 1j
        values = []
        lo, hi = gamma_psi_window(0.75 * PI, 0.9 * PI)
        for k in range(5):
            psi = lo + (hi - lo) * (k + 1) / 6.0
            spec = GammaContourSpec(1.0, psi, 0.75 * PI, 0.9 * PI)
            values.append(recip_gamma_contour(s, spec).value)
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / abs(values[0]) < 1e-9

    def test_epsilon_invariance(self):
        s = 0.5
        values = [recip_gamma_contour(s, GammaContourSpec(eps, 0.0, PI, PI)).value
                  for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / abs(values[0]) < 1e-9

    def test_delta_invariance(self):
        s = -1.3 + 0.4j
        values = []
        for d1, d2 in ((0.6 * PI, 0.6 * PI), (0.75 * PI, 0.9 * PI), (PI, PI)):
            values.append(recip_gamma_contour(s, GammaContourSpec(1.0, 0.0, d1, d2)).value)
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / abs(values[0]) < 1e-9

    def test_invalid_spec_raises(self):
        with pytest.raises(ContourValidityError):
            recip_gamma_contour(1.0, GammaContourSpec(1.0, PI / 2 - PI, PI, PI))

    def test_non_convergence_raises(self):
        # rays 1e-6 off the imaginary axis decay too slowly to converge
        with pytest.raises(ConvergenceError):
            recip_gamma_contour(2 + 1j, GammaContourSpec(1.0, 0.0, PI / 2 + 1e-6, PI / 2 + 1e-6))

    @pytest.mark.parametrize("s", [complex("nan"), complex("inf"), complex(1.0, math.nan)])
    def test_non_finite_s_is_precondition_error(self, s):
        with pytest.raises(PreconditionError, match="s must be finite"):
            recip_gamma_contour(s)

    def test_underflowed_ray_bound_is_precondition_error(self):
        # the inbound ray's bound e^(-pi Im s) underflows to 0
        with pytest.raises(PreconditionError, match="with_power_growth requires"):
            recip_gamma_contour(0.5 + 10000j)

    def test_overflowed_ray_bound_is_precondition_error(self):
        # the bound's peak u^300.5 e^(-u/2) at u = 601 is e^1622, past the
        # double range: refused before any integrand is evaluated
        with pytest.raises(PreconditionError, match="a ray bound overflows a double"):
            recip_gamma_contour(-300.5)
        # at -150.5 the peak, e^708.4, is a double and kept as it is
        assert rel_err(recip_gamma_contour(-150.5).value,
                       -2.2329165736257515592e+263) < 1e-14

    def test_underflowed_loop_radius_is_contour_validity_error(self):
        # epsilon/|lambda| = 1e-600 underflows to 0
        spec = GammaContourSpec(1e-300, 0.0, PI, PI)
        lam = PolarComplex(1e300, 0.0)
        with pytest.raises(ContourValidityError, match="leaves the double range"):
            recip_gamma_contour(2.0, spec, lam=lam)
        # and past the largest double
        with pytest.raises(ContourValidityError, match="leaves the double range"):
            recip_gamma_contour(2.0, GammaContourSpec(1e300, 0.0, PI, PI),
                                lam=PolarComplex(1e-300, 0.0))

    def test_evaluation_carries_quadrature(self):
        ev = recip_gamma_contour(0.5)
        assert ev.diagnostics is not None
        assert ev.diagnostics.converged
        assert ev.diagnostics.value == ev.value


class TestLambdaRoute:
    def test_identity_scaling_matches_plain_contour(self):
        s = 0.7 + 0.2j
        a = recip_gamma_contour(s, lam=PolarComplex(1.0, 0.0))
        b = recip_gamma_contour(s)
        assert a.value == b.value
        assert a.diagnostics == b.diagnostics

    def test_value_independent_of_lambda(self):
        s = 1.0
        spec = GammaContourSpec(1.0, -PI / 4, PI, PI)
        ev = recip_gamma_contour(s, spec, lam=PolarComplex(1.0, PI / 4))
        assert ev.method == "contour"
        assert abs(ev.value - 1.0) < 1e-10

    def test_conjugate_rotations_agree_with_oracle(self):
        s = 2 + 1j
        for arg in (-PI / 3, PI / 3):
            spec = GammaContourSpec(1.0, -arg, PI, PI)
            ev = recip_gamma_contour(s, spec, lam=PolarComplex(1.0, arg))
            assert rel_err(ev.value, RECIP_GAMMA_2_PLUS_I) < 1e-9

    def test_modulus_scaling(self):
        s = 0.5
        ev = recip_gamma_contour(s, lam=PolarComplex(2.5, 0.0))
        assert rel_err(ev.value, 0.5641895835477563) < 1e-9

    def test_huge_modulus_is_precondition_error(self):
        # the loop radius 1e-300 makes r0**(-Re s) overflow in the ray bound
        with pytest.raises(PreconditionError, match="a ray bound overflows a double"):
            recip_gamma_contour(2.0, lam=PolarComplex(1e300, 0.0))

    def test_tiny_modulus_bound_is_not_zero(self):
        # r0**(-Re s) underflows to 0 at radius 1e300: refused, never a
        # truncated loop that returns 0 for 1/Gamma(2) = 1
        with pytest.raises(PreconditionError, match="DecayModel requires"):
            recip_gamma_contour(2.0, lam=PolarComplex(1e-300, 0.0))

    def test_prefactor_past_the_double_range_is_refused(self):
        # 1/Gamma(-80.5) = -2.05e119 is a double; lambda^(1-s) = 1e4^81.5 is
        # not, nor is 1e-4^(-99)
        ev = recip_gamma_contour(-80.5, lam=PolarComplex(4e3, 0.0))
        assert rel_err(ev.value, -2.04715231092716e119) < 1e-13
        for s, lam in ((-80.5, PolarComplex(1e4, 0.0)), (100.0, PolarComplex(1e-4, 0.0))):
            with pytest.raises(PreconditionError, match=r"lam\^\(1-s\) overflows"):
                recip_gamma_contour(s, lam=lam)

    def test_joint_validity_enforced(self):
        # psi outside the window shifted by -arg lambda
        spec = GammaContourSpec(1.0, PI / 2, PI, PI)
        with pytest.raises(ContourValidityError):
            recip_gamma_contour(0.5, spec, lam=PolarComplex(1.0, PI / 3))


class TestReflectionResidual:
    @pytest.mark.parametrize("s,tol", [
        (0.5, 1e-9),
        (0.0, 1e-9),
        (0.3 + 0.7j, 1e-8),
        (1.2 - 0.5j, 1e-8),
    ])
    def test_small_residual(self, s, tol):
        assert reflection_residual(s) < tol
