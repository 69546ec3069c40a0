import cmath
import csv
import io
import math
import random

import numpy as np
import pytest

from mlcontour import (
    DEFAULT_GAMMA_SPEC,
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
from mlcontour import cli, fixed_rule, gamma
from mlcontour.quadrature import QuadratureResult

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

    @pytest.mark.parametrize("s", [10 + 10j, 0.5 + 30j, 0.5 - 30j, -11.0, -12.0])
    def test_unit_loop_refuses_where_its_segments_cancel(self, s):
        # D1: each segment of the unit loop meets the tolerance on its own
        # value, but the summed estimate misses it on the summed value.  The
        # loop answered these wrong and converged: 10 + 10i by 3.0 relative,
        # 0.5 +- 30i by 2.5e4 relative, the poles -11 and -12 by 6.4e-8 and
        # 2.4e-7 absolute
        with pytest.raises(ConvergenceError, match="did not converge"):
            recip_gamma_contour(s, DEFAULT_GAMMA_SPEC)

    @pytest.mark.parametrize("s", [complex("nan"), complex("inf"), complex(1.0, math.nan)])
    def test_non_finite_s_is_precondition_error(self, s):
        with pytest.raises(PreconditionError, match="s must be finite"):
            recip_gamma_contour(s)

    def test_underflowed_ray_bound_is_precondition_error(self):
        # on the unit loop the inbound ray's bound e^(-pi Im s) underflows
        # to 0; the default loop's arc, at the saddle radius |s| = 10000,
        # is refused before any bound is made
        with pytest.raises(PreconditionError, match="with_power_growth requires"):
            recip_gamma_contour(0.5 + 10000j, DEFAULT_GAMMA_SPEC)
        with pytest.raises(PreconditionError, match="arc too large"):
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


def mp_rgamma(s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))


class TestDefaultRoute:
    """The default loop: the classical loop with its arc through the saddle,
    integrated on fixed nodes for a batch of points at once."""

    @pytest.mark.parametrize("s, radius", [
        (0.5, 1.0), (3 + 4j, 5.0), (-3 + 4j, 5.0), (-4 + 3j, 1.0), (-4 - 4j, 1.0),
        (-0.5 - 0.6j, 1.0), (20.0, 20.0),
    ])
    def test_saddle_radius(self, s, radius):
        assert gamma.saddle_radius(complex(s)) == radius

    def test_same_bits_alone_in_a_grid_call_and_across_chunks(self, capsys):
        # 5 columns of 15: more points than one array call takes
        grid = [complex(a, b) for a in (-5.5, -1.0, 0.5, 4.0, 9.5) for b in range(-14, 16, 2)]
        assert len(grid) > 64 > gamma._CHUNK
        alone = [recip_gamma_contour(s) for s in grid]
        assert [repr(r) for r in gamma.recip_gamma_points(grid)] == [repr(r) for r in alone]
        assert cli.main(["grid", "gamma", "--re-min", "-5.5", "--re-max", "9.5",
                         "--re-step", "0.5", "--im-min", "-14", "--im-max", "14",
                         "--im-step", "2"]) == 0
        rows = {(float(r["s_re"]), float(r["s_im"])): r
                for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}
        for s, ev in zip(grid, alone):
            row = rows[s.real, s.imag]
            assert complex(float(row["value_re"]), float(row["value_im"])) == ev.value
            assert float(row["err_estimate"]) == ev.diagnostics.error_estimate

    def test_refused_neighbour_leaves_the_bits(self):
        grid = [2 + 3j, 0.5 + 10000j, -3.5 - 2j, complex("nan"), 7.0]
        results = gamma.recip_gamma_points(grid)
        assert isinstance(results[1], PreconditionError)
        assert "arc too large" in str(results[1])
        assert isinstance(results[3], PreconditionError)
        for k in (0, 2, 4):
            assert repr(results[k]) == repr(recip_gamma_contour(grid[k]))

    @pytest.mark.parametrize("s", [10 + 10j, 20.0])
    def test_d1_d2_reproducers_are_right(self, s):
        # labelled converged but off by 3.0 and 4.6 relative on the unit loop
        ev = recip_gamma_contour(s)
        ref = mp_rgamma(complex(s))
        assert rel_err(ev.value, ref) <= 1e-14
        assert abs(ev.value - ref) <= ev.diagnostics.error_estimate

    @pytest.mark.parametrize("s", [-11.0, -12.0, 0.0, -1.0])
    def test_poles_are_exact_zeros(self, s):
        ev = recip_gamma_contour(s)
        assert ev.value == 0 and ev.diagnostics.error_estimate == 0.0
        assert ev.diagnostics.converged

    @pytest.mark.parametrize("s", [0.5 + 30j, 0.5 - 30j, -10.5 + 20j, -10.5 - 20j,
                                   9.5 + 17.5j, 9.5 - 17.5j])
    def test_turned_loop_is_within_its_estimate(self, s):
        # unturned, the arc through the saddle at 0.5 +- 30i peaked near e^64
        # while |1/Gamma| is near e^46, and its rounding floor refused it (D1's
        # row); at -10.5 +- 20i it and its fallback raised (F1); turned by
        # psi(s) with its floor weighted by |Re w| in place of |w|, it
        # answered 9.5 +- 17.5i 1.41-1.42 times past its estimate
        ev = recip_gamma_contour(s)
        ref = mp_rgamma(s)
        assert ev.diagnostics.panels_used == 3
        assert rel_err(ev.value, ref) <= 1e-12
        assert abs(ev.value - ref) <= ev.diagnostics.error_estimate

    @pytest.mark.parametrize("s", [2.0, -3.5, 20.0, 1e-300])
    def test_rotation_is_zero_on_the_real_axis(self, s):
        assert gamma.rotation(complex(s)) == 0.0

    @pytest.mark.parametrize("s", [0.5 + 30j, 0.5 - 30j, -10.5 + 20j, 2 - 10j, 1e-300j,
                                   -1e-300j, 100 + 1e-10j, -4.5 + 2j])
    def test_rotation_is_bounded_and_against_im_s(self, s):
        psi = gamma.rotation(s)
        assert 0.0 < abs(psi) <= 0.15 * PI
        assert psi * s.imag < 0.0

    def test_failed_fixed_rule_falls_back_to_the_adaptive_engine(self):
        # the fixed rule's estimate misses the tolerance here; the adaptive
        # engine on the same, unturned, loop meets it on the summed value
        s = -16 + 8j
        ev = recip_gamma_contour(s)
        assert ev.diagnostics.panels_used > 3
        assert rel_err(ev.value, mp_rgamma(s)) <= 1e-14
        assert abs(ev.value - mp_rgamma(s)) <= ev.diagnostics.error_estimate

    def test_fallback_refuses_a_summed_estimate_past_the_tolerance(self, monkeypatch):
        # on the unit loop at s = 10 + 10i every segment converges, but the
        # summed estimate is far above rel_tol times the summed value (D1):
        # the fallback, the explicit spec of the same loop, refuses it
        def fails(exponent, radius, *args):
            return [QuadratureResult(0j, 1.0, 30.0, 3, False)] * len(radius)

        def unit_loop(s, cfg):
            # the fallback takes the spec of the loop of radius 1, rays at
            # -pi and pi: the unit loop
            return gamma._Loop(s, 1.0, 30.0, 0.0)

        monkeypatch.setattr(fixed_rule, "fixed_loops", fails)
        monkeypatch.setattr(gamma, "_default_loop", unit_loop)
        assert rel_err(recip_gamma_contour(2.0).value, 1.0) <= 1e-14
        for spec in (None, DEFAULT_GAMMA_SPEC):
            with pytest.raises(ConvergenceError, match=r"did not converge at s=\(10\+10j\)"):
                recip_gamma_contour(10 + 10j, spec)

    def test_summed_nodes_per_point_on_the_gamma_grid(self, monkeypatch):
        # the points of the benchmark's gamma-grid workload at seed 1 (its
        # three blocks, the lattice of the left one placed by the seed):
        # 321 nodes a point at level 0 (192 on the arc, 129 on the one ray
        # for both sides of the cut), 384 more for each point at level 1
        # (256 and 128), none at the 7 poles, and no point falls back
        rng = random.Random(1)
        re_lo, im_lo = -6.0 + 0.5 * rng.random(), -10.0 + 2.0 * rng.random()
        grid = [complex(1.5 + 0.5 * k, -10.0 + 2.0 * j) for k in range(22) for j in range(11)]
        grid += [complex(-6.0 + 0.5 * k, 0.0) for k in range(15)]
        grid += [complex(re_lo + 0.5 * k, im_lo + 2.0 * j) for k in range(14) for j in range(10)]
        nodes = []
        fixed_loops = fixed_rule.fixed_loops

        def counted(exponent, *args):
            def count(rows, t, log_t):
                nodes.append(t.size)
                return exponent(rows, t, log_t)
            return fixed_loops(count, *args)

        monkeypatch.setattr(fixed_rule, "fixed_loops", counted)
        results = gamma.recip_gamma_points(grid)
        assert all(r.diagnostics.panels_used in (0, 3) for r in results)
        assert len(grid) == 397
        assert sum(nodes) / len(grid) == pytest.approx(327.91435768261965, rel=1e-12)
