import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcontour import (
    ContourValidityError,
    GammaContourSpec,
    PolarComplex,
    PreconditionError,
    default_ml_deltas,
    gamma_psi_window,
    ml_arg_window,
    validate_gamma_contour,
)
from mlcontour.geometry import MLContourSpec, validate_ml_contour
from mlcontour.geometry import (
    ArcSegment,
    IntegrationPath,
    RaySegment,
    build_gamma_path,
    build_zeta_path,
    ml_delta_range,
    ray_distance,
)

PI = math.pi


def ml_spec(rho, eps, arg_z, d1, d2, mu=1.0):
    return MLContourSpec(rho, mu, eps, arg_z, d1, d2)


class TestPolarComplex:
    def test_from_complex_principal(self):
        w = PolarComplex.from_complex(-1.0 + 0j)
        assert w.modulus == 1.0
        assert w.argument == pytest.approx(PI)

    def test_round_trip(self):
        w = PolarComplex(2.0, 2.5)
        assert w.to_complex() == pytest.approx(2.0 * complex(math.cos(2.5), math.sin(2.5)))

    def test_power_tracks_sheet(self):
        # same complex point, different sheets: w**0.5 must differ
        a = PolarComplex(1.0, 0.0).power(0.5)
        b = PolarComplex(1.0, 2 * PI).power(0.5)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(-1.0)

    def test_negative_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            PolarComplex(-1.0, 0.0)

    def test_zero_power(self):
        assert PolarComplex(0.0, 0.0).power(2.0) == 0
        assert PolarComplex(0.0, 0.0).power(0.0) == 1


class TestWindows:
    @pytest.mark.parametrize("rho,d1,d2,low,high", [
        (1.0, PI, PI, PI / 2, 3 * PI / 2),
        (2.0, PI / 2, PI / 2, 3 * PI / 4, 5 * PI / 4),
        # frozen: substitute pi/(2*0.75) = 2*pi/3 into the window formula
        (0.75, PI, PI, 2.0943951023931953, 4.188790204786391),
    ])
    def test_ml_arg_window(self, rho, d1, d2, low, high):
        lo, hi = ml_arg_window(rho, d1, d2)
        assert lo == pytest.approx(low, abs=1e-12)
        assert hi == pytest.approx(high, abs=1e-12)

    def test_ml_arg_window_rejects_bad_delta(self):
        with pytest.raises(PreconditionError, match="delta out of range"):
            ml_arg_window(1.0, PI / 4, PI)
        with pytest.raises(PreconditionError, match="delta out of range"):
            ml_arg_window(2.0, PI / 2, 0.6 * PI)

    @pytest.mark.parametrize("rho,expected", [
        (1.0, PI),
        (2.0, PI / 2),
        (0.6, PI),
    ])
    def test_default_deltas(self, rho, expected):
        assert default_ml_deltas(rho) == (expected, expected)

    def test_default_deltas_rejects_small_rho(self):
        with pytest.raises(PreconditionError):
            default_ml_deltas(0.5)

    @pytest.mark.parametrize("rho,expected", [
        (0.75, (2 * PI / 3, PI)),
        (1.0, (PI / 2, PI)),
        (2.0, (PI / 4, PI / 2)),
    ])
    def test_ml_delta_range(self, rho, expected):
        assert ml_delta_range(rho) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 0.3, math.inf, math.nan])
    def test_ml_delta_range_rejects_rho(self, rho):
        with pytest.raises(PreconditionError, match="rho must exceed 1/2"):
            ml_delta_range(rho)

    def test_gamma_psi_window(self):
        lo, hi = gamma_psi_window(PI, PI)
        assert (lo, hi) == pytest.approx((-PI / 2, PI / 2))

    def test_symmetric_window_for_maximal_deltas(self):
        # for rho >= 1 and maximal deltas the window is pi +- pi/(2 rho)
        for rho in (1.0, 1.5, 2.0, 4.0):
            d1, d2 = default_ml_deltas(rho)
            lo, hi = ml_arg_window(rho, d1, d2)
            assert lo == pytest.approx(PI - PI / (2 * rho))
            assert hi == pytest.approx(PI + PI / (2 * rho))

    @given(
        rho=st.floats(0.55, 4.0),
        bump=st.floats(1e-3, 0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_window_monotone_in_deltas(self, rho, bump):
        lo_d = PI / (2 * rho)
        hi_d = min(PI, PI / rho)
        d = lo_d + 0.5 * (hi_d - lo_d)
        d_wide = min(hi_d, d + bump * (hi_d - d))
        lo1, hi1 = ml_arg_window(rho, d, d)
        lo2, hi2 = ml_arg_window(rho, d_wide, d_wide)
        assert lo2 <= lo1 and hi2 >= hi1
        # each bound moves outward by exactly the delta increment
        assert lo1 - lo2 == pytest.approx(d_wide - d, abs=1e-12)
        assert hi2 - hi1 == pytest.approx(d_wide - d, abs=1e-12)


def violations(validate, *args, **kwargs):
    """The violations ``validate`` refuses its arguments for."""
    with pytest.raises(ContourValidityError) as err:
        validate(*args, **kwargs)
    return err.value.violations


class TestGammaValidity:
    def test_classical_hankel_ok(self):
        assert validate_gamma_contour(GammaContourSpec(1.0, 0.0, PI, PI)) is None

    def test_psi_lower_boundary_rejected(self):
        # psi = pi/2 - delta2 exactly: ray along the imaginary axis, divergent
        found = violations(validate_gamma_contour, GammaContourSpec(1.0, PI / 2 - PI, PI, PI))
        assert any("psi" in v.constraint for v in found)

    def test_delta1_at_half_pi_rejected(self):
        found = violations(validate_gamma_contour, GammaContourSpec(1.0, 0.0, PI / 2, PI))
        assert any("delta1" in v.constraint for v in found)

    def test_margin_guard_band(self):
        violations(validate_gamma_contour, GammaContourSpec(1.0, -PI / 2 + 1e-12, PI, PI))
        validate_gamma_contour(GammaContourSpec(1.0, -PI / 2 + 1e-8, PI, PI))

    def test_epsilon_must_be_positive(self):
        violations(validate_gamma_contour, GammaContourSpec(0.0, 0.0, PI, PI))

    def test_non_finite_rejected(self):
        found = violations(validate_gamma_contour, GammaContourSpec(1.0, math.nan, PI, PI))
        assert [(v.constraint, v.distance) for v in found] == [("psi not finite", math.inf)]

    def test_violation_distance(self):
        found = violations(validate_gamma_contour, GammaContourSpec(1.0, 0.0, PI / 4, PI))
        v = next(v for v in found if "delta1" in v.constraint)
        assert v.distance == pytest.approx(PI / 4, abs=1e-12)


class TestMLValidity:
    def test_rho_one_maximal(self):
        validate_ml_contour(ml_spec(1.0, 1.0, PI, PI, PI))

    def test_rho_two(self):
        validate_ml_contour(ml_spec(2.0, 1.0, PI, PI / 2, PI / 2))

    def test_rho_half_rejected(self):
        # one refusal of rho <= 1/2, from ml_delta_range, whatever the deltas
        for d in (PI, 3.0):
            with pytest.raises(PreconditionError, match="rho must exceed 1/2") as err:
                validate_ml_contour(ml_spec(0.5, 1.0, PI, d, d))
            assert type(err.value) is PreconditionError

    @pytest.mark.parametrize("endpoint", ["low", "high"])
    def test_arg_z_window_endpoints_rejected(self, endpoint):
        lo, hi = ml_arg_window(2.0, PI / 2, PI / 2)
        arg, side = (lo, "below lower") if endpoint == "low" else (hi, "above upper")
        found = violations(validate_ml_contour, ml_spec(2.0, 1.0, arg, PI / 2, PI / 2))
        assert [(v.constraint, v.distance) for v in found] == [
            (f"arg z at or {side} window bound", 0.0)]

    def test_delta_upper_bound_inclusive(self):
        # delta exactly at min(pi, pi/rho) is allowed
        validate_ml_contour(ml_spec(2.0, 1.0, PI, PI / 2, PI / 2))
        found = violations(validate_ml_contour, ml_spec(2.0, 1.0, PI, PI / 2 + 1e-9, PI / 2))
        assert [v.constraint for v in found] == ["delta1_rho above min(pi, pi/rho)"]
        assert found[0].distance == pytest.approx(1e-9)

    @pytest.mark.parametrize("eps", [-0.99, -0.5, 0.0])
    def test_arc_inside_the_pole_with_half_angles_below_pi(self, eps):
        validate_ml_contour(ml_spec(2.0, eps, PI, PI / 2, PI / 2))
        validate_ml_contour(ml_spec(1.0, eps, PI, 0.9 * PI, 0.8 * PI))

    @pytest.mark.parametrize("eps", [-1.0, -1.5])
    def test_arc_radius_must_be_positive(self, eps):
        found = violations(validate_ml_contour, ml_spec(2.0, eps, PI, PI / 2, PI / 2))
        assert [v.constraint for v in found] == ["epsilon_hat must exceed -1"]
        assert found[0].distance == pytest.approx(-1.0 - eps)

    @pytest.mark.parametrize("d1, d2", [(PI, PI), (PI, 0.9 * PI), (0.9 * PI, PI)])
    @pytest.mark.parametrize("eps", [-0.5, 0.0])
    def test_arc_inside_the_pole_refused_when_a_ray_runs_through_it(self, d1, d2, eps):
        found = violations(validate_ml_contour, ml_spec(1.0, eps, PI, d1, d2))
        assert [v.constraint for v in found] == [
            "epsilon_hat must be positive when a ray half-angle is pi"]

    def test_outside_principal_sector_noted(self):
        found = violations(validate_ml_contour, ml_spec(2.0, 1.0, 0.3, PI / 2, PI / 2))
        assert [v.constraint for v in found] == ["arg z at or below lower window bound"]


class TestLambdaValidity:
    def test_shifted_window(self):
        spec = GammaContourSpec(1.0, -PI / 3, PI, PI)
        validate_gamma_contour(spec, lam=PolarComplex(1.0, PI / 3))
        # the window (-pi/2, pi/2) moves by -arg lambda = -0.3
        lam = PolarComplex(1.0, 0.3)
        validate_gamma_contour(GammaContourSpec(1.0, -PI / 2 - 0.2, PI, PI), lam=lam)
        violations(validate_gamma_contour, GammaContourSpec(1.0, PI / 2 - 0.2, PI, PI), lam=lam)

    def test_boundary_rejected(self):
        spec = GammaContourSpec(1.0, PI / 2 - PI - PI / 3, PI, PI)
        violations(validate_gamma_contour, spec, lam=PolarComplex(1.0, PI / 3))

    def test_zero_lambda_rejected(self):
        spec = GammaContourSpec(1.0, 0.0, PI, PI)
        found = violations(validate_gamma_contour, spec, lam=PolarComplex(0.0, 0.0))
        assert any("lambda" in v.constraint for v in found)


class TestPaths:
    def test_classical_gamma_path(self):
        path = build_gamma_path(GammaContourSpec(1.0, 0.0, PI, PI))
        ray_in, arc, ray_out = path.segments
        assert ray_in.angle == pytest.approx(-PI)
        assert ray_in.direction == "inbound"
        assert arc.radius == 1.0
        assert (arc.start_angle, arc.end_angle) == pytest.approx((-PI, PI))
        assert ray_out.angle == pytest.approx(PI)

    def test_rotated_gamma_path(self):
        path = build_gamma_path(GammaContourSpec(2.0, 0.3, 2.0, 2.5))
        ray_in, arc, ray_out = path.segments
        assert ray_in.angle == pytest.approx(-1.7)
        assert ray_out.angle == pytest.approx(2.8)
        assert arc.radius == 2.0

    def test_scaled_gamma_path(self):
        # lambda shrinks the arc by |lambda|; the rays stay at -delta1+psi, delta2+psi
        spec = GammaContourSpec(2.0, -0.3, PI, PI)
        ray_in, arc, ray_out = build_gamma_path(spec, lam=PolarComplex(4.0, 0.3)).segments
        assert arc.radius == 0.5
        assert (ray_in.angle, ray_out.angle) == (-PI - 0.3, PI - 0.3)

    def test_arc_span_independent_of_psi(self):
        for psi in (-0.3, 0.0, 0.4):
            path = build_gamma_path(GammaContourSpec(1.0, psi, 2.5, 2.8))
            arc = path.segments[1]
            assert arc.end_angle - arc.start_angle == pytest.approx(2.5 + 2.8)

    def test_zeta_path_rho_one(self):
        path = build_zeta_path(ml_spec(1.0, 1.0, PI, PI, PI))
        ray_in, arc, ray_out = path.segments
        assert ray_in.angle == pytest.approx(-2 * PI)
        assert ray_out.angle == pytest.approx(0.0)
        assert arc.radius == pytest.approx(2.0)

    def test_zeta_path_rho_two(self):
        path = build_zeta_path(ml_spec(2.0, 0.5, PI, PI / 2, PI / 2))
        ray_in, arc, ray_out = path.segments
        assert ray_in.angle == pytest.approx(-3 * PI / 2)
        assert ray_out.angle == pytest.approx(-PI / 2)
        assert arc.radius == pytest.approx(1.5)

    def test_invalid_spec_raises_with_report(self):
        assert violations(build_gamma_path, GammaContourSpec(1.0, PI, PI, PI))

    def test_pole_distance_equals_epsilon_hat(self):
        # frozen: minimizing |zeta - 1| over the path: the junction at
        # angle delta2_rho - pi = 0 realizes distance epsilon_hat
        eps = 0.4
        path = build_zeta_path(ml_spec(1.0, eps, PI, PI, PI))
        best = math.inf
        for seg in path.segments:
            if isinstance(seg, ArcSegment):
                for k in range(2001):
                    ang = seg.start_angle + (seg.end_angle - seg.start_angle) * k / 2000
                    zeta = seg.radius * complex(math.cos(ang), math.sin(ang))
                    best = min(best, abs(zeta - 1.0))
            else:
                for k in range(2001):
                    r = seg.start_radius + 50.0 * k / 2000
                    zeta = r * complex(math.cos(seg.angle), math.sin(seg.angle))
                    best = min(best, abs(zeta - 1.0))
        assert best == pytest.approx(eps, rel=1e-6)

    @pytest.mark.parametrize("rho, eps", [(1.5, -0.8), (2.0, -0.75), (4.0, -0.5), (2.0, 0.0)])
    def test_inner_arc_pole_distance_is_the_ray_distance(self, rho, eps):
        # the pole's distance to each ray of a loop whose arc passes inside
        # it is the minimum of |zeta - 1| sampled along that ray
        d = default_ml_deltas(rho)
        path = build_zeta_path(ml_spec(rho, eps, PI, *d))
        rays = [seg for seg in path.segments if isinstance(seg, RaySegment)]
        for ray in rays:
            u = complex(math.cos(ray.angle), math.sin(ray.angle))
            sampled = min(abs((ray.start_radius + 3.0 * k / 20000) * u - 1.0)
                          for k in range(20001))
            assert ray_distance(ray, 1.0) == pytest.approx(sampled, rel=1e-7)
            assert ray_distance(ray, 1.0) > 0.0

    def test_ray_distance_clamps_to_the_span(self):
        ray = RaySegment(PI / 4, 2.0, end_radius=3.0)
        u = complex(math.cos(PI / 4), math.sin(PI / 4))
        assert ray_distance(ray, 2.5 * u + 1j * u) == pytest.approx(1.0)  # foot inside
        assert ray_distance(ray, 0.0) == pytest.approx(2.0)  # before the start
        assert ray_distance(ray, 5.0 * u) == pytest.approx(2.0)  # past the end

    def test_continuity_check_rejects_gaps(self):
        with pytest.raises(PreconditionError, match="share endpoints"):
            IntegrationPath((
                RaySegment(0.0, 1.0, "inbound", end_radius=5.0),
                ArcSegment(2.0, 0.0, PI),
            ))

    @given(
        eps=st.floats(0.1, 5.0),
        d1=st.floats(PI / 2 + 1e-3, PI),
        d2=st.floats(PI / 2 + 1e-3, PI),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_gamma_path_well_formed(self, eps, d1, d2, frac):
        lo, hi = gamma_psi_window(d1, d2)
        psi = lo + frac * (hi - lo)
        try:
            path = build_gamma_path(GammaContourSpec(eps, psi, d1, d2))
        except ContourValidityError:  # frac too close to the guard band
            return
        for gap_mod, gap_ang in path.continuity_gaps():
            assert gap_mod < 1e-12 and gap_ang < 1e-12

    @given(
        rho=st.floats(0.55, 4.0),
        eps=st.floats(0.05, 3.0),
        dfrac=st.floats(0.1, 1.0),
        afrac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_zeta_path_well_formed(self, rho, eps, dfrac, afrac):
        lo_d = PI / (2 * rho)
        hi_d = min(PI, PI / rho)
        d = lo_d + dfrac * (hi_d - lo_d)
        lo, hi = ml_arg_window(rho, d, d)
        arg_z = lo + afrac * (hi - lo)
        try:
            path = build_zeta_path(ml_spec(rho, eps, arg_z, d, d))
        except ContourValidityError:
            return
        for gap_mod, gap_ang in path.continuity_gaps():
            assert gap_mod < 1e-12 and gap_ang < 1e-12
