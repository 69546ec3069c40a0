import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcontour import (
    DEFAULT_GAMMA_SPEC,
    IntegrandError,
    MLParams,
    PolarComplex,
    PreconditionError,
    QuadratureConfig,
    ml_bateman,
    ml_contour,
    ml_dzhrbashyan,
    recip_gamma_contour,
)
from mlcontour import gamma, quadrature
from mlcontour.geometry import ArcSegment, IntegrationPath, RaySegment, build_gamma_path
from mlcontour.quadrature import (
    DecayModel,
    integrate_path,
    truncation_radius,
)

PI = math.pi
SQRT_PI_HALF = 0.8862269254527580  # sqrt(pi)/2, Gaussian integral


def adaptive_gamma(s):
    """1/Gamma(s) by the adaptive engine on the unit loop: an explicit spec,
    since the default loop is integrated on fixed nodes."""
    return recip_gamma_contour(s, DEFAULT_GAMMA_SPEC)


def unit_loop_integral(s):
    """The loop integral of e^t t^(-s) on the unit loop, before the route's
    factor 1/(2 pi i) and its convergence check: ``adaptive_gamma``'s raw
    result, also where that raises."""
    path = build_gamma_path(DEFAULT_GAMMA_SPEC)
    return integrate_path(gamma.loop_integrand(s), path,
                          decay=gamma.loop_bounds(path, s).__getitem__)


class TestArc:
    def test_residue_full_circle(self):
        res = integrate_path(lambda t, log_t: 1.0 / t,
                             IntegrationPath((ArcSegment(1.0, -PI, PI),)))
        assert res.converged
        assert res.value == pytest.approx(2j * PI, abs=1e-12)
        assert res.error_estimate < 1e-12

    def test_constant_quarter_circle(self):
        # antiderivative zeta: 2(e^{i pi/2} - 1) = -2 + 2i
        res = integrate_path(lambda t, log_t: np.ones_like(t),
                             IntegrationPath((ArcSegment(2.0, 0.0, PI / 2),)))
        assert res.value == pytest.approx(-2.0 + 2.0j, abs=1e-12)

    def test_exp_closed_circle_vanishes(self):
        res = integrate_path(lambda t, log_t: np.exp(t),
                             IntegrationPath((ArcSegment(1.0, -PI, PI),)))
        assert abs(res.value) < 1e-12

    def test_descending_span_flips_sign(self):
        f = lambda t, log_t: np.ones_like(t)
        fwd = integrate_path(f, IntegrationPath((ArcSegment(2.0, 0.0, PI / 2),)))
        bwd = integrate_path(f, IntegrationPath((ArcSegment(2.0, PI / 2, 0.0),)))
        assert bwd.value == pytest.approx(-fwd.value, abs=1e-14)

    def test_non_finite_integrand(self):
        def f(t, log_t):
            return np.where(log_t.imag > 0, np.nan, 1.0) + 0j
        with pytest.raises(IntegrandError, match="not finite"):
            integrate_path(f, IntegrationPath((ArcSegment(2.0, -PI, PI),)))


class TestRay:
    def test_exponential(self):
        ray = RaySegment(0.0, 0.001, "outbound")
        decay = DecayModel(1.0, 1.0, 1.0)
        res = integrate_path(lambda t, log_t: np.exp(-t), IntegrationPath((ray,)), decay)
        assert res.converged
        assert res.value == pytest.approx(math.exp(-0.001), rel=1e-10)
        assert res.truncation_radius > 0

    def test_gaussian(self):
        ray = RaySegment(0.0, 1e-12, "outbound")
        decay = DecayModel(1.0, 1.0, 2.0)
        res = integrate_path(lambda t, log_t: np.exp(-t * t), IntegrationPath((ray,)), decay)
        assert res.value == pytest.approx(SQRT_PI_HALF, rel=1e-10)

    def test_inbound_negates(self):
        decay = DecayModel(1.0, 1.0, 2.0)
        out = integrate_path(lambda t, log_t: np.exp(-t * t),
                             IntegrationPath((RaySegment(0.0, 1e-12, "outbound"),)), decay)
        inb = integrate_path(lambda t, log_t: np.exp(-t * t),
                             IntegrationPath((RaySegment(0.0, 1e-12, "inbound"),)), decay)
        assert inb.value == pytest.approx(-out.value, abs=1e-14)

    def test_tail_soundness(self):
        # the cut-off tail is the larger part of the true error; the reported
        # estimate must still cover it
        res = integrate_path(lambda t, log_t: np.exp(-t),
                             IntegrationPath((RaySegment(0.0, 0.001, "outbound"),)),
                             DecayModel(1.0, 1.0, 1.0))
        assert abs(res.value - math.exp(-0.001)) <= res.error_estimate

    def test_finite_ray_needs_no_decay(self):
        res = integrate_path(lambda t, log_t: np.exp(-t),
                             IntegrationPath((RaySegment(0.0, 1.0, "outbound", end_radius=3.0),)))
        assert res.value == pytest.approx(math.exp(-1) - math.exp(-3), rel=1e-12)
        assert res.truncation_radius == 0.0

    def test_finite_ray_never_asks_for_decay(self):
        # a model that would refuse must not abort a path that needs none
        def refusing(ray):
            return DecayModel(0.0, 1.0, 1.0)

        res = integrate_path(lambda t, log_t: t * 0 + 1,
                             IntegrationPath((RaySegment(0.0, 1.0, "outbound", 2.0),)),
                             decay=refusing)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.converged

    def test_infinite_ray_requires_decay(self):
        with pytest.raises(ValueError, match="decay"):
            integrate_path(lambda t, log_t: np.exp(-t), IntegrationPath((RaySegment(0.0, 1.0),)))

    def test_converged_estimate_within_tolerance(self):
        cfg = QuadratureConfig()
        res = integrate_path(lambda t, log_t: np.exp(-t),
                             IntegrationPath((RaySegment(0.0, 0.5, "outbound"),)),
                             DecayModel(1.0, 1.0, 1.0), cfg)
        assert res.converged
        assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


class TestQuadratureConfig:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-10])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        with pytest.raises(PreconditionError, match="finite and positive"):
            QuadratureConfig(**{field: value})


class TestDecayModel:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            DecayModel(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            DecayModel(1.0, 1.0, -1.0)

    def test_bad_bound_is_precondition_error(self):
        # an amplitude that underflowed to 0 bounds nothing
        with pytest.raises(PreconditionError, match="DecayModel requires"):
            DecayModel(0.0, 1.0, 1.0)
        with pytest.raises(PreconditionError, match="with_power_growth requires"):
            DecayModel.with_power_growth(0.0, -1.0, 1.0, 1.0)

    def test_power_growth_overflow_is_named(self):
        # u0**m at u0 = 1e-300 and at an underflowed u0 = 0, the peak e^1622
        # of u**300.5 e**(-u/2), and B itself overflow a double: refused,
        # never a clamped or an inf bound
        for args in ((1.0, -2.0, 1.0, 1e-300), (1.0, -2.0, 1.0, 0.0), (1.0, 300.5, 1.0, 1.0),
                     (math.inf, -1.0, 1.0, 1.0), (math.inf, -1e3, 1.0, 1e3)):
            with pytest.raises(PreconditionError, match="a ray bound overflows a double"):
                DecayModel.with_power_growth(*args)

    def test_power_growth_peak_overflow_is_named(self):
        # u* = m / c_eff overflows: m log u* - c_eff u* would be inf - inf
        with pytest.raises(PreconditionError, match="peak radius, but .* overflows a double"):
            DecayModel.with_power_growth(1.0, 1e300, 1e-10, 1.0)

    @pytest.mark.parametrize("poly_power, start", [(-100.0, 1e5), (1.0, 1e3)])
    def test_power_growth_underflow_is_named(self, poly_power, start):
        # B u0**m, or B times the peak of u**m e**(-c_eff u), underflows to 0
        with pytest.raises(PreconditionError, match="amplitude, but .* underflows to 0"):
            DecayModel.with_power_growth(1e-300, poly_power, 1.0, start)

    def test_power_growth_fold_is_a_bound(self):
        model = DecayModel.with_power_growth(2.0, 3.5, 1.0, 0.5)
        for u in np.linspace(0.5, 60.0, 200):
            assert 2.0 * u**3.5 * math.exp(-u) <= model.bound(u) * (1 + 1e-12)

    @given(log_b=st.floats(-300.0, 300.0), m=st.floats(-60.0, 60.0),
           log_c=st.floats(-3.0, 3.0), log_u0=st.floats(-8.0, 8.0))
    @settings(max_examples=300, deadline=None)
    def test_power_growth_amplitude_is_never_below_the_peak(self, log_b, m, log_c, log_u0):
        # A e**(-c_eff u) >= B u**m e**(-c u) for u >= u0: in logs, ln A is at
        # least ln B + max over u >= u0 of m ln u - (c - c_eff) u, which is
        # m ln u0 for m <= 0 and at u* = max(m / c_eff, u0) for m > 0.  A
        # fold that cannot keep that in a double is refused by name.
        b, c, u0 = 10.0 ** log_b, 10.0 ** log_c, 10.0 ** log_u0
        if m <= 0:
            log_peak = m * math.log(u0)
        else:
            u_star = max(2.0 * m / c, u0)
            log_peak = m * math.log(u_star) - 0.5 * c * u_star
        least = math.log(b) + log_peak
        try:
            model = DecayModel.with_power_growth(b, m, c, u0)
        except PreconditionError as refused:
            assert re.search("overflows a double|underflows to 0", str(refused))
            return
        assert math.log(model.amplitude) >= least

    def test_power_decay_keeps_rate(self):
        model = DecayModel.with_power_growth(1.0, -2.0, 1.5, 2.0)
        assert model.rate == 1.5

    @pytest.mark.parametrize("p", [0.6, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("amplitude, rate, r0", [(1.0, 1.0, 1.0), (3.0, 0.5, 2.0),
                                                     (1e3, 2.0, 0.1)])
    def test_tail_bound_covers_true_tail(self, p, amplitude, rate, r0):
        # the bound's tail in u = r**p, the integral of A e^(-c u) over
        # [R**p, inf), is A e^(-c R**p) / c
        mpmath = pytest.importorskip("mpmath")
        decay = DecayModel(amplitude, rate, p)
        r = truncation_radius(decay, r0)
        with mpmath.workdps(30):
            tail = amplitude / mpmath.mpf(rate) * mpmath.exp(-rate * mpmath.mpf(r) ** p)
        # the bound is the tail itself, up to rounding
        assert decay.tail_bound(r) >= tail * (1 - 1e-13)
        assert decay.tail_bound(r) <= 1.02 * tail


class TestTruncationRadius:
    CFG = QuadratureConfig()

    def log_tail(self, decay, r):
        # log of DecayModel.tail_bound, which under- or overflows at the
        # amplitudes below
        return math.log(decay.amplitude) - decay.rate * r ** decay.exponent - math.log(decay.rate)

    @pytest.mark.parametrize("p", [1.0, 0.6, 0.75, 1.5, 2.0, 4.0])
    def test_bound_meets_target_at_smallest_radius(self, p):
        log_target = math.log(self.CFG.abs_tol / 10.0)
        for amplitude in (1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300):
            for rate in (1e-6, 1e-3, 1.0, 1e3):
                for r0 in (1e-3, 1.0, 1e3):
                    decay = DecayModel(amplitude, rate, p)
                    r = truncation_radius(decay, r0, self.CFG)
                    for beyond in (r, 2.0 * r, 10.0 * r):
                        assert self.log_tail(decay, beyond) <= log_target + 1e-9
                    if r > 1.5 * r0 + 1.0:
                        assert self.log_tail(decay, r * (1.0 - 1e-9)) > log_target

    @pytest.mark.parametrize("p", [1.0, 0.6, 2.0])
    def test_floor(self, p):
        # a bound already below target at the arc: the ray still runs to 1.5 r0 + 1
        assert truncation_radius(DecayModel(1e-300, 1.0, p), 5.0, self.CFG) == 8.5

    @pytest.mark.parametrize("decay", [DecayModel(1.0, 1e-300, 1.0),
                                       DecayModel(1.0, 1e-6, 0.1),
                                       DecayModel(math.inf, 1.0, 2.0)])
    def test_decay_too_weak(self, decay):
        with pytest.raises(IntegrandError, match="too weak"):
            truncation_radius(decay, 1.0, self.CFG)


class TestPath:
    def closed_contour(self, delta2_plus_psi=2.5, big_r=10.0, eps=0.5):
        # closed finite loop: radial piece out at angle a, arc to pi at radius
        # R, radial piece back at angle pi, arc back down to a at radius eps
        a = delta2_plus_psi
        return IntegrationPath((
            RaySegment(a, eps, "outbound", end_radius=big_r),
            ArcSegment(big_r, a, PI),
            RaySegment(PI, eps, "inbound", end_radius=big_r),
            ArcSegment(eps, PI, a),
        ))

    def test_cauchy_nullity(self):
        # e^t t^{s-1} is analytic inside the closed loop, so the integral
        # vanishes; this is the engine's closed-contour test at s = 0.7
        s = 0.7

        def f(t, log_t):
            return np.exp(t + (s - 1.0) * log_t)

        res = integrate_path(f, self.closed_contour())
        assert res.converged
        assert abs(res.value) < 1e-8

    def test_degenerate_hankel_residue(self):
        # 1/zeta on rays at -pi and +pi takes equal values, so the finite ray
        # pieces cancel and the full-circle residue 2 pi i remains
        path = IntegrationPath((
            RaySegment(-PI, 1.0, "inbound", end_radius=30.0),
            ArcSegment(1.0, -PI, PI),
            RaySegment(PI, 1.0, "outbound", end_radius=30.0),
        ))
        res = integrate_path(lambda t, log_t: 1.0 / t, path)
        assert res.value == pytest.approx(2j * PI, abs=1e-10)

    def test_hankel_loop_exp_over_t(self):
        # e^t / t over the classical loop: 2 pi i times 1/Gamma(1) = 2 pi i
        path = IntegrationPath((
            RaySegment(-PI, 1.0, "inbound"),
            ArcSegment(1.0, -PI, PI),
            RaySegment(PI, 1.0, "outbound"),
        ))

        def f(t, log_t):
            return np.exp(t - log_t)

        res = integrate_path(f, path, decay=DecayModel(3.0, 1.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(2j * PI, rel=1e-10)

    def test_orientation_antisymmetry(self):
        path = IntegrationPath((
            RaySegment(0.7, 0.5, "outbound", end_radius=4.0),
            ArcSegment(4.0, 0.7, 2.0),
        ))

        def f(t, log_t):
            return np.exp(1j * t)

        fwd = integrate_path(f, path)
        rev = integrate_path(f, IntegrationPath((
            ArcSegment(4.0, 2.0, 0.7),
            RaySegment(0.7, 0.5, "inbound", end_radius=4.0),
        )))
        assert rev.value == pytest.approx(-fwd.value, rel=1e-12)

    def test_per_ray_decay_mapping(self):
        path = IntegrationPath((
            RaySegment(-2.0, 1.0, "inbound"),
            ArcSegment(1.0, -2.0, 2.0),
            RaySegment(2.0, 1.0, "outbound"),
        ))

        def f(t, log_t):
            return np.exp(t)

        res = integrate_path(
            f, path,
            decay=lambda ray: DecayModel(1.0, abs(math.cos(ray.angle)), 1.0))
        # closed-loop value of an entire function: rays + arc telescope to 0
        assert abs(res.value) < 1e-10

    def test_panels_accumulate(self):
        path = IntegrationPath((ArcSegment(1.0, -PI, PI),))
        res = integrate_path(lambda t, log_t: 1.0 / t, path)
        assert res.panels_used >= 8

    def test_converges_on_the_sum_not_on_each_segment(self):
        # the two rays cancel exactly: each meets its own tolerance, 1.8e-13
        # against 1e-10 times 0.29, but their summed estimate, 3.7e-13, is
        # above abs_tol, the tolerance on their sum of 0
        def f(t, log_t):
            return 1.0 / (1.0 + 100.0 * (t - 2.0) ** 2)

        out = RaySegment(0.0, 1.0, "outbound", end_radius=3.0)
        back = RaySegment(0.0, 1.0, "inbound", end_radius=3.0)
        for ray in (out, back):
            assert integrate_path(f, IntegrationPath((ray,))).converged
        res = integrate_path(f, IntegrationPath((out, back)))
        assert res.value == 0.0
        assert QuadratureConfig().abs_tol < res.error_estimate
        assert not res.converged

    def test_non_convergence_reported(self):
        # a pole 1e-5 off the arc: doubling stalls on the near-singular panels
        res = integrate_path(lambda t, log_t: 1.0 / (t - 0.99999),
                             IntegrationPath((ArcSegment(1.0, -PI, PI),)))
        assert not res.converged
        assert res.panels_used == 128


class TestRounds:
    """integrate_path evaluates one refinement level of every open segment
    per integrand call, with the bits of segment-by-segment integration."""

    PATH = IntegrationPath((
        RaySegment(-PI, 1.0, "inbound"),
        ArcSegment(1.0, -PI, PI),
        RaySegment(PI, 1.0, "outbound"),
    ))
    DECAY = DecayModel(30.0, 1.0, 1.0)

    @staticmethod
    def counted(f):
        sizes = []

        def g(t, log_t):
            assert t.ndim == 1 and log_t.shape == t.shape
            sizes.append(t.size)
            return f(t, log_t)

        return g, sizes

    @staticmethod
    def integrand(t, log_t):
        # a pole 0.02 off the arc and an e^t decay along the rays: the arc
        # needs more levels than the rays
        return np.exp(t) / (t - 0.98)

    def one_segment(self, seg):
        g, sizes = self.counted(self.integrand)
        return integrate_path(g, IntegrationPath((seg,)), self.DECAY), sizes

    def test_one_integrand_call_per_level(self):
        singles = [self.one_segment(seg) for seg in self.PATH.segments]
        # a one-segment call takes levels 0 and 1 in its first call, then one
        # level per call: level k has 2**k times the nodes of level 0
        levels, level0 = [], []
        for _, sizes in singles:
            n0 = sizes[0] // 3
            assert sizes == [3 * n0] + [n0 * 2 ** (j + 1) for j in range(1, len(sizes))]
            levels.append(len(sizes))
            level0.append(n0)
        assert max(levels) >= 3 and min(levels) < max(levels)

        g, sizes = self.counted(self.integrand)
        integrate_path(g, self.PATH, self.DECAY)
        assert len(sizes) == max(levels)
        assert sizes[0] == 3 * sum(level0)
        for j in range(1, len(sizes)):
            assert sizes[j] == sum(n0 * 2 ** (j + 1)
                                   for n0, k in zip(level0, levels) if k > j)

    def test_path_is_sum_of_segments_bit_for_bit(self):
        path = integrate_path(self.integrand, self.PATH, self.DECAY)
        value, err, panels = 0j, 0.0, 0
        for seg in self.PATH.segments:
            res, _ = self.one_segment(seg)
            value += res.value
            err += res.error_estimate
            panels += res.panels_used
        assert (path.value, path.error_estimate, path.panels_used) == (value, err, panels)

    def test_a_round_is_one_call_at_any_size(self):
        # both arcs refine to 16,384 panels; past 16,384 nodes a round still
        # takes both arcs' levels in one call
        path = IntegrationPath((ArcSegment(1.0, 0.0, PI), ArcSegment(1.0, PI, 2 * PI)))
        g, sizes = self.counted(lambda t, log_t: (0.3 + 1.7j) * np.sqrt(t - 1.0))
        res = integrate_path(g, path, cfg=QuadratureConfig(rel_tol=1e-12))
        assert res.panels_used == 2 * 16384
        # level k of one arc has 120 * 2**k nodes; round 0 takes levels 0 and 1
        assert sizes == [2 * 120 * 3] + [2 * 120 * 2 ** k for k in range(2, 12)]

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_in_any_segment_raises(self, bad):
        path = IntegrationPath((
            RaySegment(-2.0, 1.0, "inbound"),
            ArcSegment(1.0, -2.0, 2.0),
            RaySegment(2.0, 1.0, "outbound"),
        ))
        # Gauss nodes are interior: only arc nodes have modulus 1 (log 0),
        # only ray nodes sit at angle -2 or 2
        where = [lambda log_t: log_t.imag == -2.0, lambda log_t: log_t.real == 0.0,
                 lambda log_t: log_t.imag == 2.0][bad]

        def f(t, log_t):
            return np.where(where(log_t), np.nan, np.exp(t))

        with pytest.raises(IntegrandError, match="not finite"):
            integrate_path(f, path, decay=lambda ray: DecayModel(3.0, abs(math.cos(ray.angle)), 1.0))


# --------------------------------------------------------------------------
# Reference for a quadrature round: the per-job layout that _layout and
# _round_sums replaced, kept as it was apart from the Jacobian, which the
# engine now takes from each node's phase (``_reference_jacobian`` is the
# former body of _Segment's), and the integrand's arguments, which it builds
# with the formulas the integrands used before they took t and log t from
# the engine.
# --------------------------------------------------------------------------

_GAUSS_ORDER = 15
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_REFERENCE_STEPS: dict[int, np.ndarray] = {}


def _reference_subdivide(base: np.ndarray, parts: int) -> np.ndarray:
    """Split every interval of `base` into `parts` equal pieces."""
    if parts == 1:
        return base
    steps = _REFERENCE_STEPS.get(parts)
    if steps is None:
        steps = _REFERENCE_STEPS[parts] = np.linspace(0.0, 1.0, parts + 1)[1:]
    inner = base[:-1, None] + np.diff(base)[:, None] * steps[None, :]
    return np.concatenate(([base[0]], inner.ravel()))


def _reference_jacobian(seg, angles: np.ndarray) -> complex | np.ndarray:
    """d zeta per unit of the panel coordinate: e^{i angle} on a ray,
    i R e^{i phi} on an arc."""
    if seg.radial:
        return complex(math.cos(seg.fixed), math.sin(seg.fixed))
    return 1j * seg.fixed * np.exp(1j * angles)


def _reference_level_sums(f, jobs) -> list[complex]:
    """The composite Gauss-Legendre sum of each (segment, level) job, from
    one integrand call over the nodes of all of them, in job order."""
    levels = []  # (segment, panel midpoints, panel half-widths)
    for seg, k in jobs:
        bounds = _reference_subdivide(seg.base, 2 ** k)
        levels.append((seg, 0.5 * (bounds[1:] + bounds[:-1]), 0.5 * (bounds[1:] - bounds[:-1])))
    n = sum(len(mid) for _, mid, _ in levels) * _GAUSS_ORDER
    mods = np.empty(n)
    angs = np.empty(n)
    spans = []
    at = 0
    for seg, mid, half in levels:
        stop = at + len(mid) * _GAUSS_ORDER
        nodes, fixed = (mods, angs) if seg.radial else (angs, mods)
        np.add(mid[:, None], half[:, None] * _NODES, out=nodes[at:stop].reshape(-1, _GAUSS_ORDER))
        fixed[at:stop] = seg.fixed
        spans.append((at, stop))
        at = stop
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f(mods * np.exp(1j * angs), np.log(mods) + 1j * angs), dtype=complex)
        for (seg, _, _), (at, stop) in zip(levels, spans):
            v = vals[at:stop]
            np.multiply(v, _reference_jacobian(seg, angs[at:stop]), out=v)
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("integrand not finite")
    rows = (vals.reshape(-1, _GAUSS_ORDER) * _WEIGHTS).sum(axis=1)
    return [complex(np.sum(rows[at // _GAUSS_ORDER:stop // _GAUSS_ORDER] * half))
            for (_, _, half), (at, stop) in zip(levels, spans)]


def _reference_graded_boundaries(r0: float, r1: float) -> np.ndarray:
    span = r1 - r0
    n = max(8, math.ceil(math.log2(min(span / r0, 2.0 ** 53) + 1.0)) + 1)
    j = np.arange(n + 1, dtype=float)
    return r0 + span * np.expm1(j * math.log(2.0)) / (2.0 ** n - 1.0)


def _bits(values) -> list[tuple[str, str]]:
    """Exact bits of complex values, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestGaussRule:
    def test_table_is_leggauss_bit_for_bit(self):
        # the engine's literal table against numpy's own rule, signed zeros
        # included (np.array_equal would let -0.0 pass for 0.0)
        for table, ref in ((quadrature._NODES, _NODES), (quadrature._WEIGHTS, _WEIGHTS)):
            assert table.dtype == ref.dtype and table.shape == ref.shape
            assert table.tobytes() == ref.tobytes()


class TestRoundReference:
    """_layout and _round_sums lay a round out and sum it with one set of
    array operations; its sums must have the bits of the per-job reference
    above."""

    @staticmethod
    def integrand(t, log_t):
        # smooth, complex, and different on every node
        return np.exp((0.3 - 0.7j) * t - 0.05 * np.abs(t)) * (1.5 + np.cos(3 * log_t.imag))

    @staticmethod
    def segment(rng):
        if rng.random() < 0.5:
            start, end = rng.uniform(-7.0, 7.0, 2)  # descending about half the time
            return quadrature._Segment(False, float(rng.uniform(0.1, 5.0)), start, end, 0.0)
        r0 = float(rng.uniform(0.0, 3.0))
        r1 = r0 + float(10.0 ** rng.uniform(-2.0, 3.0))
        return quadrature._Segment(True, float(rng.uniform(-7.0, 7.0)), r0, r1, 0.0)

    def assert_same(self, jobs):
        expected = _reference_level_sums(self.integrand, jobs)
        assert _bits(quadrature._round_sums(self.integrand, quadrature._layout(jobs))) == _bits(expected)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rounds(self, seed):
        rng = np.random.default_rng(seed)
        segments = [self.segment(rng) for _ in range(rng.integers(1, 6))]
        jobs = [(seg, int(k)) for seg in segments for k in rng.integers(0, 7, rng.integers(1, 3))]
        self.assert_same(jobs)

    @pytest.mark.parametrize("k", range(7))
    def test_single_job_rounds(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(4):
            self.assert_same([(self.segment(rng), k)])

    def test_rounds_above_16384_nodes(self):
        rng = np.random.default_rng(7)
        arc = quadrature._Segment(False, 1.3, 2.5, -3.0, 0.0)
        ray = quadrature._Segment(True, 2.5, 1.3, 60.0, 0.0)
        # 30,720 and 3,840 nodes; then 16,384 arc panels, where numpy may
        # reuse temporaries of 256 KiB or more in place
        self.assert_same([(arc, 8), (ray, 5), (self.segment(rng), 3)])
        self.assert_same([(ray, 0), (arc, 11)])

    def test_small_rounds_share_one_read_only_plan(self):
        # rounds of one shape of jobs share a plan, which no round may write;
        # a round past _PLAN_PANELS panels builds its own and keeps none
        quadrature._round_plan.cache_clear()
        arc = quadrature._Segment(False, 1.3, 2.5, -3.0, 0.0)
        ray = quadrature._Segment(True, 2.5, 1.3, 60.0, 0.0)
        for _ in range(2):
            self.assert_same([(arc, 0), (ray, 0), (arc, 1), (ray, 1)])
        info = quadrature._round_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        plan = quadrature._round_plan(((False, 8, 0), (True, ray.panels, 0),
                                       (False, 8, 1), (True, ray.panels, 1)))
        arrays = [a for a in plan if isinstance(a, np.ndarray)]
        arrays += [rows for _, rows in plan[-1]]
        assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)
        self.assert_same([(arc, 6), (ray, 1)])  # 8 << 6 = 512 arc panels
        assert quadrature._round_plan.cache_info().currsize == 1

    def test_arc_boundaries_are_linspace(self):
        rng = np.random.default_rng(11)
        spans = [(0.0, 0.0), (-math.pi, math.pi), (2.0, -1.0), (1e-300, 3e-300)]
        spans += [tuple(rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.uniform(-6, 2))
                  for _ in range(2000)]
        for start, end in spans:
            expected = np.linspace(start, end, 9)
            assert _bits(quadrature._arc_boundaries(start, end)) == _bits(expected)

    def test_graded_boundaries_match_arange_expm1(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            # RaySegment refuses a start radius <= 0
            r0 = float(rng.choice([1e-300, 5e-324, rng.uniform(0.0, 1.0),
                                   10.0 ** rng.uniform(-3, 3)]))
            r1 = r0 + float(10.0 ** rng.uniform(-3, 15))
            expected = _reference_graded_boundaries(r0, r1)
            assert _bits(quadrature._graded_boundaries(r0, r1)) == _bits(expected)


class TestGolden:
    """Results of the four loop routes on the adaptive engine, recorded
    before integrate_path evaluated whole paths per call (the two at s = 2
    +- 10i before a round was laid out at once, the zeta and Bateman loops
    as noted); they must not move by one bit.  The gamma cases pass the
    unit loop's spec, since the default loop is now integrated on fixed
    nodes (``TestGoldenFixedRule``); at s = 2 +- 10i, where that route
    raises, they pin its raw integral."""

    CASES = [
        (lambda: adaptive_gamma(3.0).diagnostics,
         "QuadratureResult(value=(0.4999999999999999-4.417437057588218e-18j), "
         "error_estimate=4.391057408867938e-16, truncation_radius=35.23192357547063, "
         "panels_used=48, converged=True)"),
        (lambda: adaptive_gamma(-4.5 + 2j).diagnostics,
         "QuadratureResult(value=(2997.9442295517097-395.2814040096516j), "
         "error_estimate=5.923715163973065e-13, truncation_radius=95.1915333224463, "
         "panels_used=48, converged=True)"),
        (lambda: adaptive_gamma(0.5 + 5j).diagnostics,
         "QuadratureResult(value=(-1023.8611659975194-88.32141731490782j), "
         "error_estimate=3.3025092661634144e-11, truncation_radius=50.93988684341959, "
         "panels_used=48, converged=True)"),
        # the D1/D2 knife edge: against mpmath, 2 + 10i has a relative error of
        # 1.023e-8, 2 - 10i 9.78e-9.  Each segment meets its own tolerance,
        # but the summed estimate, 6.2e-3, is above 1e-10 times the summed
        # value, 5.2e-5, so the path is not converged and the route raises:
        # the raw integral is pinned
        (lambda: unit_loop_integral(2 + 10j),
         "QuadratureResult(value=(220043.1900024414-474868.3098144531j), "
         "error_estimate=0.0061975500017438226, truncation_radius=66.64785011136857, "
         "panels_used=48, converged=False)"),
        (lambda: unit_loop_integral(2 - 10j),
         "QuadratureResult(value=(-220043.1900024414-474868.31005859375j), "
         "error_estimate=0.0061975500017438226, truncation_radius=66.64785011136857, "
         "panels_used=48, converged=False)"),
        # the zeta and Bateman loops, re-recorded when both began to integrate
        # the one loop kernel in s = tau^rho under its one ray bound.  The
        # arc at tau-plane radius 1, inside the pole; test_inner_arc_case
        # checks the value against mpmath
        (lambda: ml_contour(MLParams(2.0, 1.0), PolarComplex(4.0, PI)).diagnostics,
         "QuadratureResult(value=(0.13699945762506138+1.0491413011772018e-17j), "
         "error_estimate=3.27212736718042e-16, truncation_radius=35.23192357547063, "
         "panels_used=48, converged=True)"),
        # against mpmath 9.3e-14 off, past its estimate: the arc integrand
        # peaks at e^8, and the estimate has no rounding floor (F8)
        (lambda: ml_contour(MLParams(1.5, 0.5), PolarComplex(2.0, 2.8)).diagnostics,
         "QuadratureResult(value=(-0.011178968288125368+0.02183239249898644j), "
         "error_estimate=6.756435133672463e-14, truncation_radius=39.55306859708818, "
         "panels_used=48, converged=True)"),
        (lambda: ml_bateman(MLParams(1.0, 1.0), PolarComplex(1.0, PI / 2)).diagnostics,
         "QuadratureResult(value=(0.5403023058681399+0.8414709848078965j), "
         "error_estimate=4.636990942628303e-16, truncation_radius=34.538776394910684, "
         "panels_used=48, converged=True)"),
        # re-recorded when its ray bound moved to u = r^rho; 7.4e-14 from mpmath
        (lambda: ml_dzhrbashyan(MLParams(2.0, 1 + 0.5j), PolarComplex(2.0, 1.0)).diagnostics,
         "QuadratureResult(value=(-1.6959993437340763+0.2586218348443783j), "
         "error_estimate=1.1598483650870574e-13, truncation_radius=7.031908971294628, "
         "panels_used=48, converged=True)"),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_exact_repr(self, case):
        compute, expected = self.CASES[case]
        assert repr(compute()) == expected

    def test_exact_repr_in_any_order(self):
        # no result depends on the calls made before it in the process
        order = list(range(len(self.CASES)))
        rng = np.random.default_rng(27)
        for _ in range(2):
            rng.shuffle(order)
            for case in order:
                compute, expected = self.CASES[case]
                assert repr(compute()) == expected, case

    def test_inner_arc_case(self):
        # E(2, 1; -4) = e^16 erfc(4)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.exp(16) * mpmath.erfc(4))
        value = ml_contour(MLParams(2.0, 1.0), PolarComplex(4.0, PI)).value
        assert abs(value - ref) <= 2e-15 * ref


class TestLargeRound:
    """s = -11 + 20i converges on 1,184 panels, after a round of 17,280
    nodes.  Recorded when the engine began passing t and log t: before, the
    gamma integrand formed s * (log |t| + i angle), and on arrays of 256 KiB
    or more numpy reused the temporary in place with the operands swapped,
    which read 2,336 panels here."""

    def test_exact_repr(self):
        assert repr(adaptive_gamma(-11 + 20j).diagnostics) == (
            "QuadratureResult(value=(2.839591908408663e+28+4.0627064423475915e+27j), "
            "error_estimate=2.72318932301511e+18, truncation_radius=243.51678162953584, "
            "panels_used=1184, converged=True)")


class TestPhase:
    """The engine builds each node's phase e^{i angle} from math.cos and
    math.sin on a ray and from np.cos and np.sin on an arc; the integrands
    and the Jacobian used to take it from np.exp(1j * angle).  Where these
    differ by one bit every result may move, so this fails before
    TestGolden does."""

    ANGLES = np.random.default_rng(13).uniform(-1.0, 1.0, 400_000) * np.repeat([1e4, 7.0], 200_000)

    def test_np_cos_sin_are_the_parts_of_exp(self):
        phase = np.exp(1j * self.ANGLES)
        assert np.cos(self.ANGLES).tobytes() == phase.real.tobytes()
        assert np.sin(self.ANGLES).tobytes() == phase.imag.tobytes()

    def test_math_cos_sin_are_the_parts_of_exp(self):
        angles = self.ANGLES[::100]
        expected = _bits(np.exp(1j * angles))
        assert _bits(complex(math.cos(a), math.sin(a)) for a in angles.tolist()) == expected


class TestIntegrandContract:
    """What integrate_path promises an integrand: an output it may return as
    t itself, and results that depend on no earlier call, in one thread or
    many. TestRoundMemo checks that t and log t are read-only."""

    def test_signed_zero_angles_give_different_values(self):
        # the sign of the zero angle reaches the integrand through log t
        def f(t, log_t):
            return np.exp(-t) * (2.0 + np.copysign(1.0, log_t.imag))

        paths = [IntegrationPath((RaySegment(angle, 1.0, "outbound", 3.0),)) for angle in (0.0, -0.0)]
        first = [integrate_path(f, path) for path in paths]
        assert first[0].value != first[1].value
        for _ in range(3):
            for path, expected in zip(paths, first):
                assert integrate_path(f, path) == expected

    def test_an_integrand_returning_t_is_copied(self):
        path = IntegrationPath((ArcSegment(2.0, 0.0, PI / 2),
                                RaySegment(PI / 2, 1.0, "inbound", end_radius=2.0)))

        def g(t, log_t):
            return np.exp(-t)

        expected = integrate_path(lambda t, log_t: t, path)
        expected_g = integrate_path(g, path)
        for _ in range(3):
            assert integrate_path(lambda t, log_t: t, path) == expected
        assert integrate_path(g, path) == expected_g

    def test_threads_get_the_bits_of_serial_calls(self):
        # more threads than cores, switching often, over one shared grid
        points = [complex(a, b) for a in (0.0, 1.0, 2.0) for b in range(-6, 7, 2)]
        expected = [repr(adaptive_gamma(s)) for s in points]
        mismatches, errors = [], []

        def worker(order):
            try:
                for k in order:
                    if repr(adaptive_gamma(points[k])) != expected[k]:
                        mismatches.append(points[k])
            except Exception as exc:  # reported below, with the thread's failure
                errors.append(exc)

        rng = np.random.default_rng(5)
        threads = [threading.Thread(target=worker, args=(rng.permutation(len(points) * 3) % len(points),))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert mismatches == []


class TestRoundMemo:
    """integrate_path once reused round 0 of a path geometry seen twice, and
    kept its arrays read-only. The memo is gone; what it promised an integrand
    still holds: every t and log t it is handed is read-only from the first
    call, so a write fails whatever geometries came before."""

    def test_kept_arrays_are_read_only(self):
        path = IntegrationPath((ArcSegment(1.0, -PI, PI),))
        seen = []

        def records(t, log_t):
            seen.extend((t, log_t))
            return 1.0 / t

        integrate_path(records, path)
        assert seen
        assert not any(a.flags.writeable for a in seen)

        def writes_t(t, log_t):
            t *= 2.0
            return 1.0 / t

        with pytest.raises(ValueError, match="read-only"):
            integrate_path(writes_t, path)

    def test_a_write_into_t_fails_at_the_first_call(self):
        # t and log t are read-only on every round, so a write fails at every
        # call, on a lone arc and on an arc and a ray alike
        paths = [IntegrationPath((ArcSegment(1.0, -PI, PI),)),
                 IntegrationPath((ArcSegment(2.0, 0.0, PI / 2),
                                  RaySegment(PI / 2, 1.0, "inbound", end_radius=2.0)))]

        def writes_t(t, log_t):
            t *= 2.0
            return 1.0 / t

        def writes_log_t(t, log_t):
            log_t *= 2.0
            return np.exp(log_t)

        for path in paths:
            for f in (writes_t, writes_log_t):
                for _ in range(3):
                    with pytest.raises(ValueError, match="read-only"):
                        integrate_path(f, path)
