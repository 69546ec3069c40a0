"""Every loop route's ray bounds dominate its integrand.

A route truncates each infinite ray where its ``DecayModel`` puts the tail
below the tolerance, so the model must bound |integrand| dr/du on the whole
ray, in the ray's variable u = r**exponent: u = r on the loops in s, u =
r**rho on Dzhrbashyan's tau-loop.  Each route's integrand, path and bounds
are taken from the call it makes to ``integrate_path`` in its own module;
the integrand is then sampled on each ray from its start to its truncation
radius.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcontour import (
    MLParams,
    MlcError,
    PolarComplex,
    PreconditionError,
    QuadratureResult,
    default_ml_deltas,
    ml_arg_window,
    ml_bateman,
    ml_contour,
    ml_dzhrbashyan,
    recip_gamma_contour,
)
from mlcontour import gamma, mittag_leffler, quadrature
from mlcontour.gamma import loop_ray_bound, pole_gap
from mlcontour.geometry import UNIT_LAMBDA, RaySegment, loop_path
from mlcontour.quadrature import truncation_radius

PI = math.pi


def handed_over(module, call):
    """(integrand, path, decay) that ``call`` hands to ``module.integrate_path``,
    or None where the route refuses before integrating.  1/Gamma's default
    route integrates its ``_default_loop`` on fixed nodes, cut where the two
    ray models that loop hands ``truncation_radius`` say; its loop is then
    the classical loop of that arc radius with those models on its rays,
    and a pole, which it answers with an exact 0 unintegrated, gives None."""
    seen = []

    def record(f, path, decay=None, cfg=None):
        seen.append((f, path, decay))
        return QuadratureResult(0j, 0.0, 0.0, 0, True)

    mittag_leffler._zeta_loop.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_path", record)
        if module is gamma:
            default_loop, cut, models = gamma._default_loop, quadrature.truncation_radius, []

            def record_cut(model, start_radius, cfg):
                models.append(model)
                return cut(model, start_radius, cfg)

            def record_loop(s, cfg):
                loop = default_loop(s, cfg)
                path = loop_path(loop.radius, -PI, PI)
                seen.append((gamma.loop_integrand(loop.s), path,
                             dict(zip(path.segments[::2], models)).__getitem__))
                return loop

            mp.setattr(quadrature, "truncation_radius", record_cut)
            mp.setattr(gamma, "_default_loop", record_loop)
        try:
            result = call()
        except MlcError:
            return None
    if not seen:
        assert result.value == 0 and result.diagnostics.panels_used == 0, result
        return None
    return seen[0]


def rays_checked(f, path, decay) -> int:
    """Sample each infinite ray of ``path``, from its start to its
    truncation radius, and compare |f| dr/du with the ray's bound at u =
    r**p.  Returns the number of rays checked."""
    checked = 0
    for ray in path.segments:
        if not (isinstance(ray, RaySegment) and ray.infinite):
            continue
        try:
            model = decay(ray) if callable(decay) else decay
            end = truncation_radius(model, ray.start_radius)
        except MlcError:
            continue
        p = model.exponent
        # Dzhrbashyan's bound is folded from u = max(r0**p, 1): a tail is
        # cut only past 1.5 r0 + 1 > 1
        r0 = ray.start_radius if p == 1.0 else max(ray.start_radius, 1.0)
        r = np.concatenate((r0 * (end / r0) ** np.linspace(0.0, 1.0, 200),
                            np.linspace(r0, end, 200)))
        t = r * complex(math.cos(ray.angle), math.sin(ray.angle))
        log_t = np.log(r) + 1j * ray.angle
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            size = np.abs(f(t, log_t))
            if p != 1.0:
                size *= r ** (1.0 - p) / p  # dr/du
            bound = model.amplitude * np.exp(-model.rate * r ** p)
        # below 1e-300 both sides are underflow noise
        worst = int(np.argmax(size - bound))
        assert size[worst] <= bound[worst] + 1e-300, (ray, r[worst], size[worst], bound[worst])
        checked += 1
    return checked


def in_window(rho, frac):
    lo, hi = ml_arg_window(rho, *default_ml_deltas(rho))
    return lo + frac * (hi - lo)


fracs = st.floats(0.02, 0.98)
mus = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0)


@st.composite
def gamma_calls(draw):
    s = complex(draw(st.floats(-6.0, 12.0)), draw(st.floats(-10.0, 10.0)))
    # lam = 1 is the default loop through the saddle, on fixed nodes
    lam = draw(st.one_of(st.just(UNIT_LAMBDA),
                         st.builds(PolarComplex, st.floats(0.25, 4.0), st.floats(-1.2, 1.2))))
    return gamma, lambda: recip_gamma_contour(s, lam=lam)


@st.composite
def bateman_calls(draw):
    # any mu: complex, and Re mu <= 0, where r^(-Re mu) grows along the ray
    params = MLParams(draw(st.floats(0.3, 4.0)), draw(mus))
    z = PolarComplex(draw(st.floats(0.05, 5.0)), draw(st.floats(-PI, PI)))
    return mittag_leffler, lambda: ml_bateman(params, z)


@st.composite
def contour_calls(draw):
    # |z| up to 1e6: past about 8.5^(1/rho) the arc passes inside the pole
    rho = draw(st.floats(0.55, 4.0))
    params = MLParams(rho, draw(mus))
    z = PolarComplex(10.0 ** draw(st.floats(-1.0, 6.0)), in_window(rho, draw(fracs)))
    return mittag_leffler, lambda: ml_contour(params, z)


@st.composite
def dzhrbashyan_calls(draw):
    rho = draw(st.floats(0.55, 4.0))
    params = MLParams(rho, draw(mus))
    z = PolarComplex(draw(st.floats(0.05, 5.0)), draw(st.floats(-PI, PI)))
    return mittag_leffler, lambda: ml_dzhrbashyan(params, z)


ROUTES = {"gamma": gamma_calls(), "bateman": bateman_calls(),
          "contour": contour_calls(), "dzhrbashyan": dzhrbashyan_calls()}


@pytest.mark.parametrize("route", ROUTES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ray_bounds_dominate_the_integrand(route, data):
    handed = handed_over(*data.draw(ROUTES[route]))
    if handed is not None:
        rays_checked(*handed)


# The edges the property test may not draw: inner arcs at large |z|, a pole
# close to a ray, and z r0^(-1/rho) underflowing to 0.  Each names the least
# pole gap of its two rays.
EDGES = [
    ("inner arc, |z| = 1e15", MLParams(2.0, 1 + 0.5j), PolarComplex(1e15, PI + 0.3), {}),
    ("inner arc, rho = 25", MLParams(25.0, 1.0), PolarComplex(1e15, PI), {}),
    # the zeta ray at delta - pi = -0.031 passes 0.031 from zeta = 1
    ("pole near a ray", MLParams(1.01, 0.5), PolarComplex(3.0, PI),
     {"epsilon_hat": -0.5, "deltas": (PI / 1.01, PI / 1.01)}),
    # 1e-300 * 600**(-10) underflows to 0
    ("underflowed pole", MLParams(0.1, 1.0), PolarComplex(1e-300, 2.0), {"epsilon": 600.0}),
]
LEAST_GAPS = {"inner arc, |z| = 1e15": (0.5, 1.0), "inner arc, rho = 25": (0.5, 1.0),
              "pole near a ray": (0.02, 0.04), "underflowed pole": (1.0, 1.0)}


@pytest.mark.parametrize("name, params, z, options", EDGES, ids=[e[0] for e in EDGES])
def test_ray_bounds_at_the_edges(name, params, z, options):
    route = ml_bateman if "epsilon" in options else ml_contour
    f, path, decay = handed_over(mittag_leffler, lambda: route(params, z, **options))
    assert rays_checked(f, path, decay) == 2
    least = min(pole_gap(ray.angle, ray.start_radius, 1.0 / params.rho, z)
                for ray in path.segments[::2])
    lo, hi = LEAST_GAPS[name]
    assert lo <= least <= hi


@pytest.mark.parametrize("mu", [1.5, 2.0 + 0.5j])
def test_dzhrbashyan_bound_carries_dr_du(mu):
    # at rho = 0.6, dr/du = u^(2/3) / 0.6 grows along the ray: a bound on |f|
    # alone, B u^(1 - Re mu), falls below |f| dr/du here
    f, path, decay = handed_over(mittag_leffler,
                                 lambda: ml_dzhrbashyan(MLParams(0.6, mu), PolarComplex(2.5, 3.0)))
    assert rays_checked(f, path, decay) == 2


def test_dzhrbashyan_bound_at_a_tiny_arc():
    # epsilon^rho = 1e-360 underflows to 0: the bound is folded from u = 1
    f, path, decay = handed_over(mittag_leffler,
                                 lambda: ml_dzhrbashyan(MLParams(4.0, 1.0), PolarComplex(1.0, PI),
                                                        epsilon=1e-90))
    assert rays_checked(f, path, decay) == 2


class TestPoleGap:
    RAY = (0.5, 600.0)  # angle, start radius

    def test_is_one_without_a_pole(self):
        assert pole_gap(*self.RAY, 1.0, PolarComplex(0.0, 0.0)) == 1.0

    def test_is_one_where_the_pole_term_underflows(self):
        # 1e-300 * 600**(-10) underflows to 0
        assert pole_gap(*self.RAY, 10.0, PolarComplex(1e-300, 5.0)) == 1.0

    def test_ray_through_the_pole_is_refused(self):
        # z t^(-1) sweeps (0, 2] along the positive axis, through 1
        assert pole_gap(0.0, 1.0, 1.0, PolarComplex(2.0, 0.0)) == 0.0
        with pytest.raises(PreconditionError, match="meets the pole"):
            loop_ray_bound(0.0, 1.0, 1.0, z=PolarComplex(2.0, 0.0))
