"""Complex line integrals along ray/arc paths.

The engine integrates vectorized integrands ``f(modulus, angle) -> complex``
where both arguments are numpy arrays of equal shape.  Passing polar
coordinates instead of complex points is deliberate: branch-sensitive powers
must be computed from the unwrapped angle the path carries, which a complex
point cannot encode.

Each segment is integrated with composite fixed-order Gauss-Legendre panels.
Refinement doubles the panel count; the error estimate is the difference
between the last two refinement levels; each segment is held to the
tolerances on its own.  Infinite rays are cut where the caller's analytic
decay bound puts the tail below abs_tol / 10, a radius ``truncation_radius``
solves for directly, and the tail bound is folded into the error estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import IntegrandError
from .geometry import ArcSegment, IntegrationPath, RaySegment

_GAUSS_ORDER = 15
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)

# First-level panels per arc (fewest per ray): resolve a smooth segment at once.
_INITIAL_PANELS = 8
# The truncated tail may take a tenth of abs_tol; the panels keep the rest.
_TAIL_SAFETY = 10.0
# Refinement stops here, bounding the cost of a segment that cannot converge.
_MAX_PANELS = 16384
# with_power_growth's folded amplitude keeps twice the worst case, for slack.
_POWER_GROWTH_SAFETY = 2.0

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances, applied per segment: a segment converges when its error
    estimate is at most max(abs_tol, rel_tol * |segment value|).  A path is
    ``converged`` when all its segments are; the summed error is not yet
    checked against the summed value (defect D1 in ROADMAP.md)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class DecayModel:
    """Asserts |f(r e^{i theta})| <= amplitude * exp(-rate * r**exponent).

    The bound licenses truncating an infinite ray: the remaining tail beyond
    radius R is at most amplitude * exp(-rate*R**p) / (rate*p*R**(p-1)).
    """

    amplitude: float
    rate: float
    exponent: float

    def __post_init__(self):
        if not (self.rate > 0 and self.exponent > 0 and self.amplitude > 0):
            raise ValueError("DecayModel requires positive amplitude, rate, exponent")

    @classmethod
    def with_power_growth(cls, base_amplitude: float, poly_power: float,
                          rate: float, exponent: float, start_radius: float) -> "DecayModel":
        """Fold a polynomially growing prefactor into a pure exponential bound.

        Given |f| <= B * r**m * exp(-c * r**p) for r >= r0, returns a model
        A * exp(-c_eff * r**p) that dominates it.  For m <= 0 the prefactor
        is maximal at r0 and the rate is kept; for m > 0 the rate is halved
        and the worst case of r**m * exp(-c/2 * r**p) absorbed into A.
        """
        if base_amplitude <= 0 or rate <= 0 or exponent <= 0:
            raise ValueError("with_power_growth requires positive bound parameters")
        if poly_power <= 0:
            amp = base_amplitude * start_radius ** poly_power
            return cls(_POWER_GROWTH_SAFETY * amp, rate, exponent)
        c_eff = 0.5 * rate
        # max over r > 0 of r**m * exp(-c_eff * r**p), attained at
        # r* = (m / (c_eff p))**(1/p)
        r_star = (poly_power / (c_eff * exponent)) ** (1.0 / exponent)
        r_star = max(r_star, start_radius)
        log_peak = poly_power * math.log(r_star) - c_eff * r_star ** exponent
        amp = base_amplitude * math.exp(min(log_peak, 700.0))
        return cls(_POWER_GROWTH_SAFETY * amp, c_eff, exponent)

    def bound(self, r: float) -> float:
        return self.amplitude * math.exp(-self.rate * r ** self.exponent)

    def tail_bound(self, r: float) -> float:
        return self.bound(r) / (self.rate * self.exponent * r ** (self.exponent - 1.0))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    truncation_radius: float = 0.0
    panels_used: int = 0
    converged: bool = False

    def scaled(self, factor: complex) -> "QuadratureResult":
        return QuadratureResult(self.value * factor, self.error_estimate * abs(factor),
                                self.truncation_radius, self.panels_used, self.converged)


# --------------------------------------------------------------------------
# Panel machinery
# --------------------------------------------------------------------------

def _subdivide(base: np.ndarray, parts: int) -> np.ndarray:
    """Split every interval of `base` into `parts` equal pieces."""
    if parts == 1:
        return base
    steps = np.linspace(0.0, 1.0, parts + 1)[1:]
    inner = base[:-1, None] + np.diff(base)[:, None] * steps[None, :]
    return np.concatenate(([base[0]], inner.ravel()))


def _graded_boundaries(r0: float, r1: float) -> np.ndarray:
    """Panel boundaries on [r0, r1], widths doubling away from r0.

    The integrands peak toward the arc junction at r0, so the smallest panel
    sits there.  The panel count grows logarithmically with the span so the
    first panel never exceeds the scale of r0 itself.
    """
    span = r1 - r0
    scale = max(r0, 1.0)
    n = max(_INITIAL_PANELS, math.ceil(math.log2(span / scale + 1.0)) + 1)
    n = min(n, 48)
    j = np.arange(n + 1, dtype=float)
    return r0 + span * np.expm1(j * math.log(2.0)) / (2.0 ** n - 1.0)


def _refine(level_value: Callable[[int], tuple[complex, int]],
            cfg: QuadratureConfig, extra_error: float = 0.0) -> tuple[complex, float, int, bool]:
    """Double panels until two successive values agree within tolerance.

    Returns (value, |last difference| + extra_error, panels, converged).
    ``extra_error`` (the ray tail bound) is charged against the convergence
    budget so a converged result's total estimate stays within tolerance.
    """
    prev, panels = level_value(0)
    best_diff = math.inf
    stale = 0
    # The panel cap ends the loop: it allows at most 11 doublings.
    for k in itertools.count(1):
        cur, panels = level_value(k)
        diff = abs(cur - prev)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(cur))
        if diff + extra_error <= tol:
            return cur, diff + extra_error, panels, True
        # Plateau detection: once doubling stops shrinking the difference the
        # estimate sits on the rounding floor and further panels cannot help.
        if diff < best_diff:
            best_diff = diff
            stale = 0
        else:
            stale += 1
            if k >= 4 and stale >= 2:
                return cur, diff + extra_error, panels, False
        prev = cur
        if panels * 2 > _MAX_PANELS:
            return cur, diff + extra_error, panels, False


def _panel_sum(f: Integrand, bounds: np.ndarray, radial: bool,
               fixed_coord: float) -> complex:
    """Composite Gauss-Legendre sum over panels.

    radial=True: integrate over radius at fixed angle, jacobian e^{i angle};
    radial=False: integrate over angle at fixed radius, jacobian i R e^{i phi}.
    """
    mid = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    if radial:
        mods = x
        angs = np.full_like(x, fixed_coord)
        jac = complex(math.cos(fixed_coord), math.sin(fixed_coord))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = f(mods, angs) * jac
    else:
        mods = np.full_like(x, fixed_coord)
        angs = x
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = f(mods, angs) * (1j * fixed_coord * np.exp(1j * angs))
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("integrand not finite")
    return complex(np.sum((vals * _WEIGHTS[None, :]).sum(axis=1) * half))


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------

def integrate_arc(f: Integrand, arc: ArcSegment,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Integral of f(zeta) dzeta over the arc, in its stated orientation."""
    if arc.start_angle == arc.end_angle:
        return QuadratureResult(0j, 0.0, 0.0, 0, True)
    base = np.linspace(arc.start_angle, arc.end_angle, _INITIAL_PANELS + 1)

    def level(k: int) -> tuple[complex, int]:
        bounds = _subdivide(base, 2 ** k)
        return _panel_sum(f, bounds, radial=False, fixed_coord=arc.radius), len(bounds) - 1

    value, err, panels, converged = _refine(level, cfg)
    return QuadratureResult(value, err, 0.0, panels, converged)


def truncation_radius(decay: DecayModel, start_radius: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Radius R, at least 1.5 r0 + 1, past which the tail bound stays below
    abs_tol / 10.  With c = rate, p = exponent and r0 = ``start_radius``, R
    solves c R**p + (p - 1) ln R = K = ln(amplitude / (c p abs_tol / 10)).

    For p = 1, R = K / c.  Otherwise h(u) = c e**(p u) + (p - 1) u - K is
    convex in u = ln R: Newton's method, started where h' > 0, lands right of
    the largest root within one step and then decreases to it.
    """
    c, p = decay.rate, decay.exponent
    floor = 1.5 * start_radius + 1.0
    k = math.log(decay.amplitude) - math.log(c * p) - math.log(cfg.abs_tol / _TAIL_SAFETY)
    # Past 2**199 times the first bracket, max(2 r0, r0 + 1), the decay is too weak.
    r_max = max(2.0 * start_radius, start_radius + 1.0) * 2.0 ** 199
    if p == 1.0:
        r = k / c
    else:
        # Start no lower than the floor, right of h's minimum (h' >= 1 - p when
        # p < 1) and near the root (one fixed-point step from c R**p = K).
        log_c = math.log(c)
        u_k = (math.log(k) - log_c) / p if k > 0 else 0.0
        x = max(k - (p - 1.0) * u_k, 2.0 * (1.0 - p) / p)
        u = max(math.log(floor), (math.log(x) - log_c) / p if x > 0 else 0.0)
        if u > math.log(r_max):
            raise IntegrandError("decay too weak to truncate ray")
        r = math.exp(u)
        for _ in range(100):  # the cap only stops rounding noise cycling
            w = c * r ** p
            slope = p * w + p - 1.0
            if slope <= 0.0:  # left of h's minimum, h > 0 to its right: no root
                return floor
            step = (w + (p - 1.0) * math.log(r) - k) / slope
            r *= math.exp(-step)
            # Newton's next step would be about p * step**2 / 2: rounding.
            if r < floor or abs(step) <= 1e-9:
                break
    if not r <= r_max:
        raise IntegrandError("decay too weak to truncate ray")
    return max(r, floor)


def integrate_ray(f: Integrand, ray: RaySegment,
                  decay: DecayModel | None = None,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Integral of f(zeta) dzeta along the ray, in its stated orientation.

    An infinite ray requires a decay model; it is truncated at
    ``truncation_radius``, where the tail bound stays below abs_tol / 10, and
    the bound is added to the error estimate.  Finite rays integrate the
    stated span exactly.
    """
    if ray.infinite:
        if decay is None:
            raise ValueError("infinite ray requires a decay model")
        r_end = truncation_radius(decay, ray.start_radius, cfg)
        tail = decay.tail_bound(r_end)
    else:
        r_end = ray.end_radius
        tail = 0.0
    base = _graded_boundaries(ray.start_radius, r_end)

    def level(k: int) -> tuple[complex, int]:
        bounds = _subdivide(base, 2 ** k)
        return _panel_sum(f, bounds, radial=True, fixed_coord=ray.angle), len(bounds) - 1

    value, err, panels, converged = _refine(level, cfg, extra_error=tail)
    if ray.direction == "inbound":
        value = -value
    return QuadratureResult(value, err, r_end if ray.infinite else 0.0, panels, converged)


def integrate_path(f: Integrand, path: IntegrationPath,
                   decay: Union[DecayModel, Callable[[RaySegment], DecayModel], None] = None,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Sum of segment integrals in path order.

    ``decay`` may be a single model or a callable mapping each ray segment to
    its own model (rays at different angles usually decay at different rates).
    """
    total = 0j
    err = 0.0
    panels = 0
    trunc = 0.0
    converged = True
    for seg in path.segments:
        if isinstance(seg, ArcSegment):
            res = integrate_arc(f, seg, cfg)
        else:
            model = decay(seg) if callable(decay) else decay
            res = integrate_ray(f, seg, model, cfg)
        total += res.value
        err += res.error_estimate
        panels += res.panels_used
        trunc = max(trunc, res.truncation_radius)
        converged = converged and res.converged
    return QuadratureResult(total, err, trunc, panels, converged)
