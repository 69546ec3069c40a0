"""Reciprocal gamma: one rotated-loop contour route plus an independent oracle.

The contour route evaluates 1/Gamma(s) as a loop integral of e^t * t^(-s),
where t^(-s) is always computed from the unwrapped path angle.  By default
the loop is the classical one turned by psi(s) = -0.15 pi Im s/|s|
(``rotation``), 0 for real s: its arc goes through the saddle of the
integrand (``saddle_radius``) from -pi + psi to pi + psi, off the peak that
t^(-s) takes at the arc's end on the side of Im s, and its rays lie at
pi + psi on both sheets.  A batch of points is integrated at once on fixed
nodes (``recip_gamma_points``, which the grid command calls; one point is a
batch of one).  There the two rays, whose integrands differ by the factor
e^(-2 pi i s), are integrated as one, judged by the ray's convergence ratio,
with a rounding floor weighted by |w| for e^w; a point the fixed rule misses
falls back to the explicit spec of the unturned loop.  An explicit loop
spec, or an optional complex scaling lambda, goes to the adaptive engine
(``quadrature.integrate_path``) instead: it integrates e^(lambda t) t^(-s),
times lambda^(1-s), over the loop of radius epsilon/|lambda|, where psi is
the rotation within the window shifted by -arg lambda.  The oracle is a
fixed-coefficient Lanczos approximation with reflection for Re s < 1/2; it
shares no code with the contour machinery and anchors all cross-checks.  One
array kernel computes log Gamma, and ``log_gamma`` and
``recip_gamma_oracle`` are thin wrappers over it that take a scalar or an
array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fixed_rule, quadrature
from .errors import MlcError, PreconditionError
from .geometry import UNIT_LAMBDA, GammaContourSpec, PolarComplex, build_gamma_path
from .quadrature import (
    DEFAULT_QUADRATURE,
    DecayModel,
    Evaluation,
    Integrand,
    QuadratureConfig,
    QuadratureResult,
    _float_exp,
    _float_power,
    finish_loop,
    integrate_path,
)

TWO_PI_I = 2j * math.pi

#: Classical symmetric loop: unit arc radius, no rotation, rays along the
#: cut.  The adaptive engine's loop for a scaled call (lam != 1) without a
#: spec; the default call puts the arc through the saddle instead.
DEFAULT_GAMMA_SPEC = GammaContourSpec(epsilon=1.0, psi=0.0, delta1=math.pi, delta2=math.pi)


# --------------------------------------------------------------------------
# Oracle: Lanczos approximation, g = 607/128, 15 coefficients, with the
# reflection formula for Re s < 1/2.  One array kernel serves scalar and
# array arguments alike, so both give the same bits.  Accurate to ~4e-14
# relative for -20 <= Re s <= 40, |Im s| <= 20 away from poles (validated in
# the test suite against mpmath, scipy and the recurrence and reflection
# identities).
# --------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_COEFFS))
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def is_gamma_pole(s):
    """True where s is a nonpositive integer (a pole of Gamma), elementwise."""
    s = np.asarray(s, dtype=complex)
    return (s.imag == 0.0) & (s.real <= 0.0) & (s.real == np.round(s.real))


def _lanczos_log_gamma(s: np.ndarray) -> np.ndarray:
    """Lanczos log-gamma over a 1-D array with Re s >= 1/2: the 14-term sum
    is one (points x 14) array, reduced along its rows."""
    acc = _LANCZOS_COEFFS[0] + np.add.reduce(
        _LANCZOS_COEFFS[1:] / ((s[:, None] - 1.0) + _LANCZOS_K), axis=1)
    t = s + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (s - 0.5) * np.log(t) - t + np.log(acc)


def _log_sinpi(s: np.ndarray) -> np.ndarray:
    """log sin(pi s) up to a multiple of 2*pi*i, -inf at integers.

    The argument is reduced by the nearest integer n first (sin(pi s) =
    (-1)^n sin(pi r)), so values near integers keep their accuracy.  With
    sigma = +1 for Im r >= 0 and -1 below, log sin(pi r) = -i sigma pi r +
    log((e^(2 i sigma pi r) - 1) (-i sigma/2)), whose terms stay finite where
    sin(pi s) itself overflows (|Im s| > ~226).
    """
    n = np.round(s.real)
    r = s - n
    sigma = np.where(r.imag < 0.0, -1.0, 1.0)
    w = np.log(np.expm1(2j * np.pi * sigma * r) * (-0.5j * sigma)) - 1j * np.pi * sigma * r
    return w + 1j * np.pi * np.mod(n, 2.0)


def _log_gamma(s: np.ndarray) -> np.ndarray:
    """log Gamma over a 1-D array: Lanczos for Re s >= 1/2 and the
    reflection log(pi) - log sin(pi s) - log Gamma(1-s) left of it.  Poles
    come out with real part +inf but an arbitrary imaginary part."""
    right = s.real >= 0.5
    if right.all():
        return _lanczos_log_gamma(s)
    out = np.empty_like(s)
    if right.any():
        out[right] = _lanczos_log_gamma(s[right])
    left = s[~right]
    out[~right] = _LOG_PI - _log_sinpi(left) - _lanczos_log_gamma(1.0 - left)
    return out


def _from_log_gamma(s, fn, at_poles: complex):
    """fn(log Gamma(s)) with ``at_poles`` at the poles: a complex for a
    scalar s, an array of the same shape for an array."""
    arr = np.asarray(s, dtype=complex)
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = fn(_log_gamma(flat))
    out[is_gamma_pole(flat)] = at_poles
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_gamma(s) -> complex | np.ndarray:
    """log Gamma(s), up to an irrelevant multiple of 2*pi*i for Re s < 1/2.

    Left of the half-plane the reflection formula is used, so the imaginary
    part is not the principal branch there; exp() of the result is always
    correct.  At poles the real part is +inf.
    """
    return _from_log_gamma(s, lambda lg: lg, complex(math.inf, 0.0))


def recip_gamma_oracle(s) -> complex | np.ndarray:
    """1/Gamma(s): entire, exactly 0 at nonpositive integers.

    Independent of all contour code; this is the reference every contour
    route is checked against.
    """
    return _from_log_gamma(s, lambda lg: np.exp(-lg), 0.0)


# --------------------------------------------------------------------------
# Contour route
# --------------------------------------------------------------------------

def loop_integrand(mu: complex, lam: complex = 1.0, alpha: float = 1.0,
                   z: complex = 0j) -> Integrand:
    """The one loop kernel, e^(lam t) t^(-mu) t^alpha / (t^alpha - z): the gamma
    loop's at z = 0, the Mittag-Leffler loops' in s = tau^rho at alpha = 1/rho."""
    mu, lam = complex(mu), complex(lam)
    if z == 0:
        def f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
            return np.exp(lam * t - mu * log_t)
    else:
        def f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
            return np.exp(lam * t + (alpha - mu) * log_t) / (np.exp(alpha * log_t) - z)
    return f


#: A loop is refused where its integrand peaks past e^this (doubles end near e^709.8).
OVERFLOW_EXPONENT_LIMIT = 690.0


def refuse_arc_growth(growth: float) -> None:
    """The one growth refusal of every loop, whose integrand peaks at e^``growth``."""
    if not growth <= OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError(f"arc too large: the integrand peaks at e^{growth:.3g} "
                                f"on it, past e^{OVERFLOW_EXPONENT_LIMIT:g}")


def pole_gap(angle: float, start_radius: float, alpha: float, z: PolarComplex) -> float:
    """The distance from 1 to the segment, from z r0^(-alpha) e^(-i alpha
    angle) to 0, that z t^(-alpha) sweeps on the infinite ray at ``angle``
    from r0 = ``start_radius``: 1/|1 - z t^(-alpha)| <= 1/gap."""
    reach = 0.0 if z.modulus == 0.0 else z.modulus * _float_power(start_radius, -alpha)
    phase = z.argument - alpha * angle
    foot = min(max(math.cos(phase), 0.0), reach)  # the segment's nearest point to 1
    return math.hypot(foot * math.cos(phase) - 1.0, foot * math.sin(phase))


def loop_ray_bound(angle: float, start_radius: float, mu: complex,
                   lam: PolarComplex = UNIT_LAMBDA, alpha: float = 1.0,
                   z: PolarComplex = PolarComplex(0.0, 0.0)) -> DecayModel:
    """Decay of ``loop_integrand`` on the infinite ray at ``angle`` from
    ``start_radius``: rate |lam| |cos(arg lam + angle)|, power r^(-Re mu),
    e^(Im mu angle) over the ``pole_gap``, which may not be 0."""
    rate = lam.modulus * abs(math.cos(lam.argument + angle))
    # z = 0: the gamma loop
    gap = 1.0 if z.modulus == 0.0 else pole_gap(angle, start_radius, alpha, z)
    if gap == 0.0:
        raise PreconditionError(f"the ray at angle {angle:g} meets the pole t^alpha = z")
    base = _float_exp(mu.imag * angle - math.log(gap))
    return DecayModel.with_power_growth(base, -mu.real, rate, start_radius)


def loop_bounds(path, mu: complex, lam: PolarComplex = UNIT_LAMBDA, alpha: float = 1.0,
                z: PolarComplex = PolarComplex(0.0, 0.0)) -> dict:
    """Each ray's ``loop_ray_bound`` on ``path`` (ray in, arc, ray out), by ray,
    once the arc's peak |e^(lam t)| = e^(|lam| R) has passed ``refuse_arc_growth``."""
    refuse_arc_growth(lam.modulus * path.segments[1].radius)
    return {ray: loop_ray_bound(ray.angle, ray.start_radius, mu, lam, alpha, z)
            for ray in path.segments[::2]}


#: The rays of the default loop lie along the cut, turned by ``rotation``.
_CUT_ANGLE = math.pi
#: The default loop turns by up to this, against the sign of Im s.  A sweep
#: of the bound k pi/2 (``tests/auto_route_sweep.py gamma``) left 222 points
#: of the 1,625-point box raised at k = 0.15, 66 at 0.2 and none from 0.25;
#: the wide box answered 2,611 points at 0.25 and 2,659 at k = 0.3, this
#: one; from 0.4 points of the 1,625-point box fell back (12), and at 0.5
#: two of the gamma-grid box.
_ROTATION = 0.15 * math.pi
#: The most loops one ``fixed_loops`` call takes: past 16 its arrays pass
#: 128 KB, and a point took 17% longer in chunks of 64 (2-vCPU x86_64).
_CHUNK = 16
_UNIT_FACTOR = 1.0 / TWO_PI_I


class _Loop(NamedTuple):
    """The default loop at s, ready for the fixed rule: its arc radius, its
    rays' common truncation radius and the sum of their tails there.  The
    loop is turned by ``rotation(s)``, which the fixed rule is handed with
    it."""

    s: complex
    radius: float
    end: float
    tail: float


def rotation(s: complex) -> float:
    """The default loop's turn psi(s) = -0.15 pi Im s/|s|: 0 for real s,
    and otherwise of the sign opposite to Im s, |psi| <= 0.15 pi."""
    return -_ROTATION * (s.imag / abs(s)) if s.imag else 0.0


def saddle_radius(s: complex) -> float:
    """The default loop's arc radius: max(1, |s|), through the saddle of
    e^t t^(-s) at t = s, except 1 where Re s < 0 and |Im s| <= |Re s|."""
    if s.real < 0.0 and abs(s.imag) <= -s.real:
        return 1.0
    return max(1.0, abs(s))


def _failure(s: complex) -> str:
    return f"gamma contour quadrature did not converge at s={s}"


def _default_loop(s: complex, cfg: QuadratureConfig) -> _Loop:
    """The default loop at s: both rays, at -pi + psi and pi + psi (psi =
    ``rotation(s)``), are cut at the larger of their ``truncation_radius``;
    raises for a non-finite s, and raises ``loop_bounds``' and
    ``truncation_radius``'s refusals."""
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise PreconditionError("s must be finite")
    radius = saddle_radius(s)
    refuse_arc_growth(radius)
    psi = rotation(s)
    models = [loop_ray_bound(angle + psi, radius, s) for angle in (-_CUT_ANGLE, _CUT_ANGLE)]
    # quadrature's own name, so that a wrapper set on it sees these calls
    end = max([quadrature.truncation_radius(model, radius, cfg) for model in models])
    return _Loop(s, radius, end, sum(model.tail_bound(end) for model in models))


def recip_gamma_points(points, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> list:
    """1/Gamma(s) by the default loop at each of ``points``: for each, its
    ``Evaluation`` or the ``MlcError`` it raises.  One call for a list of
    points spares each point the batch's fixed cost.

    The loop is the classical one turned by psi = ``rotation(s)``: its arc
    goes through the saddle (``saddle_radius``) from -pi + psi to pi + psi,
    and its rays lie at pi + psi on both sheets, t = -r e^(i psi); a pole
    gives an exact 0.  Each point first passes ``loop_bounds``' refusals,
    and its rays are cut at the larger of their two ``truncation_radius``;
    the points left go to ``fixed_rule.fixed_loops``, ``_CHUNK`` to a call,
    each call one array evaluation per level.  It integrates the two rays
    as one, on one set of nodes: e^t t^(-s) on the upper sheet is the lower
    sheet's times e^(-2 pi i s), whose exponent is taken from Re s less its
    nearest integer, so that at an integer s the rays cancel exactly.  Its
    estimate judges the ray by its convergence ratio and adds a rounding
    floor weighted by |w|, w = t - s log t.  A point that fails there falls
    back to ``recip_gamma_contour`` with the explicit spec of the unturned
    loop, GammaContourSpec(radius, 0, pi, pi), whose adaptive engine
    converges on the summed value too, and raises ConvergenceError
    otherwise.  A point gets the bits it gets alone, whatever its
    neighbours.
    """
    points = [complex(s) for s in points]
    out: list = [None] * len(points)
    todo: list[tuple[int, _Loop]] = []
    for i, (s, pole) in enumerate(zip(points, is_gamma_pole(points).tolist())):
        if pole:
            out[i] = Evaluation(0j, "contour", QuadratureResult(0j, 0.0, 0.0, 0, True))
            continue
        try:
            todo.append((i, _default_loop(s, cfg)))
        except MlcError as exc:
            out[i] = exc
    for start in range(0, len(todo), _CHUNK):
        chunk = todo[start:start + _CHUNK]
        mu = np.array([loop.s for _, loop in chunk])

        def exponent(rows, t, log_t):
            w = log_t * -mu[rows, None]
            w += t
            return w

        # w on the upper sheet is w - 2 pi i s, or, for the same
        # e^w, w - 2 pi i (s - round(Re s))
        raws = fixed_rule.fixed_loops(
            exponent, [loop.radius for _, loop in chunk], [rotation(loop.s) for _, loop in chunk],
            TWO_PI_I * (np.round(mu.real) - mu),
            [loop.end for _, loop in chunk], [loop.tail for _, loop in chunk], cfg)
        for (i, loop), raw in zip(chunk, raws):
            try:
                if raw.converged:
                    out[i] = finish_loop(raw, _UNIT_FACTOR, "contour", lambda: _failure(loop.s))
                else:  # the explicit spec of the same loop, unturned
                    out[i] = recip_gamma_contour(
                        loop.s, GammaContourSpec(loop.radius, 0.0, _CUT_ANGLE, _CUT_ANGLE), cfg)
            except MlcError as exc:
                out[i] = exc
    return out


def recip_gamma_contour(s: complex,
                        spec: GammaContourSpec | None = None,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                        lam: PolarComplex = UNIT_LAMBDA) -> Evaluation:
    """1/Gamma(s) as lam^(1-s)/(2pi i) times the loop integral of
    e^(lam t) t^(-s).

    With no ``spec`` and lam = 1 this is the default loop through the
    saddle, turned by ``rotation(s)``, a batch of one of
    ``recip_gamma_points``: an exact 0 at a pole,
    PreconditionError for a non-finite s or where ``loop_bounds`` refuses,
    and ConvergenceError where neither the fixed rule nor its fallback, the
    explicit spec of the same loop, meets the tolerance on the summed value.

    Otherwise the adaptive engine integrates the loop of ``spec``
    (``DEFAULT_GAMMA_SPEC`` if none), the unit loop, scaled by lam.
    Substituting t -> lam t moves the loop to radius epsilon/|lam| and its
    psi window by -arg lam; the prefactor is taken from the stored argument
    of ``lam``, the same value that shifts the window.  Raises, before
    integrating, PreconditionError for a non-finite s, where lam^(1-s) leaves
    the double range or ``loop_bounds`` refuses, and ContourValidityError for
    an inadmissible (spec, lam); ConvergenceError where the summed estimate
    misses the tolerance on the summed value.
    """
    if spec is None and lam == UNIT_LAMBDA:
        result, = recip_gamma_points([s], cfg)
        if isinstance(result, MlcError):
            raise result
        return result
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise PreconditionError("s must be finite")
    path = build_gamma_path(DEFAULT_GAMMA_SPEC if spec is None else spec, lam=lam)
    try:
        factor = lam.power(1.0 - s) / TWO_PI_I
    except OverflowError:
        raise PreconditionError(f"lam^(1-s) overflows at s={s}, "
                                f"lam=({lam.modulus}, {lam.argument})") from None
    raw = integrate_path(loop_integrand(s, lam.to_complex()), path,
                         decay=loop_bounds(path, s, lam).__getitem__, cfg=cfg)
    return finish_loop(raw, factor, "contour", lambda: _failure(s))


def reflection_residual(s: complex,
                        spec: GammaContourSpec | None = None,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """| (1/Gamma(s)) (1/Gamma(1-s)) - sin(pi s)/pi | with both reciprocal
    gammas from the contour route; a self-consistency diagnostic."""
    s = complex(s)
    a = recip_gamma_contour(s, spec, cfg).value
    b = recip_gamma_contour(1.0 - s, spec, cfg).value
    with np.errstate(divide="ignore"):  # log 0 = -inf at integers
        target = complex(np.exp(_log_sinpi(np.array([s])))[0]) / math.pi
    return abs(a * b - target)
