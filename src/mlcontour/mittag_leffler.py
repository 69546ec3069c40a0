"""Two-parameter Mittag-Leffler evaluation, four ways.

The function here is E(rho, mu; z) = sum_n z^n / Gamma(mu + n/rho), rho > 0.
Routes:

* ``ml_series``      -- Taylor series with compensated summation (the oracle).
* ``ml_contour``     -- loop integral in the zeta plane anchored to arg z,
                        with the simple pole fixed at zeta = 1 (rho > 1/2).
* ``ml_bateman``     -- classical loop with the pole factor t^(1/rho) - z.
* ``ml_dzhrbashyan`` -- loop at opening angle theta with pole factor tau - z.

All four take ``(params, z: PolarComplex, ..., cfg)`` and own their default
contour parameters.  ``evaluate_ml`` dispatches on a route name, and
``ml_route`` is the rule behind ``method="auto"``.

All power factors inside contour integrands are computed from accumulated
(unwrapped) arguments; reducing them to the principal range would hop sheets
whenever the loop opens wider than pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConvergenceError, IntegrandError, PreconditionError
from .gamma import is_gamma_pole, log_gamma, recip_gamma_oracle
from .geometry import (
    ArcSegment,  # unused here; kept for perfbench's tracer, which wraps it
    IntegrationPath,
    MLContourSpec,
    PolarComplex,
    RaySegment,
    build_zeta_path,
    default_ml_deltas,
    loop_path,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    DecayModel,
    QuadratureConfig,
    QuadratureResult,
    integrate_path,
)

TWO_PI_I = 2j * math.pi

#: A series result with more than this many digits lost to cancellation is
#: flagged unreliable: doubles keep fewer than 7 trustworthy digits past it.
CANCELLATION_DIGITS_LIMIT = 9.0

#: The loop route refuses outright when exp((|z|(1+eps))^rho) would overflow.
OVERFLOW_EXPONENT_LIMIT = 690.0

#: Cap on (|z|(1+eps))^rho used when choosing the default arc radius.  The
#: arc integrand peaks at exp of this value while the result stays O(1), so
#: doubles lose roughly exp(cap)*eps absolutely; 8.5 keeps that floor below
#: the default quadrature tolerance.
_ARC_GROWTH_CAP = 8.5


@dataclass(frozen=True)
class MLParams:
    rho: float
    mu: complex

    def __post_init__(self):
        mu = complex(self.mu)
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError("rho must be a positive finite real")
        if not (math.isfinite(mu.real) and math.isfinite(mu.imag)):
            raise ValueError("mu must be finite")


@dataclass(frozen=True)
class SeriesDiagnostics:
    terms_used: int
    max_term_modulus: float
    cancellation_digits: float
    converged: bool

    @property
    def unreliable(self) -> bool:
        return self.cancellation_digits > CANCELLATION_DIGITS_LIMIT


@dataclass(frozen=True)
class MLEvaluation:
    params: MLParams
    z: PolarComplex
    value: complex
    method: str  # "series" | "contour" | "bateman" | "dzhrbashyan" | "closed-form"
    diagnostics: Union[SeriesDiagnostics, QuadratureResult, None] = None


# --------------------------------------------------------------------------
# Series (the oracle route)
# --------------------------------------------------------------------------

_LN2 = math.log(2.0)
# z^n is kept as z_pow * 2**scale_exp; rescaling by an exact power of two
# keeps the running power representable without touching its phase.
_RESCALE_TRIGGER = 2.0 ** 800
_RESCALE_SHIFT = 831


def ml_series(params: MLParams, z: PolarComplex,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE,
              max_terms: int = 10000) -> MLEvaluation:
    """Taylor series with compensated (Kahan) summation.

    The accumulation runs in ordinary complex arithmetic: z^n is built by an
    iterative product (keeping term phases coherent to a few ulp, which the
    exp(n log z) form cannot do once n arg z is large) and multiplied by the
    reciprocal-gamma oracle.  Log-space magnitudes are used only to screen
    and survive overflow: the running power is rescaled by exact powers of
    two and the gamma factor then absorbs the scale through its logarithm.
    Summation stops once three consecutive terms fall below
    abs_tol + rel_tol*|partial sum| and the peak term has been passed.
    Non-convergence within the term budget, and overflow of a term or of
    the sum, are reported in the diagnostics (not converged; overflow also
    sets infinite cancellation), not raised.
    """
    mu = complex(params.mu)
    if z.modulus == 0.0:
        value = complex(recip_gamma_oracle(mu))
        diag = SeriesDiagnostics(1, abs(value), 0.0, True)
        return MLEvaluation(params, z, value, "series", diag)

    zc = z.modulus * cmath.exp(1j * z.argument)
    total = 0j
    comp = 0j  # Kahan compensation
    max_term = 0.0
    max_index = 0
    small_streak = 0
    terms_used = 0
    converged = False
    overflowed = False
    z_pow = 1.0 + 0j
    scale_exp = 0

    for n in range(max_terms):
        arg = mu + n / params.rho
        if is_gamma_pole(arg):
            term = 0j
        elif scale_exp == 0:
            term = z_pow * complex(recip_gamma_oracle(arg))
        else:
            lg = complex(log_gamma(arg))
            magnitude = -lg.real + scale_exp * _LN2
            if magnitude > 709.0:
                overflowed = True
                break
            term = z_pow * cmath.exp(complex(magnitude, -lg.imag))
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            overflowed = True
            break
        terms_used = n + 1
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        try:
            mod = abs(term)
            total_mod = abs(total)
        except OverflowError:  # a modulus past the largest double
            total_mod = math.inf
        if not total_mod < math.inf:
            overflowed = True
            break
        if mod > max_term:
            max_term = mod
            max_index = n
        if mod < cfg.abs_tol + cfg.rel_tol * total_mod:
            small_streak += 1
            if small_streak >= 3 and n > max_index:
                converged = True
                break
        else:
            small_streak = 0
        z_pow *= zc
        while abs(z_pow) > _RESCALE_TRIGGER:
            z_pow *= 2.0 ** -_RESCALE_SHIFT
            scale_exp += _RESCALE_SHIFT

    if overflowed:
        converged = False
        cancellation = math.inf
    elif abs(total) == 0.0:
        cancellation = math.inf if max_term > 0 else 0.0
    elif max_term == 0.0:
        cancellation = 0.0
    else:
        cancellation = math.log10(max_term / abs(total))
    diag = SeriesDiagnostics(terms_used, max_term, cancellation, converged)
    return MLEvaluation(params, z, total, "series", diag)


# --------------------------------------------------------------------------
# Zeta-plane loop (the generalized route)
# --------------------------------------------------------------------------

def default_ml_spec(params: MLParams, z: PolarComplex,
                    epsilon_hat: Optional[float] = None,
                    deltas: Optional[tuple[float, float]] = None) -> MLContourSpec:
    """Loop spec anchored to z: widest deltas, arc radius chosen for accuracy.

    The arc integrand peaks at exp((|z|(1+eps))^rho); a fixed eps=1 is fine
    for small |z|^rho but loses digits catastrophically once the peak passes
    ~e^18, so the default shrinks the arc toward the pole (never below 0.01)
    to cap the peak.  Pass ``epsilon_hat`` explicitly to override.
    """
    if z.modulus == 0.0:
        raise PreconditionError("loop route requires |z| > 0; use the series at z = 0")
    if deltas is None:
        deltas = default_ml_deltas(params.rho)
    if epsilon_hat is None:
        cap = _ARC_GROWTH_CAP ** (1.0 / params.rho) / z.modulus - 1.0
        epsilon_hat = min(1.0, max(0.01, cap))
    return MLContourSpec(params.rho, params.mu, epsilon_hat, z.argument,
                         deltas[0], deltas[1])


def _zeta_integrand(params: MLParams, z: PolarComplex):
    rho = params.rho
    mu = complex(params.mu)
    log_mod_z = math.log(z.modulus)
    arg_z = z.argument

    def f(mod: np.ndarray, ang: np.ndarray) -> np.ndarray:
        zeta = mod * np.exp(1j * ang)
        log_w = (log_mod_z + np.log(mod)) + 1j * (arg_z + ang)  # log(z*zeta), unwrapped
        return np.exp(np.exp(rho * log_w) + rho * (1.0 - mu) * log_w) / (zeta - 1.0)

    return f


def _zeta_ray_decay(params: MLParams, z: PolarComplex, spec: MLContourSpec,
                    ray: RaySegment) -> DecayModel:
    rho = params.rho
    mu = complex(params.mu)
    rate = z.modulus ** rho * abs(math.cos(rho * (z.argument + ray.angle)))
    poly = rho * (1.0 - mu.real)
    log_base = (poly * math.log(z.modulus)
                + rho * mu.imag * (z.argument + ray.angle)
                - math.log(spec.epsilon_hat))
    base = math.exp(min(log_base, 700.0))
    return DecayModel.with_power_growth(base, poly, rate, rho, ray.start_radius)


def _zeta_loop(params: MLParams, z: PolarComplex,
               spec: Optional[MLContourSpec]) -> tuple[MLContourSpec, IntegrationPath]:
    """Every check ``ml_contour`` makes before integrating, and the loop it
    integrates over."""
    if spec is None:
        spec = default_ml_spec(params, z)
    else:
        if spec.rho != params.rho or complex(spec.mu) != complex(params.mu):
            raise PreconditionError("spec (rho, mu) disagree with params")
        if spec.arg_z != z.argument:
            raise PreconditionError("spec.arg_z must equal z.argument")
    growth = (z.modulus * (1.0 + spec.epsilon_hat)) ** params.rho
    if growth > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError(
            f"modulus too large for the loop route: (|z|(1+eps))^rho = {growth:.3g} "
            f"exceeds {OVERFLOW_EXPONENT_LIMIT:g}; use the series")
    return spec, build_zeta_path(spec)


def ml_route(params: MLParams, z: PolarComplex) -> str:
    """The route ``method="auto"`` takes at z: "contour" when the zeta loop's
    default spec passes every check ``ml_contour`` makes before integrating,
    else "series"."""
    try:
        _zeta_loop(params, z, None)
    except (ValueError, OverflowError):  # a failed check, or (|z|(1+eps))^rho past a double
        return "series"
    return "contour"


def ml_contour(params: MLParams, z: PolarComplex,
               spec: Optional[MLContourSpec] = None,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> MLEvaluation:
    """Loop-integral evaluation anchored to arg z (requires rho > 1/2 and
    arg z inside the admissibility window).

    Raises ContourValidityError outside the window, PreconditionError when
    the spec disagrees with (params, z) or exp((|z|(1+eps))^rho) would
    overflow, and ConvergenceError when the quadrature stalls.
    """
    spec, path = _zeta_loop(params, z, spec)
    raw = integrate_path(_zeta_integrand(params, z), path,
                         decay=lambda ray: _zeta_ray_decay(params, z, spec, ray),
                         cfg=cfg)
    if not raw.converged:
        raise ConvergenceError(
            f"zeta-loop quadrature did not converge for rho={params.rho}, "
            f"mu={params.mu}, z=({z.modulus}, {z.argument}) "
            f"(error estimate {raw.error_estimate:.3g})")
    result = raw.scaled(params.rho / TWO_PI_I)
    return MLEvaluation(params, z, result.value, "contour", result)


# --------------------------------------------------------------------------
# Legacy loops (cross-check routes)
# --------------------------------------------------------------------------

def ml_bateman(params: MLParams, z: PolarComplex, epsilon: Optional[float] = None,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> MLEvaluation:
    """Classical loop route: rays along the cut, arc radius epsilon
    (default 1.5|z|^rho + 0.5).

    Valid for real mu > 0 and epsilon > |z|^rho (the arc must clear every
    zero of the pole factor t^(1/rho) - z).
    """
    if epsilon is None:
        epsilon = 1.5 * z.modulus ** params.rho + 0.5
    zc = z.to_complex()
    mu = complex(params.mu)
    if mu.imag != 0.0 or mu.real <= 0.0:
        raise PreconditionError("this route requires real mu > 0; "
                                "complex mu is served by the other routes")
    alpha = 1.0 / params.rho
    beta = mu.real
    pole_radius = abs(zc) ** params.rho
    if not epsilon > pole_radius:
        raise PreconditionError(
            f"arc radius {epsilon:g} must exceed |z|^rho = {pole_radius:g}")
    if epsilon > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError("arc radius too large: e^t overflows on the arc")

    def f(mod: np.ndarray, ang: np.ndarray) -> np.ndarray:
        log_t = np.log(mod) + 1j * ang
        t = mod * np.exp(1j * ang)
        return np.exp(t + (alpha - beta) * log_t) / (np.exp(alpha * log_t) - zc)

    path = loop_path(epsilon, -math.pi, math.pi)
    base = 1.0 / (epsilon ** alpha - abs(zc))
    decay = DecayModel.with_power_growth(base, alpha - beta, 1.0, 1.0, epsilon)
    raw = integrate_path(f, path, decay=decay, cfg=cfg)
    if not raw.converged:
        raise ConvergenceError(
            f"classical-loop quadrature did not converge for rho={params.rho}, "
            f"mu={params.mu}, z={zc} (error estimate {raw.error_estimate:.3g})")
    result = raw.scaled(1.0 / TWO_PI_I)
    return MLEvaluation(params, z, result.value, "bateman", result)


def dzhrbashyan_theta_window(rho: float) -> tuple[float, float]:
    """Open interval of admissible opening angles for the theta loop."""
    if not rho > 0.5:
        raise PreconditionError("theta-loop route requires rho > 1/2")
    high = math.pi if rho <= 1.0 else math.pi / rho
    return (math.pi / (2.0 * rho), high)


def ml_dzhrbashyan(params: MLParams, z: PolarComplex, epsilon: Optional[float] = None,
                   theta: Optional[float] = None,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> MLEvaluation:
    """Loop at opening angle theta (default: mid-window) with pole factor
    tau - z and arc radius epsilon (default |z| + 1).

    Valid for epsilon > |z| and theta strictly inside the admissible window;
    the window guarantees cos(rho*theta) < 0, i.e. ray decay.
    """
    lo, hi = dzhrbashyan_theta_window(params.rho)
    if theta is None:
        theta = 0.5 * (lo + hi)
    if epsilon is None:
        epsilon = z.modulus + 1.0
    zc = z.to_complex()
    mu = complex(params.mu)
    if not (lo < theta < hi):
        raise PreconditionError(
            f"theta {theta:g} outside the open window ({lo:.6g}, {hi:.6g})")
    if not epsilon > abs(zc):
        raise PreconditionError(f"arc radius {epsilon:g} must exceed |z| = {abs(zc):g}")
    if epsilon ** params.rho > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError("arc radius too large: exp(tau^rho) overflows on the arc")
    rho = params.rho

    def f(mod: np.ndarray, ang: np.ndarray) -> np.ndarray:
        log_t = np.log(mod) + 1j * ang
        tau = mod * np.exp(1j * ang)
        return np.exp(np.exp(rho * log_t) + rho * (1.0 - mu) * log_t) / (tau - zc)

    path = loop_path(epsilon, -theta, theta)
    rate = abs(math.cos(rho * theta))
    poly = rho * (1.0 - mu.real)
    base = math.exp(min(rho * abs(mu.imag) * theta, 700.0)) / (epsilon - abs(zc))
    decay = DecayModel.with_power_growth(base, poly, rate, rho, epsilon)
    raw = integrate_path(f, path, decay=decay, cfg=cfg)
    if not raw.converged:
        raise ConvergenceError(
            f"theta-loop quadrature did not converge for rho={params.rho}, "
            f"mu={params.mu}, z={zc} (error estimate {raw.error_estimate:.3g})")
    result = raw.scaled(params.rho / TWO_PI_I)
    return MLEvaluation(params, z, result.value, "dzhrbashyan", result)


# --------------------------------------------------------------------------
# One dispatch over the routes
# --------------------------------------------------------------------------

def evaluate_ml(params: MLParams, z: PolarComplex, method: str = "auto",
                cfg: QuadratureConfig = DEFAULT_QUADRATURE, *,
                max_terms: int = 10000,
                epsilon_hat: Optional[float] = None,
                delta1_rho: Optional[float] = None,
                delta2_rho: Optional[float] = None,
                epsilon: Optional[float] = None,
                theta: Optional[float] = None) -> MLEvaluation:
    """E(rho, mu; z) by ``method``: "series", "contour", "bateman",
    "dzhrbashyan", or "auto" for the route ``ml_route`` picks.

    Each option reaches only the route that reads it: ``max_terms`` the
    series; ``epsilon_hat`` and the ray half-angles ``delta1_rho``,
    ``delta2_rho`` (both or neither) override the zeta loop's default spec;
    ``epsilon`` is the Bateman or Dzhrbashyan arc radius and ``theta`` the
    Dzhrbashyan opening angle.  Unset, each route uses its own default.
    """
    if method == "auto":
        method = ml_route(params, z)
    if method == "series":
        return ml_series(params, z, cfg, max_terms=max_terms)
    if method == "contour":
        spec = None
        if epsilon_hat is not None or delta1_rho is not None or delta2_rho is not None:
            if (delta1_rho is None) != (delta2_rho is None):
                raise PreconditionError("delta1_rho and delta2_rho go together")
            deltas = None if delta1_rho is None else (delta1_rho, delta2_rho)
            spec = default_ml_spec(params, z, epsilon_hat=epsilon_hat, deltas=deltas)
        return ml_contour(params, z, spec, cfg)
    if method == "bateman":
        return ml_bateman(params, z, epsilon, cfg)
    if method == "dzhrbashyan":
        return ml_dzhrbashyan(params, z, epsilon, theta, cfg)
    raise PreconditionError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# Closed forms and cross-method comparison
# --------------------------------------------------------------------------

def ml_closed_form(params: MLParams, z: complex) -> Optional[complex]:
    """Known elementary cases; None when (rho, mu) has no closed form here."""
    z = complex(z)
    mu = complex(params.mu)
    if mu.imag != 0.0:
        return None
    key = (params.rho, mu.real)
    if key == (1.0, 1.0):
        return cmath.exp(z)
    if key == (1.0, 2.0):
        if z == 0:
            return 1.0 + 0j
        return (cmath.exp(z) - 1.0) / z
    if key == (0.5, 1.0):
        return cmath.cosh(cmath.sqrt(z))
    return None


@dataclass(frozen=True)
class MethodOutcome:
    method: str
    status: str  # "ok" | "skipped" | "failed"
    value: Optional[complex] = None
    error_estimate: Optional[float] = None
    reliable: bool = True
    reason: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    params: MLParams
    z: PolarComplex
    outcomes: tuple[MethodOutcome, ...]
    deviations: dict[tuple[str, str], float]

    def outcome(self, method: str) -> MethodOutcome:
        for o in self.outcomes:
            if o.method == method:
                return o
        raise KeyError(method)


def compare_methods(params: MLParams, z: PolarComplex,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                    contour_spec: Optional[MLContourSpec] = None,
                    bateman_epsilon: Optional[float] = None,
                    dzh_epsilon: Optional[float] = None,
                    dzh_theta: Optional[float] = None) -> ComparisonReport:
    """Run every applicable route and report values and pairwise deviations.

    Routes whose preconditions fail are reported as skipped (with the
    precondition message), numerical failures as failed; deviations are
    computed only among converged results, excluding a series result flagged
    for cancellation.
    """
    outcomes: list[MethodOutcome] = []

    series = ml_series(params, z, cfg)
    outcomes.append(MethodOutcome(
        "series", "ok" if series.diagnostics.converged else "failed",
        series.value, None,
        reliable=not series.diagnostics.unreliable,
        reason="" if series.diagnostics.converged else "series did not converge"))

    def run(method: str, call):
        try:
            ev = call()
        except (PreconditionError, ValueError) as exc:
            outcomes.append(MethodOutcome(method, "skipped", reason=str(exc)))
        except (ConvergenceError, IntegrandError) as exc:
            outcomes.append(MethodOutcome(method, "failed", reason=str(exc)))
        else:
            err = ev.diagnostics.error_estimate if ev.diagnostics else None
            outcomes.append(MethodOutcome(method, "ok", ev.value, err))

    run("contour", lambda: ml_contour(params, z, contour_spec, cfg))
    run("bateman", lambda: ml_bateman(params, z, bateman_epsilon, cfg))
    run("dzhrbashyan", lambda: ml_dzhrbashyan(params, z, dzh_epsilon, dzh_theta, cfg))

    closed = ml_closed_form(params, z.to_complex())
    if closed is not None:
        outcomes.append(MethodOutcome("closed-form", "ok", closed, 0.0))

    usable = [o for o in outcomes if o.status == "ok" and o.reliable]
    deviations: dict[tuple[str, str], float] = {}
    for i, a in enumerate(usable):
        for b in usable[i + 1:]:
            scale = max(abs(a.value), abs(b.value), 1e-300)
            deviations[(a.method, b.method)] = abs(a.value - b.value) / scale
    return ComparisonReport(params, z, tuple(outcomes), deviations)
