"""Two-parameter Mittag-Leffler evaluation, four ways.

The function here is E(rho, mu; z) = sum_n z^n / Gamma(mu + n/rho), rho > 0.
Routes:

* ``ml_series``      -- Taylor series with compensated summation (the oracle).
* ``ml_contour``     -- loop integral in the zeta plane anchored to arg z,
                        with the simple pole fixed at zeta = 1 (rho > 1/2).
* ``ml_bateman``     -- classical loop with the pole factor t^(1/rho) - z.
* ``ml_dzhrbashyan`` -- loop at opening angle theta with pole factor tau - z.

All four take ``(params, z: PolarComplex)`` first; the series and the zeta
loop then take ``cfg`` and their own parameters, the Bateman and Dzhrbashyan
loops their own contour parameters and then ``cfg``.  Each owns the defaults
of its parameters and returns an ``Evaluation``.  The zeta loop's free
parameters are ``epsilon_hat`` and ``deltas`` (rho, mu and arg z fix the
rest).  ``evaluate_ml`` dispatches on a route name from ``ML_METHODS``, and
``ml_route`` is the rule behind ``method="auto"``.

All power factors inside contour integrands are computed from accumulated
(unwrapped) arguments; reducing them to the principal range would hop sheets
whenever the loop opens wider than pi.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .gamma import TWO_PI_I, log_gamma, recip_gamma_oracle
from .geometry import (
    ArcSegment,  # unused here; kept for perfbench's tracer, which wraps it
    IntegrationPath,
    MLContourSpec,
    PolarComplex,
    RaySegment,
    build_zeta_path,
    default_ml_deltas,
    loop_path,
    ml_delta_range,
    ray_distance,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    DecayModel,
    Evaluation,
    QuadratureConfig,
    _float_power,
    finish_loop,
    integrate_path,
)

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

#: The series' default term budget.
SERIES_MAX_TERMS = 10000

#: The route names ``evaluate_ml`` takes.
ML_METHODS = ("series", "contour", "bateman", "dzhrbashyan", "auto")


@dataclass(frozen=True)
class MLParams:
    rho: float
    mu: complex

    def __post_init__(self):
        mu = complex(self.mu)
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise PreconditionError("rho must be a positive finite real")
        if not (math.isfinite(mu.real) and math.isfinite(mu.imag)):
            raise PreconditionError("mu must be finite")


@dataclass(frozen=True)
class SeriesDiagnostics:
    terms_used: int
    max_term_modulus: float
    cancellation_digits: float
    converged: bool

    @property
    def unreliable(self) -> bool:
        return self.cancellation_digits > CANCELLATION_DIGITS_LIMIT

    @property
    def flags(self) -> tuple[str, ...]:
        """Why the sum is not usable, by name; empty for a usable sum."""
        return ((("series_cancellation_unreliable",) if self.unreliable else ())
                + (() if self.converged else ("not_converged",)))


# --------------------------------------------------------------------------
# Series (the oracle route)
# --------------------------------------------------------------------------

_LN2 = math.log(2.0)
# z^n is kept as z_pow * 2**scale_exp; rescaling by an exact power of two
# keeps the running power representable without touching its phase.
_RESCALE_TRIGGER = 2.0 ** 800
_RESCALE_SHIFT = 831
#: Terms per array call for 1/Gamma(mu + n/rho) or its logarithm.
_SERIES_BLOCK = 32


class _SeriesBlocks:
    """1/Gamma(mu + n/rho) and log Gamma(mu + n/rho) for one (rho, mu), as
    lists of ``_SERIES_BLOCK`` terms keyed by their first n, each computed
    the first time a call asks for it.  Blocks from ``SERIES_MAX_TERMS`` on
    are computed per call and not kept, so a large term budget cannot grow
    the memo past what the default budget needs.  Two threads may compute
    the same block; ``setdefault`` keeps one list, and both have the same
    bits."""

    def __init__(self, rho: float, mu: complex):
        self.rho = rho
        self.mu = mu
        self._recips: dict[int, list] = {}
        self._logs: dict[int, list] = {}

    def _block(self, table: dict[int, list], n: int, fn) -> list:
        block = table.get(n)
        if block is None:
            block = fn(self.mu + np.arange(n, n + _SERIES_BLOCK) / self.rho).tolist()
            if n < SERIES_MAX_TERMS:
                block = table.setdefault(n, block)
        return block

    # The functions are looked up at call time as module globals, so a
    # wrapper put in their place sees every block that is computed.
    def recips(self, n: int) -> list:
        return self._block(self._recips, n, recip_gamma_oracle)

    def logs(self, n: int) -> list:
        return self._block(self._logs, n, log_gamma)


@functools.lru_cache(maxsize=1)
def _series_blocks(rho: float, mu: complex) -> _SeriesBlocks:
    """The block memo of one (rho, mu).  It holds one pair: a grid or a loop
    over z has one, while a memo of many pairs would keep every pair of a
    sweep for the life of the process.  Pairs that compare equal share a
    memo; mu = 1 + 0j and 1 - 0j do, which is safe because the block
    arguments mu + n/rho lose the sign of a zero part."""
    return _SeriesBlocks(rho, mu)


def ml_series(params: MLParams, z: PolarComplex,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE,
              max_terms: int = SERIES_MAX_TERMS) -> Evaluation:
    """Taylor series with compensated (Kahan) summation.

    The accumulation runs in ordinary complex arithmetic: z^n is built by an
    iterative product (keeping term phases coherent to a few ulp, which the
    exp(n log z) form cannot do once n arg z is large) and multiplied by the
    reciprocal-gamma oracle, computed by block of ``_SERIES_BLOCK`` terms
    once per (rho, mu) and reused by every later call with the same pair
    (one pair is held; see ``_series_blocks``); its exact zeros at the
    poles of Gamma give zero terms.  Log-space magnitudes are used only to
    screen and survive overflow: the running power is rescaled by exact
    powers of two and the gamma factor then absorbs the scale through its
    logarithm (also computed by block and reused, real part +inf at a
    pole).  An underflowed 1/Gamma is not a pole, so once rescaling has
    started only the logarithm is read.
    Summation stops once three consecutive terms fall below
    abs_tol + rel_tol*|partial sum| and the peak term has been passed.
    Non-convergence within the term budget, and overflow of a term or of
    the sum, are reported in the diagnostics (not converged; overflow also
    sets infinite cancellation), not raised.  A term budget below 1 is
    refused.
    """
    if max_terms < 1:
        raise PreconditionError(f"max_terms must be at least 1, got {max_terms}")
    mu = complex(params.mu)
    if z.modulus == 0.0:
        value = complex(recip_gamma_oracle(mu))
        diag = SeriesDiagnostics(1, abs(value), 0.0, True)
        return Evaluation(value, "series", diag)

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
    blocks = _series_blocks(params.rho, mu)

    for n in range(max_terms):
        i = n % _SERIES_BLOCK
        if i == 0:
            recips = blocks.recips(n) if scale_exp == 0 else None
            logs = None
        if scale_exp == 0:
            term = z_pow * recips[i]
        else:
            if logs is None:
                logs = blocks.logs(n - i)
            lg = logs[i]
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
    return Evaluation(total, "series", diag)


# --------------------------------------------------------------------------
# Zeta-plane loop (the generalized route)
# --------------------------------------------------------------------------

def default_ml_spec(params: MLParams, z: PolarComplex,
                    epsilon_hat: Optional[float] = None,
                    deltas: Optional[tuple[float, float]] = None) -> MLContourSpec:
    """Loop spec anchored to z: widest deltas, arc radius chosen for accuracy.

    The arc integrand peaks at exp((|z|(1+eps))^rho); a fixed eps=1 is fine
    for small |z|^rho but loses digits catastrophically once the peak passes
    ~e^18, so the default shrinks the arc toward the pole to cap the peak at
    e^8.5.  Where that would take eps below 0.01, the arc passes inside the
    pole to tau-plane radius 1 (eps = 1/|z| - 1) when both ray half-angles
    are below pi and eps does not round to -1 (past |z| of about 9e15 it
    does); otherwise eps stays at 0.01 and the overflow check of
    ``ml_contour`` may refuse.  Pass ``epsilon_hat`` explicitly to override.
    """
    if z.modulus == 0.0:
        raise PreconditionError("loop route requires |z| > 0; use the series at z = 0")
    if deltas is None:
        deltas = default_ml_deltas(params.rho)
    if epsilon_hat is None:
        cap = _float_power(_ARC_GROWTH_CAP, 1.0 / params.rho) / z.modulus - 1.0
        inner = 1.0 / z.modulus - 1.0
        if cap >= 0.01:
            epsilon_hat = min(1.0, cap)
        elif max(deltas) < math.pi and inner > -1.0:
            epsilon_hat = inner
        else:
            epsilon_hat = 0.01
    return MLContourSpec(params.rho, params.mu, epsilon_hat, z.argument,
                         deltas[0], deltas[1])


def _tau_integrand(params: MLParams, log_scale: complex, pole: complex):
    """exp(w^rho) w^(rho(1-mu)) / (zeta - pole) from zeta and log zeta, with
    log w = log_scale + log zeta, unwrapped.  The zeta loop takes
    log_scale = log z and pole 1 (w = z zeta); the Dzhrbashyan loop takes
    log_scale = 0 and pole z (w = zeta)."""
    rho = params.rho
    mu = complex(params.mu)

    def f(zeta: np.ndarray, log_zeta: np.ndarray) -> np.ndarray:
        log_w = log_scale + log_zeta
        return np.exp(np.exp(rho * log_w) + rho * (1.0 - mu) * log_w) / (zeta - pole)

    return f


def _zeta_ray_decay(params: MLParams, z: PolarComplex, spec: MLContourSpec,
                    ray: RaySegment) -> DecayModel:
    rho = params.rho
    mu = complex(params.mu)
    rate = z.modulus ** rho * abs(math.cos(rho * (z.argument + ray.angle)))
    poly = rho * (1.0 - mu.real)
    # 1/|zeta - 1| on the ray: at most 1/epsilon_hat when the ray starts
    # past the pole, else 1/(the pole's distance to the ray)
    pole_gap = spec.epsilon_hat if spec.epsilon_hat > 0 else ray_distance(ray, 1.0)
    log_base = (poly * math.log(z.modulus)
                + rho * mu.imag * (z.argument + ray.angle)
                - math.log(pole_gap))
    base = math.exp(min(log_base, 700.0))
    return DecayModel.with_power_growth(base, poly, rate, rho, ray.start_radius)


@functools.lru_cache(maxsize=1)
def _zeta_loop(params: MLParams, z: PolarComplex, epsilon_hat: Optional[float],
               deltas: Optional[tuple[float, float]]) -> tuple[MLContourSpec, IntegrationPath]:
    """Every check ``ml_contour`` makes before integrating, and the loop it
    integrates over.  The last loop built is kept, so ``ml_route`` and then
    ``ml_contour`` at one point (method "auto") build and check it once; a
    refused spec raises on every call.  Arguments that compare equal share
    the entry even where the sign of a zero differs (mu = 1 + 0j and 1 - 0j,
    arg z = 0.0 and -0.0): the loop depends on neither, and ``ml_contour``
    reads only the spec's epsilon_hat."""
    spec = default_ml_spec(params, z, epsilon_hat, deltas)
    path = build_zeta_path(spec)
    growth = _float_power(z.modulus * (1.0 + spec.epsilon_hat), params.rho)
    if growth > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError(
            f"modulus too large for the loop route: (|z|(1+eps))^rho = {growth:.3g} "
            f"exceeds {OVERFLOW_EXPONENT_LIMIT:g}; use the series")
    # The rays decay at rate |z|^rho, which can overflow where the arc
    # passes inside the pole and the growth above is small.
    if _float_power(z.modulus, params.rho) == math.inf:
        raise PreconditionError(
            "modulus too large for the loop route: |z|^rho overflows; use the series")
    return spec, path


def ml_route(params: MLParams, z: PolarComplex) -> str:
    """The route ``method="auto"`` takes at z: "contour" when the zeta loop's
    default spec passes every check ``ml_contour`` makes before integrating,
    else "series"."""
    try:
        _zeta_loop(params, z, None, None)
    except PreconditionError:
        return "series"
    return "contour"


def ml_contour(params: MLParams, z: PolarComplex,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE, *,
               epsilon_hat: Optional[float] = None,
               deltas: Optional[tuple[float, float]] = None) -> Evaluation:
    """Loop-integral evaluation anchored to arg z (requires rho > 1/2 and
    arg z inside the admissibility window).  ``epsilon_hat`` and the ray
    half-angles ``deltas`` = (delta1_rho, delta2_rho) override the defaults
    of ``default_ml_spec``; the arc may pass inside the pole
    (-1 < epsilon_hat <= 0) when both half-angles are below pi.

    Raises PreconditionError for rho <= 1/2, at z = 0, for a spec
    ``validate_ml_contour`` refuses (ContourValidityError), when
    exp((|z|(1+eps))^rho) or |z|^rho would overflow, and ConvergenceError
    when the quadrature stalls.
    """
    spec, path = _zeta_loop(params, z, epsilon_hat, None if deltas is None else tuple(deltas))
    log_z = complex(math.log(z.modulus), z.argument)
    raw = integrate_path(_tau_integrand(params, log_z, 1.0), path,
                         decay=lambda ray: _zeta_ray_decay(params, z, spec, ray),
                         cfg=cfg)
    return finish_loop(raw, params.rho / TWO_PI_I, "contour",
                       lambda: f"zeta-loop quadrature did not converge for rho={params.rho}, "
                               f"mu={params.mu}, z=({z.modulus}, {z.argument})")


# --------------------------------------------------------------------------
# Legacy loops (cross-check routes)
# --------------------------------------------------------------------------

def ml_bateman(params: MLParams, z: PolarComplex, epsilon: Optional[float] = None,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> Evaluation:
    """Classical loop route: rays along the cut, arc radius epsilon
    (default 1.5|z|^rho + 0.5).

    Valid for real mu > 0 and epsilon > |z|^rho (the arc must clear every
    zero of the pole factor t^(1/rho) - z).
    """
    if epsilon is None:
        epsilon = 1.5 * _float_power(z.modulus, params.rho) + 0.5
    zc = z.to_complex()
    mu = complex(params.mu)
    if mu.imag != 0.0 or mu.real <= 0.0:
        raise PreconditionError("this route requires real mu > 0; "
                                "complex mu is served by the other routes")
    alpha = 1.0 / params.rho
    beta = mu.real
    pole_radius = _float_power(abs(zc), params.rho)
    if not epsilon > pole_radius:
        raise PreconditionError(
            f"arc radius {epsilon:g} must exceed |z|^rho = {pole_radius:g}")
    if epsilon > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError("arc radius too large: e^t overflows on the arc")
    eps_alpha = _float_power(epsilon, alpha)
    if math.isinf(eps_alpha):
        raise PreconditionError(f"arc radius too large: {epsilon:g}^(1/rho) overflows")
    if not eps_alpha > abs(zc):
        raise PreconditionError(f"arc radius too small: {epsilon:g}^(1/rho) rounds to "
                                f"{eps_alpha:g}, not above |z| = {abs(zc):g}")

    def f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        return np.exp(t + (alpha - beta) * log_t) / (np.exp(alpha * log_t) - zc)

    path = loop_path(epsilon, -math.pi, math.pi)
    base = 1.0 / (eps_alpha - abs(zc))
    decay = DecayModel.with_power_growth(base, alpha - beta, 1.0, 1.0, epsilon)
    raw = integrate_path(f, path, decay=decay, cfg=cfg)
    return finish_loop(raw, 1.0 / TWO_PI_I, "bateman",
                       lambda: f"classical-loop quadrature did not converge for "
                               f"rho={params.rho}, mu={params.mu}, z={zc}")


def ml_dzhrbashyan(params: MLParams, z: PolarComplex, epsilon: Optional[float] = None,
                   theta: Optional[float] = None,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> Evaluation:
    """Loop at opening angle theta (default: mid-window) with pole factor
    tau - z and arc radius epsilon (default |z| + 1).

    Valid for rho > 1/2, theta strictly inside the admissible window, which
    guarantees cos(rho*theta) < 0, i.e. ray decay, a positive finite
    epsilon, and z left of the loop: epsilon > |z|, or any epsilon when
    |arg z| > theta, since the loop's sector |arg tau| < theta then leaves
    z out and no residue enters.
    """
    lo, hi = ml_delta_range(params.rho)
    if theta is None:
        theta = 0.5 * (lo + hi)
    if epsilon is None:
        epsilon = z.modulus + 1.0
    if not 0 < epsilon < math.inf:
        raise PreconditionError(f"arc radius epsilon must be positive and finite, "
                                f"not {epsilon:g}")
    zc = z.to_complex()
    mu = complex(params.mu)
    if not (lo < theta < hi):
        raise PreconditionError(
            f"theta {theta:g} outside the open window ({lo:.6g}, {hi:.6g})")
    outside_arc = epsilon > abs(zc)
    if not (outside_arc or abs(math.remainder(z.argument, 2.0 * math.pi)) > theta):
        raise PreconditionError(f"arc radius {epsilon:g} must exceed |z| = {abs(zc):g} "
                                f"when |arg z| <= theta = {theta:g}")
    if _float_power(epsilon, params.rho) > OVERFLOW_EXPONENT_LIMIT:
        raise PreconditionError("arc radius too large: exp(tau^rho) overflows on the arc")
    rho = params.rho
    path = loop_path(epsilon, -theta, theta)
    rate = abs(math.cos(rho * theta))
    poly = rho * (1.0 - mu.real)
    weight = math.exp(min(rho * abs(mu.imag) * theta, 700.0))

    def decay(ray: RaySegment) -> DecayModel:
        # 1/|tau - z| on the ray: at most 1/(epsilon - |z|) when the arc
        # encloses z, else 1/(z's distance to the ray)
        pole_gap = epsilon - abs(zc) if outside_arc else ray_distance(ray, zc)
        return DecayModel.with_power_growth(weight / pole_gap, poly, rate, rho, epsilon)

    raw = integrate_path(_tau_integrand(params, 0j, zc), path, decay=decay, cfg=cfg)
    return finish_loop(raw, params.rho / TWO_PI_I, "dzhrbashyan",
                       lambda: f"theta-loop quadrature did not converge for "
                               f"rho={params.rho}, mu={params.mu}, z={zc}")


# --------------------------------------------------------------------------
# One dispatch over the routes
# --------------------------------------------------------------------------

def evaluate_ml(params: MLParams, z: PolarComplex, method: str = "auto",
                cfg: QuadratureConfig = DEFAULT_QUADRATURE, *,
                max_terms: int = SERIES_MAX_TERMS,
                epsilon_hat: Optional[float] = None,
                delta1_rho: Optional[float] = None,
                delta2_rho: Optional[float] = None,
                epsilon: Optional[float] = None,
                theta: Optional[float] = None) -> Evaluation:
    """E(rho, mu; z) by ``method``, one of ``ML_METHODS``: "series",
    "contour", "bateman", "dzhrbashyan", or "auto" for the route
    ``ml_route`` picks.

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
        if (delta1_rho is None) != (delta2_rho is None):
            raise PreconditionError("delta1_rho and delta2_rho go together")
        deltas = None if delta1_rho is None else (delta1_rho, delta2_rho)
        return ml_contour(params, z, cfg, epsilon_hat=epsilon_hat, deltas=deltas)
    if method == "bateman":
        return ml_bateman(params, z, epsilon, cfg)
    if method == "dzhrbashyan":
        return ml_dzhrbashyan(params, z, epsilon, theta, cfg)
    raise PreconditionError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# Closed forms and cross-method comparison
# --------------------------------------------------------------------------

def ml_closed_form(params: MLParams, z: complex) -> Optional[complex]:
    """Known elementary cases; None when (rho, mu) has no closed form here.

    Raises PreconditionError where the value leaves the double range."""
    z = complex(z)
    mu = complex(params.mu)
    if mu.imag != 0.0:
        return None
    key = (params.rho, mu.real)
    try:
        if key == (1.0, 1.0):
            return cmath.exp(z)
        if key == (1.0, 2.0):
            if z == 0:
                return 1.0 + 0j
            return (cmath.exp(z) - 1.0) / z
        if key == (0.5, 1.0):
            return cmath.cosh(cmath.sqrt(z))
    except OverflowError:
        raise PreconditionError(
            f"closed form overflows for rho={params.rho}, mu={params.mu}, z={z}") from None
    return None


def relative_spread(values: list[complex]) -> float:
    """Largest pairwise distance over the modulus of the mean."""
    worst = max(abs(a - b) for a in values for b in values)
    scale = abs(sum(values) / len(values))
    return worst / max(scale, 1e-300)


@dataclass(frozen=True)
class MethodOutcome:
    method: str
    status: str  # "ok" | "skipped" | "failed"
    value: Optional[complex] = None
    error_estimate: Optional[float] = None
    reliable: bool = False
    reason: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    outcomes: tuple[MethodOutcome, ...]
    deviations: dict[tuple[str, str], float]

    def outcome(self, method: str) -> MethodOutcome:
        for o in self.outcomes:
            if o.method == method:
                return o
        raise KeyError(method)


def compare_methods(params: MLParams, z: PolarComplex,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                    bateman_epsilon: Optional[float] = None,
                    dzh_epsilon: Optional[float] = None,
                    dzh_theta: Optional[float] = None) -> ComparisonReport:
    """Every route through ``evaluate_ml``, and the closed form where there
    is one, with pairwise deviations among the ``reliable`` outcomes.
    A refusal (PreconditionError) is ``skipped``; a failure (ConvergenceError)
    or a series that did not converge (its value kept) is ``failed``.
    ``reliable`` means ``ok`` with no flag: a series flagged for cancellation
    is ``ok`` but not reliable."""
    def outcome(method: str, **options) -> MethodOutcome:
        try:
            ev = evaluate_ml(params, z, method, cfg, **options)
        except PreconditionError as exc:
            return MethodOutcome(method, "skipped", reason=str(exc))
        except ConvergenceError as exc:
            return MethodOutcome(method, "failed", reason=str(exc))
        diag = ev.diagnostics
        if not diag.converged:  # only the series returns a result that did not converge
            return MethodOutcome(method, "failed", ev.value, reason="series did not converge")
        if isinstance(diag, SeriesDiagnostics):
            return MethodOutcome(method, "ok", ev.value, reliable=not diag.flags)
        return MethodOutcome(method, "ok", ev.value, diag.error_estimate, reliable=True)

    outcomes = [outcome("series"), outcome("contour"),
                outcome("bateman", epsilon=bateman_epsilon),
                outcome("dzhrbashyan", epsilon=dzh_epsilon, theta=dzh_theta)]

    try:
        closed = ml_closed_form(params, z.to_complex())
    except PreconditionError as exc:
        outcomes.append(MethodOutcome("closed-form", "skipped", reason=str(exc)))
    else:
        if closed is not None:
            outcomes.append(MethodOutcome("closed-form", "ok", closed, 0.0, reliable=True))

    usable = [o for o in outcomes if o.reliable]
    deviations = {(a.method, b.method): relative_spread([a.value, b.value])
                  for i, a in enumerate(usable) for b in usable[i + 1:]}
    return ComparisonReport(tuple(outcomes), deviations)
