"""Two-parameter Mittag-Leffler evaluation, four ways.

The function here is E(rho, mu; z) = sum_n z^n / Gamma(mu + n/rho), rho > 0.
Routes:

* ``ml_series``      -- Taylor series with compensated summation (the oracle).
* ``ml_contour``     -- zeta loop anchored to arg z (rho > 1/2), in s = (z zeta)^rho.
* ``ml_bateman``     -- classical loop along the cut, in s = tau^rho, any mu; both
                        are the gamma loop's kernel and ``loop_bounds`` (``_s_loop``).
* ``ml_dzhrbashyan`` -- loop at opening angle theta with pole factor tau - z, in tau.

All four take ``(params, z: PolarComplex)`` first; the series and the zeta
loop then take ``cfg`` and their own parameters, the Bateman and Dzhrbashyan
loops their own contour parameters and then ``cfg``.  Each owns the defaults
of its parameters and returns an ``Evaluation``.  The zeta loop's free
parameters are ``epsilon_hat`` and ``deltas`` (rho, mu and arg z fix the
rest).  ``evaluate_ml`` dispatches on a route name from ``ML_METHODS``, and
``ml_route`` is the rule behind ``method="auto"``: the series where |z|^rho is
small (``AUTO_SERIES_MODULUS``, set from a measured sweep), where its terms
cannot cancel much; elsewhere the zeta loop where it runs, else the series.

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
from .gamma import TWO_PI_I, is_gamma_pole, log_gamma, loop_bounds, loop_integrand
from .gamma import recip_gamma_oracle, refuse_arc_growth
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
    _float_exp,
    _float_power,
    finish_loop,
    integrate_path,
)

#: A series result with more than this many digits lost to cancellation is
#: flagged unreliable: doubles keep fewer than 7 trustworthy digits past it.
CANCELLATION_DIGITS_LIMIT = 9.0

#: Cap on (|z|(1+eps))^rho used when choosing the default arc radius.  The
#: arc integrand peaks at exp of this value while the result stays O(1), so
#: doubles lose roughly exp(cap)*eps absolutely; 8.5 keeps that floor below
#: the default quadrature tolerance.
_ARC_GROWTH_CAP = 8.5

#: The series' default term budget.
SERIES_MAX_TERMS = 10000

# The auto route's series region (``ml_route``), set from the sweep in
# ``tests/auto_route_sweep.py``: rho in [0.51, 100], mu in {0.5, 1, 2,
# 1+0.5i, -1.5+i, -3+2i}, arg z at 2% to 98% of the zeta loop's window, each
# cell scored against an mpmath reference.  For |z|^rho <= 5 and rho <= 20
# the series stays within 4.9e-11 (2.0e-11 for rho in [0.55, 4]); at rho = 1
# it reaches 1.6e-10 at |z|^rho = 6 and 1.0e-8 at 8, as the largest term,
# about e^(|z|^rho), cancels against an O(1) value.  At every |z|^rho the
# loop raised or was off by more than 1e-8 at 9 to 178 of the 360 cells with
# rho <= 20, and the series was within 1e-8 at all of them.  A real mu <= 0
# at large rho, outside the sweep, makes |E| smaller and the series cancel
# more: at rho = 20, mu = -3, |z|^rho = 5 it is off by 1.8e-9, unflagged,
# while the loop raises there.
#: ``method="auto"`` sums the series where |z|^rho is at most this.
AUTO_SERIES_MODULUS = 5.0
#: ... and rho is at most this: at rho = 50 and 100 the series needs up to
#: 1,652 and 3,300 terms at |z|^rho = 5, so the loop keeps those.
AUTO_SERIES_RHO_MAX = 20.0
#: The worst relative series error in that region, rounded up: a
#: ``rel_tol`` below it keeps the loop wherever the loop runs.
AUTO_SERIES_ERROR = 5e-11

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
    abs_tol + rel_tol*|partial sum| and the peak term has been passed; a
    pole's zero term neither counts toward the three nor breaks the run.
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
            # a pole's exact zero says nothing of the tail
            if mod or not is_gamma_pole(mu + n / params.rho):
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


@functools.lru_cache(maxsize=1)
def _zeta_loop(params: MLParams, z: PolarComplex, epsilon_hat: Optional[float],
               deltas: Optional[tuple[float, float]]) -> tuple[IntegrationPath, dict]:
    """The one place that decides whether the zeta loop runs at z: every
    check ``ml_contour`` makes, its loop in s and ``loop_bounds``.  The last
    loop built is kept, so ``ml_route`` and then ``ml_contour`` at one point
    (method "auto") build and check it once; a refused loop raises on every
    call.  Arguments equal but for a zero's sign (mu = 1 +- 0j, arg z =
    +-0.0) share the entry: the loop ignores that sign, the bounds pass it
    only through cos, sin and exp, and the integrand, whose bits keep it, is
    built per call."""
    path = build_zeta_path(default_ml_spec(params, z, epsilon_hat, deltas), z.modulus)
    return path, loop_bounds(path, params.mu, alpha=1.0 / params.rho, z=z)


def ml_route(params: MLParams, z: PolarComplex,
             cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> str:
    """The route ``method="auto"`` takes at z.

    "series" where |z|^rho <= ``AUTO_SERIES_MODULUS``, rho <=
    ``AUTO_SERIES_RHO_MAX`` and ``cfg.rel_tol`` >= ``AUTO_SERIES_ERROR``:
    there the largest term is about e^(|z|^rho), two digits above an O(1)
    value, while a loop costs some thousand integrand evaluations.
    Elsewhere "contour" where ``_zeta_loop`` refuses nothing for the default
    spec, ray bounds included, else "series".  The three constants come
    from the sweep in ``tests/auto_route_sweep.py``."""
    if (params.rho <= AUTO_SERIES_RHO_MAX and cfg.rel_tol >= AUTO_SERIES_ERROR
            and _float_power(z.modulus, params.rho) <= AUTO_SERIES_MODULUS):
        return "series"
    try:
        _zeta_loop(params, z, None, None)
    except PreconditionError:
        return "series"
    return "contour"


def ml_contour(params: MLParams, z: PolarComplex,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE, *,
               epsilon_hat: Optional[float] = None,
               deltas: Optional[tuple[float, float]] = None) -> Evaluation:
    """The zeta loop anchored to arg z (requires rho > 1/2 and arg z inside
    the admissibility window), integrated in s = (z zeta)^rho.  Its
    zeta-plane ``epsilon_hat`` and ray half-angles ``deltas`` = (delta1_rho,
    delta2_rho) override the defaults of ``default_ml_spec``; the arc may
    pass inside the pole (-1 < epsilon_hat <= 0) when both are below pi.

    Raises PreconditionError, before integrating, for rho <= 1/2, at z = 0,
    for a spec ``validate_ml_contour`` refuses (ContourValidityError), an arc
    peak e^((|z|(1+eps))^rho) past e^690 or a ray bound outside the double
    range (``loop_bounds``); ConvergenceError when the quadrature stalls.
    """
    path, bounds = _zeta_loop(params, z, epsilon_hat, None if deltas is None else tuple(deltas))
    return _s_loop(params, z, path, bounds, cfg, "contour",
                   lambda: f"zeta-loop quadrature did not converge for rho={params.rho}, "
                           f"mu={params.mu}, z=({z.modulus}, {z.argument})")


def _s_loop(params: MLParams, z: PolarComplex, path: IntegrationPath, bounds: dict,
            cfg: QuadratureConfig, method: str, failure) -> Evaluation:
    """E(rho, mu; z) as 1/(2 pi i) times the kernel at alpha = 1/rho on a loop in s = tau^rho."""
    raw = integrate_path(loop_integrand(params.mu, alpha=1.0 / params.rho, z=z.to_complex()),
                         path, decay=bounds.__getitem__, cfg=cfg)
    return finish_loop(raw, 1.0 / TWO_PI_I, method, failure)


# --------------------------------------------------------------------------
# Legacy loops (cross-check routes)
# --------------------------------------------------------------------------

def ml_bateman(params: MLParams, z: PolarComplex, epsilon: Optional[float] = None,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> Evaluation:
    """Classical loop route in s = tau^rho at any mu: rays along the cut, arc
    radius epsilon (default 1.5|z|^rho + 0.5), the zeta loop's kernel and
    ``loop_bounds``.  epsilon must exceed |z|^rho, also once epsilon^(1/rho)
    is rounded: the arc must clear every zero of the pole factor t^(1/rho) - z."""
    if epsilon is None:
        epsilon = 1.5 * _float_power(z.modulus, params.rho) + 0.5
    zc = z.to_complex()
    pole_radius = _float_power(abs(zc), params.rho)
    if not epsilon > pole_radius:
        raise PreconditionError(
            f"arc radius {epsilon:g} must exceed |z|^rho = {pole_radius:g}")
    eps_alpha = _float_power(epsilon, 1.0 / params.rho)
    if math.isinf(eps_alpha):
        raise PreconditionError(f"arc radius too large: {epsilon:g}^(1/rho) overflows")
    if not eps_alpha > abs(zc):
        raise PreconditionError(f"arc radius too small: {epsilon:g}^(1/rho) rounds to "
                                f"{eps_alpha:g}, not above |z| = {abs(zc):g}")
    path = loop_path(epsilon, -math.pi, math.pi)
    return _s_loop(params, z, path, loop_bounds(path, params.mu, alpha=1.0 / params.rho, z=z),
                   cfg, "bateman", lambda: f"classical-loop quadrature did not converge for "
                                           f"rho={params.rho}, mu={complex(params.mu)}, z={zc}")


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
    rho = params.rho
    u0 = _float_power(epsilon, rho)
    refuse_arc_growth(u0)  # |exp(tau^rho)| peaks at e^(epsilon^rho) on the arc
    path = loop_path(epsilon, -theta, theta)
    rate = abs(math.cos(rho * theta))
    weight = _float_exp(rho * abs(mu.imag) * theta)

    def decay(ray: RaySegment) -> DecayModel:
        # In u = r^rho, from max(u0, 1) (a tail is cut only past r = 1.5
        # epsilon + 1 > 1, and u0 may underflow to 0): |exp(tau^rho)| =
        # e^(-rate u), |tau^(rho(1-mu))| <= weight u^(1 - Re mu), dr/du =
        # u^(1/rho - 1)/rho, and 1/|tau - z| is at most 1/(epsilon - |z|)
        # when the arc encloses z, else 1/(z's distance to the ray).
        gap = epsilon - abs(zc) if outside_arc else ray_distance(ray, zc)
        folded = DecayModel.with_power_growth(weight / (rho * gap), 1.0 / rho - mu.real,
                                              rate, max(u0, 1.0))
        return DecayModel(folded.amplitude, folded.rate, rho)

    def f(tau: np.ndarray, log_tau: np.ndarray) -> np.ndarray:
        return np.exp(np.exp(rho * log_tau) + rho * (1.0 - mu) * log_tau) / (tau - zc)

    raw = integrate_path(f, path, decay=decay, cfg=cfg)
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
    ``ml_route(params, z, cfg)`` picks: the series where |z|^rho <=
    ``AUTO_SERIES_MODULUS`` and rho <= ``AUTO_SERIES_RHO_MAX``, unless
    ``cfg.rel_tol`` is below the series' measured ``AUTO_SERIES_ERROR``;
    elsewhere the zeta loop where it runs, else the series.

    Each option reaches only the route that reads it: ``max_terms`` the
    series; ``epsilon_hat`` and the ray half-angles ``delta1_rho``,
    ``delta2_rho`` (both or neither) override the zeta loop's default spec;
    ``epsilon`` is the Bateman or Dzhrbashyan arc radius and ``theta`` the
    Dzhrbashyan opening angle.  Unset, each route uses its own default.
    """
    if method == "auto":
        method = ml_route(params, z, cfg)
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
