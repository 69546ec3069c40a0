"""Reciprocal gamma: one rotated-loop contour route plus an independent oracle.

The contour route evaluates 1/Gamma(s) as a loop integral of e^t * t^(-s),
where t^(-s) is always computed from the unwrapped path angle.  An optional
complex scaling lambda integrates e^(lambda t) t^(-s) instead, times
lambda^(1-s), over the loop of radius epsilon/|lambda|; psi is then the
rotation within the window shifted by -arg lambda.  The oracle is
a fixed-coefficient Lanczos approximation with reflection for Re s < 1/2; it
shares no code with the contour machinery and anchors all cross-checks.  One
array kernel computes log Gamma, and ``log_gamma`` and ``recip_gamma_oracle``
are thin wrappers over it that take a scalar or an array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .geometry import (
    UNIT_LAMBDA,
    GammaContourSpec,
    PolarComplex,
    RaySegment,
    build_gamma_path,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    DecayModel,
    Evaluation,
    QuadratureConfig,
    finish_loop,
    integrate_path,
)

TWO_PI_I = 2j * math.pi

#: Classical symmetric loop: unit arc radius, no rotation, rays along the cut.
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
    acc = _LANCZOS_COEFFS[0] + np.sum(
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
    out = np.empty_like(s)
    right = s.real >= 0.5
    if right.any():
        out[right] = _lanczos_log_gamma(s[right])
    if not right.all():
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

def _loop_integrand(s: complex, lam: complex):
    """exp(lam*t) * t^(-s) from t and its log with the unwrapped angle."""
    s = complex(s)
    lam = complex(lam)

    def f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        return np.exp(lam * t - s * log_t)

    return f


def _loop_ray_decay(s: complex, ray: RaySegment, lam: PolarComplex) -> DecayModel:
    """Decay of |exp(lam t) t^(-s)| along a ray: the exponential rate is
    |lam| |cos(arg lam + angle)| and the power prefactor is r^(-Re s)."""
    rate = lam.modulus * abs(math.cos(lam.argument + ray.angle))
    base = math.exp(min(s.imag * ray.angle, 700.0))
    return DecayModel.with_power_growth(base, -s.real, rate, 1.0, ray.start_radius)


def recip_gamma_contour(s: complex,
                        spec: GammaContourSpec = DEFAULT_GAMMA_SPEC,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                        lam: PolarComplex = UNIT_LAMBDA) -> Evaluation:
    """1/Gamma(s) as lam^(1-s)/(2pi i) times the loop integral of
    e^(lam t) t^(-s).

    Substituting t -> lam t moves the loop to radius epsilon/|lam| and its
    psi window by -arg lam; the prefactor is taken from the stored argument
    of ``lam``, the same value that shifts the window.  Raises
    PreconditionError for a non-finite s or where lam^(1-s) leaves the
    double range, ContourValidityError for an inadmissible (spec, lam) and
    ConvergenceError when the quadrature cannot reach its tolerance.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise PreconditionError("s must be finite")
    path = build_gamma_path(spec, lam=lam)
    try:
        factor = lam.power(1.0 - s) / TWO_PI_I
    except OverflowError:
        raise PreconditionError(f"lam^(1-s) overflows at s={s}, "
                                f"lam=({lam.modulus}, {lam.argument})") from None
    raw = integrate_path(_loop_integrand(s, lam.to_complex()), path,
                         decay=lambda ray: _loop_ray_decay(s, ray, lam), cfg=cfg)
    return finish_loop(raw, factor, "contour",
                       lambda: f"gamma contour quadrature did not converge at s={s}")


def reflection_residual(s: complex,
                        spec: GammaContourSpec = DEFAULT_GAMMA_SPEC,
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """| (1/Gamma(s)) (1/Gamma(1-s)) - sin(pi s)/pi | with both reciprocal
    gammas from the contour route; a self-consistency diagnostic."""
    s = complex(s)
    a = recip_gamma_contour(s, spec, cfg).value
    b = recip_gamma_contour(1.0 - s, spec, cfg).value
    with np.errstate(divide="ignore"):  # log 0 = -inf at integers
        target = complex(np.exp(_log_sinpi(np.array([s])))[0]) / math.pi
    return abs(a * b - target)
