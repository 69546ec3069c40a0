"""Contour families, their admissibility windows, and path descriptions.

Everything here is pure geometry: where the rays and arcs of a loop contour
lie, and for which parameter combinations the loop integrals converge.
Angles are radians stored as plain floats and are kept UNWRAPPED: a ray at
angle ``-2*pi`` is a different object than a ray at angle ``0`` because the
integrands downstream evaluate powers ``w**a`` from the accumulated argument
and therefore live on a fixed sheet of the Riemann surface.

The admissibility windows are open; on the boundary the ray integrands stop
decaying and the integrals diverge, so the validity predicates reject the
boundary itself and, by default, a small guard band around it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Union

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Open window bounds are rejected together with a guard band of this width
#: (radians): the ray integrals diverge exactly on the boundary, and within
#: ~1e-9 of it the decay rate is too weak to be numerically useful.
DEFAULT_BOUNDARY_MARGIN = 1e-9

#: Consecutive path segments must share endpoints to this tolerance.
ENDPOINT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PolarComplex:
    """A complex number as (modulus, unwrapped argument).

    The argument is deliberately not reduced to the principal range: the
    contour parameterizations legitimately produce arguments beyond pi, and
    ``power`` must be a deterministic function of the stored argument.
    """

    modulus: float
    argument: float

    def __post_init__(self):
        if not (math.isfinite(self.modulus) and math.isfinite(self.argument)):
            raise ValueError("PolarComplex fields must be finite")
        if self.modulus < 0:
            raise ValueError("PolarComplex modulus must be nonnegative")

    @classmethod
    def from_complex(cls, w: complex) -> "PolarComplex":
        """Convert from Cartesian form using the principal argument in (-pi, pi]."""
        w = complex(w)
        arg = math.atan2(w.imag, w.real)
        if arg == -math.pi:  # atan2 returns -pi for negative real axis with -0.0 imag
            arg = math.pi
        return cls(abs(w), arg)

    def to_complex(self) -> complex:
        return self.modulus * cmath.exp(1j * self.argument)

    def log(self) -> complex:
        """log on the sheet selected by the stored argument."""
        if self.modulus == 0:
            raise ValueError("log of zero modulus")
        return complex(math.log(self.modulus), self.argument)

    def power(self, a: complex) -> complex:
        """w**a computed as exp(a * (ln modulus + i*argument))."""
        if self.modulus == 0:
            a = complex(a)
            if a == 0:
                return 1.0 + 0j
            if a.real > 0:
                return 0j
            raise ValueError("0 ** a undefined for Re a <= 0")
        return cmath.exp(complex(a) * self.log())


@dataclass(frozen=True)
class Violation:
    """One violated constraint and the distance to the admissible region."""

    constraint: str
    distance: float


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class GammaContourSpec:
    """Loop for the reciprocal gamma integral: arc radius ``epsilon``, rotation
    ``psi``, ray angles ``-delta1 + psi`` and ``delta2 + psi``."""

    epsilon: float
    psi: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class LambdaSpec:
    """Complex scaling of the gamma loop.

    ``lam`` rotates/stretches the whole plane; ``psi_lambda`` is the residual
    contour rotation, admissible in the window shifted by ``-lam.argument``.
    """

    lam: PolarComplex
    psi_lambda: float


@dataclass(frozen=True)
class MLContourSpec:
    """Loop for the Mittag-Leffler integral in the zeta plane.

    The arc radius is ``1 + epsilon_hat`` (the simple pole sits at 1); the
    loop is anchored to ``arg_z``, which must be supplied unwrapped.
    """

    rho: float
    mu: complex
    epsilon_hat: float
    arg_z: float
    delta1_rho: float
    delta2_rho: float


@dataclass(frozen=True)
class RaySegment:
    """Radial piece at a fixed (unwrapped) angle.

    ``end_radius=None`` means the ray extends to infinity and the quadrature
    engine must truncate it from a decay bound.  ``direction`` is the
    traversal sense: outbound runs from ``start_radius`` toward
    ``end_radius``/infinity, inbound the reverse.
    """

    angle: float
    start_radius: float
    direction: Literal["inbound", "outbound"] = "outbound"
    end_radius: float | None = None

    def __post_init__(self):
        if self.start_radius <= 0:
            raise ValueError("ray start_radius must be positive")
        if self.direction not in ("inbound", "outbound"):
            raise ValueError(f"unknown ray direction {self.direction!r}")
        if self.end_radius is not None and self.end_radius <= self.start_radius:
            raise ValueError("ray end_radius must exceed start_radius")

    @property
    def infinite(self) -> bool:
        return self.end_radius is None

    def traversal_start(self) -> tuple[float, float]:
        far = math.inf if self.end_radius is None else self.end_radius
        r = far if self.direction == "inbound" else self.start_radius
        return (r, self.angle)

    def traversal_end(self) -> tuple[float, float]:
        far = math.inf if self.end_radius is None else self.end_radius
        r = self.start_radius if self.direction == "inbound" else far
        return (r, self.angle)

    def reversed(self) -> "RaySegment":
        flipped = "outbound" if self.direction == "inbound" else "inbound"
        return RaySegment(self.angle, self.start_radius, flipped, self.end_radius)


@dataclass(frozen=True)
class ArcSegment:
    """Circular piece at fixed radius, traversed from start_angle to end_angle.

    Angles are unwrapped; a descending span is a clockwise traversal.
    """

    radius: float
    start_angle: float
    end_angle: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")

    def traversal_start(self) -> tuple[float, float]:
        return (self.radius, self.start_angle)

    def traversal_end(self) -> tuple[float, float]:
        return (self.radius, self.end_angle)

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.radius, self.end_angle, self.start_angle)


Segment = Union[RaySegment, ArcSegment]


@dataclass(frozen=True)
class IntegrationPath:
    """Ordered segments; consecutive traversal endpoints must coincide."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for gap_mod, gap_ang in self.continuity_gaps():
            if gap_mod > ENDPOINT_TOLERANCE or gap_ang > ENDPOINT_TOLERANCE:
                raise ValueError(
                    f"path segments do not share endpoints "
                    f"(gap modulus {gap_mod:.3g}, gap angle {gap_ang:.3g})"
                )

    def continuity_gaps(self) -> list[tuple[float, float]]:
        """(|delta modulus|, |delta angle|) for each interior junction."""
        gaps = []
        for a, b in zip(self.segments[:-1], self.segments[1:]):
            (r1, t1), (r2, t2) = a.traversal_end(), b.traversal_start()
            if math.isinf(r1) or math.isinf(r2):
                gaps.append((0.0 if r1 == r2 else math.inf, abs(t1 - t2)))
            else:
                gaps.append((abs(r1 - r2), abs(t1 - t2)))
        return gaps

    def reversed(self) -> "IntegrationPath":
        return IntegrationPath(tuple(s.reversed() for s in reversed(self.segments)))


# --------------------------------------------------------------------------
# Admissibility windows
# --------------------------------------------------------------------------

def gamma_psi_window(delta1: float, delta2: float) -> tuple[float, float]:
    """Open interval of admissible rotation angles for the gamma loop."""
    for name, d in (("delta1", delta1), ("delta2", delta2)):
        if not (HALF_PI < d <= math.pi):
            raise ValueError(f"{name} out of range (pi/2, pi]")
    return (HALF_PI - delta2, -HALF_PI + delta1)


def ml_arg_window(rho: float, delta1_rho: float, delta2_rho: float) -> tuple[float, float]:
    """Open interval of admissible arg z for the zeta-loop representation."""
    if not (rho > 0.5 and math.isfinite(rho)):
        raise ValueError("rho must exceed 1/2")
    hi_delta = min(math.pi, math.pi / rho)
    lo_delta = HALF_PI / rho
    for name, d in (("delta1_rho", delta1_rho), ("delta2_rho", delta2_rho)):
        if not (lo_delta < d <= hi_delta):
            raise ValueError(f"{name} delta out of range ({lo_delta:.6g}, {hi_delta:.6g}]")
    return (HALF_PI / rho - delta2_rho + math.pi, -HALF_PI / rho + delta1_rho + math.pi)


def default_ml_deltas(rho: float) -> tuple[float, float]:
    """Widest admissible ray half-angles, maximizing the arg z window."""
    if not (rho > 0.5 and math.isfinite(rho)):
        raise ValueError("rho must exceed 1/2")
    d = min(math.pi, math.pi / rho)
    return (d, d)


# --------------------------------------------------------------------------
# Validity predicates (total functions: never raise on bad values)
# --------------------------------------------------------------------------

def _finite(violations: list, **fields) -> bool:
    ok = True
    for name, value in fields.items():
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            violations.append(Violation(f"{name} not finite", math.inf))
            ok = False
    return ok


def _check_gamma_deltas(violations: list, spec: GammaContourSpec, margin: float) -> None:
    """Gamma-loop ray half-angles: open at pi/2 (plus ``margin``), closed at pi."""
    for name, d in (("delta1", spec.delta1), ("delta2", spec.delta2)):
        if d <= HALF_PI + margin:
            violations.append(Violation(f"{name} at or below pi/2", HALF_PI - d))
        elif d > math.pi:
            violations.append(Violation(f"{name} above pi", d - math.pi))


def validate_gamma_contour(spec: GammaContourSpec,
                           margin: float = DEFAULT_BOUNDARY_MARGIN) -> ValidityReport:
    """Check a gamma loop spec against its admissibility window.

    The psi window and the lower delta bounds are open (boundary rejected,
    plus a guard band of ``margin``); the upper delta bounds are inclusive.
    """
    violations: list[Violation] = []
    if not _finite(violations, epsilon=spec.epsilon, psi=spec.psi,
                   delta1=spec.delta1, delta2=spec.delta2):
        return ValidityReport(False, tuple(violations))

    if spec.epsilon <= 0:
        violations.append(Violation("epsilon must be positive", -spec.epsilon))
    _check_gamma_deltas(violations, spec, margin)
    if not violations:
        low, high = gamma_psi_window(spec.delta1, spec.delta2)
        if spec.psi <= low + margin:
            violations.append(Violation("psi at or below lower window bound", low - spec.psi))
        if spec.psi >= high - margin:
            violations.append(Violation("psi at or above upper window bound", spec.psi - high))
    return ValidityReport(not violations, tuple(violations))


def validate_lambda_contour(lam: LambdaSpec, spec: GammaContourSpec,
                            margin: float = DEFAULT_BOUNDARY_MARGIN) -> ValidityReport:
    """Joint admissibility of a scaling lambda with a gamma loop's deltas.

    Only epsilon and the deltas of ``spec`` matter here; the rotation is
    ``lam.psi_lambda`` and its window is the gamma psi window shifted by
    ``-arg lambda``.
    """
    violations: list[Violation] = []
    if not _finite(violations, epsilon=spec.epsilon, delta1=spec.delta1,
                   delta2=spec.delta2, lam_modulus=lam.lam.modulus,
                   lam_argument=lam.lam.argument, psi_lambda=lam.psi_lambda):
        return ValidityReport(False, tuple(violations))

    if lam.lam.modulus == 0:
        violations.append(Violation("lambda must be nonzero", 0.0))
    if spec.epsilon <= 0:
        violations.append(Violation("epsilon must be positive", -spec.epsilon))
    _check_gamma_deltas(violations, spec, margin)
    if not violations:
        low = HALF_PI - spec.delta2 - lam.lam.argument
        high = -HALF_PI + spec.delta1 - lam.lam.argument
        if lam.psi_lambda <= low + margin:
            violations.append(Violation("psi_lambda at or below lower window bound",
                                        low - lam.psi_lambda))
        if lam.psi_lambda >= high - margin:
            violations.append(Violation("psi_lambda at or above upper window bound",
                                        lam.psi_lambda - high))
    return ValidityReport(not violations, tuple(violations))


def validate_ml_contour(spec: MLContourSpec,
                        margin: float = DEFAULT_BOUNDARY_MARGIN) -> ValidityReport:
    """Check a zeta-loop spec: rho, epsilon_hat, delta ranges and the arg z window.

    Delta upper bounds are inclusive; everything else is strict with a guard
    band.  A note (not a violation) is emitted when arg z falls outside
    (pi/2, 3pi/2), where the loop is anchored unusually far from the negative
    real direction; the series route is the recommended cross-check there.
    """
    violations: list[Violation] = []
    notes: list[str] = []
    if not _finite(violations, rho=spec.rho, mu=spec.mu, epsilon_hat=spec.epsilon_hat,
                   arg_z=spec.arg_z, delta1_rho=spec.delta1_rho,
                   delta2_rho=spec.delta2_rho):
        return ValidityReport(False, tuple(violations))

    if spec.rho <= 0.5:
        violations.append(Violation("rho must exceed 1/2", 0.5 - spec.rho))
    if spec.epsilon_hat <= 0:
        violations.append(Violation("epsilon_hat must be positive", -spec.epsilon_hat))
    if not violations:
        lo_delta = HALF_PI / spec.rho
        hi_delta = min(math.pi, math.pi / spec.rho)
        for name, d in (("delta1_rho", spec.delta1_rho), ("delta2_rho", spec.delta2_rho)):
            if d <= lo_delta + margin:
                violations.append(Violation(f"{name} at or below pi/(2 rho)", lo_delta - d))
            elif d > hi_delta:
                violations.append(Violation(f"{name} above min(pi, pi/rho)", d - hi_delta))
    if not violations:
        low, high = ml_arg_window(spec.rho, spec.delta1_rho, spec.delta2_rho)
        if spec.arg_z <= low + margin:
            violations.append(Violation("arg z at or below lower window bound",
                                        low - spec.arg_z))
        if spec.arg_z >= high - margin:
            violations.append(Violation("arg z at or above upper window bound",
                                        spec.arg_z - high))
    if not (HALF_PI < spec.arg_z < 3 * HALF_PI):
        notes.append("arg z outside (pi/2, 3pi/2); cross-checking against the "
                     "series route is recommended")
    return ValidityReport(not violations, tuple(violations), tuple(notes))


# --------------------------------------------------------------------------
# Path construction
# --------------------------------------------------------------------------

def loop_path(radius: float, a_in: float, a_out: float) -> IntegrationPath:
    """Ray in at angle ``a_in``, arc of ``radius`` from ``a_in`` to ``a_out``,
    ray out at ``a_out``: the loop shape every route integrates over."""
    return IntegrationPath((
        RaySegment(a_in, radius, "inbound"),
        ArcSegment(radius, a_in, a_out),
        RaySegment(a_out, radius, "outbound"),
    ))


def build_gamma_path(spec: GammaContourSpec,
                     margin: float = DEFAULT_BOUNDARY_MARGIN) -> IntegrationPath:
    """Loop for the gamma integral: ray in at -delta1+psi, arc of radius
    epsilon swept counterclockwise, ray out at delta2+psi."""
    from .errors import ContourValidityError

    report = validate_gamma_contour(spec, margin)
    if not report.ok:
        raise ContourValidityError(report)
    return loop_path(spec.epsilon, -spec.delta1 + spec.psi, spec.delta2 + spec.psi)


def build_lambda_path(lam: LambdaSpec, spec: GammaContourSpec,
                      margin: float = DEFAULT_BOUNDARY_MARGIN) -> IntegrationPath:
    """Scaled gamma loop: radius epsilon/|lambda|, rotation psi_lambda."""
    from .errors import ContourValidityError

    report = validate_lambda_contour(lam, spec, margin)
    if not report.ok:
        raise ContourValidityError(report)
    return loop_path(spec.epsilon / lam.lam.modulus,
                     -spec.delta1 + lam.psi_lambda, spec.delta2 + lam.psi_lambda)


def build_zeta_path(spec: MLContourSpec,
                    margin: float = DEFAULT_BOUNDARY_MARGIN) -> IntegrationPath:
    """Zeta-plane loop: rays at -delta1_rho-pi and delta2_rho-pi, arc radius
    1+epsilon_hat.  The simple pole at zeta=1 stays at distance >= epsilon_hat."""
    from .errors import ContourValidityError

    report = validate_ml_contour(spec, margin)
    if not report.ok:
        raise ContourValidityError(report)
    return loop_path(1.0 + spec.epsilon_hat,
                     -spec.delta1_rho - math.pi, spec.delta2_rho - math.pi)
