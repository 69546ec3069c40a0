"""Contour families, their admissibility windows, and path descriptions.

Everything here is pure geometry: where the rays and arcs of a loop contour
lie, and for which parameter combinations the loop integrals converge.
Angles are radians stored as plain floats and are kept UNWRAPPED: a ray at
angle ``-2*pi`` is a different object than a ray at angle ``0`` because the
integrands downstream evaluate powers ``w**a`` from the accumulated argument
and therefore live on a fixed sheet of the Riemann surface.

The admissibility windows are open; on the boundary the ray integrands stop
decaying and the integrals diverge, so the validators refuse the boundary
itself and a small guard band around it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Union

from .errors import ContourValidityError, PreconditionError

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
            raise PreconditionError("PolarComplex fields must be finite")
        if self.modulus < 0:
            raise PreconditionError("PolarComplex modulus must be nonnegative")

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
            raise PreconditionError("log of zero modulus")
        return complex(math.log(self.modulus), self.argument)

    def power(self, a: complex) -> complex:
        """w**a computed as exp(a * (ln modulus + i*argument))."""
        if self.modulus == 0:
            a = complex(a)
            if a == 0:
                return 1.0 + 0j
            if a.real > 0:
                return 0j
            raise PreconditionError("0 ** a undefined for Re a <= 0")
        return cmath.exp(complex(a) * self.log())


#: The identity scaling of the gamma loop.
UNIT_LAMBDA = PolarComplex(1.0, 0.0)


@dataclass(frozen=True)
class Violation:
    """One violated constraint and the distance to the admissible region."""

    constraint: str
    distance: float


@dataclass(frozen=True)
class GammaContourSpec:
    """Loop for the reciprocal gamma integral: arc radius ``epsilon``, rotation
    ``psi``, ray angles ``-delta1 + psi`` and ``delta2 + psi``.

    Under a scaling lambda the arc radius becomes ``epsilon/|lambda|`` and
    ``psi`` is the rotation within the psi window shifted by ``-arg lambda``.
    """

    epsilon: float
    psi: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class MLContourSpec:
    """Loop for the Mittag-Leffler integral, in zeta-plane terms.

    The arc radius is ``1 + epsilon_hat`` (the simple pole sits at 1); the
    loop is anchored to ``arg_z``, which must be supplied unwrapped.  The
    arc may pass inside the pole (-1 < epsilon_hat <= 0) when both ray
    half-angles are below pi: the sector the arc sweeps then never contains
    angle 0, so the pole stays outside the loop and no residue enters.
    ``build_zeta_path`` maps the loop to s = (z zeta)^rho.
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
            raise PreconditionError("ray start_radius must be positive")
        if self.direction not in ("inbound", "outbound"):
            raise PreconditionError(f"unknown ray direction {self.direction!r}")
        if self.end_radius is not None and self.end_radius <= self.start_radius:
            raise PreconditionError("ray end_radius must exceed start_radius")

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
            raise PreconditionError("arc radius must be positive")

    def traversal_start(self) -> tuple[float, float]:
        return (self.radius, self.start_angle)

    def traversal_end(self) -> tuple[float, float]:
        return (self.radius, self.end_angle)


Segment = Union[RaySegment, ArcSegment]


@dataclass(frozen=True)
class IntegrationPath:
    """Ordered segments; consecutive traversal endpoints must coincide."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for gap_mod, gap_ang in self.continuity_gaps():
            if gap_mod > ENDPOINT_TOLERANCE or gap_ang > ENDPOINT_TOLERANCE:
                raise PreconditionError(
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


# --------------------------------------------------------------------------
# Admissibility windows
# --------------------------------------------------------------------------

def gamma_psi_window(delta1: float, delta2: float) -> tuple[float, float]:
    """Open interval of admissible gamma-loop rotations; deltas get the guard band."""
    for name, d in (("delta1", delta1), ("delta2", delta2)):
        if not (HALF_PI + DEFAULT_BOUNDARY_MARGIN < d <= math.pi):
            raise PreconditionError(f"{name} out of range (pi/2, pi]")
    return (HALF_PI - delta2, -HALF_PI + delta1)


def ml_delta_range(rho: float) -> tuple[float, float]:
    """Zeta-loop ray half-angles lie in (pi/(2 rho), min(pi, pi/rho)]: open
    below, where the rays stop decaying, and closed above."""
    if not (rho > 0.5 and math.isfinite(rho)):
        raise PreconditionError("rho must exceed 1/2")
    return (HALF_PI / rho, min(math.pi, math.pi / rho))


def ml_arg_window(rho: float, delta1_rho: float, delta2_rho: float) -> tuple[float, float]:
    """Open interval of admissible arg z for the zeta loop; deltas get the guard band."""
    lo_delta, hi_delta = ml_delta_range(rho)
    for name, d in (("delta1_rho", delta1_rho), ("delta2_rho", delta2_rho)):
        if not (lo_delta + DEFAULT_BOUNDARY_MARGIN < d <= hi_delta):
            raise PreconditionError(f"{name} delta out of range ({lo_delta:.6g}, {hi_delta:.6g}]")
    return (HALF_PI / rho - delta2_rho + math.pi, -HALF_PI / rho + delta1_rho + math.pi)


def default_ml_deltas(rho: float) -> tuple[float, float]:
    """Widest admissible ray half-angles, maximizing the arg z window."""
    d = ml_delta_range(rho)[1]
    return (d, d)


# --------------------------------------------------------------------------
# Validators: return None, or raise ContourValidityError listing every
# violated constraint with its distance to the admissible region
# --------------------------------------------------------------------------

def _finite(violations: list, **fields) -> None:
    for name, value in fields.items():
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            violations.append(Violation(f"{name} not finite", math.inf))


def _check_gamma_deltas(violations: list, spec: GammaContourSpec) -> None:
    """Gamma-loop ray half-angles: open at pi/2 (plus the guard band), closed at pi."""
    for name, d in (("delta1", spec.delta1), ("delta2", spec.delta2)):
        if d <= HALF_PI + DEFAULT_BOUNDARY_MARGIN:
            violations.append(Violation(f"{name} at or below pi/2", HALF_PI - d))
        elif d > math.pi:
            violations.append(Violation(f"{name} above pi", d - math.pi))


def _refuse(violations: list) -> None:
    if violations:
        raise ContourValidityError(violations)


def validate_gamma_contour(spec: GammaContourSpec, lam: PolarComplex = UNIT_LAMBDA) -> None:
    """Refuse a gamma loop spec, scaled by ``lam``, that leaves its window.

    The psi window, shifted by ``-arg lam``, and the lower delta bounds are
    open (boundary rejected, plus the ``DEFAULT_BOUNDARY_MARGIN`` guard band);
    the upper delta bounds are inclusive.  The loop radius epsilon/|lam| must
    be a positive finite double.
    """
    violations: list[Violation] = []
    _finite(violations, epsilon=spec.epsilon, psi=spec.psi,
            delta1=spec.delta1, delta2=spec.delta2)
    _refuse(violations)
    if lam.modulus == 0:
        violations.append(Violation("lambda must be nonzero", 0.0))
    if spec.epsilon <= 0:
        violations.append(Violation("epsilon must be positive", -spec.epsilon))
    elif lam.modulus > 0 and not 0 < spec.epsilon / lam.modulus < math.inf:
        violations.append(Violation("loop radius epsilon/|lambda| leaves the double range",
                                    0.0))
    _check_gamma_deltas(violations, spec)
    _refuse(violations)
    low, high = gamma_psi_window(spec.delta1, spec.delta2)
    low, high = low - lam.argument, high - lam.argument
    if spec.psi <= low + DEFAULT_BOUNDARY_MARGIN:
        violations.append(Violation("psi at or below lower window bound", low - spec.psi))
    if spec.psi >= high - DEFAULT_BOUNDARY_MARGIN:
        violations.append(Violation("psi at or above upper window bound", spec.psi - high))
    _refuse(violations)


def validate_ml_contour(spec: MLContourSpec) -> None:
    """Refuse a zeta-loop spec whose epsilon_hat, deltas or arg z leave their
    window; ``ml_delta_range`` refuses rho <= 1/2.

    epsilon_hat must exceed -1 (a positive arc radius).  It may be at most 0
    only when both ray half-angles are below pi; at pi a ray runs along
    angle 0, through the pole once the arc is inside it.  Delta upper bounds
    are inclusive; everything else is strict with a guard band.
    """
    violations: list[Violation] = []
    _finite(violations, rho=spec.rho, mu=spec.mu, epsilon_hat=spec.epsilon_hat,
            arg_z=spec.arg_z, delta1_rho=spec.delta1_rho, delta2_rho=spec.delta2_rho)
    _refuse(violations)
    lo_delta, hi_delta = ml_delta_range(spec.rho)
    if spec.epsilon_hat <= -1.0:
        violations.append(Violation("epsilon_hat must exceed -1", -1.0 - spec.epsilon_hat))
    elif spec.epsilon_hat <= 0 and max(spec.delta1_rho, spec.delta2_rho) >= math.pi:
        violations.append(Violation("epsilon_hat must be positive when a ray half-angle "
                                    "is pi", -spec.epsilon_hat))
    _refuse(violations)
    for name, d in (("delta1_rho", spec.delta1_rho), ("delta2_rho", spec.delta2_rho)):
        if d <= lo_delta + DEFAULT_BOUNDARY_MARGIN:
            violations.append(Violation(f"{name} at or below pi/(2 rho)", lo_delta - d))
        elif d > hi_delta:
            violations.append(Violation(f"{name} above min(pi, pi/rho)", d - hi_delta))
    _refuse(violations)
    low, high = ml_arg_window(spec.rho, spec.delta1_rho, spec.delta2_rho)
    if spec.arg_z <= low + DEFAULT_BOUNDARY_MARGIN:
        violations.append(Violation("arg z at or below lower window bound",
                                    low - spec.arg_z))
    if spec.arg_z >= high - DEFAULT_BOUNDARY_MARGIN:
        violations.append(Violation("arg z at or above upper window bound",
                                    spec.arg_z - high))
    _refuse(violations)


# --------------------------------------------------------------------------
# Path construction
# --------------------------------------------------------------------------

def ray_distance(ray: RaySegment, point: complex) -> float:
    """Distance from ``point`` to the nearest point of ``ray``: the foot of
    the perpendicular from ``point`` to the ray's line, clamped to the span
    the ray covers."""
    direction = cmath.exp(1j * ray.angle)
    along = (point * direction.conjugate()).real
    far = math.inf if ray.end_radius is None else ray.end_radius
    return abs(min(max(ray.start_radius, along), far) * direction - point)


def loop_path(radius: float, a_in: float, a_out: float) -> IntegrationPath:
    """Ray in at angle ``a_in``, arc of ``radius`` from ``a_in`` to ``a_out``,
    ray out at ``a_out``: the loop shape every route integrates over."""
    return IntegrationPath((
        RaySegment(a_in, radius, "inbound"),
        ArcSegment(radius, a_in, a_out),
        RaySegment(a_out, radius, "outbound"),
    ))


def build_gamma_path(spec: GammaContourSpec,
                     lam: PolarComplex = UNIT_LAMBDA) -> IntegrationPath:
    """Loop for the gamma integral scaled by ``lam``: ray in at -delta1+psi,
    arc of radius epsilon/|lam| swept counterclockwise, ray out at
    delta2+psi."""
    validate_gamma_contour(spec, lam=lam)
    return loop_path(spec.epsilon / lam.modulus,
                     -spec.delta1 + spec.psi, spec.delta2 + spec.psi)


def build_zeta_path(spec: MLContourSpec, z_modulus: float) -> IntegrationPath:
    """The zeta loop of ``spec`` at |z| = ``z_modulus``, in s = (z zeta)^rho:
    rays at rho (arg z - pi -+ delta_rho), arc radius (|z| (1 + epsilon_hat))^rho,
    inf where it overflows; the pole zeta = 1 is at s^(1/rho) = z."""
    validate_ml_contour(spec)
    try:
        radius = (z_modulus * (1.0 + spec.epsilon_hat)) ** spec.rho
    except OverflowError:
        radius = math.inf
    return loop_path(radius, spec.rho * (spec.arg_z - math.pi - spec.delta1_rho),
                     spec.rho * (spec.arg_z - math.pi + spec.delta2_rho))
