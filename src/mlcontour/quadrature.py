"""Complex line integrals along ray/arc paths.

The engine integrates vectorized integrands ``f(t, log_t) -> complex``: t
holds the nodes as complex points and log_t their logarithms, ln |t| + i
times the angle the path carries, unwrapped; both are 1-D complex arrays of
equal shape.  The logarithm is passed with t deliberately: branch-sensitive
powers must be computed from the unwrapped angle, which t alone cannot
encode.  The engine scales the array f returns in place, so f returns a new
array.

Each segment is integrated with composite fixed-order Gauss-Legendre panels.
Refinement doubles the panel count; the error estimate is the difference
between the last two refinement levels; each segment is held to the
tolerances on its own.  Infinite rays are cut where the caller's analytic
decay bound puts the tail below abs_tol / 10, a radius ``truncation_radius``
solves for directly, and the tail bound is folded into the error estimate.

``integrate_path`` refines all segments of a path together, in rounds.  All
truncation radii are computed first.  Round 0 evaluates levels 0 and 1 of
every segment; each later round evaluates the next level of every segment
whose doubling rule has not stopped.  A round makes one integrand call over
the nodes of all its levels, whatever their number.  ``_layout`` lays those
nodes out, and ``_level_sums`` weights the integrand's values, with one
fixed set of array operations whatever the number of its (segment, level)
jobs; only each level's final sum is taken level by level.  Every operation
is elementwise, or sums within one panel or within one level, so given the
integrand's values a level's sum has the bits of laying that level out
alone.  The bits are fixed by these choices:

- level k of a segment splits each of its level-0 panels into 2**k equal
  parts, left + width * (j / 2**k); a panel's midpoint and half-width are
  0.5 * (right + left) and 0.5 * (right - left), and its nodes mid + half *
  node;
- a node's phase e^{i angle} is, on a ray, one constant of the segment,
  complex(math.cos(angle), math.sin(angle)), and on an arc np.cos(phi) + i
  np.sin(phi); both are the parts of np.exp(1j * angle) bit for bit.  t is
  modulus * phase, and log t has ln(modulus) and the angle as its parts;
- the Jacobian is the phase on a ray and i R * phase on an arc, i R the left
  operand, and one np.multiply over the round scales the integrand's output
  by it in place, the output the left operand (numpy rounds a complex
  product differently with its operands swapped);
- the weighted sums over each panel's 15 nodes are taken row by row and
  scaled by the panels' half-widths, and each level's sum is ``.sum()`` of
  its contiguous slice of those, which numpy adds pairwise.
  ``np.add.reduceat`` (which adds sequentially) and ``rows @ weights``
  (which goes through BLAS) would round differently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import IntegrandError, PreconditionError
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

#: f(t, log_t) -> values at the nodes; see the module docstring.
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _float_power(base: float, exponent: float) -> float:
    """base**exponent for floats, inf where the power overflows a double
    (Python raises OverflowError there), so a size check reads inf."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances, applied per segment: a segment converges when its error
    estimate is at most max(abs_tol, rel_tol * |segment value|).  A path is
    ``converged`` when all its segments are; the summed error is not yet
    checked against the summed value (defect D1 in ROADMAP.md)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise PreconditionError("tolerances must be finite and positive")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class DecayModel:
    """Asserts |f(r e^{i theta})| <= amplitude * exp(-rate * r**exponent).

    The bound licenses truncating an infinite ray at a radius R; ``tail_bound``
    bounds what is cut off.
    """

    amplitude: float
    rate: float
    exponent: float

    def __post_init__(self):
        if not (self.rate > 0 and self.exponent > 0 and self.amplitude > 0):
            raise PreconditionError("DecayModel requires positive amplitude, rate, exponent")

    @classmethod
    def with_power_growth(cls, base_amplitude: float, poly_power: float,
                          rate: float, exponent: float, start_radius: float) -> "DecayModel":
        """Fold a polynomially growing prefactor into a pure exponential bound.

        Given |f| <= B * r**m * exp(-c * r**p) for r >= r0, returns a model
        A * exp(-c_eff * r**p) that dominates it.  For m <= 0 the prefactor
        is maximal at r0 and the rate is kept; for m > 0 the rate is halved
        and the worst case of r**m * exp(-c/2 * r**p) absorbed into A.
        Raises PreconditionError where that worst case leaves the double
        range: its radius overflows, or A underflows to 0.
        """
        if not (base_amplitude > 0 and rate > 0 and exponent > 0):
            raise PreconditionError("with_power_growth requires positive bound parameters")
        c_eff = rate
        if poly_power <= 0:
            amp = base_amplitude * _float_power(start_radius, poly_power)
        else:
            c_eff = 0.5 * rate
            # max over r > 0 of r**m * exp(-c_eff * r**p), attained at
            # r* = (m / (c_eff p))**(1/p)
            r_star = _float_power(poly_power / (c_eff * exponent), 1.0 / exponent)
            if r_star == math.inf:
                raise PreconditionError("DecayModel requires a finite peak radius, but "
                                        "(m / (c_eff p))**(1/p) overflows a double")
            r_star = max(r_star, start_radius)
            log_peak = poly_power * math.log(r_star) - c_eff * _float_power(r_star, exponent)
            amp = base_amplitude * math.exp(min(log_peak, 700.0))
        if amp == 0.0:
            raise PreconditionError("DecayModel requires a positive amplitude, but "
                                    "B * max r**m exp(-c_eff r**p) underflows to 0")
        return cls(_POWER_GROWTH_SAFETY * amp, c_eff, exponent)

    def bound(self, r: float) -> float:
        return self.amplitude * math.exp(-self.rate * r ** self.exponent)

    def tail_bound(self, r: float) -> float:
        """Bound on T, the integral of ``bound`` over [r, inf).

        With c = rate and p = exponent, integrating by parts gives T =
        bound(r) r**(1-p) / (c p) + (1-p)/(c p) * (integral of t**-p bound(t)).
        For p >= 1 the second term is at most 0.  For p < 1 it is at most
        q T with q = (1-p) / (c p r**p), so T <= (first term) / (1 - q)
        while q < 1; nearer the origin this bound is infinite.
        """
        c, p = self.rate, self.exponent
        first = self.bound(r) / (c * p * r ** (p - 1.0))
        if p >= 1.0:
            return first
        shrink = 1.0 - (1.0 - p) / (c * p * r ** p)
        return first / shrink if shrink > 0.0 else math.inf


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

# A level's fractions of a level-0 panel, by level k: j / 2**k for j = 1..2**k.
_STEPS: dict[int, np.ndarray] = {}
# An arc's level-0 boundaries are start + j * (span / _INITIAL_PANELS).
_ARC_STEPS = np.arange(_INITIAL_PANELS + 1.0)
# _graded_boundaries' expm1(j ln 2), j = 0..n, by panel count n.
_GRADES: dict[int, np.ndarray] = {}


def _arc_boundaries(start: float, end: float) -> np.ndarray:
    """np.linspace(start, end, _INITIAL_PANELS + 1), bit for bit (linspace
    scales arange by the step and adds the start), for any span whose
    eighth does not underflow to 0."""
    base = _ARC_STEPS * ((end - start) / _INITIAL_PANELS)
    base += start
    base[-1] = end
    return base


def _graded_boundaries(r0: float, r1: float) -> np.ndarray:
    """Panel boundaries on [r0, r1], widths doubling away from r0.

    The integrands peak toward the arc junction at r0, so the smallest panel
    sits there.  The panel count grows logarithmically with span / r0 so the
    first panel never exceeds r0 itself.  The ratio is clamped at 2**53:
    past it a panel next to r0 would be narrower than r0's last bit.
    """
    span = r1 - r0
    n = max(_INITIAL_PANELS, math.ceil(math.log2(min(span / r0, 2.0 ** 53) + 1.0)) + 1)
    grades = _GRADES.get(n)
    if grades is None:
        grades = _GRADES[n] = np.expm1(np.arange(n + 1.0) * math.log(2.0))
    bounds = span * grades
    bounds /= 2.0 ** n - 1.0
    bounds += r0
    return bounds


class _Segment:
    """One segment's panel levels and the state of its doubling rule.

    Level k splits each of the level-0 panels ``base`` into 2**k.  The rule
    stops at the first level k >= 1 where the change from level k - 1 plus
    the ray tail bound meets the tolerance (converged; the tail is charged
    against the tolerance so that the whole estimate stays within it), or
    once the change has failed to shrink twice by k >= 4 (the estimate sits
    on the rounding floor, and more panels cannot help), or when another
    doubling would pass _MAX_PANELS; ``result`` is then (value, change +
    tail, panels, converged).
    """

    def __init__(self, base: np.ndarray, radial: bool, fixed: float, tail: float):
        self.base = base
        self.radial = radial  # radial: over radius at angle ``fixed``; else over angle
        self.fixed = fixed
        self.tail = tail
        self.panels = len(base) - 1
        self.left = base[:-1, None]
        self.width = (base[1:] - base[:-1])[:, None]
        # dt per unit of the panel coordinate: on a ray e^{i angle}, the
        # phase of all its nodes; on an arc i R, which _layout multiplies by
        # each node's phase e^{i phi}.
        self.jacobian = complex(math.cos(fixed), math.sin(fixed)) if radial else 1j * fixed
        self.level = 0
        self.prev = 0j
        self.best_diff = math.inf
        self.stale = 0
        self.result: tuple[complex, float, int, bool] | None = None

    def ends(self, k: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Level k's panels, every level-0 panel split into 2**k equal parts:
        their left ends, as pieces to concatenate, and their right ends."""
        if k == 0:
            return (self.base[:-1],), self.base[1:]
        steps = _STEPS.get(k)
        if steps is None:
            steps = _STEPS[k] = np.linspace(0.0, 1.0, 2 ** k + 1)[1:]
        rights = (self.left + self.width * steps).ravel()
        return (self.base[:1], rights[:-1]), rights

    def accept(self, k: int, cur: complex, cfg: QuadratureConfig) -> None:
        """Take the value of level k, the level after the last one taken."""
        self.level = k
        if k == 0:
            self.prev = cur
            return
        panels = self.panels << k
        diff = abs(cur - self.prev)
        err = diff + self.tail
        if err <= max(cfg.abs_tol, cfg.rel_tol * abs(cur)):
            self.result = (cur, err, panels, True)
            return
        if diff < self.best_diff:
            self.best_diff = diff
            self.stale = 0
        else:
            self.stale += 1
            if k >= 4 and self.stale >= 2:
                self.result = (cur, err, panels, False)
                return
        self.prev = cur
        if panels * 2 > _MAX_PANELS:
            self.result = (cur, err, panels, False)


def _layout(jobs: list[tuple[_Segment, int]]) -> tuple[list[tuple[int, int]], np.ndarray,
                                                       np.ndarray, np.ndarray, np.ndarray]:
    """A round's Gauss-Legendre nodes, laid out once for all its jobs, the
    rays' jobs ahead of the arcs'.

    The left and the right ends of every job's panels go into one array
    each, which give all the midpoints and half-widths at once.  Returns
    each job's range of panels, in the order of ``jobs``; the half-width of
    each panel; and node by node t, log t (ln |t| + i times the unwrapped
    angle) and dt per unit of the panel coordinate.
    """
    order = sorted(range(len(jobs)), key=lambda j: not jobs[j][0].radial)
    laid = [jobs[j] for j in order]
    counts = [seg.panels << k for seg, k in laid]
    ends = [seg.ends(k) for seg, k in laid]
    lefts = np.concatenate([piece for pieces, _ in ends for piece in pieces])
    rights = np.concatenate([piece for _, piece in ends])
    mid, half = pairs = np.empty((2, len(rights)))
    np.add(rights, lefts, out=mid)
    np.subtract(rights, lefts, out=half)
    pairs *= 0.5

    # mid + half * node in the coordinate a panel runs over (the modulus on a
    # ray, the angle on an arc), the segment's fixed coordinate in the other.
    nodes = half[:, None] * _NODES
    nodes += mid[:, None]
    nodes = nodes.ravel()
    reps = _GAUSS_ORDER * np.array(counts)
    rays = sum(seg.radial for seg, _ in laid)
    split = _GAUSS_ORDER * sum(counts[:rays])  # the first arc node
    fixed = np.array([seg.fixed for seg, _ in laid])
    angs = np.concatenate((fixed[:rays].repeat(reps[:rays]), nodes[split:]))
    mods = nodes  # angs holds its own copy of the arcs' nodes
    mods[split:] = fixed[rays:].repeat(reps[rays:])

    # e^{i angle}: each ray's constant, and on the arcs cos + i sin of the
    # node angles, the parts of np.exp(1j * angle) bit for bit.
    factors = np.array([seg.jacobian for seg, _ in laid], dtype=complex)
    phase = factors.repeat(reps)
    np.cos(angs[split:], out=phase.real[split:])
    np.sin(angs[split:], out=phase.imag[split:])
    t = mods * phase
    log_t = np.empty_like(t)
    np.log(mods, out=log_t.real)
    log_t.imag = angs
    # The phase becomes dt in place: a ray's is its phase, an arc's i R times
    # it, i R the left operand (numpy rounds a complex product differently
    # with its operands swapped).
    jac = phase
    np.multiply(factors[rays:].repeat(reps[rays:]), jac[split:], out=jac[split:])

    bounds = itertools.pairwise([0, *itertools.accumulate(counts)])
    spans = [span for _, span in sorted(zip(order, bounds))]
    return spans, half, t, log_t, jac


def _level_sums(f: Integrand, jobs: list[tuple[_Segment, int]]) -> list[complex]:
    """The composite Gauss-Legendre sum of each (segment, level) job, from
    one integrand call over the nodes of all of them, in job order.

    The nodes are laid out, and the values weighted, once for the round;
    only each job's final sum is taken job by job.  Given the integrand's
    values, every job's sum has the bits of laying that job out alone,
    because of the operations that fix them: nodes mid + half * node; the
    output scaled in place by the Jacobian, the output the left operand;
    each panel's weighted row sum scaled by its half-width; and each job's
    ``.sum()`` over its contiguous slice of those, pairwise.
    """
    spans, half, t, log_t, jac = _layout(jobs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f(t, log_t), dtype=complex)
        np.multiply(vals, jac, out=vals)
    if not np.isfinite(vals).all():
        raise IntegrandError("integrand not finite")
    weighted = (vals.reshape(-1, _GAUSS_ORDER) * _WEIGHTS).sum(axis=1) * half
    return [complex(weighted[start:stop].sum()) for start, stop in spans]


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------

def truncation_radius(decay: DecayModel, start_radius: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Radius R, at least 1.5 r0 + 1, past which the tail bound stays below
    abs_tol / 10.  With c = rate, p = exponent, r0 = ``start_radius`` and
    u = ln R, R is where h(u) = c e**(p u) + (p - 1) u - K crosses 0, with
    K = ln(amplitude / (c p abs_tol / 10)); for p < 1 h has the further term
    ln(1 - (1-p) / (c p R**p)) of ``DecayModel.tail_bound``.

    For p = 1, R = K / c.  For p > 1 h is convex: Newton's method, started
    where h' > 0, lands right of the largest root within one step and then
    decreases to it.  For p < 1 h increases from -inf, so its root is unique;
    Newton's steps are kept inside a bracket of it, halving it when a step
    would leave.
    """
    c, p = decay.rate, decay.exponent
    floor = 1.5 * start_radius + 1.0
    k = math.log(decay.amplitude) - math.log(c * p) - math.log(cfg.abs_tol / _TAIL_SAFETY)
    # Past 2**199 times the first bracket, max(2 r0, r0 + 1), the decay is too weak.
    r_max = max(2.0 * start_radius, start_radius + 1.0) * 2.0 ** 199
    if p == 1.0:
        r = k / c
    elif p > 1.0:
        # Start no lower than the floor and near the root (one fixed-point
        # step from c R**p = K).
        log_c = math.log(c)
        u_k = (math.log(k) - log_c) / p if k > 0 else 0.0
        x = k - (p - 1.0) * u_k
        u = max(math.log(floor), (math.log(x) - log_c) / p if x > 0 else 0.0)
        if u > math.log(r_max):
            raise IntegrandError("decay too weak to truncate ray")
        r = math.exp(u)
        for _ in range(100):  # the cap only stops rounding noise cycling
            w = c * r ** p
            step = (w + (p - 1.0) * math.log(r) - k) / (p * w + p - 1.0)
            r *= math.exp(-step)
            # Newton's next step would be about p * step**2 / 2: rounding.
            if r < floor or abs(step) <= 1e-9:
                break
    else:
        r = _sublinear_radius(c, p, k, r_max)
    if not r <= r_max:
        raise IntegrandError("decay too weak to truncate ray")
    return max(r, floor)


def _sublinear_radius(c: float, p: float, k: float, r_max: float) -> float:
    """``truncation_radius`` for p < 1, before the floor is applied.

    h rises from -inf where w = c R**p reaches a = (1-p)/p, the radius at
    which the tail bound blows up, so its root is unique.  Newton's method
    runs in v = ln(w - a): with x = e**v, h = a + x - (a+1) ln(a + x) + v +
    a ln c - K and h' = (x**2 + a) / (a + x), near-linear by the blow-up and
    convex far from it.  Its steps stay inside a bracket of the root, which
    they halve when a step would leave.  Below v = ln(a) - 36, w = a + x
    rounds to a.
    """
    a = (1.0 - p) / p
    shift = a * math.log(c) - k
    w_max = c * r_max ** p
    if not w_max > a:
        raise IntegrandError("decay too weak to truncate ray")
    lo, hi = math.log(a) - 36.0, math.log(w_max - a)
    # Start one fixed-point step from w = K, and at w >= 2a.
    u_k = (math.log(k) - math.log(c)) / p if k > 0 else 0.0
    v = math.log(max(k - (p - 1.0) * u_k - a, a))
    for _ in range(100):  # the cap stops a bracket that rounding has closed
        x = math.exp(v)
        value = a + x - (a + 1.0) * math.log(a + x) + v + shift
        if value >= 0.0:
            hi = v
        else:
            lo = v
        step = value * (a + x) / (x * x + a)
        v -= step
        # Newton's next step would be about step**2 times h''/2h': rounding.
        if abs(step) <= 1e-9:
            break
        if not lo < v < hi:
            v = 0.5 * (lo + hi)
    r = ((a + math.exp(v)) / c) ** (1.0 / p)
    # Rounding may leave R a few units in the last place short of the root:
    # step it out by 2**-52, 2**-51, ... of itself until the bound holds.
    for i in range(52):
        shrink = 1.0 - (1.0 - p) / (c * p * r ** p)  # as in DecayModel.tail_bound
        if shrink > 0.0 and c * r ** p + (p - 1.0) * math.log(r) + math.log(shrink) >= k:
            return r
        r *= 1.0 + 2.0 ** (i - 52)
    raise IntegrandError("decay too weak to truncate ray")


def integrate_path(f: Integrand, path: IntegrationPath,
                   decay: Union[DecayModel, Callable[[RaySegment], DecayModel], None] = None,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Sum of segment integrals of f(t, log_t) in path order.

    ``decay`` may be a single model or a callable mapping each ray segment to
    its own model (rays at different angles usually decay at different rates).
    An infinite ray requires one; it is truncated at ``truncation_radius``,
    where the tail bound stays below abs_tol / 10, and the bound is added to
    the ray's error estimate.  Finite rays integrate the stated span exactly.
    """
    segments = []
    trunc = []
    for seg in path.segments:
        r_end = 0.0
        if isinstance(seg, ArcSegment):
            base = _arc_boundaries(seg.start_angle, seg.end_angle)
            segment = _Segment(base, False, seg.radius, 0.0)
            if seg.start_angle == seg.end_angle:
                segment.result = (0j, 0.0, 0, True)
        else:
            model = decay(seg) if callable(decay) else decay
            if seg.infinite:
                if model is None:
                    raise PreconditionError("infinite ray requires a decay model")
                r_end = truncation_radius(model, seg.start_radius, cfg)
                span_end, tail = r_end, model.tail_bound(r_end)
            else:
                span_end, tail = seg.end_radius, 0.0
            base = _graded_boundaries(seg.start_radius, span_end)
            segment = _Segment(base, True, seg.angle, tail)
        segments.append(segment)
        trunc.append(r_end)

    jobs = [(seg, k) for seg in segments if seg.result is None for k in (0, 1)]
    while jobs:
        for (seg, k), value in zip(jobs, _level_sums(f, jobs)):
            seg.accept(k, value, cfg)
        jobs = [(seg, seg.level + 1) for seg in segments if seg.result is None]

    total = 0j
    err = 0.0
    panels = 0
    converged = True
    for geometry, seg in zip(path.segments, segments):
        value, seg_err, seg_panels, seg_converged = seg.result
        if isinstance(geometry, RaySegment) and geometry.direction == "inbound":
            value = -value
        total += value
        err += seg_err
        panels += seg_panels
        converged = converged and seg_converged
    return QuadratureResult(total, err, max(trunc, default=0.0), panels, converged)

