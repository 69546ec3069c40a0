"""Complex line integrals along ray/arc paths.

The engine integrates vectorized integrands ``f(t, log_t) -> complex``: t
holds the nodes as complex points and log_t their logarithms, ln |t| + i
times the angle the path carries, unwrapped; both are 1-D complex arrays of
equal shape.  The logarithm is passed with t deliberately: branch-sensitive
powers must be computed from the unwrapped angle, which t alone cannot
encode.  f must not write into t or log t: both are read-only, so a write
raises numpy's ValueError at the first call, as it does in ``fixed_rule``.
The engine scales the array f returns in place; one that numpy may not
write, such as t itself, it copies first.

Each segment is integrated with composite fixed-order Gauss-Legendre panels.
Refinement doubles the panel count; the error estimate is the difference
between the last two refinement levels.  Each segment stops refining on the
tolerances on its own, and a path converges on its sum: its summed estimate
must meet them on its summed value (``integrate_path``).  Infinite rays are
cut where the caller's analytic decay bound puts the tail below abs_tol /
10, and the tail bound is folded into the error estimate.  On every ray the
bound is a plain exponential e^(-c u) in the ray's own variable u = r**p
(``DecayModel``), so ``truncation_radius`` is the closed form R**p = K / c.

``integrate_path`` refines all segments of a path together, in rounds.  All
truncation radii are computed first.  Round 0 evaluates levels 0 and 1 of
every segment; each later round evaluates the next level of every segment
whose doubling rule has not stopped.  A round makes one integrand call over
the nodes of all its levels, whatever their number.  ``_layout`` lays those
nodes out, and ``_round_sums`` weights the integrand's values, with one
fixed set of array operations whatever the number of its (segment, level)
jobs, planned once per shape of jobs (``_round_plan``); the final sums are
taken once per panel count.  Every operation is elementwise, or sums
within one panel or within one level, so given the integrand's values a
level's sum has the bits of laying that level out alone.  The bits are
fixed by these choices:

- the 15 nodes and weights are a literal table, equal bit for bit to
  numpy 2.4.6's ``np.polynomial.legendre.leggauss(15)``: the program then
  imports no ``numpy.polynomial`` at run time, and the rule no longer
  follows numpy's eigensolver from one version to the next;
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
  scaled by the panels' half-widths, and each level's sum is
  ``np.add.reduce`` of its panels' sums as one row of an array, the levels
  of equal panel count its rows, which numpy adds pairwise row by row, as
  it would a 1-D slice (``ndarray.sum`` is the same reduction).
  ``np.add.reduceat`` (which adds sequentially) and ``rows @ weights``
  (which goes through BLAS) would round differently.

The default gamma loop goes to the second engine instead, the fixed-node
rule of ``fixed_rule``; the two stay side by side until every loop moves to
fixed nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, IntegrandError, PreconditionError
from .geometry import ArcSegment, IntegrationPath, RaySegment

_GAUSS_ORDER = 15
# The 15-point Gauss-Legendre rule on [-1, 1]: numpy 2.4.6's leggauss(15),
# each double written as its repr (the module docstring says why).
_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])

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
    """base**exponent for floats, inf where the power overflows a double or
    0 is raised to a negative power (Python raises OverflowError and
    ZeroDivisionError there), so a size check reads inf."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _float_exp(x: float) -> float:
    """math.exp(x), inf where it overflows a double (math.exp raises
    OverflowError there), so a size check reads inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances.  An integral converges where its error estimate is at
    most max(abs_tol, rel_tol * |value|).  In ``integrate_path`` each
    segment stops refining on that test of its own estimate and value, and
    the path converges on the same test of its summed estimate and value;
    ``fixed_rule.fixed_loops`` tests each loop's sum."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise PreconditionError("tolerances must be finite and positive")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class DecayModel:
    """Asserts |f| dr/du <= amplitude * exp(-rate * u) on a ray, in the ray's
    own variable u = r**exponent: u = r on the gamma, Bateman and zeta
    loops, u = r**rho on Dzhrbashyan's tau-loop.

    The bound licenses truncating an infinite ray at a radius R;
    ``tail_bound`` bounds what is cut off.  It need hold only where a tail
    can be cut: past R's floor 1.5 r0 + 1 (``truncation_radius``).
    """

    amplitude: float
    rate: float
    exponent: float = 1.0

    def __post_init__(self):
        if not (self.rate > 0 and self.exponent > 0 and self.amplitude > 0):
            raise PreconditionError("DecayModel requires positive amplitude, rate, exponent")

    @classmethod
    def with_power_growth(cls, base_amplitude: float, poly_power: float,
                          rate: float, start: float) -> "DecayModel":
        """Fold a polynomially growing prefactor into a pure exponential bound.

        Given B * u**m * exp(-c * u) for u >= u0 = ``start``, returns a
        model A * exp(-c_eff * u), exponent 1, that dominates it.  For m <= 0
        the prefactor is maximal at u0 and the rate is kept; for m > 0 the
        rate is halved and the worst case of u**m * exp(-c/2 * u) absorbed
        into A.  Raises PreconditionError where A leaves the double range: B
        underflowed to 0, the peak m / c_eff overflows, or A under- or
        overflows.
        """
        if base_amplitude == 0.0:
            raise PreconditionError("with_power_growth requires B > 0, but B underflows to 0")
        if not (base_amplitude > 0 and rate > 0):
            raise PreconditionError("with_power_growth requires positive bound parameters")
        c_eff = rate
        if poly_power <= 0:
            amp = base_amplitude * _float_power(start, poly_power)
        else:
            c_eff = 0.5 * rate
            # max over u > 0 of u**m * exp(-c_eff * u), attained at u* = m / c_eff
            u_star = poly_power / c_eff
            if u_star == math.inf:
                raise PreconditionError("DecayModel requires a finite peak radius, but "
                                        "m / c_eff overflows a double")
            u_star = max(u_star, start)
            amp = base_amplitude * _float_exp(poly_power * math.log(u_star) - c_eff * u_star)
        if amp == 0.0:
            raise PreconditionError("DecayModel requires a positive amplitude, but "
                                    "B * max u**m exp(-c_eff u) underflows to 0")
        amp = _POWER_GROWTH_SAFETY * amp
        if not amp < math.inf:  # nan where an overflowed B met an underflowed power
            raise PreconditionError("a ray bound overflows a double: "
                                    "2 B * max u**m exp(-c_eff u) is past the double range")
        return cls(amp, c_eff)

    def bound(self, r: float) -> float:
        return self.amplitude * math.exp(-self.rate * r ** self.exponent)

    def tail_bound(self, r: float) -> float:
        """Bound on the integral of |f| over [r, inf): the integral of
        amplitude * exp(-rate * u) over u >= r**exponent."""
        return self.bound(r) / self.rate


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    truncation_radius: float = 0.0
    panels_used: int = 0
    converged: bool = False


@dataclass(frozen=True)
class Evaluation:
    """What every route returns: its value, its name, and the evidence.
    ``diagnostics`` is the series' ``SeriesDiagnostics`` or a loop's
    ``QuadratureResult``, scaled like ``value``."""

    value: complex
    method: str
    diagnostics: QuadratureResult | SeriesDiagnostics


def finish_loop(raw: QuadratureResult, factor: complex, method: str,
                failure: Callable[[], str]) -> Evaluation:
    """A loop route's answer from its integral ``raw``: the value and the
    error estimate times ``factor`` and ``abs(factor)``.  Raises
    ConvergenceError for a loop that did not converge, with ``failure()``
    and the estimate as its message; only then is the message formatted."""
    if not raw.converged:
        raise ConvergenceError(f"{failure()} (error estimate {raw.error_estimate:.3g})")
    value = raw.value * factor
    return Evaluation(value, method,
                      QuadratureResult(value, raw.error_estimate * abs(factor),
                                       raw.truncation_radius, raw.panels_used, True))


# --------------------------------------------------------------------------
# Panel machinery
# --------------------------------------------------------------------------

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


def _ray_panels(r0: float, r1: float) -> int:
    """Level-0 panel count of a ray on [r0, r1]: it grows logarithmically
    with span / r0 so the first panel never exceeds r0 itself.  The ratio is
    clamped at 2**53: past it a panel next to r0 would be narrower than r0's
    last bit."""
    return max(_INITIAL_PANELS, math.ceil(math.log2(min((r1 - r0) / r0, 2.0 ** 53) + 1.0)) + 1)


def _graded_boundaries(r0: float, r1: float) -> np.ndarray:
    """The boundaries of a ray's ``_ray_panels(r0, r1)`` panels on [r0, r1],
    widths doubling away from r0.  The integrands peak toward the arc
    junction at r0, so the smallest panel sits there.
    """
    span = r1 - r0
    n = _ray_panels(r0, r1)
    grades = _GRADES.get(n)
    if grades is None:
        grades = _GRADES[n] = np.expm1(np.arange(n + 1.0) * math.log(2.0))
    bounds = span * grades
    bounds /= 2.0 ** n - 1.0
    bounds += r0
    return bounds


class _Segment:
    """One segment's panel levels and the state of its doubling rule.

    A ray runs over radius from ``start`` to ``end`` at angle ``fixed``, an
    arc over angle from ``start`` to ``end`` at radius ``fixed``; an arc of
    no span has converged to 0 on no panels and needs no ``base``.  Level k
    splits each of the level-0 panels ``base`` into 2**k.  The rule stops at
    the first level k >= 1 where the change from level k - 1 plus the ray
    tail bound meets the tolerance (converged; the tail is charged against
    the tolerance so that the whole estimate stays within it), or once the
    change has failed to shrink twice by k >= 4 (the estimate sits on the
    rounding floor, and more panels cannot help), or when another doubling
    would pass _MAX_PANELS; ``result`` is then (value, change + tail,
    panels, converged).
    """

    def __init__(self, radial: bool, fixed: float, start: float, end: float, tail: float):
        self.radial = radial
        self.fixed = fixed
        self.tail = tail
        self.panels = _ray_panels(start, end) if radial else _INITIAL_PANELS
        # dt per unit of the panel coordinate: on a ray e^{i angle}, the
        # phase of all its nodes; on an arc i R, which _layout multiplies by
        # each node's phase e^{i phi}.
        self.jacobian = complex(math.cos(fixed), math.sin(fixed)) if radial else 1j * fixed
        self.level = 0
        self.prev = 0j
        self.best_diff = math.inf
        self.stale = 0
        self.result: tuple[complex, float, int, bool] | None = None
        if radial:
            self.base = _graded_boundaries(start, end)
        elif start != end:
            self.base = _arc_boundaries(start, end)
        else:
            self.result = (0j, 0.0, 0, True)

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


#: A laid-out round: jobs by panel count, half-widths, t, log t, dt (``_layout``).
_Round = tuple[tuple, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# A round of at most this many panels keeps its plan (under 40 KB); round 0
# of a loop of 8 level-0 panels a segment has 72.
_PLAN_PANELS = 256


@functools.lru_cache(maxsize=64)
def _round_plan(shape: tuple[tuple[bool, int, int], ...]) -> tuple:
    """What a round's jobs' ``shape``, ((radial, level-0 panels n, level k),
    ...), fixes of its layout, rays laid ahead of arcs: the laid order, the
    first arc node, each laid job's first panel, each panel's lower level-0
    boundary in the laid jobs' boundaries end to end, its fraction j / 2**k
    of that panel and whether it is at level 0, each node's laid job, and
    the jobs of each panel count with the rows of their panels (read-only)."""
    order = sorted(range(len(shape)), key=lambda j: not shape[j][0])
    n, k = np.array([shape[j][1:] for j in order]).T
    counts = n << k
    starts = np.concatenate(([0], np.cumsum(counts)))
    job = np.repeat(np.arange(len(order)), counts)
    local = np.arange(starts[-1]) - starts[job]
    below = (np.cumsum(n + 1) - n - 1)[job] + (local >> k[job])
    step = ((local & ((1 << k) - 1)[job]) + 1) / (1 << k)[job]
    groups: dict[int, list] = {}
    for j, count, start in sorted(zip(order, counts.tolist(), starts.tolist())):
        groups.setdefault(count, []).append((j, start + np.arange(count)))
    sums = tuple((tuple(j for j, _ in g), np.array([r for _, r in g])) for g in groups.values())
    arrays = (starts[:-1], below, step, k[job] == 0, job.repeat(_GAUSS_ORDER),
              *(rows for _, rows in sums))
    for a in arrays:
        a.flags.writeable = False
    split = _GAUSS_ORDER * int(starts[sum(r for r, _, _ in shape)])  # the first arc node
    return (order, split, *arrays[:5], sums)


def _layout(jobs: list[tuple[_Segment, int]]) -> _Round:
    """A round's Gauss-Legendre nodes, laid out once for all its jobs.

    A panel's right end is its level-0 panel's left end plus its fraction of
    that panel's width, or at level 0 the level-0 right end; shifted by one
    panel the right ends give the left ends, and both all the midpoints and
    half-widths at once.  Returns the jobs by panel count with the rows of
    their panels; the half-width of each panel; and node by node t, log t
    (ln |t| + i times the unwrapped angle), both read-only, and dt per unit
    of the panel coordinate.
    """
    shape = tuple((seg.radial, seg.panels, k) for seg, k in jobs)
    small = sum(n << k for _, n, k in shape) <= _PLAN_PANELS
    plan = (_round_plan if small else _round_plan.__wrapped__)(shape)
    order, split, firsts, below, step, level0, node_job, sums = plan
    laid = [jobs[j] for j in order]
    bases = np.concatenate([seg.base for seg, _ in laid])
    left = bases[below]
    rights = bases[below + 1]
    level_k = np.subtract(rights, left)  # left + width * j / 2**k
    level_k *= step
    level_k += left
    rights = np.where(level0, rights, level_k)
    lefts = np.empty_like(rights)
    lefts[1:] = rights[:-1]
    lefts[firsts] = left[firsts]
    mid = np.add(rights, lefts)
    mid *= 0.5
    half = np.subtract(rights, lefts)
    half *= 0.5

    # mid + half * node in the coordinate a panel runs over (the modulus on a
    # ray, the angle on an arc), the segment's fixed coordinate in the other.
    nodes = half[:, None] * _NODES
    nodes += mid[:, None]
    nodes = nodes.ravel()
    fixed = np.array([seg.fixed for seg, _ in laid])[node_job]
    angs = np.concatenate((fixed[:split], nodes[split:]))
    mods = nodes  # angs holds its own copy of the arcs' nodes
    mods[split:] = fixed[split:]

    # e^{i angle}: each ray's constant, and on the arcs cos + i sin of the
    # node angles, the parts of np.exp(1j * angle) bit for bit.
    factors = np.array([seg.jacobian for seg, _ in laid], dtype=complex)
    phase = factors[node_job]
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
    np.multiply(factors[node_job[split:]], jac[split:], out=jac[split:])
    t.flags.writeable = log_t.flags.writeable = False
    return sums, half, t, log_t, jac


def _round_sums(f: Integrand, laid: _Round) -> list[complex]:
    """The composite Gauss-Legendre sum of each job of the round ``laid``,
    from one integrand call over all its nodes, in job order.

    The values are weighted once for the round; only the final sums are
    taken once per panel count.  Given the integrand's values, every job's
    sum has the bits of laying that job out alone, because of the operations
    that fix them: nodes mid + half * node; the output scaled in place by the
    Jacobian, the output the left operand; each panel's weighted row sum
    scaled by its half-width; and each job's ``np.add.reduce`` over its row
    of those, pairwise.
    """
    sums, half, t, log_t, jac = laid
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f(t, log_t), dtype=complex)
        if not vals.flags.writeable:
            vals = vals.copy()
        np.multiply(vals, jac, out=vals)
    if not np.isfinite(vals).all():
        raise IntegrandError("integrand not finite")
    weighted = np.add.reduce(vals.reshape(-1, _GAUSS_ORDER) * _WEIGHTS, axis=1)
    weighted *= half
    found = [p for jobs, rows in sums
             for p in zip(jobs, np.add.reduce(weighted[rows], axis=1).tolist())]
    return [value for _, value in sorted(found)]


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------

def truncation_radius(decay: DecayModel, start_radius: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Radius R, at least 1.5 r0 + 1, past which the tail bound stays below
    abs_tol / 10: with c = rate, p = exponent and r0 = ``start_radius``,
    R**p = K / c, K = ln(amplitude / (c abs_tol / 10)).  Raises
    IntegrandError past 2**199 times max(2 r0, r0 + 1), where the decay is
    too weak to truncate the ray.
    """
    c = decay.rate
    floor = 1.5 * start_radius + 1.0
    k = math.log(decay.amplitude) - math.log(c) - math.log(cfg.abs_tol / _TAIL_SAFETY)
    r_max = max(2.0 * start_radius, start_radius + 1.0) * 2.0 ** 199
    r = _float_power(max(k, 0.0) / c, 1.0 / decay.exponent)
    if not r <= r_max:
        raise IntegrandError("decay too weak to truncate ray")
    return max(r, floor)


def integrate_path(f: Integrand, path: IntegrationPath,
                   decay: Union[DecayModel, Callable[[RaySegment], DecayModel], None] = None,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Sum of segment integrals of f(t, log_t) in path order.

    Each segment refines until its own estimate meets the tolerances on its
    own value, or its doubling rule gives up.  The path is ``converged``
    only when every segment stopped converged and the summed estimate is at
    most max(abs_tol, rel_tol * |summed value|), so that segments that
    cancel cannot pass an error larger than their sum.

    ``decay`` may be a single model or a callable mapping each ray segment to
    its own model (rays at different angles usually decay at different rates).
    An infinite ray requires one; it is truncated at ``truncation_radius``,
    where the tail bound stays below abs_tol / 10, and the bound is added to
    the ray's error estimate.  Finite rays integrate the stated span exactly
    and never ask for a model.
    """
    segments = []
    trunc = []
    for seg in path.segments:
        r_end = tail = 0.0
        if isinstance(seg, ArcSegment):
            where = (False, seg.radius, seg.start_angle, seg.end_angle)
        elif seg.infinite:
            model = decay(seg) if callable(decay) else decay
            if model is None:
                raise PreconditionError("infinite ray requires a decay model")
            r_end = truncation_radius(model, seg.start_radius, cfg)
            tail = model.tail_bound(r_end)
            where = (True, seg.angle, seg.start_radius, r_end)
        else:
            where = (True, seg.angle, seg.start_radius, seg.end_radius)
        segments.append(_Segment(*where, tail))
        trunc.append(r_end)

    jobs = [(seg, k) for seg in segments if seg.result is None for k in (0, 1)]
    while jobs:
        for (seg, k), value in zip(jobs, _round_sums(f, _layout(jobs))):
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
    converged = converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(total))
    return QuadratureResult(total, err, max(trunc, default=0.0), panels, converged)
