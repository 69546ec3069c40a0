"""The fixed-node rule: a batch of loops around the cut integrated on fixed nodes.

``fixed_loops`` takes loops around the branch cut on the negative real axis,
such as the default gamma loop at every s of a grid, each with its own arc
radius, ray end and sheet shift.  A loop runs in along the cut's lower side,
over the arc from -pi to pi, and out along its upper side.  Both rays lie on
the cut, t = -r, and their log t differ by 2 pi i, so the upper sheet's
integrand is the lower sheet's times e^shift at every r (e^(-2 pi i s) for
e^t t^(-s)).  As in the paper's one integral over r in [epsilon, inf), the
rule integrates the ray once, on the sheet where the integrand is the
larger, and takes the other sheet's as a factor e^d, |e^d| <= 1, of it: the
two rays together are expm1(d) times that one integral, up to sign.  Each
level is one integrand call over a (loops x nodes) array: Gauss-Legendre on
the arc, whose tables ``gauss_legendre`` builds on first use by Newton's
method on the Legendre recurrence (no numpy.polynomial, no eigensolver), and
an exp-sinh trapezoid rule on the ray.  Its estimate adds a rounding floor,
which counts both sheets, to the level difference and the tails, and a loop
converges on its summed value.  This is the second engine, next to
``quadrature.integrate_path``'s adaptive panels; the two stay side by side
until every loop moves to fixed nodes.  It is a module of its own, not a part
of ``quadrature``: a process that runs without bytecode files compiles each
module from source, and its peak memory rises with the largest one (in
``quadrature``, this code raised every workload's peak RSS by 0.3-0.5 MB).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureResult

#: Gauss-Legendre nodes on the arc at level 0, checked against half as many;
#: level 1 takes twice as many, checked against level 0's.
_ARC_NODES = 128
#: Trapezoid steps on the ray at level 0 (129 nodes), checked against its 65
#: even nodes; level 1 adds the 128 midpoints.
_RAY_STEPS = 128
#: The ray's exp-sinh variable x starts here, where e^((pi/2) sinh x) = 1.7e-23.
_RAY_X0 = -4.2
#: The rounding floor: this times the sum of |f| (1 + |ln |f||) |dt|.
_ROUNDING_FLOOR = 8.0 * 2.0 ** -53
# Each level's ray nodes, in steps from x0, and their trapezoid weights in
# steps: level 0's 129 nodes, and level 1's midpoints, each of weight 1/2
# in the halved step.
_RAY_LEVELS = (
    (np.arange(_RAY_STEPS + 1.0), np.ones(_RAY_STEPS + 1)),
    (np.arange(_RAY_STEPS) + 0.5, np.full(_RAY_STEPS, 0.5)),
)
_RAY_LEVELS[0][1][[0, -1]] = 0.5

#: w(rows, t, log_t) -> the exponent of the integrand e^w at the nodes t,
#: one row of nodes per loop; ``rows`` are the batch's loops of those rows.
#: t and log t (ln |t| + i times the unwrapped angle) are read-only.  A
#: loop's ray nodes are on one sheet: t = -r, log t = ln r -+ i pi.
Exponent = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes, ascending, and weights on [-1, 1]
    for even n: Newton's method on P_n from the guesses cos(pi (k - 1/4) /
    (n + 1/2)) at the positive roots, mirrored.  Read-only."""
    x = np.cos(math.pi * (np.arange(n // 2, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _level_rules(level: int) -> tuple[np.ndarray, ...]:
    """What level ``level`` of ``fixed_loops`` lays on the unit loop: on the
    arc from -pi to pi, its Gauss-Legendre rules end to end (128 and 64
    nodes at level 0, 256 at level 1), their node angles, phases e^{i
    angle}, dt times weight and |dt| times weight; on the ray, the level's
    steps and weights (``_RAY_LEVELS``).  Read-only."""
    sizes = (_ARC_NODES, _ARC_NODES // 2) if level == 0 else (2 * _ARC_NODES,)
    x, w = (np.concatenate(a) for a in zip(*map(gauss_legendre, sizes)))
    angles = math.pi * x
    phase = np.cos(angles) + 1j * np.sin(angles)
    rules = (angles, phase, (1j * math.pi) * w * phase, math.pi * w) + _RAY_LEVELS[level]
    for a in rules:
        a.flags.writeable = False
    return rules


def _evaluate(exponent: Exponent, rows: np.ndarray, radius: np.ndarray, h: np.ndarray,
              sheet: np.ndarray, other_re: np.ndarray,
              rules: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One call of ``exponent`` over one level's nodes of the loops
    ``rows``: each loop's arc of ``radius`` and its ray on the sheet at
    angle ``sheet`` (pi or -pi), whose nodes are the level's steps of h
    from x0 in the exp-sinh variable, as ``rules`` (``_level_rules``) lays
    them.  Returns, one row per loop and one column per node (the arc's,
    then the ray's), f dt times weight on the arc and f dr times weight on
    the ray, and the floor terms |f| (1 + |ln |f||) |dt| times weight,
    which on the ray add the other sheet's, where ln |f| is ``other_re``
    more.
    """
    angles, phase, dtw, dtw_abs, steps, weights = rules
    n, n_arc = rows.size, angles.size
    x = h[:, None] * steps
    x += _RAY_X0
    u = np.exp((0.5 * math.pi) * np.sinh(x))
    dr = np.cosh(x)
    del x  # each array goes as soon as it is used, to keep the peak low
    dr *= u
    dr *= (0.5 * math.pi) * h[:, None] * weights  # dr times weight
    r = u
    r += radius[:, None]

    t = np.empty((n, n_arc + steps.size), dtype=complex)
    log_t = np.empty_like(t)
    arc, ray = np.s_[:, :n_arc], np.s_[:, n_arc:]
    np.multiply(radius[:, None], phase, out=t[arc])
    np.negative(r, out=t.real[ray])
    t.imag[ray] = 0.0
    log_t.real[arc] = np.log(radius)[:, None]
    np.log(r, out=log_t.real[ray])
    log_t.imag[arc] = angles
    log_t.imag[ray] = sheet[:, None]
    del r
    t.flags.writeable = log_t.flags.writeable = False

    f = np.asarray(exponent(rows, t, log_t), dtype=complex)
    if not f.flags.writeable:
        f = f.copy()
    del t, log_t
    other = f.real[ray] + other_re[:, None]  # ln |f| on the other sheet
    floor = np.abs(f.real)
    floor += 1.0
    np.exp(f, out=f)
    floor *= np.abs(f)
    other_floor = np.abs(other)
    other_floor += 1.0
    np.exp(other, out=other)
    other_floor *= other
    floor[ray] += other_floor
    # times |dt| and dt, each with its weight, in place
    floor[arc] *= dtw_abs
    floor[arc] *= radius[:, None]
    floor[ray] *= dr
    f[arc] *= dtw
    f[arc] *= radius[:, None]
    f[ray] *= dr
    return f, floor


def _sums(vals: np.ndarray, floor: np.ndarray, n_arc: int, skip: int) -> tuple:
    """Per loop, from ``_evaluate``'s columns: the sum and floor sum of the
    arc rule in the first ``n_arc``, and, past ``skip`` more, the ray's
    terms (loops x nodes) and floor sum."""
    ray = np.s_[:, n_arc + skip:]
    return (np.add.reduce(vals[:, :n_arc], axis=1), np.add.reduce(floor[:, :n_arc], axis=1),
            vals[ray], np.add.reduce(floor[ray], axis=1))


def _estimate(arc, arc_check, arc_floor, ray, ray_check, ray_floor, pair, tails):
    """Loops' values, the arc plus ``pair`` times the ray, and their
    estimates: the arc's change from its check, |pair| times the ray's,
    the tails and the rounding floor."""
    value = pair * ray
    value += arc
    err = np.abs(arc - arc_check)
    err += np.abs(pair) * np.abs(ray - ray_check)
    err += tails
    err += _ROUNDING_FLOOR * (arc_floor + ray_floor)
    return value, err


def fixed_loops(exponent: Exponent, radius, shift, ends, tails,
                cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> list[QuadratureResult]:
    """The integrals of e^w over a batch of loops around the cut on fixed nodes.

    Loop k runs in along the cut's lower side (angle -pi) from ``ends[k]``,
    over the arc of radius ``radius[k]`` from -pi to pi, and out along the
    upper side (angle pi) to ``ends[k]``, where w is ``shift[k]`` more than
    on the lower side at every r; ``tails[k]`` bounds what the two cuts
    leave off.  The rays are integrated as one, on the sheet whose |e^w| is
    the larger: the lower where Re shift <= 0, where the pair is -expm1(d)
    times its integral of e^w dr with d = shift, and the upper otherwise,
    where it is expm1(d) times it with d = -shift.  Level 0 takes
    Gauss-Legendre with 128 nodes on the arc, checked against 64, and on the
    ray the trapezoid rule on 129 nodes of r = radius + exp((pi/2) sinh x),
    x from -4.2 to asinh((2/pi) ln(end - radius)), checked against its 65
    even nodes: 321 nodes a loop.  The estimate is the arc's change from its
    check, |expm1(d)| times the ray's, the tails, and the rounding floor 8 u
    times the sum of |f| (1 + |ln |f||) |dt| over the finer rules and both
    sheets, u = 2**-53; a loop converges where it is at most max(abs_tol,
    rel_tol |value|).  Loops that do not converge there go on to level 1:
    Gauss-Legendre with 256 nodes against 128, and on the ray the 128
    midpoints, for the trapezoid rule on 257 nodes against 129 (384 more
    nodes a loop).

    Each level is one call of ``exponent`` over the nodes of all its loops.
    Every operation is elementwise or sums within one loop's row, so a
    loop's result has the bits of the same loop integrated alone, and a
    loop whose integrand overflows fails alone.  Each result reports one
    panel per segment (ray in, arc, ray out) and its ray end as its
    truncation radius.
    """
    radius = np.asarray(radius, dtype=float)
    shift = np.asarray(shift, dtype=complex)
    ends = np.asarray(ends, dtype=float)
    tails = np.asarray(tails, dtype=float)
    with np.errstate(all="ignore"):
        upper = shift.real > 0.0  # the ray goes on the upper sheet
        sheet = np.where(upper, math.pi, -math.pi)
        d = np.where(upper, -shift, shift)
        pair = np.where(upper, 1.0, -1.0) * np.expm1(d)
        h = (np.arcsinh(np.log(ends - radius) * (2.0 / math.pi)) - _RAY_X0) / _RAY_STEPS
        vals, floor = _evaluate(exponent, np.arange(radius.size), radius, h, sheet, d.real,
                                _level_rules(0))
        arc, arc_floor, terms, ray_floor = _sums(vals, floor, _ARC_NODES, _ARC_NODES // 2)
        ray = np.add.reduce(terms, axis=1)
        value, err = _estimate(
            arc, np.add.reduce(vals[:, _ARC_NODES:3 * _ARC_NODES // 2], axis=1), arc_floor,
            ray, 2.0 * np.add.reduce(terms[:, ::2], axis=1), ray_floor, pair, tails)

        again = np.flatnonzero(~(err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))))
        if again.size:
            vals, floor = _evaluate(exponent, again, radius[again], h[again], sheet[again],
                                    d.real[again], _level_rules(1))
            arc2, arc_floor2, midpoints, mid_floor = _sums(vals, floor, 2 * _ARC_NODES, 0)
            ray = ray[again]
            value[again], err[again] = _estimate(
                arc2, arc[again], arc_floor2, 0.5 * ray + np.add.reduce(midpoints, axis=1),
                ray, 0.5 * ray_floor[again] + mid_floor, pair[again], tails[again])
        converged = err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
    return [QuadratureResult(v, e, r, 3, c)
            for v, e, r, c in zip(value.tolist(), err.tolist(), ends.tolist(),
                                  converged.tolist())]
