"""The fixed-node rule: a batch of loops around the cut integrated on fixed nodes.

``fixed_loops`` takes loops around the branch cut on the negative real axis,
such as the default gamma loop at every s of a grid, each with its own arc
radius, turn psi, ray end and sheet shift.  A loop runs in along the lower
sheet's ray at angle -pi + psi, over the arc from -pi + psi to pi + psi, and
out along the upper sheet's ray at pi + psi.  Both rays lie on one line,
t = -r e^(i psi), and their log t differ by 2 pi i, so the upper sheet's
integrand is the lower sheet's times e^shift at every r (e^(-2 pi i s) for
e^t t^(-s)).  As in the paper's one integral over r in [epsilon, inf), the
rule integrates the ray once, on the sheet where the integrand is the larger,
and takes the other sheet's as a factor e^d, |e^d| <= 1, of it: the two rays
together are expm1(d) e^(i psi) times that one integral, up to sign.  Each
level is one integrand call over a (loops x nodes) array: Gauss-Legendre on
the arc, whose tables ``gauss_legendre`` builds on first use by Newton's
method on the Legendre recurrence (no numpy.polynomial, no eigensolver), and
an exp-sinh trapezoid rule on the ray.  Its estimate adds the tails and a
rounding floor weighted by |w|, which counts both sheets, to the level
difference, whose ray part at level 0 is judged by the ray's convergence
ratio, and a loop converges on its summed value.  This is the second engine,
next to ``quadrature.integrate_path``'s adaptive panels; the two stay side by
side until every loop moves to fixed nodes.  It is a module of its own, not a
part of ``quadrature``: a process that runs without bytecode files compiles
each module from source, and its peak memory rises with the largest one (in
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
#: The rounding floor: this times the sum of |f| (1 + |w|) |dt|, f = e^w.
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
#: loop's ray nodes are on one sheet: t = -r e^(i psi), log t = ln r + i
#: (psi -+ pi).
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


def _evaluate(exponent: Exponent, rows: np.ndarray, radius: np.ndarray, turn: np.ndarray,
              psi: np.ndarray, h: np.ndarray, sheet: np.ndarray, other: np.ndarray,
              rules: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One call of ``exponent`` over one level's nodes of the loops
    ``rows``: each loop's arc of ``radius``, turned by ``psi`` (``turn`` =
    e^(i psi)), and its ray on the sheet at angle ``sheet`` + psi (``sheet``
    pi or -pi), whose nodes are the level's steps of h from x0 in the
    exp-sinh variable, as ``rules`` (``_level_rules``) lays them.  Returns,
    one row per loop and one column per node (the arc's, then the ray's), f
    dt times weight on the arc and f dr times weight on the ray (where dt =
    -e^(i psi) dr; the caller's pair of rays carries the factor), and the
    floor terms |f| (1 + |w|) |dt| times weight, which on the ray add the
    other sheet's, where w is ``other`` more.
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
    corner = (radius * turn)[:, None]  # the arc's t at angle 0 + psi
    np.multiply(corner, phase, out=t[arc])
    np.multiply(r, -turn.real[:, None], out=t.real[ray])
    np.multiply(r, -turn.imag[:, None], out=t.imag[ray])
    log_t.real[arc] = np.log(radius)[:, None]
    np.log(r, out=log_t.real[ray])
    np.add(angles, psi[:, None], out=log_t.imag[arc])
    log_t.imag[ray] = (sheet + psi)[:, None]
    del r
    t.flags.writeable = log_t.flags.writeable = False

    f = np.asarray(exponent(rows, t, log_t), dtype=complex)
    if not f.flags.writeable:
        f = f.copy()
    del t, log_t
    other_w = f[ray] + other[:, None]  # w on the other sheet
    floor = np.abs(f)
    floor += 1.0
    np.exp(f, out=f)
    floor *= np.abs(f)
    other_floor = np.abs(other_w)
    other_floor += 1.0
    other_floor *= np.exp(other_w.real)
    floor[ray] += other_floor
    # times |dt| and dt, each with its weight, in place
    floor[arc] *= dtw_abs
    floor[arc] *= radius[:, None]
    floor[ray] *= dr
    f[arc] *= dtw
    f[arc] *= corner
    f[ray] *= dr
    return f, floor


def _sums(vals: np.ndarray, floor: np.ndarray, n_arc: int, skip: int) -> tuple:
    """Per loop, from ``_evaluate``'s columns: the sum and floor sum of the
    arc rule in the first ``n_arc``, and, past ``skip`` more, the ray's
    terms (loops x nodes) and floor sum."""
    ray = np.s_[:, n_arc + skip:]
    return (np.add.reduce(vals[:, :n_arc], axis=1), np.add.reduce(floor[:, :n_arc], axis=1),
            vals[ray], np.add.reduce(floor[ray], axis=1))


def _estimate(arc, arc_check, arc_floor, ray, ray_change, ray_floor, pair, tails):
    """Loops' values, the arc plus ``pair`` times the ray, and their
    estimates: the arc's change from its check, |pair| times the ray's
    ``ray_change``, the tails and the rounding floor."""
    value = pair * ray
    value += arc
    err = np.abs(arc - arc_check)
    err += np.abs(pair) * ray_change
    err += tails
    err += _ROUNDING_FLOOR * (arc_floor + ray_floor)
    return value, err


def _ray_change(terms: np.ndarray, ray: np.ndarray) -> np.ndarray:
    """Level 0's ray estimate from its trapezoid sums on 129, 65 and 33
    nodes (every node, every second and every fourth): |T129 - T65|, times
    q/(1 - q) where the convergence ratio q = |T129 - T65| / |T65 - T33| is
    below 1/2."""
    coarse = 2.0 * np.add.reduce(terms[:, ::2], axis=1)
    change = np.abs(ray - coarse)
    q = change / np.abs(coarse - 4.0 * np.add.reduce(terms[:, ::4], axis=1))
    fast = q < 0.5
    change[fast] *= q[fast] / (1.0 - q[fast])
    return change


def fixed_loops(exponent: Exponent, radius, psi, shift, ends, tails,
                cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> list[QuadratureResult]:
    """The integrals of e^w over a batch of loops around the cut on fixed nodes.

    Loop k, turned by ``psi[k]``, runs in along the lower sheet's ray at
    angle -pi + psi from ``ends[k]``, over the arc of radius ``radius[k]``
    from -pi + psi to pi + psi, and out along the upper sheet's ray at angle
    pi + psi to ``ends[k]``, where w is ``shift[k]`` more than on the lower
    sheet at every r; ``tails[k]`` bounds what the two cuts leave off.  The
    rays are integrated as one, t = -r e^(i psi), on the sheet whose |e^w| is
    the larger: the lower where Re shift <= 0, where the pair is -expm1(d)
    e^(i psi) times its integral of e^w dr with d = shift, and the upper
    otherwise, where it is expm1(d) e^(i psi) times it with d = -shift.
    Level 0 takes Gauss-Legendre with 128 nodes on the arc, checked against
    64, and on the ray the trapezoid rule T129 on 129 nodes of r = radius +
    exp((pi/2) sinh x), x from -4.2 to asinh((2/pi) ln(end - radius)), whose
    change from T65 on its even nodes is the ray's estimate; where that
    change is below half T65's change from T33 on every fourth node, the
    ray converges fast enough that the estimate is the change times q/(1 -
    q), q their ratio: 321 nodes a loop.  The estimate is the arc's change
    from its check, |expm1(d)| times the ray's, the tails, and the rounding
    floor 8 u times the sum of |f| (1 + |w|) |dt| over the finer rules and
    both sheets, u = 2**-53 and |w| the complex modulus; a loop converges
    where it is at most max(abs_tol, rel_tol |value|).  Loops that do not
    converge there go on to level 1: Gauss-Legendre with 256 nodes against
    128, and on the ray the 128 midpoints, for T257 against T129 (384 more
    nodes a loop).

    Each level is one call of ``exponent`` over the nodes of all its loops.
    Every operation is elementwise or sums within one loop's row, so a
    loop's result has the bits of the same loop integrated alone, and a
    loop whose integrand overflows fails alone.  Each result reports one
    panel per segment (ray in, arc, ray out) and its ray end as its
    truncation radius.
    """
    radius = np.asarray(radius, dtype=float)
    psi = np.asarray(psi, dtype=float)
    shift = np.asarray(shift, dtype=complex)
    ends = np.asarray(ends, dtype=float)
    tails = np.asarray(tails, dtype=float)
    with np.errstate(all="ignore"):
        turn = np.cos(psi) + 1j * np.sin(psi)
        upper = shift.real > 0.0  # the ray goes on the upper sheet
        sheet = np.where(upper, math.pi, -math.pi)
        d = np.where(upper, -shift, shift)
        pair = np.where(upper, 1.0, -1.0) * np.expm1(d) * turn
        h = (np.arcsinh(np.log(ends - radius) * (2.0 / math.pi)) - _RAY_X0) / _RAY_STEPS
        vals, floor = _evaluate(exponent, np.arange(radius.size), radius, turn, psi, h, sheet,
                                d, _level_rules(0))
        arc, arc_floor, terms, ray_floor = _sums(vals, floor, _ARC_NODES, _ARC_NODES // 2)
        ray = np.add.reduce(terms, axis=1)
        value, err = _estimate(
            arc, np.add.reduce(vals[:, _ARC_NODES:3 * _ARC_NODES // 2], axis=1), arc_floor,
            ray, _ray_change(terms, ray), ray_floor, pair, tails)

        again = np.flatnonzero(~(err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))))
        if again.size:
            vals, floor = _evaluate(exponent, again, radius[again], turn[again], psi[again],
                                    h[again], sheet[again], d[again], _level_rules(1))
            arc2, arc_floor2, midpoints, mid_floor = _sums(vals, floor, 2 * _ARC_NODES, 0)
            ray = ray[again]
            ray2 = 0.5 * ray + np.add.reduce(midpoints, axis=1)
            value[again], err[again] = _estimate(
                arc2, arc[again], arc_floor2, ray2, np.abs(ray2 - ray),
                0.5 * ray_floor[again] + mid_floor, pair[again], tails[again])
        converged = err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
    return [QuadratureResult(v, e, r, 3, c)
            for v, e, r, c in zip(value.tolist(), err.tolist(), ends.tolist(),
                                  converged.tolist())]
