"""The sweeps behind the auto route's series region (``mittag_leffler.ml_route``).

``threshold`` (the default) scores the series and the zeta loop at its
default spec against ``ml_reference`` over rho in [0.51, 100], six mu, |z|^rho
from 1e-30 to 8, and arg z at 2%, 25%, 50%, 75% and 98% of the loop's
window.  It prints one JSON row per (rho, |z|^rho), over the 30 cells of the
six mu and five arguments:

* ``series_err``: the worst relative error of the series;
* ``series_terms``: the most terms it summed;
* ``series_flagged``: cells where it is flagged or did not converge;
* ``loop_bad``: cells where the loop raises or is off by more than 1e-8;
* ``loop_bad_series_ok``: those of them where the series is within 1e-8.

``coverage`` scores ``evaluate_ml(method="auto")`` over the 2,205-cell box of
ROADMAP direction 3 (cells where |E| passes 1e300 or E is 0 are not scored)
and prints the count of each outcome, ok, flagged, raised and wrong (unflagged
but off by more than 1e-8), by the route auto took.

``gamma`` scores the default gamma loop, ``recip_gamma_contour(s)``, against
``mpmath.rgamma`` over three boxes: the gamma-grid box, Re s in [-6, 12] step
0.5 by Im s in [-10, 10] step 2 (407 points); the 1,625-point box, Re s in
[-12, 20] step 0.5 by Im s in [-30, 30] step 2.5; and the wide box, Re s in
[-40, 104] step 2 by Im s in [-200, 200] step 4 (7,373 points, most of which
raise).  A value is judged as the benchmark judges it: within 1e-8 relative,
or 1e-9 absolute where |1/Gamma| < 1e-3.  It prints, per box, the count of
each outcome (ok, raised, wrong), of answers whose error is above their
estimate, and of those the fixed-node rule gave (the others come from the
adaptive fallback); and the fixed rule's work: its nodes per point of the box,
the loops that took its level 1, and the points that fell back, each an
explicit-spec call of ``recip_gamma_contour`` made from inside
``recip_gamma_points``.  It scores the unit loop, ``recip_gamma_contour(s,
DEFAULT_GAMMA_SPEC)``, on the same points, and prints its outcomes per box as
``unit_loop``.

Run from the repository root (mpmath needed; the threshold sweep takes a few
minutes, the coverage and gamma sweeps under a minute each):

    PYTHONPATH=src:tests python tests/auto_route_sweep.py threshold
    PYTHONPATH=src:tests python tests/auto_route_sweep.py coverage
    PYTHONPATH=src:tests python tests/auto_route_sweep.py gamma
"""

from __future__ import annotations

import argparse
import json
import math
from collections import Counter

import mpmath
from ml_reference import ml_reference
from mlcontour import fixed_rule, gamma
from mlcontour.errors import ConvergenceError, MlcError, PreconditionError
from mlcontour.geometry import PolarComplex, default_ml_deltas, ml_arg_window
from mlcontour.mittag_leffler import MLParams, evaluate_ml, ml_contour, ml_route, ml_series

WRONG = 1e-8
RHOS = (0.51, 0.55, 0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0, 100.0)
MUS = (0.5, 1.0, 2.0, 1 + 0.5j, -1.5 + 1j, -3 + 2j)
Z_RHOS = (1e-30, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
WINDOW_FRACTIONS = (0.02, 0.25, 0.5, 0.75, 0.98)


def rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def threshold_rows() -> list[dict]:
    rows = []
    for rho in RHOS:
        lo, hi = ml_arg_window(rho, *default_ml_deltas(rho))
        for z_rho in Z_RHOS:
            row = {"rho": rho, "z_rho": z_rho, "series_err": 0.0, "series_terms": 0,
                   "series_flagged": 0, "loop_bad": 0, "loop_bad_series_ok": 0}
            for mu in MUS:
                params = MLParams(rho, mu)
                for frac in WINDOW_FRACTIONS:
                    z = PolarComplex(z_rho ** (1.0 / rho), lo + frac * (hi - lo))
                    ref = ml_reference(rho, mu, z.to_complex())
                    series = ml_series(params, z)
                    err = rel_err(series.value, ref)
                    row["series_err"] = max(row["series_err"], err)
                    row["series_terms"] = max(row["series_terms"],
                                              series.diagnostics.terms_used)
                    row["series_flagged"] += bool(series.diagnostics.flags)
                    try:
                        loop_ok = rel_err(ml_contour(params, z).value, ref) <= WRONG
                    except (ConvergenceError, PreconditionError):
                        loop_ok = False
                    if not loop_ok:
                        row["loop_bad"] += 1
                        row["loop_bad_series_ok"] += err <= WRONG
            rows.append(row)
    return rows


def coverage_counts() -> dict:
    counts = Counter()
    for rho in (0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0):
        for mu in (0.5, 1.0, 2.0, 1 + 0.5j, -1.5 + 1j):
            params = MLParams(rho, mu)
            for zmod in (0.1, 1.0, 5.0, 30.0, 100.0, 1e3, 1e6):
                for k in range(9):
                    z = PolarComplex(zmod, k * math.pi / 8)
                    try:
                        ref = ml_reference(rho, mu, z.to_complex())
                    except OverflowError:
                        continue
                    if not abs(ref) <= 1e300 or ref == 0:
                        continue
                    route = ml_route(params, z)
                    try:
                        ev = evaluate_ml(params, z)
                    except (ConvergenceError, PreconditionError):
                        counts["raised", route] += 1
                        continue
                    diag = ev.diagnostics
                    flagged = getattr(diag, "flags", ()) or not diag.converged
                    if flagged:
                        counts["flagged", route] += 1
                    elif rel_err(ev.value, ref) <= WRONG:
                        counts["ok", route] += 1
                    else:
                        counts["wrong", route] += 1
    by_outcome: dict = {}
    for (outcome, route), n in sorted(counts.items()):
        by_outcome.setdefault(outcome, {})[route] = n
    return by_outcome


GAMMA_BOXES = {
    # name: (Re s min, step, count), (Im s min, step, count)
    "gamma-grid": ((-6.0, 0.5, 37), (-10.0, 2.0, 11)),
    "box-1625": ((-12.0, 0.5, 65), (-30.0, 2.5, 25)),
    "wide": ((-40.0, 2.0, 73), (-200.0, 4.0, 101)),
}


def gamma_counts() -> dict:
    fell_back, work, batches = set(), Counter(), []
    contour, points, fixed_loops = (gamma.recip_gamma_contour, gamma.recip_gamma_points,
                                    fixed_rule.fixed_loops)

    def batched(*args, **kwargs):
        batches.append(None)
        try:
            return points(*args, **kwargs)
        finally:
            batches.pop()

    def noted(s, spec=None, *args, **kwargs):
        if batches and spec is not None:  # a fallback: the explicit spec of the same loop
            fell_back.add(complex(s))
        return contour(s, spec, *args, **kwargs)

    def counted(exponent, *args):
        levels = []

        def count(rows, t, log_t):
            levels.append(rows.size)
            work["nodes"] += t.size
            return exponent(rows, t, log_t)

        results = fixed_loops(count, *args)
        work["level_1"] += sum(levels[1:])
        return results

    def score(counts, s, ref, spec=None) -> bool:
        """Count the outcome of ``recip_gamma_contour(s, spec)``: True for an
        answer whose error is above its estimate."""
        try:
            ev = gamma.recip_gamma_contour(s, spec)
        except MlcError:
            counts["raised"] += 1
            return False
        err = abs(ev.value - ref)
        right = err <= 1e-9 if abs(ref) < 1e-3 else err <= WRONG * abs(ref)
        counts["ok" if right else "wrong"] += 1
        return err > ev.diagnostics.error_estimate

    gamma.recip_gamma_points, gamma.recip_gamma_contour = batched, noted
    fixed_rule.fixed_loops = counted
    out = {}
    try:
        for name, ((re_lo, re_step, n_re), (im_lo, im_step, n_im)) in GAMMA_BOXES.items():
            counts = Counter(ok=0, raised=0, wrong=0, above_estimate=0, above_estimate_fixed=0)
            unit = Counter(ok=0, raised=0, wrong=0)
            fell_back.clear()
            work.clear()
            for k in range(n_re):
                for j in range(n_im):
                    s = complex(re_lo + k * re_step, im_lo + j * im_step)
                    with mpmath.workdps(30):
                        ref = complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))
                    if score(counts, s, ref):
                        counts["above_estimate"] += 1
                        counts["above_estimate_fixed"] += s not in fell_back
                    score(unit, s, ref, gamma.DEFAULT_GAMMA_SPEC)
            out[name] = {**counts, "nodes_per_point": work["nodes"] / (n_re * n_im),
                         "level_1": work["level_1"], "fell_back": len(fell_back),
                         "unit_loop": dict(unit)}
    finally:
        gamma.recip_gamma_points, gamma.recip_gamma_contour = points, contour
        fixed_rule.fixed_loops = fixed_loops
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", nargs="?", default="threshold",
                        choices=("threshold", "coverage", "gamma"))
    sweep = parser.parse_args().sweep
    if sweep == "threshold":
        for row in threshold_rows():
            print(json.dumps(row))
    elif sweep == "coverage":
        print(json.dumps(coverage_counts()))
    else:
        print(json.dumps(gamma_counts()))


if __name__ == "__main__":
    main()
