"""Benchmark for mlcontour: three workloads, checked against mpmath.

    python3 perfbench/run.py --workload gamma-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --short      # one pass each, all checks

Each workload runs in a fresh interpreter (``worker.py``) that imports only
the program from ``src/``, with ``MLC_THREADS`` set.  This process makes the
inputs from ``--seed``, times set-up in further fresh interpreters, and after
the worker has exited computes the mpmath references and judges every point.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Lines before it give the failures by cause and
by named fault.  The exit code is non-zero only when the harness itself
breaks: the program is missing, a row is missing, a CLI call exits with an
unexpected code, or a reference cannot be computed or fails its own check.
See README.md for the workloads, metrics and named faults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: The CLI's grid work is GIL-bound Python: a second thread buys no speed.
MLC_THREADS = 1
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150

REL_TOL = 1e-8
#: Below this |reference| a point is judged absolutely (the acceptance
#: suite's gamma bound), since relative error means nothing near a zero.
SMALL_REF = 1e-3
ABS_TOL = 1e-9

WORKLOADS = ("gamma-grid", "ml-grid", "ml-compare")
ML_RHOS = (0.5, 0.75, 1.0, 2.0)
ML_MUS = (0.5, 1.0, 2.0, 1.0 + 0.5j)


class HarnessError(RuntimeError):
    """The benchmark itself cannot run or cannot judge what it ran."""


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

@dataclass
class Call:
    """One call into the program and the points it must answer, in order."""

    part: str
    inputs: object  # argv list for a grid call, point tuple for a compare call
    points: list
    #: Named faults that may fail points of this call, by (route, cause).
    faults: dict = field(default_factory=dict)
    params: tuple = ()  # (rho, mu) of an ml grid call
    #: The points the named faults apply to; None means every point.
    fault_points: frozenset | None = None


def _lattice(lo: float, step: float, n: int) -> list[float]:
    # The same arithmetic as the CLI's grid axes, so points compare exactly.
    return [lo + k * step for k in range(n)]


def _gamma_call(part, re, im_lo, im_n, faults=None, band=None) -> Call:
    im_axis = _lattice(im_lo, 2.0, im_n)
    argv = ["grid", "gamma", "--method", "contour",
            "--re-min", repr(re), "--re-max", repr(re), "--re-step", "0.5",
            "--im-min", repr(im_lo), "--im-max", repr(im_axis[-1]), "--im-step", "2.0"]
    points = [(re, b) for b in im_axis]
    in_band = None if band is None else frozenset(p for p in points if band(p))
    return Call(part, argv, points, faults or {}, fault_points=in_band)


D1_D2 = "D1/D2: converged=True but off by more than 1e-8 at large |s|"


def gamma_grid(rng: random.Random) -> list[Call]:
    """1/Gamma(s) over Re s in [-6, 12] step 0.5 and |Im s| <= 10 step 2, in
    37 ``mlc grid gamma`` calls of one Re s column each.

    The block Re s >= 1.5 is fixed, 22 columns of Im s in {-10, -8, ..., 10};
    the D1/D2 band is its part with |Im s| >= 5.  The real axis with the
    poles, Re s in [-6, 1] step 0.5, is fixed, in one call.  The seed places
    the lattice of the block Re s < 1, where the route is right for every
    placement: 14 columns of 10 values of Im s.
    """
    faults = {("contour", "wrong"): D1_D2, ("contour", "raised"): D1_D2}
    re_lo = -6.0 + 0.5 * rng.random()
    im_lo = -10.0 + 2.0 * rng.random()
    poles = _lattice(-6.0, 0.5, 15)
    argv = ["grid", "gamma", "--method", "contour", "--re-min", "-6.0", "--re-max",
            repr(poles[-1]), "--re-step", "0.5", "--im-min", "0.0", "--im-max", "0.0",
            "--im-step", "1.0"]
    return ([_gamma_call("right", 1.5 + 0.5 * k, -10.0, 11, faults,
                         band=lambda p: abs(p[1]) >= 5.0) for k in range(22)]
            + [Call("poles", argv, [(a, 0.0) for a in poles])]
            + [_gamma_call("left", re_lo + 0.5 * k, im_lo, 10) for k in range(14)])


ZETA_NONCONV = "zeta-loop non-convergence: ml_contour raises inside its window"
SERIES_UNFLAGGED = "unflagged series error: 7-9 digits cancelled, not flagged"
SERIES_NO_ROUTE = "no route for flagged series"


#: arg z takes these fixed values, so the route split does not move with
#: the seed.
ML_ARG_STEP = math.pi / 4
ML_ARGS = 5


def _ml_call(part, rho, mu, zmod, faults=None) -> Call:
    args = _lattice(0.0, ML_ARG_STEP, ML_ARGS)
    argv = ["grid", "ml", "--method", "auto", "--rho", repr(rho),
            "--mu-re", repr(mu.real), "--mu-im", repr(mu.imag),
            "--zmod-min", repr(zmod), "--zmod-max", repr(zmod), "--zmod-step", "1.0",
            "--zarg-min", "0.0", "--zarg-max", repr(args[-1]), "--zarg-step", repr(ML_ARG_STEP)]
    return Call(part, argv, [(zmod, a) for a in args], faults or {}, (rho, mu))


def ml_grid(rng: random.Random) -> list[Call]:
    """E(rho, mu; z) by the auto route, in 56 ``mlc grid ml`` calls of one
    |z| each over arg z in {0, pi/4, pi/2, 3 pi/4, pi}.

    The seed places the |z| lattice: step 5/3 in (0, 5], and at rho = 2
    step 1.25 in (0, 2.5]; |z| = 3, 4, 5 at rho = 2 is a fixed block that
    holds the three rho = 2 faults.
    """
    rho2 = {("contour", "raised"): ZETA_NONCONV,
            ("series", "wrong"): SERIES_UNFLAGGED,
            ("series", "flagged"): SERIES_NO_ROUTE}
    calls = []
    for rho in ML_RHOS:
        for mu in ML_MUS:
            u = 1.0 - rng.random()  # in (0, 1]
            if rho == 2.0:
                calls += [_ml_call("rho2-near", rho, complex(mu), m)
                          for m in _lattice(1.25 * u, 1.25, 2)]
                calls += [_ml_call("rho2-far", rho, complex(mu), m, rho2)
                          for m in (3.0, 4.0, 5.0)]
            else:
                calls += [_ml_call("box", rho, complex(mu), m)
                          for m in _lattice(5.0 / 3.0 * u, 5.0 / 3.0, 3)]
    return calls


def ml_window_low(rho: float) -> float:
    """Lower end of the admissible arg z window of the zeta loop with the
    widest rays, pi/(2 rho) - min(pi, pi/rho) + pi (the paper's window)."""
    return math.pi / (2 * rho) - min(math.pi, math.pi / rho) + math.pi


def ml_compare(rng: random.Random) -> list[Call]:
    """144 compare_methods calls, one stratified point per cell of
    rho (6 cells in [0.6, 2]) x mu (4) x |z| (3 cells in (0, 2]) x arg z
    (inside or outside the window).  Points keep 10% of the cell away from
    the window's edge, where the zeta loop cannot converge (see CHANGES.md).
    """
    calls = []
    for i in range(6):
        for mu in ML_MUS:
            for k in range(3):
                for inside in (False, True):
                    rho = 0.6 + (i + rng.random()) * (1.4 / 6)
                    zmod = (k + 1.0 - rng.random()) * (2.0 / 3)
                    low = ml_window_low(rho)
                    u = rng.random()
                    zarg = low + (math.pi - low) * (0.1 + 0.9 * u) if inside else 0.9 * low * u
                    point = (rho, complex(mu).real, complex(mu).imag, zmod, zarg)
                    calls.append(Call("inside" if inside else "outside", point, [point]))
    return calls


MAKERS = {"gamma-grid": gamma_grid, "ml-grid": ml_grid, "ml-compare": ml_compare}


# --------------------------------------------------------------------------
# Running the program
# --------------------------------------------------------------------------

def _python_env() -> dict:
    env = dict(os.environ)
    env["MLC_THREADS"] = str(MLC_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, calls: list[Call], seconds: float, trace: bool,
               setup_probes: int) -> dict:
    job = {"src": SRC, "kind": "compare" if workload == "ml-compare" else "grid",
           "inputs": [c.inputs for c in calls], "seconds": seconds, "trace": trace,
           "setup_probes": setup_probes,
           "trace_file": os.path.join(OUT, f"{workload}.trace.json") if trace else None}
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=_python_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Judging outputs
# --------------------------------------------------------------------------

@dataclass
class Verdict:
    call: int
    point: tuple
    route: str
    cause: str  # "" (passed) | "raised" | "flagged" | "wrong"
    value: complex | None
    reference: complex | None
    fault: str = ""

    @property
    def passed(self) -> bool:
        return not self.cause


def within(value: complex, ref: complex) -> bool:
    err = abs(value - ref)
    return err <= ABS_TOL if abs(ref) < SMALL_REF else err <= REL_TOL * abs(ref)


def rel_digits(value: complex, ref: complex) -> float | None:
    """-log10 of the relative error, capped at 17 digits; None at a zero."""
    if ref == 0:
        return None
    return -math.log10(max(abs(value - ref) / abs(ref), 1e-17))


def grid_rows(call: Call, output, key_cols) -> list[dict]:
    code, text = output
    if code != 0:
        raise HarnessError(f"CLI exited {code} for: mlc {' '.join(call.inputs)}")
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [tuple(float(r[c]) for c in key_cols) for r in rows]
    if got != call.points:
        raise HarnessError(f"CLI rows do not match the requested points for: "
                           f"mlc {' '.join(call.inputs)}")
    return rows


def judge_grid_row(row: dict, ref: complex) -> tuple[str, complex | None]:
    if row["status"] != "ok":
        return "raised", None
    value = complex(float(row["value_re"]), float(row["value_im"]))
    if row["flags"]:
        return "flagged", value
    return ("" if within(value, ref) else "wrong"), value


def judge_gamma(calls, outputs, ref) -> list[Verdict]:
    verdicts = []
    for i, (call, out) in enumerate(zip(calls, outputs)):
        for row, point in zip(grid_rows(call, out, ("s_re", "s_im")), call.points):
            r = ref.recip_gamma(complex(*point))
            cause, value = judge_grid_row(row, r)
            verdicts.append(Verdict(i, point, row["method"], cause, value, r))
    return verdicts


def judge_ml_grid(calls, outputs, ref) -> list[Verdict]:
    verdicts = []
    series = {}
    for i, (call, out) in enumerate(zip(calls, outputs)):
        rho, mu = call.params
        e = series.setdefault((rho, mu), ref.MLSeries(rho, mu))
        for row, (zmod, zarg) in zip(grid_rows(call, out, ("z_mod", "z_arg")), call.points):
            r = e(zmod, zarg)
            closed = ref.closed_form(rho, mu, zmod, zarg)
            if closed is not None and abs(closed - r) > 1e-14 * abs(closed):
                raise HarnessError(f"series reference disagrees with the closed form at "
                                   f"rho={rho}, mu={mu}, |z|={zmod}, arg z={zarg}")
            cause, value = judge_grid_row(row, r)
            verdicts.append(Verdict(i, (rho, mu, zmod, zarg), row["method"], cause, value, r))
    return verdicts


CAUSES = ("raised", "flagged", "wrong")  # most severe first


def judge_compare(calls, outputs, ref) -> list[Verdict]:
    """A point passes when no route raised, the series is not flagged, and
    every route that answered is within tolerance.  Routes skipped for a
    stated precondition (complex mu for Bateman, arg z outside the window
    for the zeta loop) are not judged.  A failed point is reported under its
    most severe cause."""
    verdicts = []
    for i, (call, outcomes) in enumerate(zip(calls, outputs)):
        rho, mu_re, mu_im, zmod, zarg = call.inputs
        r = ref.MLSeries(rho, complex(mu_re, mu_im))(zmod, zarg)
        found = []
        for method, status, val, reliable in outcomes:
            v = None if val is None else complex(*val)
            if status == "failed":
                found.append(("raised", method, v))
            elif status == "ok" and not reliable:
                found.append(("flagged", method, v))
            elif status == "ok" and not within(v, r):
                found.append(("wrong", method, v))
        if found:
            cause, route, value = min(found, key=lambda f: CAUSES.index(f[0]))
        else:
            cause, route = "", "series"
            value = next(complex(*val) for m, _, val, _ in outcomes if m == "series")
        verdicts.append(Verdict(i, call.inputs, route, cause, value, r))
    return verdicts


JUDGES = {"gamma-grid": judge_gamma, "ml-grid": judge_ml_grid, "ml-compare": judge_compare}


def name_faults(calls: list[Call], verdicts: list[Verdict]) -> None:
    for v in verdicts:
        call = calls[v.call]
        if v.cause and (call.fault_points is None or v.point in call.fault_points):
            v.fault = call.faults.get((v.route, v.cause), "")


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def call_minima_ms(result) -> list[float]:
    """Each call's fastest time over the timed passes, in ms."""
    return [1e3 * min(column) for column in zip(*result["times"])]


def end_to_end(calls, result) -> dict:
    n_points = sum(len(c.points) for c in calls)
    best = call_minima_ms(result)
    return {
        "setup_s": _m(statistics.median(result["setup_s"]), "s"),
        "points_per_s": _m(1e3 * n_points / sum(best), "1/s"),
        "peak_rss_mb": _m(result["peak_rss_kb"] / 1024.0, "MB"),
        "call_ms_p50": _m(statistics.median(best), "ms"),
        "call_ms_p90": _m(statistics.quantiles(best, n=10, method="inclusive")[-1], "ms"),
    }


def per_layer(workload, calls, result, verdicts) -> dict:
    spans, counts = result["spans"], result["counts"]
    traced = result["traced_times"]
    points = sum(len(c.points) for c in calls) * len(traced)

    def calls_of(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def time_of(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def per_call(scale, *names):
        n = calls_of(*names)
        return scale * time_of(*names) / n if n else 0.0

    route_select = [n for n in spans if n.startswith("cli.route_select.")]
    geometry = [n for n in spans if n.startswith("geometry.")]
    scalar = ("gamma.recip_gamma_oracle.scalar", "gamma.log_gamma.scalar")
    array = ("gamma.recip_gamma_oracle.array", "gamma.log_gamma.array")
    path = "quadrature.integrate_path"
    n_paths = calls_of(path)
    evals = counts["integrand_evals"]
    t_path = time_of(path)
    inside = time_of("quadrature.integrand", "quadrature.truncation_radius")
    untraced_s = sum(min(column) for column in zip(*result["times"]))
    traced_s = sum(min(column) for column in zip(*traced))

    digits = [d for d in (rel_digits(v.value, v.reference) for v in verdicts if v.passed)
              if d is not None]
    digits_p50 = statistics.median(digits) if digits else 0.0
    is_gamma = workload == "gamma-grid"
    metrics = {
        "cli.grid_self_ms_per_point": _m(
            1e3 * spans.get("cli.grid", {}).get("self_s", 0.0) / points, "ms"),
        "cli.route_select_us_per_point": _m(1e6 * time_of(*route_select) / points, "us"),
        "geometry.us_per_point": _m(1e6 * time_of(*geometry) / points, "us"),
        "gamma.contour_ms_per_call": _m(per_call(1e3, "gamma.recip_gamma_contour"), "ms"),
        "gamma.oracle_scalar_calls_per_point": _m(calls_of(*scalar) / points, "count"),
        "gamma.oracle_scalar_us_per_call": _m(per_call(1e6, *scalar), "us"),
        "gamma.oracle_array_calls_per_point": _m(calls_of(*array) / points, "count"),
        "quadrature.integrate_path_calls_per_point": _m(n_paths / points, "count"),
        "quadrature.integrate_path_ms_per_call": _m(per_call(1e3, path), "ms"),
        "quadrature.integrand_evals_per_point": _m(evals / points, "count"),
        "quadrature.integrand_ns_per_eval": _m(
            1e9 * time_of("quadrature.integrand") / evals if evals else 0.0, "ns"),
        "quadrature.overhead_ratio": _m((t_path - inside) / t_path if t_path else 0.0, "ratio"),
        "quadrature.panels_per_path": _m(counts["panels"] / n_paths if n_paths else 0.0, "count"),
        "quadrature.converged_ratio": _m(
            counts["converged_paths"] / n_paths if n_paths else 0.0, "ratio"),
        "quadrature.truncation_radius_calls_per_point": _m(
            calls_of("quadrature.truncation_radius") / points, "count"),
        "quadrature.truncation_radius_us_per_call": _m(
            per_call(1e6, "quadrature.truncation_radius"), "us"),
        "mittag_leffler.series_ms_per_call": _m(per_call(1e3, "mittag_leffler.ml_series"), "ms"),
        "mittag_leffler.series_terms_per_call": _m(
            counts["series_terms"] / calls_of("mittag_leffler.ml_series")
            if calls_of("mittag_leffler.ml_series") else 0.0, "count"),
        "mittag_leffler.contour_ms_per_call": _m(
            per_call(1e3, "mittag_leffler.ml_contour"), "ms"),
        "mittag_leffler.contour_route_ratio": _m(
            calls_of("mittag_leffler.ml_contour") / points, "ratio"),
        "mittag_leffler.bateman_ms_per_call": _m(
            per_call(1e3, "mittag_leffler.ml_bateman"), "ms"),
        "mittag_leffler.dzhrbashyan_ms_per_call": _m(
            per_call(1e3, "mittag_leffler.ml_dzhrbashyan"), "ms"),
        "gamma.digits_p50": _m(digits_p50 if is_gamma else 0.0, "digits"),
        "mittag_leffler.digits_p50": _m(0.0 if is_gamma else digits_p50, "digits"),
        "trace.overhead_ratio": _m(traced_s / untraced_s - 1.0, "ratio"),
    }
    return metrics


# --------------------------------------------------------------------------
# Command
# --------------------------------------------------------------------------

def write_points(path: str, verdicts: list[Verdict], calls: list[Call]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["call", "part", "point", "route", "verdict", "fault",
                    "value", "reference", "digits"])
        for v in verdicts:
            d = None if v.value is None else rel_digits(v.value, v.reference)
            w.writerow([v.call, calls[v.call].part, repr(v.point), v.route, v.cause or "ok",
                        v.fault, "" if v.value is None else repr(v.value), repr(v.reference),
                        "" if d is None else f"{d:.2f}"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    calls = MAKERS[workload](random.Random(seed))
    reference.self_check([(rho, mu) for rho in ML_RHOS for mu in ML_MUS])
    os.makedirs(OUT, exist_ok=True)
    result = run_worker(workload, calls, 0.0 if short else seconds, trace,
                        1 if short else SETUP_PROBES)
    verdicts = JUDGES[workload](calls, result["outputs"], reference)
    name_faults(calls, verdicts)

    passes = 1 + len(result["times"]) + len(result.get("traced_times", ()))
    failed = [v for v in verdicts if v.cause]
    unnamed = [v for v in failed if not v.fault]
    by_cause, by_fault = {}, {}
    for v in failed:
        by_cause[v.cause] = by_cause.get(v.cause, 0) + 1
        key = v.fault or "UNNAMED"
        by_fault[key] = by_fault.get(key, 0) + 1

    write_points(os.path.join(OUT, f"{workload}.points.csv"), verdicts, calls)
    metrics = per_layer(workload, calls, result, verdicts) if trace \
        else end_to_end(calls, result)
    summary = {
        "correct": not unnamed and result["same"],
        "attempted": len(verdicts) * passes,
        "failed": len(failed) * passes,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{workload}.result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "mlc_threads": MLC_THREADS, "points_per_pass": len(verdicts),
                   "passes": passes, "failed_per_pass_by_cause": by_cause,
                   "failed_per_pass_by_fault": by_fault,
                   "outputs_identical_across_passes": result["same"],
                   "setup_s_samples": result.get("setup_s"),
                   "call_ms_fastest": None if trace else call_minima_ms(result),
                   **summary}, fh, indent=2)

    print(f"# {workload} seed={seed} MLC_THREADS={MLC_THREADS} points/pass={len(verdicts)} "
          f"passes={passes} calls/pass={len(calls)}")
    print(f"#   failed per pass: {len(failed)} of {len(verdicts)}; by cause {by_cause}")
    for fault, n in sorted(by_fault.items()):
        print(f"#     {n:4d}  {fault}")
    if not result["same"]:
        print("#   outputs differed between passes of the same inputs")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one timed pass per workload (and per half of a traced run)")
    ns = p.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "mlcontour", "__init__.py")):
            raise HarnessError(f"program source not found under {SRC}")
        names = WORKLOADS if ns.workload == "all" else (ns.workload,)
        for name in names:
            summary = run_workload(name, ns.seed, ns.seconds, bool(ns.trace), ns.short)
            print(json.dumps(summary))
    except (HarnessError, reference.ReferenceFailure) as exc:
        print(f"benchmark harness error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
