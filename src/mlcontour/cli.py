"""Command-line interface.

Subcommands: eval, grid, invariance, window, compare, selftest.  Results are
emitted as CSV (default) or JSON with fixed 17-significant-digit formatting,
so identical invocations produce byte-identical output.  z is always given as
(modulus, argument): the loop representations are stated in arg z, and
Cartesian input would be ambiguous exactly where they are most useful
(arg z = pi).

Which Mittag-Leffler route runs, and with which contour parameters, is the
library's decision (``mittag_leffler.evaluate_ml`` and ``ml_route``); the
commands here parse flags, call it and format what comes back.  Grid rows
are computed one after another, in order.

Exit codes: 0 success, 1 threshold/criterion failure, 2 precondition or
validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

from .errors import ContourValidityError, ConvergenceError, IntegrandError, PreconditionError
from .gamma import (
    DEFAULT_GAMMA_SPEC,
    recip_gamma_contour,
    recip_gamma_oracle,
)
from .geometry import (
    GammaContourSpec,
    MLContourSpec,
    PolarComplex,
    gamma_psi_window,
    ml_arg_window,
    validate_gamma_contour,
    validate_ml_contour,
)
from .mittag_leffler import (
    MLParams,
    SeriesDiagnostics,
    compare_methods,
    evaluate_ml,
    ml_contour,
    ml_route,
)
# Unused here; kept because perfbench's tracer wraps these names in this module.
from .mittag_leffler import default_ml_spec, ml_bateman, ml_dzhrbashyan, ml_series  # noqa: F401
from .quadrature import QuadratureConfig, QuadratureResult

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_PRECONDITION = 2
EXIT_NON_CONVERGENCE = 3


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config_args(path: str) -> list[str]:
    """Read ``key = value`` lines into CLI flags (later flags override)."""
    args: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise PreconditionError(f"{path}:{lineno}: empty key")
            args.extend([f"--{key.replace('_', '-')}", value])
    return args


def quadrature_config(ns: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(
        rel_tol=ns.rel_tol,
        abs_tol=ns.abs_tol,
        max_refinements=ns.max_refinements,
        initial_panels_per_segment=ns.initial_panels,
        tail_safety_factor=ns.tail_safety,
    )


def add_quadrature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-14)
    p.add_argument("--max-refinements", type=int, default=30)
    p.add_argument("--initial-panels", type=int, default=8)
    p.add_argument("--tail-safety", type=float, default=10.0)


def add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output file (default: stdout)")
    p.add_argument("--config", default=None,
                   help="key = value file supplying defaults; flags override")


def add_z_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z-mod", type=float, required=True)
    p.add_argument("--z-arg", type=float, default=None, help="arg z in radians (unwrapped)")
    p.add_argument("--z-arg-pi", type=float, default=None,
                   help="arg z as a multiple of pi (avoids decimal-pi typos)")


def resolve_z(ns: argparse.Namespace) -> PolarComplex:
    if ns.z_arg is None and ns.z_arg_pi is None:
        raise PreconditionError("one of --z-arg / --z-arg-pi is required")
    if ns.z_arg is not None and ns.z_arg_pi is not None:
        raise PreconditionError("--z-arg and --z-arg-pi are mutually exclusive")
    arg = ns.z_arg if ns.z_arg is not None else ns.z_arg_pi * math.pi
    return PolarComplex(ns.z_mod, arg)


def emit(ns: argparse.Namespace, rows: list[dict], json_payload=None) -> None:
    """Write CSV rows or a JSON payload to --output (or stdout)."""
    if ns.format == "json":
        text = json.dumps(json_payload if json_payload is not None else rows, indent=2)
        text += "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def evaluation_record(ev) -> dict:
    diag = ev.diagnostics
    flags = []
    rec = {
        "method": ev.method,
        "value_re": ev.value.real,
        "value_im": ev.value.imag,
        "err_estimate": None,
        "terms": None,
        "panels": None,
        "truncation_radius": None,
        "cancellation_digits": None,
        "flags": "",
    }
    if isinstance(diag, SeriesDiagnostics):
        rec["terms"] = diag.terms_used
        rec["cancellation_digits"] = diag.cancellation_digits
        if diag.unreliable:
            flags.append("series_cancellation_unreliable")
        if not diag.converged:
            flags.append("not_converged")
    elif isinstance(diag, QuadratureResult):
        rec["err_estimate"] = diag.error_estimate
        rec["panels"] = diag.panels_used
        rec["truncation_radius"] = diag.truncation_radius
        if not diag.converged:
            flags.append("not_converged")
    rec["flags"] = ";".join(flags)
    return rec


def record_for_csv(rec: dict) -> dict:
    out = {}
    for key, value in rec.items():
        if value is None:
            out[key] = ""
        elif isinstance(value, float):
            out[key] = fmt(value)
        else:
            out[key] = value
    return out


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def cmd_eval(ns: argparse.Namespace) -> int:
    params = MLParams(ns.rho, complex(ns.mu_re, ns.mu_im))
    z = resolve_z(ns)
    cfg = quadrature_config(ns)
    # Only the dzhrbashyan route reads theta, so only it rejects both flags.
    if ns.method == "dzhrbashyan" and ns.theta is not None and ns.theta_pi is not None:
        raise PreconditionError("--theta and --theta-pi are mutually exclusive")
    theta = ns.theta
    if theta is None and ns.theta_pi is not None:
        theta = ns.theta_pi * math.pi
    ev = evaluate_ml(params, z, ns.method, cfg, max_terms=ns.max_terms,
                     epsilon_hat=ns.epsilon_hat,
                     delta1_rho=ns.delta1_rho, delta2_rho=ns.delta2_rho,
                     epsilon=ns.arc_radius, theta=theta)

    rec = evaluation_record(ev)
    emit(ns, [record_for_csv(rec)], json_payload=rec)
    if isinstance(ev.diagnostics, SeriesDiagnostics) and not ev.diagnostics.converged:
        return EXIT_NON_CONVERGENCE
    return EXIT_OK


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

def _axis(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0:
        raise PreconditionError("grid step must be positive")
    if hi < lo:
        raise PreconditionError("grid max must be >= min")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12 * max(1.0, abs(hi)):
            break
        values.append(v)
        k += 1
    return values


def _gamma_row(s_re: float, s_im: float, method: str, cfg: QuadratureConfig) -> dict:
    row = {"s_re": s_re, "s_im": s_im, "value_re": None, "value_im": None,
           "err_estimate": None, "method": method, "flags": "", "status": "ok"}
    s = complex(s_re, s_im)
    try:
        if method == "oracle":
            value = complex(recip_gamma_oracle(s))
            err = 0.0
        else:
            ev = recip_gamma_contour(s, DEFAULT_GAMMA_SPEC, cfg)
            value = ev.value
            err = ev.quadrature.error_estimate
        row["value_re"], row["value_im"], row["err_estimate"] = value.real, value.imag, err
    except ContourValidityError:
        row["status"] = "window_violation"
    except PreconditionError:
        row["status"] = "precondition_violation"
    except (ConvergenceError, IntegrandError):
        row["status"] = "non_convergence"
    return row


def _ml_row(z_mod: float, z_arg: float, params: MLParams, method: str,
            cfg: QuadratureConfig) -> dict:
    z = PolarComplex(z_mod, z_arg)
    # Resolved here so that a failed row still names the route it was sent to.
    route = ml_route(params, z) if method == "auto" else method
    row = {"z_mod": z_mod, "z_arg": z_arg, "value_re": None, "value_im": None,
           "err_estimate": None, "method": route, "flags": "", "status": "ok"}
    try:
        ev = evaluate_ml(params, z, route, cfg)
    except ContourValidityError:
        row["status"] = "window_violation"
        return row
    except PreconditionError:
        row["status"] = "precondition_violation"
        return row
    except (ConvergenceError, IntegrandError):
        row["status"] = "non_convergence"
        return row
    rec = evaluation_record(ev)
    row["value_re"], row["value_im"] = rec["value_re"], rec["value_im"]
    row["err_estimate"] = rec["err_estimate"]
    row["flags"] = rec["flags"]
    if isinstance(ev.diagnostics, SeriesDiagnostics) and not ev.diagnostics.converged:
        row["status"] = "non_convergence"
    return row


def cmd_grid(ns: argparse.Namespace) -> int:
    cfg = quadrature_config(ns)
    if ns.target == "gamma":
        re_axis = _axis(ns.re_min, ns.re_max, ns.re_step)
        im_axis = _axis(ns.im_min, ns.im_max, ns.im_step)
        rows = [_gamma_row(a, b, ns.method, cfg) for a in re_axis for b in im_axis]
    else:
        params = MLParams(ns.rho, complex(ns.mu_re, ns.mu_im))
        mod_axis = _axis(ns.zmod_min, ns.zmod_max, ns.zmod_step)
        arg_axis = _axis(ns.zarg_min, ns.zarg_max, ns.zarg_step)
        rows = [_ml_row(m, a, params, ns.method, cfg) for m in mod_axis for a in arg_axis]

    emit(ns, [record_for_csv(r) for r in rows], json_payload=rows)
    return EXIT_OK if any(r["status"] == "ok" for r in rows) else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# invariance
# --------------------------------------------------------------------------

def relative_spread(values: list[complex]) -> float:
    """Largest pairwise distance over the modulus of the mean."""
    worst = max(abs(a - b) for a in values for b in values)
    scale = abs(sum(values) / len(values))
    return worst / max(scale, 1e-300)


def cmd_invariance(ns: argparse.Namespace) -> int:
    if ns.points < 3:
        raise PreconditionError("--points must be >= 3")
    cfg = quadrature_config(ns)
    values: list[complex] = []
    skipped: list[str] = []

    if ns.target == "gamma":
        s = complex(ns.s_re, ns.s_im)
        lo, hi = gamma_psi_window(ns.delta1, ns.delta2)
        for k in range(ns.points):
            psi = lo + (hi - lo) * (k + 1) / (ns.points + 1)
            spec = GammaContourSpec(ns.epsilon, psi, ns.delta1, ns.delta2)
            if not validate_gamma_contour(spec).ok:
                skipped.append(f"psi={psi:.6g} inadmissible")
                continue
            values.append(recip_gamma_contour(s, spec, cfg).value)
        swept = "psi"
    else:
        params = MLParams(ns.rho, complex(ns.mu_re, ns.mu_im))
        z = resolve_z(ns)
        lo_d = 0.5 * math.pi / ns.rho
        hi_d = min(math.pi, math.pi / ns.rho)
        for k in range(ns.points):
            frac = (k + 1) / (ns.points + 1)
            eps = 0.3 + 1.2 * frac
            delta = lo_d + (hi_d - lo_d) * (0.3 + 0.7 * frac)
            spec = MLContourSpec(params.rho, params.mu, eps, z.argument, delta, delta)
            if not validate_ml_contour(spec).ok:
                skipped.append(f"eps={eps:.6g}, delta={delta:.6g} inadmissible")
                continue
            try:
                values.append(ml_contour(params, z, spec, cfg).value)
            except (PreconditionError, ConvergenceError) as exc:
                skipped.append(str(exc))
        swept = "epsilon_hat,delta1_rho,delta2_rho"

    for note in skipped:
        print(f"notice: sweep point skipped: {note}", file=sys.stderr)
    if len(values) < 3:
        raise PreconditionError("fewer than 3 admissible sweep points")

    spread = relative_spread(values)
    passed = spread < ns.threshold
    payload = {
        "target": ns.target,
        "swept": swept,
        "points_requested": ns.points,
        "points_used": len(values),
        "spread": spread,
        "threshold": ns.threshold,
        "passed": passed,
    }
    emit(ns, [record_for_csv(payload)], json_payload=payload)
    return EXIT_OK if passed else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# window
# --------------------------------------------------------------------------

def _window_payload(low: float, high: float, samples: int) -> dict:
    payload = {"low": low, "high": high, "inclusive": False}
    if samples:
        boundary = []
        for k in range(samples):
            ang = low + (high - low) * k / max(samples - 1, 1)
            boundary.append({"angle": ang, "x": math.cos(ang), "y": math.sin(ang)})
        payload["boundary"] = boundary
    return payload


def cmd_window(ns: argparse.Namespace) -> int:
    if ns.target == "ml":
        d1 = ns.delta1_rho
        d2 = ns.delta2_rho
        if d1 is None or d2 is None:
            from .geometry import default_ml_deltas
            d1, d2 = default_ml_deltas(ns.rho)
        low, high = ml_arg_window(ns.rho, d1, d2)
    else:
        low, high = gamma_psi_window(ns.delta1, ns.delta2)
    payload = _window_payload(low, high, ns.samples)
    if ns.format == "csv":
        row = {"low": fmt(low), "high": fmt(high), "inclusive": "false"}
        emit(ns, [row], json_payload=payload)
    else:
        emit(ns, [], json_payload=payload)
    return EXIT_OK


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def cmd_compare(ns: argparse.Namespace) -> int:
    params = MLParams(ns.rho, complex(ns.mu_re, ns.mu_im))
    z = resolve_z(ns)
    cfg = quadrature_config(ns)
    report = compare_methods(params, z, cfg,
                             bateman_epsilon=ns.bateman_radius,
                             dzh_epsilon=ns.dzh_radius,
                             dzh_theta=ns.theta)
    rows = []
    for o in report.outcomes:
        rows.append(record_for_csv({
            "record": "method",
            "method_a": o.method,
            "method_b": "",
            "value_re": None if o.value is None else o.value.real,
            "value_im": None if o.value is None else o.value.imag,
            "error_estimate": o.error_estimate,
            "status": o.status,
            "reliable": str(o.reliable).lower(),
            "deviation": None,
            "reason": o.reason,
        }))
    for (ma, mb), dev in sorted(report.deviations.items()):
        rows.append(record_for_csv({
            "record": "deviation",
            "method_a": ma,
            "method_b": mb,
            "value_re": None,
            "value_im": None,
            "error_estimate": None,
            "status": "",
            "reliable": "",
            "deviation": dev,
            "reason": "",
        }))
    payload = {
        "params": {"rho": params.rho, "mu_re": complex(params.mu).real,
                   "mu_im": complex(params.mu).imag},
        "z": {"modulus": z.modulus, "argument": z.argument},
        "outcomes": [
            {"method": o.method, "status": o.status,
             "value_re": None if o.value is None else o.value.real,
             "value_im": None if o.value is None else o.value.imag,
             "error_estimate": o.error_estimate,
             "reliable": o.reliable, "reason": o.reason}
            for o in report.outcomes
        ],
        "deviations": {f"{a}|{b}": d for (a, b), d in sorted(report.deviations.items())},
    }
    emit(ns, rows, json_payload=payload)
    return EXIT_OK


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

def cmd_selftest(ns: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(only=ns.only)
    if not results:
        print(f"no acceptance criteria match --only {ns.only!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    if ns.json:
        payload = [
            {"criterion": r.criterion, "passed": r.passed, "detail": r.detail,
             "runtime_seconds": r.runtime_seconds}
            for r in results
        ]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.criterion} ({r.runtime_seconds:.2f}s) {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlc",
        description="Reciprocal gamma and Mittag-Leffler evaluation via "
                    "rotated loop integrals, with cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the Mittag-Leffler function at one point")
    p_eval.add_argument("--rho", type=float, required=True)
    p_eval.add_argument("--mu-re", type=float, required=True)
    p_eval.add_argument("--mu-im", type=float, default=0.0)
    add_z_flags(p_eval)
    p_eval.add_argument("--method",
                        choices=("series", "contour", "bateman", "dzhrbashyan", "auto"),
                        default="auto")
    p_eval.add_argument("--max-terms", type=int, default=10000)
    p_eval.add_argument("--epsilon-hat", type=float, default=None,
                        help="arc radius offset for the contour route")
    p_eval.add_argument("--delta1-rho", type=float, default=None)
    p_eval.add_argument("--delta2-rho", type=float, default=None)
    p_eval.add_argument("--arc-radius", type=float, default=None,
                        help="arc radius for bateman/dzhrbashyan routes")
    p_eval.add_argument("--theta", type=float, default=None,
                        help="opening angle for the dzhrbashyan route")
    p_eval.add_argument("--theta-pi", type=float, default=None)
    add_quadrature_flags(p_eval)
    add_output_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="evaluate over a rectangular grid")
    grid_sub = p_grid.add_subparsers(dest="target", required=True)

    g_gamma = grid_sub.add_parser("gamma", help="grid over complex s for 1/Gamma")
    g_gamma.add_argument("--re-min", type=float, required=True)
    g_gamma.add_argument("--re-max", type=float, required=True)
    g_gamma.add_argument("--re-step", type=float, required=True)
    g_gamma.add_argument("--im-min", type=float, required=True)
    g_gamma.add_argument("--im-max", type=float, required=True)
    g_gamma.add_argument("--im-step", type=float, required=True)
    g_gamma.add_argument("--method", choices=("contour", "oracle"), default="contour")
    add_quadrature_flags(g_gamma)
    add_output_flags(g_gamma)
    g_gamma.set_defaults(func=cmd_grid, target="gamma")

    g_ml = grid_sub.add_parser("ml", help="grid over (|z|, arg z)")
    g_ml.add_argument("--rho", type=float, required=True)
    g_ml.add_argument("--mu-re", type=float, required=True)
    g_ml.add_argument("--mu-im", type=float, default=0.0)
    g_ml.add_argument("--zmod-min", type=float, required=True)
    g_ml.add_argument("--zmod-max", type=float, required=True)
    g_ml.add_argument("--zmod-step", type=float, required=True)
    g_ml.add_argument("--zarg-min", type=float, required=True)
    g_ml.add_argument("--zarg-max", type=float, required=True)
    g_ml.add_argument("--zarg-step", type=float, required=True)
    g_ml.add_argument("--method",
                      choices=("series", "contour", "bateman", "dzhrbashyan", "auto"),
                      default="auto")
    add_quadrature_flags(g_ml)
    add_output_flags(g_ml)
    g_ml.set_defaults(func=cmd_grid, target="ml")

    p_inv = sub.add_parser("invariance",
                           help="sweep contour parameters; the value must not move")
    inv_sub = p_inv.add_subparsers(dest="target", required=True)

    i_gamma = inv_sub.add_parser("gamma", help="sweep the rotation angle psi")
    i_gamma.add_argument("--s-re", type=float, required=True)
    i_gamma.add_argument("--s-im", type=float, default=0.0)
    i_gamma.add_argument("--epsilon", type=float, default=1.0)
    i_gamma.add_argument("--delta1", type=float, default=math.pi)
    i_gamma.add_argument("--delta2", type=float, default=math.pi)
    i_gamma.add_argument("--points", type=int, default=5)
    i_gamma.add_argument("--threshold", type=float, default=1e-8)
    add_quadrature_flags(i_gamma)
    add_output_flags(i_gamma)
    i_gamma.set_defaults(func=cmd_invariance, target="gamma")

    i_ml = inv_sub.add_parser("ml", help="sweep arc radius and ray angles")
    i_ml.add_argument("--rho", type=float, required=True)
    i_ml.add_argument("--mu-re", type=float, required=True)
    i_ml.add_argument("--mu-im", type=float, default=0.0)
    add_z_flags(i_ml)
    i_ml.add_argument("--points", type=int, default=5)
    i_ml.add_argument("--threshold", type=float, default=1e-8)
    add_quadrature_flags(i_ml)
    add_output_flags(i_ml)
    i_ml.set_defaults(func=cmd_invariance, target="ml")

    p_win = sub.add_parser("window", help="print an admissibility window")
    win_sub = p_win.add_subparsers(dest="target", required=True)

    w_ml = win_sub.add_parser("ml", help="admissible arg z window")
    w_ml.add_argument("--rho", type=float, required=True)
    w_ml.add_argument("--delta1-rho", type=float, default=None)
    w_ml.add_argument("--delta2-rho", type=float, default=None)
    w_ml.add_argument("--samples", type=int, default=0,
                      help="emit N boundary polyline points for plotting")
    add_output_flags(w_ml)
    w_ml.set_defaults(func=cmd_window, target="ml")

    w_gamma = win_sub.add_parser("gamma", help="admissible psi window")
    w_gamma.add_argument("--delta1", type=float, required=True)
    w_gamma.add_argument("--delta2", type=float, required=True)
    w_gamma.add_argument("--samples", type=int, default=0)
    add_output_flags(w_gamma)
    w_gamma.set_defaults(func=cmd_window, target="gamma")

    p_cmp = sub.add_parser("compare", help="run every applicable route and compare")
    p_cmp.add_argument("--rho", type=float, required=True)
    p_cmp.add_argument("--mu-re", type=float, required=True)
    p_cmp.add_argument("--mu-im", type=float, default=0.0)
    add_z_flags(p_cmp)
    p_cmp.add_argument("--bateman-radius", type=float, default=None)
    p_cmp.add_argument("--dzh-radius", type=float, default=None)
    p_cmp.add_argument("--theta", type=float, default=None)
    add_quadrature_flags(p_cmp)
    add_output_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--only", default=None,
                        help="run only criteria whose name contains this substring")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice `--config FILE` contents in right after the subcommand tokens,
    so explicit flags (which come later) take precedence."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise PreconditionError("--config requires a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    file_args = load_config_args(path)
    # number of leading subcommand tokens: 1 (eval/compare/selftest) or 2
    n_sub = 1
    if rest and rest[0] in ("grid", "invariance", "window"):
        n_sub = 2
    if len(rest) < n_sub:
        raise PreconditionError("--config given without a complete subcommand")
    return rest[:n_sub] + file_args + rest[n_sub:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except ContourValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except IntegrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
