"""Command-line interface.

Subcommands: eval, grid, invariance, window, compare, selftest.  Commands
build plain records and one writer, ``emit``, formats them all: CSV
(default), floats at 17 significant digits, or JSON, floats as Python's
shortest round-trip repr and a non-finite float as null, so that the JSON is
strict (the CSV keeps inf); identical invocations give identical bytes.  z is
always given as (modulus, argument): the loop representations are stated in
arg z, and Cartesian input would be ambiguous exactly where they are most
useful (arg z = pi).

Which Mittag-Leffler route runs, and with which contour parameters, is the
library's decision (``mittag_leffler.evaluate_ml`` and ``ml_route``); the
commands here parse flags, call it and read what comes back, gamma and
Mittag-Leffler results alike, through ``evaluation_record``.  Grid rows are
computed one after another, in order.

Exit codes: 0 success, 1 threshold/criterion failure, 2 a refusal
(``PreconditionError``) or an unreadable file, 3 a numerical failure
(``ConvergenceError``).  Any other error is a bug and shows its traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional, Sequence

from .errors import ContourValidityError, ConvergenceError, PreconditionError
from .gamma import (
    DEFAULT_GAMMA_SPEC,
    recip_gamma_contour,
    recip_gamma_oracle,
)
from .geometry import (
    GammaContourSpec,
    PolarComplex,
    default_ml_deltas,
    gamma_psi_window,
    ml_arg_window,
    ml_delta_range,
)
from .mittag_leffler import (
    ML_METHODS,
    SERIES_MAX_TERMS,
    MLParams,
    SeriesDiagnostics,
    compare_methods,
    evaluate_ml,
    ml_contour,
    ml_route,
    relative_spread,
)
# Unused here; kept because perfbench's tracer wraps these names in this module.
from .geometry import validate_ml_contour  # noqa: F401
from .mittag_leffler import default_ml_spec, ml_bateman, ml_dzhrbashyan, ml_series  # noqa: F401
from .quadrature import DEFAULT_QUADRATURE, Evaluation, QuadratureConfig

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_PRECONDITION = 2
EXIT_NON_CONVERGENCE = 3


def load_config_args(path: str) -> list[str]:
    """Read a UTF-8 file's ``key = value`` lines into CLI flags (later flags override)."""
    args: list[str] = []
    try:
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
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path} is not UTF-8: {exc.reason}") from None
    return args


def quadrature_config(ns: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(ns.rel_tol, ns.abs_tol)


def add_quadrature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=DEFAULT_QUADRATURE.rel_tol)
    p.add_argument("--abs-tol", type=float, default=DEFAULT_QUADRATURE.abs_tol)


def add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output file (default: stdout)")
    p.add_argument("--config", default=None,
                   help="key = value file supplying defaults; flags override")


def add_ml_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu-re", type=float, required=True)
    p.add_argument("--mu-im", type=float, default=0.0)


def resolve_params(ns: argparse.Namespace) -> MLParams:
    return MLParams(ns.rho, complex(ns.mu_re, ns.mu_im))


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


def emit(ns: argparse.Namespace, rows: list[dict], payload) -> None:
    """Write ``rows`` as CSV, or ``payload`` as JSON, to --output (or stdout).

    The CSV header is the first row's keys; None is an empty cell, a bool
    true or false, and a float has 17 significant digits."""
    if ns.format == "json":
        # Read back with Infinity and NaN as None, so that they are written as null.
        strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        text = json.dumps(strict, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([str(v).lower() if isinstance(v, bool) else
                          format(v, ".17g") if isinstance(v, float) else v
                          for v in row.values()] for row in rows)
        text = buf.getvalue()
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def evaluation_record(ev: Evaluation) -> dict:
    """Any route's ``Evaluation``, gamma or Mittag-Leffler, as a record: its
    value and its diagnostics' evidence.  A series result gives its terms,
    cancellation digits and flags; a loop result its quadrature's error
    estimate, panels and truncation radius."""
    diag = ev.diagnostics
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
        rec["flags"] = ";".join(diag.flags)
    else:
        rec["err_estimate"] = diag.error_estimate
        rec["panels"] = diag.panels_used
        rec["truncation_radius"] = diag.truncation_radius
    return rec


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def cmd_eval(ns: argparse.Namespace) -> int:
    params = resolve_params(ns)
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
    emit(ns, [rec], rec)
    # A series that ran out of terms has a value, yet it failed.
    return EXIT_OK if ev.diagnostics.converged else EXIT_NON_CONVERGENCE


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

def _axis(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, where a point at most 1e-9 steps past
    hi (a rounding error) still counts as hi.  The points are counted
    before they are made: stepping until a value passes hi would never end
    once lo + step rounds to lo."""
    if step <= 0:
        raise PreconditionError("grid step must be positive")
    if hi < lo:
        raise PreconditionError("grid max must be >= min")
    span = (hi - lo) / step
    if not all(map(math.isfinite, (lo, hi, step, span))):
        raise PreconditionError("grid min, max, step and (max - min)/step must be finite")
    count = math.floor(span + 1e-9) + 1
    return [lo + k * step for k in range(count)]


#: The status a grid row reports for each error its evaluation may raise; the
#: first match counts, so the subclass ContourValidityError comes first.
_ROW_STATUS = {ContourValidityError: "window_violation",
               PreconditionError: "precondition_violation",
               ConvergenceError: "non_convergence"}


def _grid_row(coords: dict, method: str, record, *args) -> dict:
    """One grid row: ``coords``, the route's name, and the value, error
    estimate, flags and status of ``record(*args)``, or the status of the
    error it raises."""
    row = {**coords, "value_re": None, "value_im": None, "err_estimate": None,
           "method": method, "flags": "", "status": "ok"}
    try:
        rec = record(*args)
    except tuple(_ROW_STATUS) as exc:
        row["status"] = next(status for cls, status in _ROW_STATUS.items()
                             if isinstance(exc, cls))
        return row
    for key in ("value_re", "value_im", "err_estimate", "flags", "status"):
        row[key] = rec[key]
    return row


def _row_record(ev) -> dict:
    """``evaluation_record`` and the row's status: a series out of terms failed."""
    return {**evaluation_record(ev),
            "status": "ok" if ev.diagnostics.converged else "non_convergence"}


def _gamma_record(s: complex, cfg: QuadratureConfig) -> dict:
    return _row_record(recip_gamma_contour(s, DEFAULT_GAMMA_SPEC, cfg))


def _oracle_record(value: complex) -> dict:
    # The oracle has no estimate of its own error at a point.
    return {"value_re": value.real, "value_im": value.imag, "err_estimate": None,
            "flags": "", "status": "ok"}


def _ml_row(z_mod: float, z_arg: float, params: MLParams, method: str,
            cfg: QuadratureConfig) -> dict:
    z = PolarComplex(z_mod, z_arg)
    # Resolved here so that a failed row still names the route it was sent to.
    route = ml_route(params, z) if method == "auto" else method
    return _grid_row({"z_mod": z_mod, "z_arg": z_arg}, route,
                     lambda: _row_record(evaluate_ml(params, z, route, cfg)))


def cmd_grid(ns: argparse.Namespace) -> int:
    cfg = quadrature_config(ns)
    if ns.target == "gamma":
        points = [(a, b) for a in _axis(ns.re_min, ns.re_max, ns.re_step)
                  for b in _axis(ns.im_min, ns.im_max, ns.im_step)]
        if ns.method == "oracle":
            # The array call gives the same bits as one scalar call per point.
            values = recip_gamma_oracle([complex(a, b) for a, b in points]).tolist()
            rows = [_grid_row({"s_re": a, "s_im": b}, "oracle", _oracle_record, v)
                    for (a, b), v in zip(points, values)]
        else:
            rows = [_grid_row({"s_re": a, "s_im": b}, "contour", _gamma_record,
                              complex(a, b), cfg) for a, b in points]
    else:
        params = resolve_params(ns)
        mod_axis = _axis(ns.zmod_min, ns.zmod_max, ns.zmod_step)
        arg_axis = _axis(ns.zarg_min, ns.zarg_max, ns.zarg_step)
        rows = [_ml_row(m, a, params, ns.method, cfg) for m in mod_axis for a in arg_axis]

    emit(ns, rows, rows)
    return EXIT_OK if any(r["status"] == "ok" for r in rows) else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# invariance
# --------------------------------------------------------------------------

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
            try:
                values.append(recip_gamma_contour(s, spec, cfg).value)
            except ContourValidityError:
                skipped.append(f"psi={psi:.6g} inadmissible")
        swept = "psi"
    else:
        params = resolve_params(ns)
        z = resolve_z(ns)
        lo_d, hi_d = ml_delta_range(ns.rho)
        for k in range(ns.points):
            frac = (k + 1) / (ns.points + 1)
            eps = 0.3 + 1.2 * frac
            delta = lo_d + (hi_d - lo_d) * (0.3 + 0.7 * frac)
            try:
                values.append(ml_contour(params, z, cfg, epsilon_hat=eps,
                                         deltas=(delta, delta)).value)
            except ContourValidityError:
                skipped.append(f"eps={eps:.6g}, delta={delta:.6g} inadmissible")
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
    emit(ns, [payload], payload)
    return EXIT_OK if passed else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# window
# --------------------------------------------------------------------------

def cmd_window(ns: argparse.Namespace) -> int:
    if ns.samples < 0:
        raise PreconditionError("--samples must be >= 0")
    if ns.target == "ml":
        d1, d2 = ns.delta1_rho, ns.delta2_rho
        if (d1 is None) != (d2 is None):
            raise PreconditionError("delta1_rho and delta2_rho go together")
        if d1 is None:
            d1, d2 = default_ml_deltas(ns.rho)
        low, high = ml_arg_window(ns.rho, d1, d2)
    else:
        low, high = gamma_psi_window(ns.delta1, ns.delta2)
    row = {"low": low, "high": high, "inclusive": False}
    angles = [low + (high - low) * k / max(ns.samples - 1, 1) for k in range(ns.samples)]
    boundary = [{"angle": a, "x": math.cos(a), "y": math.sin(a)} for a in angles]
    # The boundary polyline is JSON only.
    emit(ns, [row], {**row, "boundary": boundary} if boundary else row)
    return EXIT_OK


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

#: The columns of ``compare``'s CSV; a method row leaves ``method_b`` and
#: ``deviation`` empty, a deviation row every column but the two methods.
_COMPARE_COLUMNS = ("record", "method_a", "method_b", "value_re", "value_im",
                    "error_estimate", "status", "reliable", "deviation", "reason")


def cmd_compare(ns: argparse.Namespace) -> int:
    params = resolve_params(ns)
    z = resolve_z(ns)
    cfg = quadrature_config(ns)
    report = compare_methods(params, z, cfg,
                             bateman_epsilon=ns.bateman_radius,
                             dzh_epsilon=ns.dzh_radius,
                             dzh_theta=ns.theta)
    outcomes = [{"method": o.method, "status": o.status,
                 "value_re": None if o.value is None else o.value.real,
                 "value_im": None if o.value is None else o.value.imag,
                 "error_estimate": o.error_estimate, "reliable": o.reliable,
                 "reason": o.reason} for o in report.outcomes]
    deviations = sorted(report.deviations.items())
    rows = [{**o, "record": "method", "method_a": o["method"]} for o in outcomes]
    rows += [{"record": "deviation", "method_a": a, "method_b": b, "deviation": d}
             for (a, b), d in deviations]
    payload = {
        "params": {"rho": params.rho, "mu_re": complex(params.mu).real,
                   "mu_im": complex(params.mu).imag},
        "z": {"modulus": z.modulus, "argument": z.argument},
        "outcomes": outcomes,
        "deviations": {f"{a}|{b}": d for (a, b), d in deviations},
    }
    emit(ns, [{col: row.get(col) for col in _COMPARE_COLUMNS} for row in rows], payload)
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
        emit(ns, [], [{"criterion": r.criterion, "passed": r.passed, "detail": r.detail,
                       "runtime_seconds": r.runtime_seconds} for r in results])
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
    add_ml_flags(p_eval)
    add_z_flags(p_eval)
    p_eval.add_argument("--method", choices=ML_METHODS, default="auto")
    p_eval.add_argument("--max-terms", type=int, default=SERIES_MAX_TERMS)
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
    add_ml_flags(g_ml)
    g_ml.add_argument("--zmod-min", type=float, required=True)
    g_ml.add_argument("--zmod-max", type=float, required=True)
    g_ml.add_argument("--zmod-step", type=float, required=True)
    g_ml.add_argument("--zarg-min", type=float, required=True)
    g_ml.add_argument("--zarg-max", type=float, required=True)
    g_ml.add_argument("--zarg-step", type=float, required=True)
    g_ml.add_argument("--method", choices=ML_METHODS, default="auto")
    add_quadrature_flags(g_ml)
    add_output_flags(g_ml)
    g_ml.set_defaults(func=cmd_grid, target="ml")

    p_inv = sub.add_parser("invariance",
                           help="sweep contour parameters; the value must not move")
    inv_sub = p_inv.add_subparsers(dest="target", required=True)

    i_gamma = inv_sub.add_parser("gamma", help="sweep the rotation angle psi")
    i_gamma.add_argument("--s-re", type=float, required=True)
    i_gamma.add_argument("--s-im", type=float, default=0.0)
    i_gamma.add_argument("--epsilon", type=float, default=DEFAULT_GAMMA_SPEC.epsilon)
    i_gamma.add_argument("--delta1", type=float, default=DEFAULT_GAMMA_SPEC.delta1)
    i_gamma.add_argument("--delta2", type=float, default=DEFAULT_GAMMA_SPEC.delta2)
    i_gamma.add_argument("--points", type=int, default=5)
    i_gamma.add_argument("--threshold", type=float, default=1e-8)
    add_quadrature_flags(i_gamma)
    add_output_flags(i_gamma)
    i_gamma.set_defaults(func=cmd_invariance, target="gamma")

    i_ml = inv_sub.add_parser("ml", help="sweep arc radius and ray angles")
    add_ml_flags(i_ml)
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
    add_ml_flags(p_cmp)
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
    # --json goes through emit, which reads these.
    p_self.set_defaults(func=cmd_selftest, format="json", output=None)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice the ``--config`` file's contents in right after the subcommand
    tokens, so explicit flags (which come later) take precedence.  argparse
    finds the flag, so every spelling the subcommands accept loads the file:
    ``--config FILE``, ``--config=FILE`` and abbreviations such as ``--conf``
    (no other flag starts with ``--c``)."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        found, rest = finder.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise PreconditionError(str(exc)) from None
    if found.config is None:
        return argv
    file_args = load_config_args(found.config)
    # number of leading subcommand tokens: 1 (eval/compare/selftest) or 2
    n_sub = 2 if rest and rest[0] in ("grid", "invariance", "window") else 1
    if len(rest) < n_sub:
        raise PreconditionError("--config given without a complete subcommand")
    return rest[:n_sub] + file_args + rest[n_sub:]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: parsing leaves the
    parser unchanged, and building it takes milliseconds."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        ns = _parser().parse_args(argv)
        return ns.func(ns)
    except (PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
