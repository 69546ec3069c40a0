"""Acceptance suite: every release-gating check, runnable at desk scale.

Each criterion is a function returning (passed, detail); ``run_all`` wraps
them with timing and error capture.  The CLI ``selftest`` command and
``tests/test_acceptance.py`` (one pytest case per criterion) both execute
this list, so there is exactly one definition of "done".
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .gamma import (
    recip_gamma_contour,
    recip_gamma_oracle,
    reflection_residual,
)
from .geometry import (
    ArcSegment,
    GammaContourSpec,
    IntegrationPath,
    PolarComplex,
    RaySegment,
    gamma_psi_window,
    ml_arg_window,
)
from .mittag_leffler import (
    MLParams,
    compare_methods,
    default_ml_deltas,
    ml_contour,
    ml_series,
    relative_spread,
)
from .quadrature import QuadratureConfig, integrate_path

PI = math.pi


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    passed: bool
    detail: str
    runtime_seconds: float


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------

def gamma_contour_vs_oracle_grid() -> tuple[bool, str]:
    """Contour vs oracle on s = a+bi, a in {-3.5..4.5} step 1, b in {-3,0,3}:
    relative error < 1e-8 (absolute < 1e-9 where |1/Gamma| < 1e-3); < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    worst_s = None
    for a in np.arange(-3.5, 4.51, 1.0):
        for b in (-3.0, 0.0, 3.0):
            s = complex(a, b)
            ref = complex(recip_gamma_oracle(s))
            got = recip_gamma_contour(s).value
            err = abs(got - ref)
            if abs(ref) < 1e-3:
                ok = err < 1e-9
                measure = err
            else:
                measure = err / abs(ref)
                ok = measure < 1e-8
            if measure > worst:
                worst, worst_s = measure, s
            if not ok:
                return False, f"error {measure:.3g} at s={s}"
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        return False, f"runtime {elapsed:.1f}s exceeds 10s"
    return True, f"worst error {worst:.3g} at s={worst_s}, 27 points"


def gamma_contour_parameter_invariance() -> tuple[bool, str]:
    """Spread over 5 psi x 3 epsilon x 3 delta pairs < 1e-9 relative."""
    delta_pairs = ((0.6 * PI, 0.6 * PI), (0.75 * PI, 0.9 * PI), (PI, PI))
    worst = 0.0
    for s in (0.5, 2 + 1j, -1.3 + 0.4j):
        values = []
        for d1, d2 in delta_pairs:
            lo, hi = gamma_psi_window(d1, d2)
            for k in range(5):
                psi = lo + (hi - lo) * (k + 1) / 6.0
                for eps in (0.5, 1.0, 2.0):
                    spec = GammaContourSpec(eps, psi, d1, d2)
                    values.append(recip_gamma_contour(complex(s), spec).value)
        spread = relative_spread(values)
        worst = max(worst, spread)
        if spread >= 1e-9:
            return False, f"spread {spread:.3g} at s={s}"
    return True, f"worst spread {worst:.3g} over 45 contours per point"


def gamma_scaled_contour_invariance() -> tuple[bool, str]:
    """Scaled-loop value constant over lambda = e^{i theta},
    theta in {-pi/3, 0, pi/3}, psi re-centered to -theta; spread < 1e-9."""
    worst = 0.0
    for s in (0.5, 2 + 1j):
        values = []
        for theta in (-PI / 3, 0.0, PI / 3):
            spec = GammaContourSpec(1.0, -theta, PI, PI)
            values.append(recip_gamma_contour(complex(s), spec,
                                              lam=PolarComplex(1.0, theta)).value)
        spread = relative_spread(values)
        worst = max(worst, spread)
        if spread >= 1e-9:
            return False, f"spread {spread:.3g} at s={s}"
    return True, f"worst spread {worst:.3g}"


def gamma_pole_zeros() -> tuple[bool, str]:
    """|contour 1/Gamma| < 1e-9 at s in {0, -1, -2, -3}."""
    worst = 0.0
    for s in (0.0, -1.0, -2.0, -3.0):
        mod = abs(recip_gamma_contour(s).value)
        worst = max(worst, mod)
        if mod >= 1e-9:
            return False, f"|value| = {mod:.3g} at s={s}"
    return True, f"worst |value| {worst:.3g}"


def gamma_reflection_residual() -> tuple[bool, str]:
    """Reflection-identity residual < 1e-8 at four probe points."""
    worst = 0.0
    for s in (0.3, 0.5, 0.3 + 0.7j, 1.2 - 0.5j):
        r = reflection_residual(complex(s))
        worst = max(worst, r)
        if r >= 1e-8:
            return False, f"residual {r:.3g} at s={s}"
    return True, f"worst residual {worst:.3g}"


def ml_contour_vs_series_grid() -> tuple[bool, str]:
    """Loop route vs series over rho x mu x |z| at the window midpoint:
    relative deviation < 1e-6, skipping series results with more than 9
    digits of cancellation; < 60 s total."""
    start = time.perf_counter()
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-12)
    compared = 0
    skipped = 0
    worst = 0.0
    worst_cell = None
    for rho in (0.6, 0.75, 1.0, 2.0, 4.0):
        d1, d2 = default_ml_deltas(rho)
        lo, hi = ml_arg_window(rho, d1, d2)
        arg_z = 0.5 * (lo + hi)
        for mu in (0.5, 1.0, 2.0, 1 + 0.5j):
            for zmod in (0.5, 2.0, 5.0):
                params = MLParams(rho, mu)
                z = PolarComplex(zmod, arg_z)
                series = ml_series(params, z)
                if series.diagnostics.unreliable:
                    skipped += 1
                    continue
                contour = ml_contour(params, z, cfg)
                dev = abs(contour.value - series.value) / abs(series.value)
                compared += 1
                if dev > worst:
                    worst, worst_cell = dev, (rho, mu, zmod)
                if dev >= 1e-6:
                    return False, f"deviation {dev:.3g} at (rho,mu,|z|)={(rho, mu, zmod)}"
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        return False, f"runtime {elapsed:.1f}s exceeds 60s"
    return True, (f"worst deviation {worst:.3g} at {worst_cell}; "
                  f"{compared} compared, {skipped} skipped for cancellation")


def ml_contour_closed_forms() -> tuple[bool, str]:
    """Loop route reproduces elementary values to 1e-8 relative."""
    cases = [
        (MLParams(1.0, 1.0), PolarComplex(1.0, PI), math.exp(-1.0)),
        (MLParams(1.0, 2.0), PolarComplex(2.0, PI), (math.exp(-2.0) - 1.0) / (-2.0)),
    ]
    worst = 0.0
    for params, z, expected in cases:
        got = ml_contour(params, z).value
        rel = abs(got - expected) / abs(expected)
        worst = max(worst, rel)
        if rel >= 1e-8:
            return False, f"relative error {rel:.3g} for (rho,mu)={params.rho},{params.mu}"
    return True, f"worst relative error {worst:.3g}"


def ml_representation_equivalence() -> tuple[bool, str]:
    """All three loop representations agree pairwise within 1e-6 relative on
    10 parameter points where every precondition holds."""
    points = [
        (1.0, 1.0, 1.0, PI),
        (1.0, 2.0, 2.0, PI),
        (1.0, 0.5, 0.5, 2.0),
        (0.8, 1.0, 0.7, PI),
        (0.8, 2.0, 1.2, 2.8),
        (1.25, 1.0, 0.9, 3.5),
        (2.0, 1.0, 1.0, PI),
        (2.0, 2.0, 1.4, 2.6),
        (0.6, 1.5, 0.8, 3.3),
        (1.5, 0.75, 1.1, 2.9),
    ]
    routes = ("contour", "bateman", "dzhrbashyan")
    worst = 0.0
    for rho, mu, zmod, zarg in points:
        report = compare_methods(MLParams(rho, mu), PolarComplex(zmod, zarg))
        for route in routes:
            if report.outcome(route).status != "ok":
                return False, (f"{route} not evaluable at {(rho, mu, zmod, zarg)}: "
                               f"{report.outcome(route).reason}")
        for i, a in enumerate(routes):
            for b in routes[i + 1:]:
                dev = report.deviations.get((a, b), report.deviations.get((b, a)))
                worst = max(worst, dev)
                if dev >= 1e-6:
                    return False, f"{a} vs {b} deviation {dev:.3g} at {(rho, mu, zmod, zarg)}"
    return True, f"worst pairwise deviation {worst:.3g} over 10 points"


def quadrature_cauchy_nullity() -> tuple[bool, str]:
    """Closed finite loop integral of e^t t^{s-1} (s=0.7, R=10, eps=0.5,
    junction angle 2.5) has modulus < 1e-8."""
    s = 0.7
    angle = 2.5
    path = IntegrationPath((
        RaySegment(angle, 0.5, "outbound", end_radius=10.0),
        ArcSegment(10.0, angle, PI),
        RaySegment(PI, 0.5, "inbound", end_radius=10.0),
        ArcSegment(0.5, PI, angle),
    ))

    def f(t, log_t):
        return np.exp(t + (s - 1.0) * log_t)

    res = integrate_path(f, path)
    mod = abs(res.value)
    if not res.converged:
        return False, "quadrature did not converge"
    if mod >= 1e-8:
        return False, f"|closed-loop integral| = {mod:.3g}"
    return True, f"|closed-loop integral| = {mod:.3g}"


def strict_boundary_rejection() -> tuple[bool, str]:
    """The loop routes refuse exact boundary values, and the CLI maps those
    refusals to exit code 2."""
    from .cli import main as cli_main

    lo, hi = ml_arg_window(2.0, PI / 2, PI / 2)
    checks = [
        # psi exactly at pi/2 - delta2
        lambda: recip_gamma_contour(2.0, GammaContourSpec(1.0, PI / 2 - PI, PI, PI)),
        # arg z exactly at both window endpoints
        lambda: ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, lo), epsilon_hat=1.0),
        lambda: ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, hi), epsilon_hat=1.0),
        # rho exactly 1/2
        lambda: ml_contour(MLParams(0.5, 1.0), PolarComplex(1.0, PI), epsilon_hat=1.0,
                           deltas=(PI, PI)),
    ]
    for call in checks:
        try:
            call()
        except PreconditionError:
            continue
        return False, "a loop route accepted a boundary value"

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code_window = cli_main(["eval", "--rho", "2", "--mu-re", "1",
                                "--z-mod", "1", "--z-arg", "0", "--method", "contour"])
        code_rho = cli_main(["window", "ml", "--rho", "0.5"])
        code_delta = cli_main(["window", "gamma", "--delta1", "1.0", "--delta2", "3.14"])
    codes = (code_window, code_rho, code_delta)
    if codes != (2, 2, 2):
        return False, f"CLI exit codes {codes}, expected (2, 2, 2)"
    return True, "boundary values rejected; CLI exits 2 on each path"


def grid_output_determinism() -> tuple[bool, str]:
    """Two identical grid runs emit byte-identical CSV.

    The grid command computes its rows one after another in one thread, so
    there is no thread count to set; the runs are separate processes.
    """
    args = [sys.executable, "-m", "mlcontour", "grid", "gamma",
            "--re-min", "-3.5", "--re-max", "4.5", "--re-step", "1",
            "--im-min", "-3", "--im-max", "3", "--im-step", "3",
            "--method", "contour"]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            path = os.path.join(tmp, f"grid{run}.csv")
            proc = subprocess.run(args + ["--output", path],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                return False, f"grid run exited {proc.returncode}: {proc.stderr.strip()}"
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    if outputs[0] != outputs[1]:
        return False, "consecutive grid runs differ"
    return True, f"two runs, {len(outputs[0])} identical bytes"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("gamma-contour-vs-oracle-grid", gamma_contour_vs_oracle_grid),
    ("gamma-contour-parameter-invariance", gamma_contour_parameter_invariance),
    ("gamma-scaled-contour-invariance", gamma_scaled_contour_invariance),
    ("gamma-pole-zeros", gamma_pole_zeros),
    ("gamma-reflection-residual", gamma_reflection_residual),
    ("ml-contour-vs-series-grid", ml_contour_vs_series_grid),
    ("ml-contour-closed-forms", ml_contour_closed_forms),
    ("ml-representation-equivalence", ml_representation_equivalence),
    ("quadrature-cauchy-nullity", quadrature_cauchy_nullity),
    ("strict-boundary-rejection", strict_boundary_rejection),
    ("grid-output-determinism", grid_output_determinism),
]


def criterion_names() -> list[str]:
    return [name for name, _ in CRITERIA]


def run_one(name: str) -> CriterionResult:
    fn = dict(CRITERIA)[name]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all(only: str | None = None) -> list[CriterionResult]:
    selected = [name for name, _ in CRITERIA if only is None or only in name]
    return [run_one(name) for name in selected]
