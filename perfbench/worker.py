"""One workload, run in a fresh interpreter that imports only the program.

``run.py`` starts this script, writes the job (workload kind, generated
inputs, run length, trace flag) as JSON on its stdin, and reads one JSON
object back from its stdout.  No mpmath is imported here, so the peak RSS
read at the end is the program's own.

    python3 perfbench/worker.py --probe SRC   # print import + parser seconds
    python3 perfbench/worker.py < job.json    # run the job
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time

def import_program(src: str) -> None:
    """Import ``mlcontour`` from ``src`` only, never from an installed copy."""
    sys.path.insert(0, src)
    import mlcontour

    where = os.path.dirname(os.path.abspath(mlcontour.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"mlcontour imported from {where}, not from {src}")


def probe(src: str) -> None:
    """Time from a fresh interpreter to a built CLI parser."""
    t0 = time.perf_counter()
    import_program(src)
    import mlcontour.cli

    mlcontour.cli.build_parser()
    print(repr(time.perf_counter() - t0))


def setup_sample(src: str) -> float:
    """One set-up time, measured in a fresh interpreter while this one waits."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", src],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class GridCalls:
    """Each call is one ``mlc grid`` command made in-process: its arguments
    are parsed by the CLI's own parser and its command function runs; its
    output is the exit code and the CSV it writes.

    The parser is built once per process, as in a CLI run: building it is
    set-up, timed in ``setup_s``, and costs as much as several grid rows.
    """

    def __init__(self, inputs):
        import mlcontour.cli

        self.parser = mlcontour.cli.build_parser()
        self.argvs = inputs

    def run(self, i: int):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            ns = self.parser.parse_args(self.argvs[i])
            code = ns.func(ns)
        return time.perf_counter() - t0, [code, buf.getvalue()]

    def __len__(self) -> int:
        return len(self.argvs)


class CompareCalls:
    """Each call is one ``compare_methods`` at one point; its output is the
    status, value and reliability of every route."""

    def __init__(self, inputs):
        from mlcontour.geometry import PolarComplex
        from mlcontour.mittag_leffler import MLParams, compare_methods

        self.compare = compare_methods
        self.args = [(MLParams(rho, complex(mu_re, mu_im)), PolarComplex(zmod, zarg))
                     for rho, mu_re, mu_im, zmod, zarg in inputs]

    def run(self, i: int):
        params, z = self.args[i]
        t0 = time.perf_counter()
        report = self.compare(params, z)
        dt = time.perf_counter() - t0
        return dt, [[o.method, o.status,
                     None if o.value is None else [o.value.real, o.value.imag],
                     o.reliable] for o in report.outcomes]

    def __len__(self) -> int:
        return len(self.args)


def run_passes(calls, seconds: float, first_outputs, tracer=None, root: str = "",
               between=None):
    """Whole passes over every call until ``seconds`` have elapsed (at least
    one).  Returns per-pass call times and whether every output matched the
    first pass's.  With a tracer, each call is a root span named ``root``;
    ``between(elapsed_share)`` runs untimed after each pass."""
    times, same = [], True
    t0 = time.perf_counter()
    while True:
        gc.collect()
        pass_times = []
        for i in range(len(calls)):
            span = tracer.open_root(root) if tracer else None
            dt, out = calls.run(i)
            if tracer:
                tracer.close_root(span)
            pass_times.append(dt)
            same = same and out == first_outputs[i]
        times.append(pass_times)
        elapsed = time.perf_counter() - t0
        if between is not None:
            between(elapsed / seconds if seconds else 1.0)
        if elapsed >= seconds:
            return times, same


def install_tracer(tracer) -> None:
    import numpy as np

    from mlcontour import cli, gamma, mittag_leffler, quadrature

    def kind(args):
        return "scalar" if np.ndim(args[0]) == 0 else "array"

    def count_terms(ev):
        tracer.series_terms += ev.diagnostics.terms_used

    routes = {"ml_series": count_terms, "ml_contour": None,
              "ml_bateman": None, "ml_dzhrbashyan": None}
    for module in (cli, mittag_leffler):
        for attr, on_result in routes.items():
            tracer.wrap(module, attr, f"mittag_leffler.{attr}", on_result=on_result)
        tracer.wrap(module, "recip_gamma_oracle", "gamma.recip_gamma_oracle", classify=kind)
    tracer.wrap(cli, "recip_gamma_contour", "gamma.recip_gamma_contour")
    tracer.wrap(cli, "default_ml_spec", "cli.route_select.default_ml_spec")
    tracer.wrap(cli, "validate_ml_contour", "cli.route_select.validate_ml_contour")
    tracer.wrap(mittag_leffler, "log_gamma", "gamma.log_gamma", classify=kind)
    tracer.wrap(mittag_leffler, "build_zeta_path", "geometry.build_zeta_path")
    for attr in ("IntegrationPath", "RaySegment", "ArcSegment"):
        tracer.wrap(mittag_leffler, attr, f"geometry.{attr}")
    tracer.wrap(gamma, "build_gamma_path", "geometry.build_gamma_path")
    tracer.wrap_integrate_path(gamma, "quadrature.integrate_path")
    tracer.wrap_integrate_path(mittag_leffler, "quadrature.integrate_path")
    tracer.wrap(quadrature, "truncation_radius", "quadrature.truncation_radius")


def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI's pool thread, on one CPU.

    With ``MLC_THREADS=1`` the grid command still hands every row to a pool
    thread and waits for it: several thread wake-ups per row.  Across two
    CPUs of a virtual machine each wake-up waits on the host's scheduling
    of the other virtual CPU, which made grid timings follow the host's
    load; on one CPU the hand-off is a plain context switch.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_job(job: dict) -> dict:
    pin_to_one_cpu()
    import_program(job["src"])
    calls = (GridCalls if job["kind"] == "grid" else CompareCalls)(job["inputs"])

    # Warm-up pass, untimed: its outputs are the ones checked, and every
    # timed pass must reproduce them exactly.
    outputs = [calls.run(i)[1] for i in range(len(calls))]
    seconds = job["seconds"]
    result = {"outputs": outputs}
    if not job["trace"]:
        # Set-up samples are spread over the run, between passes, so they
        # see the machine's fast and slow spells alike.
        setup = []

        def probe_when_due(share):
            while len(setup) < job["setup_probes"] * min(share, 1.0):
                setup.append(setup_sample(job["src"]))

        result["times"], result["same"] = run_passes(calls, seconds, outputs,
                                                     between=probe_when_due)
        probe_when_due(1.0)
        result["setup_s"] = setup
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    # Traced run: half the time untraced, for the overhead baseline, then
    # half traced.
    from tracer import Tracer

    result["times"], same = run_passes(calls, seconds / 2, outputs)
    tracer = Tracer()
    install_tracer(tracer)
    root_name = "cli.grid" if job["kind"] == "grid" else "mittag_leffler.compare_methods"
    traced, same_traced = run_passes(calls, seconds / 2, outputs, tracer, root_name)
    tracer.restore()
    result["same"] = same and same_traced
    result["traced_times"] = traced
    result["spans"] = tracer.totals()
    result["counts"] = {"integrand_evals": tracer.integrand_evals, "panels": tracer.panels,
                        "converged_paths": tracer.converged_paths,
                        "series_terms": tracer.series_terms}
    if job.get("trace_file"):
        tracer.dump(job["trace_file"])
    return result


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        probe(sys.argv[2])
        return
    job = json.load(sys.stdin)
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
