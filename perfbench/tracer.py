"""Spans around the calls one module of ``mlcontour`` makes into another.

The tracer replaces names in module namespaces (``mlcontour.cli.ml_series``,
``mlcontour.gamma.integrate_path``, ...) with wrappers that record a span per
call: name, start, end and the span that was open when the call began.  The
program's own code is not edited; only the lookups it makes at run time are
redirected.  Integrand evaluations are counted by wrapping the integrand that
is handed to ``integrate_path``.

Spans are kept in flat arrays in memory and written out by ``dump``.  A call
made on a thread with no open span (a grid row on the CLI's thread pool) gets
the current root span as its parent.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.root = NO_PARENT
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        # Counts read from the results the wrapped calls return.
        self.integrand_evals = 0
        self.panels = 0
        self.converged_paths = 0
        self.series_terms = 0

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else self.root)
            self.end.append(0.0)
            self.start.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def open_root(self, name: str) -> int:
        self.root = self.open(self._name_id(name))
        return self.root

    def close_root(self, idx: int) -> None:
        self.close(idx)
        self.root = NO_PARENT

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, span: str, on_result=None, classify=None) -> None:
        """Replace ``module.attr`` with a spanning wrapper.

        ``classify(args)`` may pick a suffix for the span name per call;
        ``on_result(result)`` reads counts from the value returned.
        """
        fn = getattr(module, attr)
        plain = self._name_id(span)
        suffixed: dict[str, int] = {}

        def wrapper(*args, **kwargs):
            name_id = plain
            if classify is not None:
                suffix = classify(args)
                if suffix not in suffixed:
                    suffixed[suffix] = self._name_id(f"{span}.{suffix}")
                name_id = suffixed[suffix]
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def wrap_integrate_path(self, module, span: str) -> None:
        """Span ``integrate_path`` and count every integrand evaluation at
        every refinement level, plus panels and convergence of the result."""
        fn = getattr(module, "integrate_path")
        path_id = self._name_id(span)
        integrand_id = self._name_id("quadrature.integrand")

        def wrapper(f, *args, **kwargs):
            def counted(mod, ang):
                self.integrand_evals += np.size(mod)
                idx = self.open(integrand_id)
                try:
                    return f(mod, ang)
                finally:
                    self.close(idx)

            idx = self.open(path_id)
            try:
                result = fn(counted, *args, **kwargs)
            finally:
                self.close(idx)
            self.panels += result.panels_used
            self.converged_paths += bool(result.converged)
            return result

        self._patched.append((module, "integrate_path", fn))
        setattr(module, "integrate_path", wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds.

        Self time is the span's duration minus the part of it that its child
        spans cover (their union, so children on other threads that overlap
        are not subtracted twice).
        """
        n = len(self.name)
        children: dict[int, list[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                children.setdefault(p, []).append(i)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            covered = 0.0
            edge = self.start[i]
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[c], edge), min(self.end[c], self.end[i])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - covered
        return out

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] with times in
        seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[self.name[i], round(self.start[i] - t0, 9),
                           round(self.end[i] - t0, 9), self.parent[i]]
                          for i in range(len(self.name))],
            }, fh, separators=(",", ":"))
