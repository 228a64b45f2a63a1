"""Spans around the calls into each neumannheat layer, recorded from outside
the package.

A `Tracer` replaces each entry point named in `ENTRY_POINTS` with a wrapper
that records a span (name, parent span, task id, start, end, counts) and then
returns the wrapped function's result untouched.  A function is replaced in
every package namespace that binds it, because modules import some functions
by name (``harness`` imports ``norm_l2``, ``mean``, ``l_delta`` ...) and look
them up there.  Only entry points that the layer above calls are wrapped:
per-mode helpers such as ``spectral.eigenvalue`` run a million times per
bounds pass and would swamp the measurement.

Spans stay in memory; `Tracer.dump` writes them once the run is over, and
`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter

# Work model of one explicit Euler node-step, counted from the stencil
# expressions in `_kernels` (adds, subtracts and multiplies).  Bytes are the
# minimum traffic of one sweep: read v, write w, plus read dt*b when forced.
# They are computed from node-steps, not measured.
_FLOPS = {"1d": 5, "1d_rhs": 6, "2d": 10, "2d_rhs": 11}
_BYTES = {"1d": 16, "1d_rhs": 24, "2d": 16, "2d_rhs": 24}


def _kernel_counts(kind):
    def count(args, kwargs, result):
        v, nsteps = args[0], args[-1]
        nsteps = max(int(nsteps), 0)
        node_steps = int(v.size) * nsteps
        return {"steps": nsteps, "node_steps": node_steps,
                "flops": _FLOPS[kind] * node_steps,
                "bytes": _BYTES[kind] * node_steps}
    return count


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _laplace_nodes(args, kwargs, result):
    return {"nodes": int(args[1].J)}


def _resolvent_modes(args, kwargs, result):
    return {"modes": int(args[0].J) - 1}


def _records(args, kwargs, result):
    return {"records": len(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _mode_points(args, kwargs, result):
    import numpy as np
    series, t, x = args[0], args[1], args[2]
    if t == 0.0 and series.exact_at_zero is not None:
        return {"mode_points": 0}
    live = int(np.count_nonzero(np.abs(series.weights(t)) > 1e-300))
    return {"mode_points": live * int(np.size(x))}


PACKAGE = "neumannheat"

# (span name, module, attribute, counter).  The attribute may be
# "Class.method".
ENTRY_POINTS = (
    ("kernels.1d", "_kernels", "advance_1d", _kernel_counts("1d")),
    ("kernels.1d", "_kernels", "advance_1d_rhs", _kernel_counts("1d_rhs")),
    ("kernels.2d", "_kernels", "advance_2d", _kernel_counts("2d")),
    ("kernels.2d", "_kernels", "advance_2d_rhs", _kernel_counts("2d_rhs")),
    ("scheme1d.run_to", "scheme1d", "run_to", None),
    ("scheme1d.build_rhs", "scheme1d", "build_rhs", None),
    ("scheme1d.steady_iter", "scheme1d", "solve_steady_iterative", _iterations),
    ("scheme1d.laplace", "scheme1d", "solve_steady_laplace", _laplace_nodes),
    ("scheme2d.run2d_to", "scheme2d", "run2d_to", None),
    ("scheme2d.build_rhs2d", "scheme2d", "build_rhs2d", None),
    ("scheme2d.steady", "scheme2d", "solve_steady_2d", _iterations),
    ("exact.evaluate", "exact", "CosineSeries.evaluate", _mode_points),
    ("grid.reduce", "grid", "norm_l2", None),
    ("grid.reduce", "grid", "mean", None),
    ("grid.reduce", "grid", "norm2d", None),
    ("grid.reduce", "grid", "mean2d", None),
    ("grid.project", "grid", "project", None),
    ("grid.project", "grid", "project2d", None),
    ("spectral.resolvent", "spectral", "resolvent_power_sum", _resolvent_modes),
    ("spectral.amplification", "spectral", "amplification_bound_check", None),
    ("spectral.eta_sum", "spectral", "eta_geometric_sum", None),
    ("spectral.kernel_sum", "spectral", "heat_kernel_spectrum_sum", None),
    ("consistency", "consistency", "l_delta", None),
    ("consistency", "consistency", "split_defect", None),
    ("harness.run_convergence", "harness", "run_convergence", _records),
    ("harness.emit_csv", "harness", "emit_csv", _csv_bytes),
    ("harness.quadrature", "harness", "quadrature_inequality_check", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Records spans while installed; `install` must be paired with
    `restore` (use it as a context manager)."""

    def __init__(self):
        self.spans = []      # [name, parent index, task id, t0, t1, counts]
        self.task = None     # id shared by every span of the current task
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.task, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module, attr, count in ENTRY_POINTS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._set(owner, attr, self._wrap(name, owner.__dict__[attr], count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path, header: dict) -> None:
        """Write a header line and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, parent, task, t0, t1, counts) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, task, t0, t1, counts]) + "\n")


def layer_metrics(spans, offset: int = 0) -> dict:
    """Per-layer metrics of one pass from its spans.

    ``spans`` is the slice of `Tracer.spans` that starts at index ``offset``.
    A span's self time is its duration minus the durations of its direct
    children; spans are strictly nested because the run is single-threaded.
    """
    spans = [[name, parent - offset if parent >= 0 else -1, task, t0, t1, counts]
             for name, parent, task, t0, t1, counts in spans]
    child_time = [0.0] * len(spans)
    for name, parent, task, t0, t1, counts in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls, self_s, tally = {}, {}, {}
    steps_under = {"scheme1d.run_to": 0, "scheme2d.run2d_to": 0}
    for i, (name, parent, task, t0, t1, counts) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_time[i])
        for key, value in (counts or {}).items():
            tally[(name, key)] = tally.get((name, key), 0) + value
        if name.startswith("kernels.") and parent >= 0 and spans[parent][0] in steps_under:
            steps_under[spans[parent][0]] += counts["steps"]

    def s(name):
        return self_s.get(name, 0.0)

    def c(name, key):
        return tally.get((name, key), 0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    k1, k2 = c("kernels.1d", "node_steps"), c("kernels.2d", "node_steps")
    return {
        "kernels.calls": calls.get("kernels.1d", 0) + calls.get("kernels.2d", 0),
        "kernels.1d.self_s": s("kernels.1d"),
        "kernels.1d.node_steps": k1,
        "kernels.1d.ns_per_node_step": per(s("kernels.1d"), k1, 1e9),
        "kernels.2d.self_s": s("kernels.2d"),
        "kernels.2d.node_steps": k2,
        "kernels.2d.ns_per_node_step": per(s("kernels.2d"), k2, 1e9),
        "kernels.flops_computed": c("kernels.1d", "flops") + c("kernels.2d", "flops"),
        "kernels.bytes_computed": c("kernels.1d", "bytes") + c("kernels.2d", "bytes"),
        "scheme1d.run_to.calls": calls.get("scheme1d.run_to", 0),
        "scheme1d.run_to.self_s": s("scheme1d.run_to"),
        "scheme1d.steps": steps_under["scheme1d.run_to"],
        "scheme1d.build_rhs.self_s": s("scheme1d.build_rhs"),
        "scheme1d.steady_iter.self_s": s("scheme1d.steady_iter"),
        "scheme1d.steady_iter.iterations": c("scheme1d.steady_iter", "iterations"),
        "scheme1d.laplace.calls": calls.get("scheme1d.laplace", 0),
        "scheme1d.laplace.self_s": s("scheme1d.laplace"),
        "scheme1d.laplace.ns_per_node": per(s("scheme1d.laplace"),
                                            c("scheme1d.laplace", "nodes"), 1e9),
        "scheme2d.run2d_to.calls": calls.get("scheme2d.run2d_to", 0),
        "scheme2d.run2d_to.self_s": s("scheme2d.run2d_to"),
        "scheme2d.steps": steps_under["scheme2d.run2d_to"],
        "scheme2d.steady.self_s": s("scheme2d.steady"),
        "scheme2d.steady.iterations": c("scheme2d.steady", "iterations"),
        "scheme2d.build_rhs2d.self_s": s("scheme2d.build_rhs2d"),
        "exact.evaluate.calls": calls.get("exact.evaluate", 0),
        "exact.evaluate.self_s": s("exact.evaluate"),
        "exact.evaluate.mode_points": c("exact.evaluate", "mode_points"),
        "grid.reduce.calls": calls.get("grid.reduce", 0),
        "grid.reduce.self_s": s("grid.reduce"),
        "grid.project.self_s": s("grid.project"),
        "spectral.resolvent.calls": calls.get("spectral.resolvent", 0),
        "spectral.resolvent.self_s": s("spectral.resolvent"),
        "spectral.resolvent.modes": c("spectral.resolvent", "modes"),
        "spectral.resolvent.ns_per_mode": per(s("spectral.resolvent"),
                                              c("spectral.resolvent", "modes"), 1e9),
        "spectral.amplification.self_s": s("spectral.amplification"),
        "spectral.eta_sum.self_s": s("spectral.eta_sum"),
        "spectral.kernel_sum.self_s": s("spectral.kernel_sum"),
        "consistency.calls": calls.get("consistency", 0),
        "consistency.self_s": s("consistency"),
        "harness.run_convergence.self_s": s("harness.run_convergence"),
        "harness.records": c("harness.run_convergence", "records"),
        "harness.emit_csv.self_s": s("harness.emit_csv"),
        "harness.emit_csv.bytes": c("harness.emit_csv", "bytes"),
        "harness.quadrature.self_s": s("harness.quadrature"),
        "cli.main.self_s": s("cli.main"),
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counts repeat exactly per pass)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
