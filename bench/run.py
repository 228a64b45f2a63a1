"""Benchmark of the neumannheat laboratory: the time to a checked paper table.

Run from the repository root:

    python3 bench/run.py --workload convergence|steady|bounds \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout the script sits in, and
nowhere else; without it the run fails before printing a result.  One
single-threaded process (BLAS and OpenMP pinned to one thread) sets the
workload up, then repeats passes over the workload's fixed task list for about
S seconds.  Every pass checks every output against the paper's tolerances; a
task that raises counts as a failed check and the run goes on.  The seed only
shuffles the task order within each pass: the inputs are the paper's catalog,
because the checks are the paper's numbers.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

    setup_s      median over five set-ups (this process and four fresh ones) of
                 the time to import the package, build the workload's catalog
                 data, grids and problems, and make one warm-up call
    table_s      median wall time of one checked pass
    peak_rss_mb  peak resident memory of this process

Both times are wall times rescaled to a fixed core speed by `speed.SpeedClock`:
on a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes, and raw wall times of the same code spread by 20-30%
between runs.  The raw wall-clock figures are printed alongside.

``--trace 1`` alternates untraced passes with passes that record spans
around each layer's entry points (see ``tracing.py``), and
prints the per-layer metrics: medians over the traced passes, plus
``trace.overhead_frac`` = traced table_s / untraced table_s - 1.  Spans are
written to ``.bench_out/trace-<workload>.jsonl`` when the run ends.  Span
times are raw wall times; about 1% of them is the speed clock's probes.

Both modes print the failed-check fraction and an environment block, and
require every pass, traced or not, to reproduce the first pass's checked
figures bit for bit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (why each one is here):

    convergence  the paper's error tables through harness.run_convergence:
                 long checkpointed 1D and 2D stepping, the exact-series
                 oracle, the consistency defect and CSV emission.  A faster
                 propagator shows here; spectral code is idle.
    steady       the three steady solvers: ~4,900 short 64-step kernel calls
                 between residual checks (iterative 1D and 2D) and the shifted
                 direct solve up to J = 10^6.  Per-call overhead that long
                 checkpoint blocks hide shows here.
    bounds       `neumannheat bounds` on its default catalog, in process: no
                 stepping, about 80% of the time in spectral.resolvent_power_sum.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one thread for every numerical library, before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402  (sits next to this file)
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4
MODULES = ("grid", "spectral", "exact", "consistency", "scheme1d", "scheme2d",
           "_kernels", "harness", "cli")

# Reference values and tolerances, from the acceptance criteria.
REFERENCE = {
    "trigpoly_J65_t1": 0.025570,      # published error, +-2%
    "trigpoly_slope": (0.9, 1.1),
    "plateau_rel": 0.10,              # t=0.2 vs t=1 at each J
    "hat_slope": (1.85, 2.1),         # t=0.02
    "steady1d_slope": (0.9, 1.1),
    "centered_slope_min": 1.8,
    "offset_slope": (0.85, 1.15),
    "iter_residual": 1e-10,
    "laplace_gap": 1e-5,              # s=1e-6 vs iterative, anchored
    "shift_slope": (0.9, 1.1),
    "big_rel_residual": 1e-6,         # J = 10^6, s = 1e-3
    "big_rel_error": 1e-3,
    "steady2d_error": 1e-3,
    "bounds_message": "all bounds hold",
}


class ProgramMissing(RuntimeError):
    pass


class Program:
    """The package modules, looked up at call time so that tracing sees the
    calls the benchmark makes."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "neumannheat" / "__init__.py").is_file():
            raise ProgramMissing(f"no neumannheat package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import importlib
        pkg = importlib.import_module("neumannheat")
        if Path(pkg.__file__).resolve().parent != (src / "neumannheat").resolve():
            raise ProgramMissing(f"neumannheat imported from {pkg.__file__}, not {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"neumannheat.{name}"))


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Task:
    id: str
    run: object                 # (prog, ctx, done) -> dict of figures


@dataclass(frozen=True)
class Check:
    name: str
    needs: tuple                # task ids whose results the check reads
    test: object                # (done, ref) -> (ok, detail)


def _rms(a) -> float:
    import numpy as np
    return math.sqrt(float(np.mean(np.square(a))))


def _digest(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _record_figures(records) -> list:
    # wall_ms is a timing, not a checked figure
    return [[r.experiment, r.J, r.t_target, r.t_realized, r.n, r.abs_err, r.rel_err]
            for r in records]


def _in(value, lo_hi) -> bool:
    return lo_hi[0] <= value <= lo_hi[1]


# convergence ---------------------------------------------------------------

_CONV_STUDIES = (
    ("trigpoly", "homog-trigpoly", (65, 129, 257), (0.2, 1.0)),
    ("hat", "homog-hat", (201, 401, 801), (0.02,)),
    ("steady1d", "steady1d-const", (64, 128, 256), (5.0,)),
    ("centered", "steady2d-centered", (16, 32, 64), (5.0,)),
    ("offset", "steady2d-offset", (16, 32, 64), (5.0,)),
)
_DEFECT_J = (65, 129, 257)


def _conv_setup(prog):
    return {"trig": prog.exact.trig_poly(),
            "mode1": prog.exact.cosine_mode(1, 1.0),
            "grids": {J: prog.grid.Grid1D(J, 1.0) for J in _DEFECT_J}}


def _conv_warmup(prog, ctx):
    for experiment in ("homog-trigpoly", "steady1d-const", "steady2d-centered"):
        cfg = prog.harness.default_config(experiment, J_list=(8,), checkpoints=(0.01,))
        prog.harness.run_convergence(cfg)


def _study_task(experiment, J, ts):
    def run(prog, ctx, done):
        cfg = prog.harness.default_config(experiment, J_list=(J,), checkpoints=ts,
                                          cfl=0.5, threads=1)
        records = prog.harness.run_convergence(cfg)
        return {"errors": _record_figures(records), "_records": records}
    return run


def _defect_task(J):
    def run(prog, ctx, done):
        g = ctx["grids"][J]
        dt = 0.5 * g.dx ** 2
        n = round(0.2 / dt)
        eps1, eps2 = prog.harness.epsilon_diagnostics(ctx["trig"], g, dt, n)
        # split_defect takes the plain cosine mode: series-backed functions
        # (trig_poly().smooth) cannot evaluate the 2D node arrays l2 passes
        boundary, mode1 = prog.consistency.split_defect(ctx["mode1"], g)
        return {"eps": [eps1, eps2],
                "mode1_boundary": [float(boundary.values[0]), float(boundary.values[-1])],
                "mode1_interior_max": g.dx ** 2 * float(abs(mode1.values).max()),
                "bound": math.pi ** 4 / 12.0 * g.dx ** 2 * math.sqrt(2.0)}
    return run


def _emit_csv(prog, ctx, done):
    records = [r for key in sorted(done) for r in done[key].get("_records", ())]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = os.path.join(tmp, "records.csv")
        prog.harness.emit_csv(records, path)
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1
    return {"rows": rows, "records": len(records)}


def _conv_tasks():
    tasks = [Task(f"{key}-J{J}", _study_task(experiment, J, ts))
             for key, experiment, js, ts in _CONV_STUDIES for J in js]
    tasks += [Task(f"defect-J{J}", _defect_task(J)) for J in _DEFECT_J]
    return tasks


def _slope(prog, done, key, js, t):
    recs = [r for J in js for r in done[f"{key}-J{J}"]["_records"] if r.t_target == t]
    return prog.harness.estimate_slope(recs).slope


def _conv_checks(prog):
    def ids(key):
        js = next(js for k, _, js, _ in _CONV_STUDIES if k == key)
        return tuple(f"{key}-J{J}" for J in js), js

    def err(done, J, t):
        (rec,) = [r for r in done[f"trigpoly-J{J}"]["_records"] if r.t_target == t]
        return rec.rel_err

    def slope_check(key, t, accept):
        needs, js = ids(key)

        def test(done, ref):
            s = _slope(prog, done, key, js, t)
            return accept(s, ref), f"slope {s:.4f}"
        return Check(f"{key} slope at t={t:g}", needs, test)

    def published(done, ref):
        e = err(done, 65, 1.0)
        return abs(e / ref["trigpoly_J65_t1"] - 1.0) <= 0.02, f"rel_err {e:.7f}"

    def plateau(J):
        def test(done, ref):
            a, b = err(done, J, 0.2), err(done, J, 1.0)
            ok = max(abs(a / b - 1.0), abs(b / a - 1.0)) <= ref["plateau_rel"]
            return ok, f"{a:.6f} vs {b:.6f}"
        return Check(f"trigpoly plateau J={J}", (f"trigpoly-J{J}",), test)

    def defect(J):
        def test(done, ref):
            d = done[f"defect-J{J}"]
            return d["mode1_interior_max"] <= d["bound"] + 1e-12, \
                f"{d['mode1_interior_max']:.3e} <= {d['bound']:.3e}"
        return Check(f"mode-1 interior defect bound J={J}", (f"defect-J{J}",), test)

    def csv_rows(done, ref):
        d = done["emit_csv"]
        return d["rows"] == d["records"], f"{d['rows']} rows, {d['records']} records"

    return [
        Check("trigpoly J=65 t=1 published error", ("trigpoly-J65",), published),
        slope_check("trigpoly", 1.0, lambda s, ref: _in(s, ref["trigpoly_slope"])),
        *[plateau(J) for J in (65, 129, 257)],
        slope_check("hat", 0.02, lambda s, ref: _in(s, ref["hat_slope"])),
        slope_check("steady1d", 5.0, lambda s, ref: _in(s, ref["steady1d_slope"])),
        slope_check("centered", 5.0, lambda s, ref: s >= ref["centered_slope_min"]),
        slope_check("offset", 5.0, lambda s, ref: _in(s, ref["offset_slope"])),
        *[defect(J) for J in _DEFECT_J],
        Check("CSV rows equal records", ("emit_csv",), csv_rows),
    ]


# steady --------------------------------------------------------------------

_SHIFTS = (1e-6, 1e-2, 1e-3, 1e-4)
_BIG_J = 1_000_001
_BIG_SHIFT = 1e-3


def _steady_setup(prog):
    import numpy as np
    ss = prog.exact.steady_1d()
    problem = prog.scheme1d.NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L,
                                            f_integral=ss.source_integral)
    g = prog.grid.Grid1D(257, ss.L)
    big = prog.grid.Grid1D(_BIG_J, ss.L)
    exact_big = ss.solution(big.nodes())
    case = prog.exact.gaussian_2d(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)
    g2 = prog.scheme2d.grid_for(48, case.Lx, case.Ly)
    return {
        "ss": ss, "problem": problem, "g": g, "dt": 0.5 * g.dx ** 2,
        "v0": prog.grid.Field1D(g, np.full(g.J, ss.mean_value)),
        "big": big, "b_big": prog.scheme1d.build_rhs(problem, big).b.values,
        "exact_big0": exact_big - exact_big.mean(), "exact_big_rms": _rms(exact_big),
        "problem2d": prog.scheme2d.Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly),
        "g2": g2, "dt2": 0.5 / (1.0 / g2.dx ** 2 + 1.0 / g2.dy ** 2),
        "v0_2d": prog.grid.Field2D(g2, np.zeros((g2.Jy, g2.Jx))),
        "target2d": prog.grid.project2d(g2, case.u_inf).values,
    }


def _steady_warmup(prog, ctx):
    small = prog.grid.Grid1D(9, ctx["ss"].L)
    v0 = prog.grid.Field1D(small, [ctx["ss"].mean_value] * 9)
    prog.scheme1d.solve_steady_iterative(ctx["problem"], small, 0.5 * small.dx ** 2, v0,
                                         tol=1e-6, max_steps=64)
    prog.scheme1d.solve_steady_laplace(ctx["problem"], small, 1e-3)
    prog.scheme2d.solve_steady_2d(ctx["problem2d"], ctx["g2"], ctx["dt2"], ctx["v0_2d"],
                                  tol=1e-8, max_steps=64)


def _iterative(prog, ctx, done):
    res = prog.scheme1d.solve_steady_iterative(ctx["problem"], ctx["g"], ctx["dt"],
                                               ctx["v0"], tol=1e-10)
    return {"iterations": res.iterations, "residual": res.residual,
            "converged": res.converged, "digest": _digest(res.field.values),
            "_values": res.field.values}


def _shifted(s):
    def run(prog, ctx, done):
        v = prog.scheme1d.solve_steady_laplace(ctx["problem"], ctx["g"], s).values
        return {"digest": _digest(v), "_values": v}
    return run


def _shifted_big(prog, ctx, done):
    import numpy as np
    v = prog.scheme1d.solve_steady_laplace(ctx["problem"], ctx["big"], _BIG_SHIFT).values
    b = ctx["b_big"]
    av = np.empty_like(v)
    av[0] = v[1] - v[0]
    av[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    av[-1] = v[-2] - v[-1]
    av /= ctx["big"].dx ** 2
    return {"digest": _digest(v),
            "rel_residual": _rms(_BIG_SHIFT * v - av - b) / _rms(b),
            "rel_error": _rms(v - ctx["exact_big0"]) / ctx["exact_big_rms"]}


def _steady2d(prog, ctx, done):
    res = prog.scheme2d.solve_steady_2d(ctx["problem2d"], ctx["g2"], ctx["dt2"],
                                        ctx["v0_2d"], tol=1e-8)
    v, target = res.field.values, ctx["target2d"]
    return {"iterations": res.iterations, "residual": res.residual,
            "converged": res.converged, "digest": _digest(v),
            "error": _rms(target - (v + (target.mean() - v.mean())))}


def _steady_tasks():
    return [Task("iterative", _iterative),
            *[Task(f"laplace-s{s:g}", _shifted(s)) for s in _SHIFTS],
            Task("laplace-big", _shifted_big),
            Task("steady2d", _steady2d)]


def _steady_checks(prog):
    import numpy as np
    anchor = prog.exact.steady_1d().mean_value

    def iterative(done, ref):
        d = done["iterative"]
        return d["converged"] and d["residual"] <= ref["iter_residual"], \
            f"converged={d['converged']} residual {d['residual']:.3e}"

    def gap(done, ref):
        vs, it = done["laplace-s1e-06"]["_values"], done["iterative"]["_values"]
        g = _rms(vs - vs.mean() + anchor - it)
        return g <= ref["laplace_gap"], f"gap {g:.3e}"

    def shift_slope(done, ref):
        it = done["iterative"]["_values"]
        it0 = it - it.mean()
        shifts = (1e-2, 1e-3, 1e-4)
        errs = [_rms(done[f"laplace-s{s:g}"]["_values"] - it0) for s in shifts]
        slope = float(np.polyfit(np.log(shifts), np.log(errs), 1)[0])
        return _in(slope, ref["shift_slope"]), f"slope {slope:.4f}"

    def big(key, limit):
        def test(done, ref):
            value = done["laplace-big"][key]
            return value <= ref[limit], f"{key} {value:.3e}"
        return test

    def steady2d(done, ref):
        d = done["steady2d"]
        return d["converged"] and d["error"] <= ref["steady2d_error"], \
            f"converged={d['converged']} error {d['error']:.3e}"

    return [
        Check("iterative solve converged", ("iterative",), iterative),
        Check("shifted s=1e-6 vs iterative gap", ("iterative", "laplace-s1e-06"), gap),
        Check("shift-error slope", ("iterative", "laplace-s0.01", "laplace-s0.001",
                                    "laplace-s0.0001"), shift_slope),
        Check("J=10^6 relative residual", ("laplace-big",), big("rel_residual", "big_rel_residual")),
        Check("J=10^6 relative error", ("laplace-big",), big("rel_error", "big_rel_error")),
        Check("2D solve converged", ("steady2d",), steady2d),
    ]


# bounds --------------------------------------------------------------------


def _run_cli(prog, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _bounds_warmup(prog, ctx):
    _run_cli(prog, ["bounds", "--J", "2..4"])


def _bounds_task(prog, ctx, done):
    code, text = _run_cli(prog, ["bounds"])
    return {"exit": code, "report": text}


def _bounds_checks(prog):
    def test(done, ref):
        d = done["bounds"]
        ok = d["exit"] == 0 and ref["bounds_message"] in d["report"]
        return ok, f"exit {d['exit']}"
    return [Check("bound sweep holds", ("bounds",), test)]


@dataclass(frozen=True)
class Workload:
    setup: object
    warmup: object
    tasks: object               # () -> list[Task], shuffled per pass
    final: tuple                # tasks run after the others, in this order
    checks: object              # prog -> list[Check]


WORKLOADS = {
    "convergence": Workload(_conv_setup, _conv_warmup, _conv_tasks,
                            (Task("emit_csv", _emit_csv),), _conv_checks),
    "steady": Workload(_steady_setup, _steady_warmup, _steady_tasks, (),
                       _steady_checks),
    "bounds": Workload(lambda prog: {}, _bounds_warmup,
                       lambda: [Task("bounds", _bounds_task)], (), _bounds_checks),
}


# ------------------------------------------------------------------ passes


@dataclass
class PassResult:
    seconds: float              # wall time of the tasks and checks
    scaled: float               # the same, rescaled to the nominal core speed
    probes: list                # speed probe times during the pass
    attempted: int
    failures: list
    figures: str                # canonical JSON of every checked figure
    spans: tuple = (0, 0)       # slice of the tracer's spans, traced passes only


def run_pass(prog, wl, ctx, order, ref, tracer=None, label="") -> PassResult:
    """Run the tasks in ``order`` then the checks whose tasks all belong to
    this pass.  Each task counts as one check that it completes."""
    done, failures = {}, []
    with speed.SpeedClock() as clock:
        for task in order:
            if tracer is not None:
                tracer.task = f"{label}/{task.id}"
            try:
                done[task.id] = task.run(prog, ctx, done)
            except Exception as exc:  # a failing task must not abort the run
                failures.append(f"task {task.id} raised {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.task = f"{label}/checks"
        ran = {task.id for task in order}
        checks = [c for c in wl.checks(prog) if set(c.needs) <= ran]
        for check in checks:
            if not set(check.needs) <= set(done):
                failures.append(f"{check.name}: a task it needs failed")
                continue
            try:
                ok, detail = check.test(done, ref)
            except Exception as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            if not ok:
                failures.append(f"{check.name}: {detail}")
    figures = json.dumps({k: {f: v for f, v in d.items() if not f.startswith("_")}
                          for k, d in done.items()}, sort_keys=True)
    return PassResult(clock.wall_s, clock.scaled_s, clock.probe_s,
                      len(order) + len(checks), failures, figures)


def set_up(workload: str):
    """Import the package, build the workload and warm it up; returns
    (program, context, wall seconds, rescaled seconds)."""
    with speed.SpeedClock() as clock:
        prog = Program()
        wl = WORKLOADS[workload]
        ctx = wl.setup(prog)
        wl.warmup(prog, ctx)
    return prog, ctx, clock.wall_s, clock.scaled_s


def probe_setup(workload: str) -> tuple:
    """Wall and rescaled set-up seconds of a fresh process (interpreter
    start-up excluded)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    wall, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


def _passes(prog, wl, ctx, rng, seconds, ref, tracer=None, tasks=None):
    """Passes for about ``seconds``: another pass starts only if it would end
    no more than half a typical pass late, so a run on a slow machine does
    not run long.

    With a tracer, passes alternate untraced and traced, so that both kinds
    sample the same stretch of machine time.  Returns (untraced, traced).
    """
    untraced, traced = [], []
    start = perf_counter()
    while True:
        order = list(tasks if tasks is not None else wl.tasks())
        rng.shuffle(order)
        order += [t for t in wl.final if tasks is None or t in tasks]
        if tracer is None or len(traced) == len(untraced):
            untraced.append(run_pass(prog, wl, ctx, order, ref))
        else:
            first = len(tracer.spans)
            label = len(untraced) + len(traced)
            with tracer:
                traced.append(run_pass(prog, wl, ctx, order, ref, tracer, label))
            traced[-1].spans = (first, len(tracer.spans))
        typical = statistics.median(p.seconds for p in untraced + traced)
        if perf_counter() - start + typical / 2 >= seconds and (tracer is None or traced):
            return untraced, traced


def environment(prog) -> dict:
    import numpy
    import platform
    import scipy
    env = {
        "numba_importable": bool(prog._kernels.HAVE_NUMBA),
        "kernels_backend": ("numba" if prog._kernels.HAVE_NUMBA
                            and not prog._kernels.FORCE_NUMPY else "numpy"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "cache": {},
        "thread_env": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")},
        "git_commit": None,
        "src_sha256": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3"):
                env["cache"][f"L{level}"] = (index / "size").read_text().strip()
            elif kind == "Data":
                env["cache"]["L1d"] = (index / "size").read_text().strip()
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                env["git_commit"] = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "neumannheat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def run(workload, seed, seconds, trace, probes=SETUP_PROBES, tasks=None, ref=REFERENCE,
        log=print):
    """One benchmark run; returns the result object printed as the last line.

    ``tasks`` restricts the pass to the named task ids (used by the
    self-test); ``ref`` replaces the reference values.
    """
    prog, ctx, own_wall, own_scaled = set_up(workload)
    wl = WORKLOADS[workload]
    if tasks is not None:
        every = {t.id: t for t in [*wl.tasks(), *wl.final]}
        tasks = [every[t] for t in tasks]
    env = environment(prog)
    log(f"environment {json.dumps(env, sort_keys=True)}")
    rng = random.Random(seed)

    if not trace:
        setups = [(own_wall, own_scaled)] + [probe_setup(workload) for _ in range(probes)]
    tracer = tracing.Tracer() if trace else None
    passes, traced = _passes(prog, wl, ctx, rng, seconds, ref, tracer, tasks)

    everything = passes + traced
    attempted = sum(p.attempted for p in everything) + 1
    failures = [f for p in everything for f in p.failures]
    reproduced = all(p.figures == passes[0].figures for p in everything)
    if not reproduced:
        failures.append("checked figures differ between passes"
                        + (" (traced vs untraced)" if traced else ""))
    for kind, runs in (("untraced", passes), ("traced", traced)):
        for p in runs:
            log(f"{kind} pass: {p.seconds:.4f} s wall, {p.scaled:.4f} s rescaled, "
                f"{p.attempted} checks, "
                f"{len(p.failures)} failed")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    log(f"fail_frac {len(failures) / attempted:.6g} "
        f"({len(failures)} of {attempted} checks failed)")
    probe_s = [c for p in everything for c in p.probes]
    log(f"speed probe: fastest {min(probe_s) * 1e3:.3f} ms, median "
        f"{statistics.median(probe_s) * 1e3:.3f} ms over {len(probe_s)} probes; "
        f"nominal {speed.NOMINAL_S * 1e3:g} ms")
    table_s = statistics.median(p.scaled for p in passes)
    wall_s = statistics.median(p.seconds for p in passes)

    if not trace:
        scaled = [s for _, s in setups]
        metrics = {
            "setup_s": (statistics.median(scaled), "s"),
            "table_s": (table_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        log(f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setups)} rescaled "
            "set-ups: " + ", ".join(f"{s:.4f}" for s in scaled) + "; wall "
            + ", ".join(f"{s:.4f}" for s, _ in setups) + ")")
        log(f"table_s {table_s:.4f} s (median of {len(passes)} rescaled passes; wall "
            f"median {wall_s:.4f}, min {min(p.seconds for p in passes):.4f}, "
            f"max {max(p.seconds for p in passes):.4f})")
        log(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB")
    else:
        per_pass = [tracing.layer_metrics(tracer.spans[a:b], a)
                    for a, b in (p.spans for p in traced)]
        layer = tracing.median_metrics(per_pass)
        traced_s = statistics.median(p.scaled for p in traced)
        layer["trace.overhead_frac"] = traced_s / table_s - 1.0
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.jsonl"
        tracer.dump(path, {"workload": workload, "seed": seed, "environment": env,
                           "untraced_passes": len(passes), "traced_passes": len(traced)})
        log(f"untraced table_s {table_s:.4f} s over {len(passes)} passes; traced "
            f"{traced_s:.4f} s over {len(traced)} passes; spans in {path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            log(f"{name} {value:.6g} {unit}")

    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_node_step") or name.endswith("ns_per_node") \
            or name.endswith("ns_per_mode"):
        return "ns"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B"
    if name.endswith("_frac"):
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", dest="setup_probe", choices=sorted(WORKLOADS),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            _, _, wall, scaled = set_up(args.setup_probe)
            print(f"{wall!r} {scaled!r}")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
