"""Convergence experiments, error records, log-log slope fits, the one-step
defect diagnostics, and the spectral-sum / quadrature inequality sweeps
(`bound_sweep`).

Experiment catalog (`EXPERIMENTS`; J is the x-resolution, and `grid.grid_for`
matches each further axis's spacing to dx):

    homog-trigpoly    1D homogeneous, finite cosine datum, L=1
    homog-polybump    1D homogeneous, quartic bump datum, L=1
    homog-hat         1D homogeneous, triangular datum, L=2
    steady1d-w        1D forced, datum = target mean + companion quadratic
    steady1d-const    1D forced, constant datum at the discrete target mean
    steady2d-centered 2D forced, Gaussian steady state away from the boundary
    steady2d-offset   2D forced, Gaussian steady state centered on a corner

`_study` starts every run, at the one time step dt = cfl / sum 1/h^2 (cfl*dx^2
in 1D), and reaches its checkpoints by exact propagation (`scheme1d.propagate`),
not by stepping.  Errors compare the run against the exact solution sampled on
the grid, at the realized time of the nearest step.  Normalization is per
experiment: the homogeneous errors divide by the sampled initial datum's norm
(the bump uses the norm of its mean-free part, whose decay the error actually
tracks), the 1D steady errors divide by the sampled steady state's norm, and
the 2D errors are absolute.  The continuous steady problem fixes its state
only up to a constant, so the forced runs of `_run_steady` start at the
discrete mean of the sampled steady state, the only mean the discrete dynamics
can hold; `steady1d-w` starts at its datum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import scheme1d, spectral
from .consistency import l_delta
from .errors import CflViolationError
from .exact import (CosineSeries, companion_w, cosine_mode, gaussian_2d,
                    hat_function, poly_bump, steady_1d, trig_poly)
from .grid import Field, Grid, Grid1D, grid_for, mean, norm_l2, project

__all__ = [
    "ExperimentConfig", "ErrorRecord", "SlopeFit", "EXPERIMENTS",
    "default_config", "run_convergence", "estimate_slope", "records_at",
    "epsilon_diagnostics", "WorstCase",
    "quadrature_inequality_check", "H1Function", "h1_cosine_mode", "h1_linear",
    "h1_constant", "bound_sweep",
    "csv_text", "emit_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    J_list: tuple
    checkpoints: tuple
    cfl: float = 0.5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not 0 < self.cfl < math.inf:  # a usage error, not a stability violation
            raise ValueError(f"cfl ratio must be finite and positive, got {self.cfl}")
        if self.cfl > 0.5:
            raise CflViolationError(f"cfl ratio must lie in (0, 1/2], got {self.cfl}")
        if not self.J_list:
            raise ValueError("need at least one grid resolution")
        if not self.checkpoints:
            raise ValueError("need at least one checkpoint")
        cps = self.checkpoints
        if not (all(0 <= t < math.inf for t in cps) and all(a < b for a, b in zip(cps, cps[1:]))):
            raise ValueError("checkpoints must be finite, nonnegative and strictly increasing, "
                             f"got {list(cps)}")
        if min(self.J_list) < 2 or len(set(self.J_list)) < len(self.J_list):
            raise ValueError(f"grid resolutions must be distinct and >= 2, got {list(self.J_list)}")

    def as_meta(self) -> dict:
        return {
            "experiment": self.experiment,
            "J": ",".join(str(j) for j in self.J_list),
            "t": ",".join(repr(float(t)) for t in self.checkpoints),
            "cfl": repr(self.cfl),
            "normalization": EXPERIMENTS[self.experiment][2],
        }


def default_config(experiment: str, J_list: Optional[Sequence[int]] = None,
                   checkpoints: Optional[Sequence[float]] = None,
                   cfl: float = 0.5, threads: int = 1) -> ExperimentConfig:
    # bench/run.py passes threads=1; ROADMAP item 8 removes the keyword
    if threads != 1:
        raise ValueError(f"experiments run on one thread, got threads={threads}")
    # ExperimentConfig refuses an unknown experiment
    default_J, default_checkpoints = EXPERIMENTS.get(experiment, (None, None))[:2]
    return ExperimentConfig(
        experiment=experiment,
        J_list=tuple(J_list) if J_list is not None else default_J,
        checkpoints=tuple(checkpoints) if checkpoints is not None else default_checkpoints,
        cfl=cfl,
    )


@dataclass(frozen=True)
class ErrorRecord:
    experiment: str
    J: int
    dx: float
    dt: float
    t_target: float
    t_realized: float
    n: int
    abs_err: float
    rel_err: float
    wall_ms: float


def _study(cfg: ExperimentConfig, v0: Field, reference: Callable, normalizer: float,
           rhs: Optional[scheme1d.DiscreteRHS] = None) -> list[ErrorRecord]:
    """Run from v0, forced by ``rhs`` if given, at dt = cfl / sum 1/h^2 to the
    configured checkpoints, and measure each error, the one place that does:
    the norm of ``reference(t)`` (the exact state on v0's grid at the realized
    time) minus the run, over ``normalizer`` (positive) for rel_err."""
    g = v0.grid
    if not normalizer > 0:
        raise ValueError(f"{cfg.experiment} at J={g.Jx}: the {EXPERIMENTS[cfg.experiment][2]} "
                         f"normalizer is {normalizer}, so rel_err is undefined")
    st = scheme1d.new_run(g, cfg.cfl / sum(1.0 / h ** 2 for h in g.spacings), v0, rhs)
    t0, records = time.perf_counter(), []
    for cp in scheme1d.propagate(st, cfg.checkpoints):
        err = norm_l2(Field(g, reference(cp.t_realized) - cp.field.values))
        records.append(ErrorRecord(cfg.experiment, g.Jx, g.dx, st.dt, cp.t_target, cp.t_realized,
                                   cp.n, err, err / normalizer, (time.perf_counter() - t0) * 1e3))
    return records


def _run_homog(cfg: ExperimentConfig, J: int,
               make_datum: Callable[[], CosineSeries]) -> list[ErrorRecord]:
    datum = make_datum()
    g = Grid1D(J, datum.L)
    v0 = project(g, datum)
    fluctuation = EXPERIMENTS[cfg.experiment][2] == "relative-to-initial-fluctuation"
    normalizer = norm_l2(Field(g, v0.values - mean(v0)) if fluctuation else v0)
    return _study(cfg, v0, lambda t: datum.evaluate(t, g.nodes()), normalizer)


def _run_steady(cfg: ExperimentConfig, J: int, make_case: Callable) -> list[ErrorRecord]:
    """``make_case()`` gives the `ForcedProblem`, its exact steady state and the
    start, None for the discrete mean of the sampled state."""
    problem, exact, start = make_case()
    g = grid_for(J, *problem.lengths[::-1])
    target = project(g, exact)
    v0 = project(g, mean(target) if start is None else start)
    relative = EXPERIMENTS[cfg.experiment][2] == "relative-to-steady"
    return _study(cfg, v0, lambda t: target.values, norm_l2(target) if relative else 1.0,
                  scheme1d.build_rhs(problem, g))


def _sec52(datum: bool) -> tuple:
    """Section 5.2's problem; with ``datum``, steady1d-w's start: target mean + w."""
    ss = steady_1d()
    problem = scheme1d.NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L, ss.source_integral)
    start = (lambda x: ss.mean_value + companion_w(ss.beta, ss.gamma, ss.L)(x)) if datum else None
    return problem, ss.solution, start


def _gaussian(**gaussian) -> tuple:
    case = gaussian_2d(**gaussian)
    return (scheme1d.ForcedProblem(case.f, (case.g2, case.g1), (case.Ly, case.Lx),
                                   case.source_integral), case.u_inf, None)


_HOMOG_J = (17, 33, 65, 129, 257, 513)
_HOMOG_T = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 1.0)
_HAT_T = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
_STEADY_T = tuple(0.625 * k for k in range(1, 9))

# The experiment catalog: id -> (default J list, default checkpoint times,
# error normalization, runner, the runner's case: a callable of no arguments).
EXPERIMENTS = {
    "homog-trigpoly": (_HOMOG_J, _HOMOG_T, "relative-to-initial", _run_homog, trig_poly),
    "homog-polybump": (_HOMOG_J, _HOMOG_T, "relative-to-initial-fluctuation",
                       _run_homog, poly_bump),
    "homog-hat": ((201, 401, 801), _HAT_T, "relative-to-initial", _run_homog, hat_function),
    "steady1d-w": ((16, 32, 64, 128, 256, 512), _STEADY_T, "relative-to-steady",
                   _run_steady, lambda: _sec52(True)),
    "steady1d-const": ((16, 32, 64, 128, 256, 512), _STEADY_T, "relative-to-steady",
                       _run_steady, lambda: _sec52(False)),
    "steady2d-centered": ((8, 16, 32, 64), _STEADY_T, "absolute", _run_steady,
                          lambda: _gaussian(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)),
    "steady2d-offset": ((8, 16, 32, 64), _STEADY_T, "absolute", _run_steady,
                        lambda: _gaussian(alpha=1.0, beta_g=5.0, x0=0.0, y0=4.0)),
}


def run_convergence(cfg: ExperimentConfig) -> list[ErrorRecord]:
    """Run the experiment at each grid resolution in turn; records come in
    deterministic (J ascending, time ascending) order."""
    run, case = EXPERIMENTS[cfg.experiment][3:]
    return [rec for J in sorted(cfg.J_list) for rec in run(cfg, J, case)]


def records_at(records: Sequence[ErrorRecord], t_target: float) -> list[ErrorRecord]:
    return [r for r in records if r.t_target == t_target]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit err ~ C * J^(-slope) in log-log coordinates."""

    slope: float
    intercept: float
    residual: float
    J_used: tuple


def estimate_slope(records: Sequence[ErrorRecord]) -> SlopeFit:
    """`SlopeFit` of the records; refused over fewer than 3 distinct grids
    (records that repeat one J make the fit rank-deficient) and for errors
    that are not positive."""
    grids = sorted({r.J for r in records})
    if len(grids) < 3:
        raise ValueError(f"need at least 3 distinct grids for a slope fit, got J={grids}")
    zero = [r.J for r in records if not r.rel_err > 0]
    if zero:
        raise ValueError(f"a log-log fit needs positive errors; not positive at J={zero}")
    lgJ = np.log([r.J for r in records])
    lge = np.log([r.rel_err for r in records])
    A = np.vstack([lgJ, np.ones_like(lgJ)]).T
    coef, res, _, _ = np.linalg.lstsq(A, lge, rcond=None)
    residual = float(res[0]) if res.size else 0.0
    return SlopeFit(-float(coef[0]), float(coef[1]), residual,
                    tuple(sorted(r.J for r in records)))


def _phi(a: float) -> float:
    """int_0^1 (1 - s) exp(-a s) ds, stable for small a."""
    if a < 1e-5:
        return 0.5 - a / 6.0 + a * a / 24.0
    return (a + math.expm1(-a)) / (a * a)


def epsilon_diagnostics(series: CosineSeries, g: Grid, dt: float, n: int) -> tuple[float, float]:
    """Norms of the two one-step defect terms at step n.

    The first is dt times the stencil defect of the exact solution at time
    n*dt (carries the boundary inconsistency, scales like dt at fixed grid);
    the second is the Taylor remainder of the Euler step, a cosine series
    whose mode-wise coefficients are closed forms (scales like dt^2).
    """
    t = n * dt
    eps1 = dt * norm_l2(l_delta(series.solution(t), g))
    mu = series.rates()
    coeff = series.weights(t) * mu ** 2 * np.array([_phi(m * dt) for m in mu]) * dt ** 2
    eps2 = norm_l2(Field(g, CosineSeries(series.L, coeff)(g.nodes())))
    return eps1, eps2


@dataclass(frozen=True)
class WorstCase:
    """The figure of one bound that came closest to failing, where it
    occurred, and whether the bound holds there."""

    value: float
    where: tuple
    ok: bool


@dataclass(frozen=True)
class H1Function:
    """A function with its exact squared H^1 norm (length-scaled integrals)."""

    fn: object
    h1_norm_sq: float
    label: str


def h1_cosine_mode(p: int, L: float) -> H1Function:
    h1_sq = 1.0 + (p * math.pi / L) ** 2 if p else 1.0
    return H1Function(cosine_mode(p, L), h1_sq, f"cos mode {p}")


def h1_linear(L: float) -> H1Function:
    return H1Function(lambda x: np.asarray(x, dtype=float), L ** 2 / 3.0 + 1.0, "x")


def h1_constant() -> H1Function:
    return H1Function(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, "1")


def quadrature_inequality_check(v: H1Function, J_sweep: Sequence[int],
                                L: float) -> WorstCase:
    """Check the sampling inequality

        ||sampled v||^2 <= ((J-1)/J) * 2 * (1 + dx) * ||v||_{H^1}^2

    for every grid in the sweep; the worst lhs/rhs ratio, at (J, v.label),
    holds when it is <= 1.  An empty sweep is refused."""
    if not J_sweep:
        raise ValueError("the sampling inequality needs a nonempty J_sweep")
    worst = (0.0, 0)
    for J in J_sweep:
        g = Grid1D(J, L)
        lhs = norm_l2(project(g, v.fn)) ** 2
        rhs = (J - 1) / J * 2.0 * (1.0 + g.dx) * v.h1_norm_sq
        ratio = lhs / rhs
        if ratio > worst[0]:
            worst = (ratio, J)
    return WorstCase(worst[0], (worst[1], v.label), worst[0] <= 1.0)


def bound_sweep(J_list: Sequence[int] = range(2, 513),
                cfls: Sequence[float] = (0.5, 0.25, 0.1),
                ns: Sequence[int] = (1, 10, 1000, 1_000_000),
                ms: Sequence[int] = (1, 10, 100, 1000),
                L: float = 1.0) -> dict[str, WorstCase]:
    """Worst case of each bound: the four spectral-sum bounds at every
    (J, cfl) of the sweep, the sampling inequality over ``J_list``.  Keys:
    "amplification" (smallest envelope margin, at (J, cfl, mode); holds when
    >= 0), then "eta_sum", "resolvent", "kernel" and "quadrature" (value/bound
    ratios, at (J, cfl, n or m) or (J, function); hold when <= 1).  One
    spectrum per grid: the exactly rounded sums of all (cfl, n) and (cfl, m)
    come from one broadcast array each, eta once per cfl.  Refused: an empty
    sweep list, a non-finite cfl, an L outside [1e-60, 1e60] (sums scale as L^4)."""
    if not all(map(len, (J_list, cfls, ns, ms))):
        raise ValueError("bound_sweep needs nonempty J_list, cfls, ns and ms")
    if not all(map(math.isfinite, cfls)):  # a usage error, not a stability violation
        raise ValueError(f"cfl ratio must be finite, got {cfls}")
    # the sums scale as L^4, the squared terms as L^4/J^4; the grids refuse
    # J < 2 and L <= 0, inf or nan
    if 0 < L < math.inf and not 1e-60 <= L <= 1e60:
        raise ValueError(f"L must lie in [1e-60, 1e60] for the bound sweep, got {L}")
    grids = [Grid1D(J, L) for J in J_list]
    worst = {}

    def keep(name, value, where, sign=1.0):  # sign -1 keeps the minimum
        if name not in worst or sign * value > sign * worst[name][0]:
            worst[name] = (value, where)

    for J, g in zip(J_list, grids):
        dts = [c * g.dx ** 2 for c in cfls]
        resolvent = spectral.resolvent_power_sums(g, dts, ns)
        kernel, kernel_bound = spectral.heat_kernel_spectrum_sums(g, cfls, ms)
        amplification = spectral.amplification_bound_checks(g, dts)
        for i, (c, dt, rep) in enumerate(zip(cfls, dts, amplification)):
            keep("amplification", rep.worst_margin, (J, c, rep.worst_index), -1.0)
            for n, e, r in zip(ns, spectral.eta_geometric_sums(g, dt, ns), resolvent[i]):
                keep("eta_sum", e / (2.0 * L ** 2), (J, c, n))
                keep("resolvent", r / spectral.resolvent_power_sum_bound(L), (J, c, n))
            for m, value, bound in zip(ms, kernel[i], kernel_bound[i]):
                keep("kernel", value / bound, (J, c, m))
    for h1 in (h1_constant(), h1_linear(L), h1_cosine_mode(1, L)):
        rep = quadrature_inequality_check(h1, J_list, L)
        keep("quadrature", rep.value, rep.where)
    return {name: WorstCase(v, where, v >= 0.0 if name == "amplification" else v <= 1.0)
            for name, (v, where) in worst.items()}


def csv_text(records: Sequence[ErrorRecord]) -> str:
    """Records sorted by (experiment, J, target time) as CSV text, floats in
    full round-trip precision."""
    lines = ["experiment,J,dx,dt,t_target,t_realized,n,abs_err,rel_err,wall_ms"]
    for r in sorted(records, key=lambda r: (r.experiment, r.J, r.t_target)):
        lines.append(",".join([
            r.experiment, str(r.J), repr(r.dx), repr(r.dt), repr(r.t_target),
            repr(r.t_realized), str(r.n), repr(r.abs_err), repr(r.rel_err),
            repr(r.wall_ms),
        ]))
    return "\n".join(lines) + "\n"


def emit_csv(records: Sequence[ErrorRecord], path, config: Optional[ExperimentConfig] = None) -> None:
    """Write `csv_text(records)` to ``path``; a sidecar `<path>.meta` records
    the generating configuration."""
    with open(path, "w") as fh:
        fh.write(csv_text(records))
    if config is not None:
        with open(f"{path}.meta", "w") as fh:
            for k, v in config.as_meta().items():
                fh.write(f"{k}={v}\n")
