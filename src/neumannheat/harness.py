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

`_study` builds every study from its catalog case: the grid, the start, the
exact reference and the normalizer.  It runs at the one time step
dt = cfl / sum 1/h^2 (cfl*dx^2 in 1D) and reaches its checkpoints by exact
propagation (`scheme1d.propagate`), not by stepping.  Errors compare the run
against the exact state sampled on the grid at the realized time of the
nearest step, and rel_err divides by a norm of the sampled exact(0): the
whole of it, its mean-free part (the bump, whose fluctuation the error
tracks), or 1 for the absolute 2D errors.  The continuous steady problem
fixes its state only up to a constant, so a forced run with no start of its
own starts at the discrete mean of the sampled state, the only mean the
discrete dynamics can hold; `steady1d-w` starts at its datum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import scheme1d, spectral
from .consistency import l_delta
from .errors import CflViolationError
from .exact import (CosineSeries, companion_w, cosine_mode, gaussian_2d,
                    hat_function, poly_bump, steady_1d, trig_poly)
from .grid import Field, Grid, Grid1D, exact_sums, grid_for, mean, norm_l2, project, sample

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


def _study(cfg: ExperimentConfig, J: int, case: tuple) -> list[ErrorRecord]:
    """Build, run and measure one study at x-resolution J, the one place that
    does.  ``case`` is (lengths, problem, exact, start): the box lengths in
    array-axis order, the `ForcedProblem` or None, the exact state exact(t, x,
    ...), and the start, None for the discrete mean of the sampled exact(0).
    Each error is the norm of the sampled exact state at the realized time
    minus the run, over the experiment's `_NORMALIZERS` figure for rel_err."""
    lengths, problem, exact, start = case
    g = grid_for(J, *lengths[::-1])
    initial = project(g, lambda *x: exact(0.0, *x))
    normalization = EXPERIMENTS[cfg.experiment][2]
    normalizer = _NORMALIZERS[normalization](initial)
    if not normalizer > 0:
        raise ValueError(f"{cfg.experiment} at J={g.Jx}: the {normalization} "
                         f"normalizer is {normalizer}, so rel_err is undefined")
    v0 = project(g, mean(initial) if start is None else start)
    rhs = None if problem is None else scheme1d.build_rhs(problem, g)
    st = scheme1d.new_run(g, cfg.cfl / sum(1.0 / h ** 2 for h in g.spacings), v0, rhs)
    t0, records = time.perf_counter(), []
    for cp in scheme1d.propagate(st, cfg.checkpoints):
        reference = project(g, lambda *x: exact(cp.t_realized, *x))
        err = norm_l2(Field(g, reference.values - cp.field.values))
        records.append(ErrorRecord(cfg.experiment, g.Jx, g.dx, st.dt, cp.t_target, cp.t_realized,
                                   cp.n, err, err / normalizer, (time.perf_counter() - t0) * 1e3))
    return records


# rel_err's divisor from the sampled exact(0); a steady state is its own exact(0)
_NORMALIZERS = {
    "absolute": lambda u0: 1.0,
    "relative-to-initial": norm_l2,
    "relative-to-initial-fluctuation": lambda u0: norm_l2(Field(u0.grid, u0.values - mean(u0))),
    "relative-to-steady": norm_l2,
}


def _homog(datum: CosineSeries) -> tuple:
    """The heat flow alone from a catalog datum, against its series solution."""
    return (datum.L,), None, datum.evaluate, datum


def _sec52(datum: bool) -> tuple:
    """Section 5.2's problem; with ``datum``, steady1d-w's start: target mean + w."""
    ss = steady_1d()
    problem = scheme1d.NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L, ss.source_integral)
    start = (lambda x: ss.mean_value + companion_w(ss.beta, ss.gamma, ss.L)(x)) if datum else None
    return (ss.L,), problem, lambda t, x: ss.solution(x), start


def _gaussian(**gaussian) -> tuple:
    p = gaussian_2d(**gaussian)
    return (p.lengths, scheme1d.ForcedProblem(p.f, p.fluxes, p.lengths, p.source_integral),
            lambda t, *x: p.u_inf(*x), None)


_HOMOG_J = (17, 33, 65, 129, 257, 513)
_HOMOG_T = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 1.0)
_HAT_T = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
_STEADY_T = tuple(0.625 * k for k in range(1, 9))

# The experiment catalog: id -> (default J list, default checkpoint times,
# error normalization, `_study`'s case: a callable of no arguments).
EXPERIMENTS = {
    "homog-trigpoly": (_HOMOG_J, _HOMOG_T, "relative-to-initial", lambda: _homog(trig_poly())),
    "homog-polybump": (_HOMOG_J, _HOMOG_T, "relative-to-initial-fluctuation",
                       lambda: _homog(poly_bump())),
    "homog-hat": ((201, 401, 801), _HAT_T, "relative-to-initial", lambda: _homog(hat_function())),
    "steady1d-w": ((16, 32, 64, 128, 256, 512), _STEADY_T, "relative-to-steady",
                   lambda: _sec52(True)),
    "steady1d-const": ((16, 32, 64, 128, 256, 512), _STEADY_T, "relative-to-steady",
                       lambda: _sec52(False)),
    "steady2d-centered": ((8, 16, 32, 64), _STEADY_T, "absolute",
                          lambda: _gaussian(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)),
    "steady2d-offset": ((8, 16, 32, 64), _STEADY_T, "absolute",
                        lambda: _gaussian(alpha=1.0, beta_g=5.0, x0=0.0, y0=4.0)),
}


def run_convergence(cfg: ExperimentConfig) -> list[ErrorRecord]:
    """Run the experiment's case, built once, at each grid resolution in turn;
    records come in deterministic (J ascending, time ascending) order."""
    case = EXPERIMENTS[cfg.experiment][3]()
    return [rec for J in sorted(cfg.J_list) for rec in _study(cfg, J, case)]


def records_at(records: Sequence[ErrorRecord], t_target: float) -> list[ErrorRecord]:
    return [r for r in records if r.t_target == t_target]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit err ~ C * J^(-slope) in log-log coordinates."""

    slope: float
    intercept: float
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
    coef = np.linalg.lstsq(A, lge, rcond=None)[0]
    return SlopeFit(-float(coef[0]), float(coef[1]), tuple(sorted(r.J for r in records)))


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
    grids = [Grid1D(J, L) for J in J_sweep]  # g.J: a Python int, whatever J_sweep holds
    return _worst(_sampling_ratios([v], grids), lambda f, k: (grids[k].J, v.label))


def _sampling_ratios(fns, grids) -> np.ndarray:
    """norm_l2(project(g, v.fn)) ** 2 / (((J-1)/J) * 2 * (1 + dx) * ||v||_{H^1}^2) at [f, k] for
    v = fns[f] on grids[k], bit for bit, each v sampled once per padded block (x = 0 padded)."""
    sums = [[] for _ in fns]
    for j, _, h, _, _, live in spectral._spectrum(grids, 0, [()] * len(grids), 4):  # 4 node arrays
        x = np.where(live, j * h, 0.0).ravel()
        for v, s in zip(fns, sums):
            values = sample(v.fn, [x]).reshape(live.shape)
            if not np.isfinite(values).all():  # as `project` refuses
                raise ValueError("field contains non-finite entries")
            s.append(exact_sums(np.where(live, values * values, 0.0)))
    J, h = np.array([[g.J, g.dx] for g in grids]).T
    # float_power is pow, as y ** 2 of a Python float y; numpy's y ** 2 is y * y, not always equal
    return (np.float_power(np.sqrt(np.array([np.concatenate(s) for s in sums]) / J), 2.0)
            / ((J - 1) / J * 2.0 * (1.0 + h) * np.array([[v.h1_norm_sq] for v in fns])))


def _worst(values: np.ndarray, where, least: bool = False) -> WorstCase:
    """The first least (ok if >= 0) or largest (ok if <= 1) entry of ``values``, at where(*at)."""
    at = np.unravel_index(values.argmin() if least else values.argmax(), values.shape)
    value = values[at].item()
    return WorstCase(value, where(*at), value >= 0.0 if least else value <= 1.0)


def bound_sweep(J_list: Sequence[int] = range(2, 513),
                cfls: Sequence[float] = (0.5, 0.25, 0.1),
                ns: Sequence[int] = (1, 10, 1000, 1_000_000),
                ms: Sequence[int] = (1, 10, 100, 1000),
                L: float = 1.0) -> dict[str, WorstCase]:
    """Worst case of each bound: the four spectral-sum bounds at every (J, cfl) of the sweep, the
    sampling inequality over ``J_list``.  Keys: "amplification" (smallest envelope margin, at
    (J, cfl, mode); holds when >= 0), then "eta_sum", "resolvent", "kernel" and "quadrature"
    (value/bound ratios, at (J, cfl, n or m) or (J, function); hold when <= 1), the first in sweep
    order among equals.  Each grid is built once, and each figure is one float array from one call
    over all the grids, which `spectral` reads in padded blocks.  Refused: an empty sweep list, a
    cfl that is not finite and positive, an L outside [1e-60, 1e60] (sums scale as L^4)."""
    if not all(map(len, (J_list, cfls, ns, ms))):
        raise ValueError("bound_sweep needs nonempty J_list, cfls, ns and ms")
    if not all([0 < c < math.inf for c in cfls]):  # a usage error, not a stability violation
        raise ValueError(f"cfl ratio must be finite and positive, got {cfls}")
    # sums scale as L^4, squared terms as L^4/J^4; the grids refuse J < 2 and L <= 0, inf or nan
    if 0 < L < math.inf and not 1e-60 <= L <= 1e60:
        raise ValueError(f"L must lie in [1e-60, 1e60] for the bound sweep, got {L}")
    grids = [Grid1D(J, L) for J in J_list]  # g.J: a Python int, whatever J_list holds
    dts = [[c * g.dx ** 2 for c in cfls] for g in grids]
    fns = (h1_constant(), h1_linear(L), h1_cosine_mode(1, L))
    bound = spectral.resolvent_power_sum_bound(L)
    margin, first = spectral.amplification_bound_checks(grids, dts)
    return {  # value/bound ratios at [k, i, j] (J, cfl, n or m); the sampling check's at [f, k]
        "amplification": _worst(margin, lambda k, i: (grids[k].J, cfls[i], first[k, i].item()),
                                least=True),
        "eta_sum": _worst(spectral.eta_geometric_sums(grids, dts, ns) / (2.0 * L ** 2),
                          lambda k, i, j: (grids[k].J, cfls[i], ns[j])),
        "resolvent": _worst(spectral.resolvent_power_sums(grids, dts, ns) / bound,
                            lambda k, i, j: (grids[k].J, cfls[i], ns[j])),
        "kernel": _worst(np.divide(*spectral.heat_kernel_spectrum_sums(grids, cfls, ms)),
                         lambda k, i, j: (grids[k].J, cfls[i], ms[j])),
        "quadrature": _worst(_sampling_ratios(fns, grids), lambda f, k: (grids[k].J, fns[f].label)),
    }


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
