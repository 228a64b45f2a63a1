"""Explicit Euler time stepping for the Neumann heat problem, the discrete
right-hand side with its mean correction, and the two steady-state solvers
(long-time iteration and shifted direct solve).

The update is v <- v + dt * (A v + b), with A the matrix-free Neumann stencil
and b assembled so that its discrete mean vanishes exactly for balanced
problems; the constant mode is then conserved and the iteration converges to
the unique steady state with the initial datum's mean.  For an unbalanced b
the mean drifts at exactly the rate mean(b).

The run machinery (`RunState`, `run_to`, the residual and the steady loop) is
shared with `scheme2d`: it works on 1D and 2D fields alike and picks the
stepping kernel by the dimension of the values array.  `propagate` reaches the
same checkpoints exactly, by one DCT-II transform pair, without stepping, and
the steady loop advances each block between residual checks the same way;
`step` and `run_to` stay the step-by-step reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np
from scipy import integrate
from scipy.fft import dctn, idctn
from scipy.linalg.lapack import dptsv

from . import _kernels
from .errors import IncompatibleProblemError, InstabilityError, QuadratureError
from .grid import Field1D, Field2D, Grid1D, Grid2D, mean, project
from .spectral import eigenvalues, laplacian, require_stable

__all__ = [
    "NonhomogProblem", "DiscreteRHS", "RunState", "Checkpoint",
    "new_run", "step", "run_to", "propagate", "build_rhs", "check_compatibility",
    "solve_steady_iterative", "solve_steady_laplace", "laplace_shift_gap_bound",
    "SteadySolve",
]


@dataclass(frozen=True)
class NonhomogProblem:
    """Source f with its exact integral over [0, L], plus end fluxes.

    ``f_integral`` may be omitted for a quadrature fallback (tolerance 1e-12);
    catalog problems pass the closed form.
    """

    f: Callable
    beta: float
    gamma: float
    L: float
    f_integral: Optional[float] = None

    def source_integral(self) -> float:
        if self.f_integral is not None:
            return self.f_integral
        val, err = integrate.quad(self.f, 0.0, self.L, epsabs=1e-12, limit=200)
        if err > 1e-10:
            raise QuadratureError(f"source integral error estimate {err:.2e}")
        return val


@dataclass(frozen=True)
class DiscreteRHS:
    """Assembled forcing vector b and the uniform correction r folded into it."""

    b: Field1D | Field2D
    r: float


def check_compatibility(p: NonhomogProblem) -> float:
    """Flux/source balance residual gamma - beta + int_0^L f (zero iff a
    steady state exists)."""
    return p.gamma - p.beta + p.source_integral()


def build_rhs(p: NonhomogProblem, g: Grid1D) -> DiscreteRHS:
    """b = sampled f + end-flux terms + r * 1, with r chosen so that the
    discrete mean of b vanishes exactly when the problem balances:

        r = (int_0^L f - dx * sum_j f(x_j)) / (J * dx)
    """
    fx = project(g, p.f).values
    r = (p.source_integral() - g.dx * math.fsum(fx)) / (g.J * g.dx)
    b = fx + r
    b[0] -= p.beta / g.dx
    b[-1] += p.gamma / g.dx
    return DiscreteRHS(Field1D(g, b), r)


@dataclass
class RunState:
    """One explicit Euler trajectory on a 1D or 2D grid; mutated in place by
    `step` and `run_to`."""

    grid: Grid1D | Grid2D
    dt: float
    n: int
    values: np.ndarray = field(repr=False)
    rhs: Optional[DiscreteRHS] = None
    mean0: float = 0.0

    @property
    def t(self) -> float:
        return self.n * self.dt

    @property
    def field(self) -> Field1D | Field2D:
        return (Field2D if self.values.ndim == 2 else Field1D)(self.grid, self.values.copy())


def new_run(g: Grid1D | Grid2D, dt: float, v0, rhs: Optional[DiscreteRHS] = None) -> RunState:
    """Start a trajectory at v0; the time step must satisfy the grid's
    stability rule (`cfl_ok` in 1D, `cfl2d` in 2D)."""
    if v0.grid != g:
        raise ValueError("initial field lives on a different grid")
    if rhs is not None and rhs.b.grid != g:
        raise ValueError("right-hand side lives on a different grid")
    require_stable(g, dt)
    vals = v0.values.copy()
    return RunState(g, dt, 0, vals, rhs, math.fsum(vals.ravel()) / vals.size)


def _advance_to(st: RunState, n_target: int) -> None:
    """Advance to step n_target in one kernel call (1D or 2D by the array's
    dimension), then check that the values stayed finite."""
    k = n_target - st.n
    if k > 0:
        c = [st.dt / h ** 2 for h in reversed(st.grid.spacings)]  # x first
        if st.values.ndim == 1:
            plain, forced = _kernels.advance_1d, _kernels.advance_1d_rhs
        else:
            plain, forced = _kernels.advance_2d, _kernels.advance_2d_rhs
        if st.rhs is None:
            st.values = plain(st.values, *c, k)
        else:
            st.values = forced(st.values, *c, st.dt * st.rhs.b.values, k)
        st.n = n_target
    _check_finite(st)


def _gain(lam: np.ndarray, qk: np.ndarray, k: int, dt: float) -> np.ndarray:
    """dt * sum_{i<k} q_l^i per mode, given qk = q^k (q_l = 1 + dt*lambda_l):
    (1 - q^k)/(-lambda), or k*dt for the constant mode (lambda = 0)."""
    return np.divide(1.0 - qk, -lam, out=np.full(lam.shape, k * dt), where=lam != 0.0)


def _propagate_to(st: RunState, n_target: int) -> None:
    """Advance to step n_target in the DCT-II basis, where k steps multiply
    mode l by q_l^k and add `_gain` times the forcing mode; the constant
    mode's gain k*dt makes the mean drift at exactly mean(b)."""
    k = n_target - st.n
    if k > 0:
        lam = eigenvalues(st.grid)
        qk = (1.0 + st.dt * lam) ** k
        vhat = qk * dctn(st.values, type=2, norm="ortho")
        if st.rhs is not None:
            vhat += _gain(lam, qk, k, st.dt) * dctn(st.rhs.b.values, type=2, norm="ortho")
        st.values = idctn(vhat, type=2, norm="ortho")
        st.n = n_target
    _check_finite(st)


def _check_finite(st: RunState) -> None:
    if not np.all(np.isfinite(st.values)):
        raise InstabilityError(f"non-finite values at step {st.n}")


def step(st: RunState) -> RunState:
    """One update v <- v + dt*(A v [+ b])."""
    _advance_to(st, st.n + 1)
    return st


@dataclass(frozen=True)
class Checkpoint:
    t_target: float
    t_realized: float
    n: int
    field: Field1D | Field2D


def _run_checkpoints(st: RunState, checkpoints, advance=_advance_to) -> list[Checkpoint]:
    targets = list(checkpoints)
    if not targets:
        raise ValueError("need at least one checkpoint")
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise ValueError("checkpoints must be nondecreasing")
    out = []
    for t in targets:
        n_rec = round(t / st.dt)
        if n_rec < st.n:
            raise ValueError(f"checkpoint t={t} rounds behind the current step {st.n}")
        advance(st, n_rec)
        out.append(Checkpoint(t, st.t, st.n, st.field))
    return out


def run_to(st: RunState, checkpoints) -> list[Checkpoint]:
    """Record the state at n = round(t/dt) for each target time.

    Targets must be nondecreasing and not behind the current time; the
    realized time n*dt is reported alongside (it differs from the target when
    t is not a step multiple).
    """
    return _run_checkpoints(st, checkpoints)


def propagate(st: RunState, checkpoints) -> list[Checkpoint]:
    """`run_to` by exact propagation instead of stepping: the same checkpoint
    rules, step counts and records, on 1D and 2D runs alike; the values agree
    with stepping to rounding."""
    return _run_checkpoints(st, checkpoints, _propagate_to)


@dataclass(frozen=True)
class SteadySolve:
    field: Field1D | Field2D
    iterations: int
    residual: float
    stop_reason: Literal["converged", "stagnated", "max_steps"]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _residual(g, values: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """A v + b and its root-mean-square."""
    resid = laplacian(values, g.spacings) + b
    return resid, math.sqrt(math.fsum((resid * resid).ravel()) / resid.size)


def _iterate_to_steady(st: RunState, tol: float, max_steps: int,
                       check_every: int) -> SteadySolve:
    """Iterate a forced run until the residual r = A v + b drops below
    ``tol``, stagnates at the rounding floor, or ``max_steps`` is reached.

    k Euler steps map r to (I + dt A)^k r, so a block of k steps between
    checks adds dt * sum_{i<k} (I + dt A)^i r to v: one DCT-II pair on the
    residual the check has just computed.  Adding that small correction to v,
    rather than carrying v itself in the DCT basis, keeps the residual floor
    at stepping's level or below.
    """
    b = st.rhs.b.values
    lam = eigenvalues(st.grid)
    q = 1.0 + st.dt * lam
    full = _gain(lam, q ** check_every, check_every, st.dt)
    r, res = _residual(st.grid, st.values, b)
    best, stagnant = res, 0
    # `not res <= tol` lets a nan residual through to the finiteness check
    while not res <= tol and st.n < max_steps and stagnant < 10:
        k = min(check_every, max_steps - st.n)
        gk = full if k == check_every else _gain(lam, q ** k, k, st.dt)
        st.values = st.values + idctn(gk * dctn(r, type=2, norm="ortho"), type=2, norm="ortho")
        st.n += k
        _check_finite(st)
        r, res = _residual(st.grid, st.values, b)
        # the residual decays geometrically down to the rounding floor, where
        # it scatters from check to check; ten checks without a new best mean
        # the requested tol is unreachable
        stagnant = stagnant + 1 if res > best * (1.0 - 1e-9) else 0
        best = min(best, res)
    reason = ("converged" if res <= tol else "max_steps" if st.n >= max_steps
              else "stagnated")
    return SteadySolve(st.field, st.n, res, reason)


def solve_steady_iterative(p: NonhomogProblem, g: Grid1D, dt: float, v0: Field1D,
                           tol: float = 1e-10, max_steps: int = 50_000_000,
                           check_every: int = 64) -> SteadySolve:
    """Run the Euler iteration until the residual ||A v + b|| drops below
    ``tol``; the constant mode stays at the initial datum's mean.  The result's
    ``stop_reason`` says whether it converged, stagnated or hit ``max_steps``.

    An unbalanced right-hand side would drift linearly and never converge, so
    it is rejected up front.
    """
    rhs = build_rhs(p, g)
    if abs(mean(rhs.b)) > 1e-10:
        raise IncompatibleProblemError(
            f"discrete mean of b is {mean(rhs.b):.3e}; steady iteration would drift")
    return _iterate_to_steady(new_run(g, dt, v0, rhs), tol, max_steps, check_every)


def solve_steady_laplace(p: NonhomogProblem, g: Grid1D, s: float) -> Field1D:
    """Direct solve of the shifted system (s*Id - A) v = b.

    The shift makes the singular Neumann system definite; the solution has
    zero discrete mean and approaches the zero-mean steady state at rate O(s).
    The matrix is symmetric positive definite and tridiagonal: LAPACK dptsv.
    """
    if not s > 0:
        raise ValueError(f"shift must be positive, got s={s}")
    rhs = build_rhs(p, g)
    if abs(mean(rhs.b)) > 1e-10:
        raise IncompatibleProblemError(
            f"discrete mean of b is {mean(rhs.b):.3e}")
    inv_dx2 = 1.0 / g.dx ** 2
    diag = np.full(g.J, s + 2.0 * inv_dx2)
    diag[0] = diag[-1] = s + inv_dx2
    _, _, v, info = dptsv(diag, np.full(g.J - 1, -inv_dx2), rhs.b.values)
    if info != 0:
        raise np.linalg.LinAlgError(f"dptsv failed with info={info}")
    # the kernel direction amplifies the float residue of mean(b) by 1/s;
    # re-anchor it (this perturbs the residual by only s * mean(v) = mean(b))
    v -= math.fsum(v) / g.J
    return Field1D(g, v)


def laplace_shift_gap_bound(s: float, b_norm: float, L: float) -> float:
    """Uniform-in-J bound s * L^4 / pi^4 * ||b|| on the distance between the
    shifted solve and the zero-mean steady state."""
    return s * L ** 4 / math.pi ** 4 * b_norm
