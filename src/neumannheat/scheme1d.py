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
stepping kernel by the dimension of the values array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from . import _kernels
from .errors import IncompatibleProblemError, InstabilityError, QuadratureError
from .grid import Field1D, Field2D, Grid1D, Grid2D, mean, project
from .spectral import laplacian, require_stable

__all__ = [
    "NonhomogProblem", "DiscreteRHS", "RunState", "Checkpoint",
    "new_run", "step", "run_to", "build_rhs", "check_compatibility",
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


def _run_checkpoints(st: RunState, checkpoints) -> list[Checkpoint]:
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
        _advance_to(st, n_rec)
        out.append(Checkpoint(t, st.t, st.n, st.field))
    return out


def run_to(st: RunState, checkpoints) -> list[Checkpoint]:
    """Record the state at n = round(t/dt) for each target time.

    Targets must be nondecreasing and not behind the current time; the
    realized time n*dt is reported alongside (it differs from the target when
    t is not a step multiple).
    """
    return _run_checkpoints(st, checkpoints)


@dataclass(frozen=True)
class SteadySolve:
    field: Field1D | Field2D
    iterations: int
    residual: float
    converged: bool


def _residual(g, values: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square of A v + b."""
    resid = laplacian(values, g.spacings) + b
    return math.sqrt(math.fsum((resid * resid).ravel()) / resid.size)


def _iterate_to_steady(st: RunState, tol: float, max_steps: int,
                       check_every: int) -> SteadySolve:
    """Step a forced run until the residual ||A v + b|| drops below ``tol``,
    stagnates at the rounding floor, or ``max_steps`` is reached."""
    b = st.rhs.b.values
    res = _residual(st.grid, st.values, b)
    stagnant = 0
    while res > tol and st.n < max_steps:
        _advance_to(st, min(st.n + check_every, max_steps))
        new_res = _residual(st.grid, st.values, b)
        # the residual decays geometrically until the rounding floor; once it
        # stops improving the requested tol is unreachable
        stagnant = stagnant + 1 if new_res > res * (1.0 - 1e-9) else 0
        res = new_res
        if stagnant >= 10:
            break
    return SteadySolve(st.field, st.n, res, res <= tol)


def solve_steady_iterative(p: NonhomogProblem, g: Grid1D, dt: float, v0: Field1D,
                           tol: float = 1e-10, max_steps: int = 50_000_000,
                           check_every: int = 64) -> SteadySolve:
    """Run the Euler iteration until the residual ||A v + b|| drops below
    ``tol``; the constant mode stays at the initial datum's mean.

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
    Symmetric tridiagonal elimination without pivoting (the matrix is SPD).
    """
    if not s > 0:
        raise ValueError(f"shift must be positive, got s={s}")
    rhs = build_rhs(p, g)
    if abs(mean(rhs.b)) > 1e-10:
        raise IncompatibleProblemError(
            f"discrete mean of b is {mean(rhs.b):.3e}")
    J = g.J
    inv_dx2 = 1.0 / g.dx ** 2
    diag = np.full(J, s + 2.0 * inv_dx2)
    diag[0] = diag[-1] = s + inv_dx2
    off = -inv_dx2
    # Thomas elimination
    cp = np.empty(J - 1)
    dp = np.empty(J)
    b = rhs.b.values
    dp[0] = diag[0]
    for i in range(1, J):
        cp[i - 1] = off / dp[i - 1]
        dp[i] = diag[i] - off * cp[i - 1]
    y = np.empty(J)
    y[0] = b[0]
    for i in range(1, J):
        y[i] = b[i] - cp[i - 1] * y[i - 1]
    v = np.empty(J)
    v[-1] = y[-1] / dp[-1]
    for i in range(J - 2, -1, -1):
        v[i] = (y[i] - off * v[i + 1]) / dp[i]
    # the kernel direction amplifies the float residue of mean(b) by 1/s;
    # re-anchor it (this perturbs the residual by only s * mean(v) = mean(b))
    v -= math.fsum(v) / J
    return Field1D(g, v)


def laplace_shift_gap_bound(s: float, b_norm: float, L: float) -> float:
    """Uniform-in-J bound s * L^4 / pi^4 * ||b|| on the distance between the
    shifted solve and the zero-mean steady state."""
    return s * L ** 4 / math.pi ** 4 * b_norm
