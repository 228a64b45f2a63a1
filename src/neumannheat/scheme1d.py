"""Explicit Euler time stepping for the Neumann heat problem on grids of any
number of axes, the forced problem with its right-hand side, and the steady
solvers (long-time iteration; a shifted direct solve in 1D).

The update is v <- v + dt * (A v + b), A the matrix-free Neumann stencil, b
shifted so that N * dV * mean(b) is the flux/source balance that a
`ForcedProblem` integrates once, when it is made: a balanced run
conserves its mean and converges to the steady state with that mean; an
unbalanced one drifts at exactly mean(b), and the steady solvers refuse it.
`scheme2d` keeps two-axis names over this code for `bench/`.

Runs step with the one numpy loop of `_kernels`.  `propagate` reaches the same
checkpoints by one DCT-II transform pair; the steady loop jumps to its
exact-arithmetic count and advances each checked block the same way.  `run_to`
is the reference both are tested against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg.lapack import dptsv

from . import _kernels
from .errors import GridMismatchError, IncompatibleProblemError, InstabilityError
from .grid import Field, Grid, check_grid, mean, sample
from .spectral import eigenvalues, geometric_sum, laplacian, require_stable

__all__ = [
    "ForcedProblem", "NonhomogProblem", "DiscreteRHS", "RunState", "Checkpoint",
    "new_run", "run_to", "propagate", "build_rhs", "check_compatibility",
    "solve_steady_iterative", "solve_steady_laplace",
    "SteadySolve",
]


@dataclass(frozen=True)
class ForcedProblem:
    """Source f and flux data on the box [0, lengths] (array-axis order, x
    last, as `Grid.lengths`).  ``fluxes[axis]`` is the derivative along that
    axis on its two faces (u_x on the x faces: not outward-normal data), a
    number or a callable sampled as `project` samples f, with that axis's
    coordinate 0 or its length.  Without ``f_integral`` the source integral
    comes from the Gauss rule of `_integrate`.  ``balance``, computed once
    when the problem is made, holds the source integral and then each axis's
    net outward flux integral; a problem without one flux per axis, or with a
    balance term that is not finite, is refused."""

    f: Callable
    fluxes: tuple
    lengths: tuple
    f_integral: Optional[float] = None
    balance: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rules = [(L * _UNIT_RULE[0], L * _UNIT_RULE[1]) for L in self.lengths]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            source = self.f_integral if self.f_integral is not None else _integrate(self.f, rules)
            balance = (source,) + tuple(
                _integrate(flux, rules[:axis] + [faces] + rules[axis + 1:])
                for axis, flux, faces in _axes(self))
        if not all(map(math.isfinite, balance)):
            raise ValueError(f"the balance terms must be finite, got {balance}")
        object.__setattr__(self, "balance", balance)


def NonhomogProblem(f: Callable, beta: float, gamma: float, L: float,
                    f_integral: Optional[float] = None) -> ForcedProblem:
    """Source f on [0, L] with end fluxes u'(0) = beta and u'(L) = gamma."""
    return ForcedProblem(f, (lambda x: np.where(x == 0.0, beta, gamma),), (L,), f_integral)


@dataclass(frozen=True)
class DiscreteRHS:
    """Assembled forcing vector b and the uniform correction r folded into it."""

    b: Field
    r: float


# the balance quadrature on [0, 1], scaled to each axis: 16 composite
# Gauss-Legendre panels of 24 points
_GX, _GW = np.polynomial.legendre.leggauss(24)
_UNIT_RULE = ((np.arange(16)[:, None] + 0.5 * (1.0 + _GX)) / 16).ravel(), np.tile(_GW / 32, 16)


def _contract(vals: np.ndarray, rules) -> float:
    """The weights of the per-axis (nodes, weights) ``rules`` applied to vals."""
    for _, w in reversed(rules):
        vals = vals @ w
    return float(vals)


def _integrate(fn, rules) -> float:
    """The tensor product of ``rules`` applied to fn, beyond a 2-axis Gauss
    tensor one slab of the leading axis at a time."""
    if math.prod(len(w) for _, w in rules) > _UNIT_RULE[1].size ** 2:
        (x0, w0), rest = rules[0], rules[1:]
        return math.fsum(w * _integrate((lambda *c, x=x: fn(*c, x)) if callable(fn) else fn,
                                        rest) for x, w in zip(x0, w0))
    return _contract(sample(fn, [x for x, _ in rules]), rules)


def _axes(p: ForcedProblem):
    """(axis, flux, faces) per axis, ``faces`` the rule of its two faces
    weighted by the outward sign; refuses a problem without one flux per axis."""
    for axis, (flux, L) in enumerate(zip(p.fluxes, p.lengths, strict=True)):
        yield axis, flux, ([0.0, L], [-1.0, 1.0])


def check_compatibility(p: ForcedProblem) -> float:
    """Flux/source balance residual (gamma - beta + int_0^L f in 1D): zero
    iff a steady state exists."""
    return math.fsum(p.balance)


def _balance_per_volume(p: ForcedProblem, g: Grid) -> float:
    """check_compatibility(p) / (N dV) on g: the mean of `build_rhs`'s b."""
    return check_compatibility(p) / (math.prod(g.shape) * math.prod(g.spacings))


def _build_rhs(p: ForcedProblem, g: Grid) -> DiscreteRHS:
    if tuple(p.lengths) != g.lengths:
        raise GridMismatchError(f"problem on the box {p.lengths} does not match {g}")
    coords = g.coordinates()
    b = np.array(sample(p.f, coords))  # a fresh array: f may return one it keeps
    for axis, flux, (ends, _) in _axes(p):
        term = sample(flux, coords[:axis] + [ends] + coords[axis + 1:]) / g.spacings[axis]
        low, high = [(slice(None),) * axis + (end,) for end in (0, -1)]
        b[low] -= term[low]
        b[high] += term[high]
    # `Field` refuses a source or face flux that is not finite at a node
    r = _balance_per_volume(p, g) - mean(Field(g, b))
    b += r
    return DiscreteRHS(Field(g, b), r)


def build_rhs(p: ForcedProblem, g: Grid) -> DiscreteRHS:
    """b = b0 + r, b0 the sampled f -+ flux/h on the low/high face nodes of
    each axis and r the uniform shift that puts the continuous balance,
    read once from `check_compatibility(p)`, into b's mean: N * dV * mean(b)
    = `check_compatibility(p)` on any grid (N nodes, cell volume dV):

        r = check_compatibility(p) / (N dV) - sum b0 / N
    """
    return _build_rhs(p, g)


@dataclass
class RunState:
    """One explicit Euler trajectory on a grid; mutated in place by `run_to`
    and `propagate`."""

    grid: Grid
    dt: float
    n: int
    values: np.ndarray = field(repr=False)
    rhs: Optional[DiscreteRHS] = None

    @property
    def t(self) -> float:
        return self.n * self.dt

    @property
    def field(self) -> Field:
        return Field(self.grid, self.values.copy())


def new_run(g: Grid, dt: float, v0: Field, rhs: Optional[DiscreteRHS] = None) -> RunState:
    """Start a trajectory at v0; the time step must satisfy the stability rule
    `spectral.cfl_ok`, and v0 and the right-hand side must live on g."""
    check_grid(g, v0, *(() if rhs is None else (rhs.b,)))
    require_stable(g, dt)
    return RunState(g, dt, 0, v0.values.copy(), rhs)


def _advance_to(st: RunState, n_target: int) -> None:
    """Advance to step n_target in one call of the stepping loop, then check
    that the values stayed finite."""
    k = n_target - st.n
    if k > 0:
        c = [st.dt / h ** 2 for h in st.grid.spacings]
        dtb = None if st.rhs is None else st.dt * st.rhs.b.values
        st.values = _kernels.advance(st.values, c, dtb, k)
        st.n = n_target
    _check_finite(st)


def _propagate_to(st: RunState, n_target: int) -> None:
    """Advance to step n_target in the DCT-II basis, where k steps multiply
    mode l by q_l^k and add `geometric_sum` times the forcing mode; the constant
    mode's gain k*dt makes the mean drift at exactly mean(b)."""
    k = n_target - st.n
    if k > 0:
        lam = eigenvalues(st.grid)
        qk = (1.0 + st.dt * lam) ** k
        vhat = qk * dctn(st.values, type=2, norm="ortho")
        if st.rhs is not None:
            vhat += geometric_sum(lam, qk, k, st.dt) * dctn(st.rhs.b.values, type=2, norm="ortho")
        st.values = idctn(vhat, type=2, norm="ortho")
        st.n = n_target
    _check_finite(st)


def _check_finite(st: RunState) -> None:
    if not np.all(np.isfinite(st.values)):
        raise InstabilityError(f"non-finite values at step {st.n}")


@dataclass(frozen=True)
class Checkpoint:
    t_target: float
    t_realized: float
    n: int
    field: Field


def _run_checkpoints(st: RunState, checkpoints, advance=_advance_to) -> list[Checkpoint]:
    targets = list(checkpoints)
    if not targets:
        raise ValueError("need at least one checkpoint")
    if not all(map(math.isfinite, targets)) or any(b < a for a, b in zip(targets, targets[1:])):
        raise ValueError("checkpoints must be finite and nondecreasing")
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
    rules, step counts and records, on any grid; the values agree
    with stepping to rounding."""
    return _run_checkpoints(st, checkpoints, _propagate_to)


@dataclass(frozen=True)
class SteadySolve:
    """``jumped``: the steps the closed-form first block advanced, 0 if none."""

    field: Field
    iterations: int
    residual: float
    stop_reason: Literal["converged", "stagnated", "max_steps"]
    jumped: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# steps between residual checks of the steady loop: the paper's interval, which
# defines its iteration counts
CHECK_EVERY = 64


def _residual(g, values: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """A v + b and its root-mean-square."""
    resid = laplacian(values, g.spacings) + b
    return resid, math.sqrt(math.fsum((resid * resid).ravel()) / resid.size)


def _iterate_to_steady(st: RunState, tol: float, max_steps: int) -> SteadySolve:
    """Iterate a forced run until the residual r = A v + b drops below
    ``tol``, stagnates at the rounding floor, or ``max_steps`` is reached;
    the residual is checked every `CHECK_EVERY` steps.

    k Euler steps map r to (I + dt A)^k r, so a block of k steps between
    checks adds dt * sum_{i<k} (I + dt A)^i r to v: one DCT-II pair on the
    residual the check has just computed.  Adding that small correction to v,
    rather than carrying v itself in the DCT basis, keeps the residual floor
    at stepping's level or below.

    The exact residual after n steps, IDCT(q^n DCT(r0)) with |q| <= 1, never
    grows in rms, so bisection finds the first check n* <= max_steps where it
    is <= tol; the first block jumps to n* - CHECK_EVERY, and the checked blocks
    after it stop at n* unless tol is near that large update's rounding floor.
    A stagnated solve returns the checked iterate with the smallest residual.
    """
    if not (max_steps >= 0 and tol >= 0):
        raise ValueError(f"invalid steady loop {max_steps=}, {tol=}")
    b = st.rhs.b.values
    lam = eigenvalues(st.grid)
    q = 1.0 + st.dt * lam
    r, res = _residual(st.grid, st.values, b)
    rhat = dctn(r, type=2, norm="ortho")
    cap = max_steps // CHECK_EVERY  # n* = cap + 1: out of reach, no jump
    n_star = bisect.bisect_left(range(cap + 1), True, key=lambda checks: np.linalg.norm(
        q ** (checks * CHECK_EVERY) * rhat) <= tol * math.sqrt(q.size))
    jumped = first = (n_star - 1) * CHECK_EVERY if 0 < n_star <= cap else 0
    best, stagnant = (res, st.values, st.n), 0
    # `not res <= tol` lets a nan residual through to the finiteness check
    while not res <= tol and st.n < max_steps and stagnant < 10:
        k, first = first or min(CHECK_EVERY, max_steps - st.n), 0
        gk = geometric_sum(lam, q ** k, k, st.dt)
        st.values = st.values + idctn(gk * dctn(r, type=2, norm="ortho"), type=2, norm="ortho")
        st.n += k
        _check_finite(st)
        r, res = _residual(st.grid, st.values, b)
        # the residual decays geometrically down to the rounding floor, where
        # it scatters from check to check; ten checks without a new best mean
        # the requested tol is unreachable
        stagnant = stagnant + 1 if res > best[0] * (1.0 - 1e-9) else 0
        if res < best[0]:
            best = (res, st.values, st.n)
    reason = ("converged" if res <= tol else "max_steps" if st.n >= max_steps
              else "stagnated")
    if reason == "stagnated":
        res, st.values, st.n = best
    # a best iterate from before the first block owes nothing to the jump
    return SteadySolve(st.field, st.n, res, reason, min(jumped, st.n))


def _balanced_rhs(p: ForcedProblem, g: Grid, consequence: str = "") -> DiscreteRHS:
    """`build_rhs`, refused before it is assembled when the balance per unit
    volume, which is mean(b), does not vanish: the problem has no steady state."""
    m = _balance_per_volume(p, g)
    if abs(m) > 1e-10:
        raise IncompatibleProblemError(f"balance per volume, mean(b), is {m:.3e}{consequence}")
    return build_rhs(p, g)


def _solve_steady(p: ForcedProblem, g: Grid, dt: float, v0: Field,
                  tol: float, max_steps: int) -> SteadySolve:
    rhs = _balanced_rhs(p, g, "; steady iteration would drift")
    return _iterate_to_steady(new_run(g, dt, v0, rhs), tol, max_steps)


def solve_steady_iterative(p: ForcedProblem, g: Grid, dt: float, v0: Field,
                           tol: float = 1e-10, max_steps: int = 50_000_000) -> SteadySolve:
    """Run the Euler iteration on any grid until the residual ||A v + b||,
    checked every `CHECK_EVERY` steps, drops below ``tol``: to the exact-arithmetic
    count when it is within ``max_steps``, then checked blocks (`_iterate_to_steady`).
    The mean stays at v0's, and ``stop_reason`` says whether it converged,
    stagnated (the best checked iterate is returned) or hit ``max_steps``.

    An unbalanced right-hand side would drift forever, so it is rejected.
    """
    return _solve_steady(p, g, dt, v0, tol, max_steps)


def solve_steady_laplace(p: ForcedProblem, g: Grid, s: float) -> Field:
    """Direct solve of the shifted system (s*Id - A) v = b on a 1D grid.

    The shift makes the singular Neumann system definite; the solution has
    zero discrete mean and approaches the zero-mean steady state at rate O(s).
    The matrix is symmetric positive definite and tridiagonal: LAPACK dptsv.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"shift must be positive and finite, got s={s}")
    rhs = _balanced_rhs(p, g)
    inv_dx2 = 1.0 / g.dx ** 2
    diag = np.full(g.J, s + 2.0 * inv_dx2)
    diag[0] = diag[-1] = s + inv_dx2
    _, _, v, info = dptsv(diag, np.full(g.J - 1, -inv_dx2), rhs.b.values)
    if info != 0:
        raise np.linalg.LinAlgError(f"dptsv failed with info={info}")
    # the kernel direction amplifies the float residue of mean(b) by 1/s;
    # re-anchor it (this perturbs the residual by only s * mean(v) = mean(b))
    v -= math.fsum(v) / g.J
    return Field(g, v)
