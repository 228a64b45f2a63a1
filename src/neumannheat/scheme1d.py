"""Explicit Euler time stepping for the Neumann heat problem on grids of any
number of axes, the forced problem with its right-hand side, and the steady
solvers (long-time iteration; a shifted direct solve in 1D).

The update is v <- v + dt * (A v + b), A the matrix-free Neumann stencil, b
shifted so that N * dV * mean(b) is the flux/source balance that a
`ForcedProblem` integrates once, when it is made: a balanced run
conserves its mean and converges to the steady state with that mean; an
unbalanced one drifts at exactly mean(b), and the steady solvers refuse it.
`scheme2d` keeps two-axis names over this code for `bench/`.

Runs step with the one numpy loop of `_kernels`: the reference for `propagate`, one
`spectral.dctn`/`idctn` pair per checkpoint, and for the steady loop, a jump to its
exact-arithmetic count, then one pair per checked block.  Everything runs on numpy alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from . import _kernels
from .errors import GridMismatchError, IncompatibleProblemError, InstabilityError
from .grid import Field, Grid, check_grid, exact_sum, sample
from .spectral import dctn, eigenvalues, geometric_sum, idctn, laplacian, power, require_stable

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
    # a value that is not finite, or a flux/h or sum that overflows, makes all of b not finite
    with np.errstate(invalid="ignore", over="ignore"):
        for axis, flux, (ends, _) in _axes(p):
            term = sample(flux, coords[:axis] + [ends] + coords[axis + 1:]) / g.spacings[axis]
            low, high = [(slice(None),) * axis + (end,) for end in (0, -1)]
            b[low] -= term[low]
            b[high] += term[high]
        r = _balance_per_volume(p, g) - exact_sum(b) / b.size  # fsum refuses inf - inf
        b += r
    return DiscreteRHS(Field(g, b), r)  # and `Field` refuses it


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
        qk = power(1.0 + st.dt * lam, k)
        vhat = qk * dctn(st.values)
        if st.rhs is not None:
            vhat += geometric_sum(lam, qk, k, st.dt) * dctn(st.rhs.b.values)
        st.values = idctn(vhat)
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
    if (not all(0 <= t / st.dt < math.inf for t in targets)  # round(t / dt) of inf overflows
            or any(b < a for a, b in zip(targets, targets[1:]))):
        raise ValueError("checkpoints must be finite, nonnegative and nondecreasing (t/dt finite)")
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


def _residual(g, values: np.ndarray, b: np.ndarray, s: float = 0.0) -> tuple[np.ndarray, float]:
    """s v - A v - b and its rms; a non-finite rms, as from a non-finite v, is refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        resid = s * values - laplacian(values, g.spacings) - b
        squares = resid * resid
    try:
        rms = math.sqrt(exact_sum(squares) / resid.size)
    except OverflowError:  # math.fsum's intermediate overflow
        rms = math.inf
    if not math.isfinite(rms):
        raise InstabilityError(f"steady residual rms is {rms}")
    return resid, rms


def _iterate_to_steady(st: RunState, tol: float, max_steps: int) -> SteadySolve:
    """Iterate a forced run until the residual r = -(A v + b) drops below
    ``tol``, stagnates at the rounding floor, or ``max_steps`` is reached;
    the residual is checked every `CHECK_EVERY` steps.

    k Euler steps map r to (I + dt A)^k r, so a block of k steps between
    checks subtracts dt * sum_{i<k} (I + dt A)^i r from v: one DCT-II pair on the
    residual the check has just computed.  Applying that small correction to v,
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
    rhat = dctn(r)
    cap = max_steps // CHECK_EVERY  # n* = cap + 1: out of reach, no jump
    n_star = bisect.bisect_left(range(cap + 1), True, key=lambda checks: np.linalg.norm(
        power(q, checks * CHECK_EVERY) * rhat) <= tol * math.sqrt(q.size))
    jumped = first = (n_star - 1) * CHECK_EVERY if 0 < n_star <= cap else 0
    best, stagnant = (res, st.values, st.n), 0
    while res > tol and st.n < max_steps and stagnant < 10:
        k, first = first or min(CHECK_EVERY, max_steps - st.n), 0
        gk = geometric_sum(lam, power(q, k), k, st.dt)
        st.values = st.values - idctn(gk * dctn(r))
        st.n += k
        r, res = _residual(st.grid, st.values, b)  # refuses non-finite values too
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

    An unbalanced right-hand side would drift forever, so it is rejected; a
    residual whose rms is not finite raises `InstabilityError`.
    """
    return _solve_steady(p, g, dt, v0, tol, max_steps)


def _solve_shifted(x: np.ndarray, s: float, c: float) -> None:
    """Solve (s Id - A) v = x in place, A the 1D Neumann stencil with 1/dx^2 = c, by
    odd-even cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970):
    Gaussian elimination on a symmetric permutation, so a definite matrix has positive
    pivots.  The odd rows eliminated are interior but, for an even count, the last, so
    each level is one off-diagonal e, three diagonals (first, interior, last) and x."""
    singular = np.linalg.LinAlgError(f"the shifted system is singular in floating point: s={s} "
                                     f"vanishes against 2/dx^2={2 * c:.6g}")  # a ValueError
    if s + c == c:  # else the stored matrix is irreducibly diagonally dominant
        raise singular
    d0, d, dl, e = s + c, s + 2.0 * c, s + c, -c
    work, levels = np.empty(x.size // 2), []
    while (n := x.size) > 1:
        if not min(d0, d, dl) > 0:
            raise singular
        even, odd = x[0::2], x[1::2]
        r, rl = e / d, e / dl
        w = np.multiply(odd, r, out=work[:odd.size])
        if n % 2 == 0:  # the last row is eliminated
            w[-1] = odd[-1] * rl
        even[:odd.size] -= w
        even[1:] -= w[:even.size - 1]
        levels.append((x, d, dl, e))
        d0, d, dl = (d0 - e * (rl if n == 2 else r), d - 2.0 * e * r,
                     dl - e * r if n % 2 else d - e * (r + rl))
        e, x = -e * r, even
    if not d0 > 0:
        raise singular
    x /= d0
    for x, d, dl, e in reversed(levels):
        even, odd = x[0::2], x[1::2]
        k = even.size - 1  # the odd rows between two even ones
        if x.size % 2 == 0:
            odd[-1] = (odd[-1] - e * even[-1]) / dl
        t = np.add(even[:k], even[1:], out=work[:k])
        t *= e
        odd[:k] -= t
        odd[:k] /= d


def solve_steady_laplace(p: ForcedProblem, g: Grid, s: float) -> Field:
    """Direct solve of the shifted system (s*Id - A) v = b on a 1D grid.

    The shift makes the singular Neumann system definite; the solution has
    zero discrete mean and approaches the zero-mean steady state at rate O(s).
    The matrix is symmetric positive definite and tridiagonal: `_solve_shifted`.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"shift must be positive and finite, got s={s}")
    if len(g.shape) != 1:
        raise ValueError(f"the shifted solve needs a grid of one axis, got shape {g.shape}")
    v = _balanced_rhs(p, g).b.values  # local to this call: solved in place
    _solve_shifted(v, s, 1.0 / g.dx ** 2)
    # the kernel direction amplifies the float residue of mean(b) by 1/s;
    # re-anchor it (this perturbs the residual by only s * mean(v) = mean(b))
    v -= exact_sum(v) / g.J
    return Field(g, v)
