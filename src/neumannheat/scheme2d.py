"""Five-point Neumann Laplacian on a rectangle and the 2D explicit Euler
steady-state iteration.

The operator is the additive (Kronecker-sum) combination of the 1D stencil in
each direction, so the constant field spans its kernel and the flux pattern of
the 1D right-hand side applies per boundary face; corner nodes accumulate both
face contributions.  Stability requires dt * (1/dx^2 + 1/dy^2) <= 1/2, which
reduces to the 1D rule when one spacing becomes infinite.

Runs, checkpoints and the steady iteration are those of `scheme1d`, which
works on 2D fields as well; the 2D names below are aliases of the 1D ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IncompatibleProblemError
from .grid import Field2D, Grid2D
from .scheme1d import (Checkpoint, DiscreteRHS, RunState, SteadySolve,
                       _iterate_to_steady, _run_checkpoints, new_run)
from .spectral import cfl2d, laplacian

__all__ = [
    "Problem2D", "Rhs2D", "apply2d", "cfl2d", "build_rhs2d",
    "Run2D", "new_run2d", "run2d_to", "solve_steady_2d",
    "balance_residual_2d", "Checkpoint2D", "SteadySolve2D", "grid_for",
]

Run2D = RunState
Checkpoint2D = Checkpoint
SteadySolve2D = SteadySolve
Rhs2D = DiscreteRHS
new_run2d = new_run

# composite Gauss-Legendre panels for the balance quadrature
_GX, _GW = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class Problem2D:
    """Source f on the rectangle, flux g1 on the vertical sides (x-normal) and
    g2 on the horizontal sides (y-normal); both fluxes are x/y-derivative
    data, not outward-normal data."""

    f: Callable
    g1: Callable
    g2: Callable
    Lx: float
    Ly: float


def _panel_rule(a: float, b: float, panels: int):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GX
    return nodes.ravel(), (half * _GW).ravel()


def balance_residual_2d(p: Problem2D, panels: int = 16) -> float:
    """Net flux/source imbalance: integral of f plus the boundary flux of the
    would-be steady state; zero for solvable problems.  The source integral
    evaluates f once on the tensor product of the two composite rules."""
    x, wx = _panel_rule(0.0, p.Lx, panels)
    y, wy = _panel_rule(0.0, p.Ly, panels)
    fint = wy @ np.asarray(p.f(x[None, :], y[:, None]), dtype=float) @ wx
    flux = (wy @ (np.asarray(p.g1(p.Lx, y), dtype=float) - p.g1(0.0, y))
            + wx @ (np.asarray(p.g2(x, p.Ly), dtype=float) - p.g2(x, 0.0)))
    return float(fint + flux)


def grid_for(Jx: int, Lx: float, Ly: float) -> Grid2D:
    """Choose Jy so that dy matches dx as closely as the lattice allows."""
    Jy = round((Ly / Lx) * (Jx - 1)) + 1
    return Grid2D(Jx, Jy, Lx, Ly)


def apply2d(g: Grid2D, v: Field2D) -> Field2D:
    """Additive application of the 1D Neumann stencil along x and along y."""
    if v.grid != g:
        raise ValueError("field does not live on this grid")
    return Field2D(g, laplacian(v.values, g.spacings))


def build_rhs2d(p: Problem2D, g: Grid2D) -> Rhs2D:
    """Sampled source plus per-face flux terms, then a uniform shift r so the
    discrete mean vanishes exactly."""
    X, Y = g.mesh()
    b = np.asarray(p.f(X, Y), dtype=float).copy()
    x = g.nodes_x()
    y = g.nodes_y()
    b[:, 0] -= np.asarray(p.g1(0.0, y), dtype=float) / g.dx
    b[:, -1] += np.asarray(p.g1(p.Lx, y), dtype=float) / g.dx
    b[0, :] -= np.asarray(p.g2(x, 0.0), dtype=float) / g.dy
    b[-1, :] += np.asarray(p.g2(x, p.Ly), dtype=float) / g.dy
    r = -math.fsum(b.ravel()) / (g.Jx * g.Jy)
    b += r
    return Rhs2D(Field2D(g, b), r)


def run2d_to(st: Run2D, checkpoints) -> list[Checkpoint2D]:
    """2D entry point of the checkpointed run: the loop of `scheme1d.run_to`,
    kept a separate function so that bench/tracing.py, which counts kernel
    steps under their caller, tells 2D steps from 1D steps."""
    return _run_checkpoints(st, checkpoints)


def solve_steady_2d(p: Problem2D, g: Grid2D, dt: float, v0: Field2D,
                    tol: float = 1e-10, max_steps: int = 50_000_000,
                    check_every: int = 64) -> SteadySolve2D:
    """Euler iteration v <- v + dt*(A v + b) down to residual ``tol``; the
    mean of the iterate stays at the initial mean.

    `build_rhs2d` shifts b to zero mean whatever the data, so a problem with
    no steady state is recognised from the continuous balance instead and
    rejected, as the 1D solver rejects a nonzero mean(b).
    """
    imbalance = balance_residual_2d(p) / (p.Lx * p.Ly)
    if abs(imbalance) > 1e-10:
        raise IncompatibleProblemError(
            f"flux/source balance residual per unit area is {imbalance:.3e}; "
            "no steady state exists")
    rhs = build_rhs2d(p, g)
    return _iterate_to_steady(new_run2d(g, dt, v0, rhs), tol, max_steps, check_every)
