"""The forced Neumann problem on a rectangle: its data, the flux/source
balance, the discrete right-hand side and the steady-state iteration.

The operator is `spectral.laplacian`, the Kronecker sum of the 1D stencil over
the axes of any grid, so the constant field spans its kernel and the flux
pattern of the 1D right-hand side applies per boundary face; corner nodes
accumulate both face contributions.  The stability rule is the one of every
grid, `spectral.cfl_ok`: dt * (1/dx^2 + 1/dy^2) <= 1/2 here.

Runs, checkpoints and the steady iteration are those of `scheme1d`, which
work on grids of any number of axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IncompatibleProblemError
from .grid import Field, Grid, Grid2D, project
from .scheme1d import (Checkpoint, DiscreteRHS, RunState, SteadySolve,
                       _iterate_to_steady, _run_checkpoints, new_run)

__all__ = [
    "Problem2D", "build_rhs2d", "run2d_to", "solve_steady_2d",
    "balance_residual_2d", "grid_for",
]

# the balance quadrature: 16 composite Gauss-Legendre panels of 24 points
_PANELS = 16
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


def _panel_rule(a: float, b: float):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]."""
    edges = np.linspace(a, b, _PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GX
    return nodes.ravel(), (half * _GW).ravel()


def balance_residual_2d(p: Problem2D) -> float:
    """Net flux/source imbalance: integral of f plus the boundary flux of the
    would-be steady state; zero for solvable problems.  The source integral
    evaluates f once on the tensor product of the two composite rules."""
    x, wx = _panel_rule(0.0, p.Lx)
    y, wy = _panel_rule(0.0, p.Ly)
    fint = wy @ np.asarray(p.f(x[None, :], y[:, None]), dtype=float) @ wx
    flux = (wy @ (np.asarray(p.g1(p.Lx, y), dtype=float) - p.g1(0.0, y))
            + wx @ (np.asarray(p.g2(x, p.Ly), dtype=float) - p.g2(x, 0.0)))
    return float(fint + flux)


def grid_for(Jx: int, Lx: float, Ly: float) -> Grid:
    """Choose Jy so that dy matches dx as closely as the lattice allows."""
    Jy = round((Ly / Lx) * (Jx - 1)) + 1
    return Grid2D(Jx, Jy, Lx, Ly)


def build_rhs2d(p: Problem2D, g: Grid) -> DiscreteRHS:
    """Sampled source plus per-face flux terms, then a uniform shift r so the
    discrete mean vanishes exactly."""
    b = project(g, p.f).values.copy()
    x = g.nodes_x()
    y = g.nodes_y()
    b[:, 0] -= np.asarray(p.g1(0.0, y), dtype=float) / g.dx
    b[:, -1] += np.asarray(p.g1(p.Lx, y), dtype=float) / g.dx
    b[0, :] -= np.asarray(p.g2(x, 0.0), dtype=float) / g.dy
    b[-1, :] += np.asarray(p.g2(x, p.Ly), dtype=float) / g.dy
    r = -math.fsum(b.ravel()) / (g.Jx * g.Jy)
    b += r
    return DiscreteRHS(Field(g, b), r)


def run2d_to(st: RunState, checkpoints) -> list[Checkpoint]:
    """2D entry point of the checkpointed run: the loop of `scheme1d.run_to`,
    kept a separate function so that bench/tracing.py, which counts kernel
    steps under their caller, tells 2D steps from 1D steps."""
    return _run_checkpoints(st, checkpoints)


def solve_steady_2d(p: Problem2D, g: Grid, dt: float, v0: Field,
                    tol: float = 1e-10, max_steps: int = 50_000_000) -> SteadySolve:
    """Euler iteration v <- v + dt*(A v + b) down to residual ``tol``, by the
    loop of `scheme1d.solve_steady_iterative` (residual checked every 64
    steps, best checked iterate on stagnation); the mean of the iterate stays
    at the initial mean.

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
    return _iterate_to_steady(new_run(g, dt, v0, rhs), tol, max_steps)
