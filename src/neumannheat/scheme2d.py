"""The forced problem on a rectangle under its two-axis names, over the code of
`scheme1d`: `build_rhs2d`, `run2d_to` and `solve_steady_2d` stay separate
functions so that bench/tracing.py, which records spans under each entry
point's name, tells 2D calls from 1D calls; `bench/` also reads `grid.grid_for` here."""

from __future__ import annotations

from typing import Callable

from .grid import Field, Grid, grid_for
from .scheme1d import (Checkpoint, DiscreteRHS, ForcedProblem, RunState, SteadySolve,
                       _build_rhs, _run_checkpoints, _solve_steady)

__all__ = ["Problem2D", "build_rhs2d", "run2d_to", "solve_steady_2d", "grid_for"]


def Problem2D(f: Callable, g1: Callable, g2: Callable, Lx: float, Ly: float) -> ForcedProblem:
    """Source f on [0, Lx] x [0, Ly], u_x = g1 on the vertical sides, u_y = g2 on the others."""
    return ForcedProblem(f, (g2, g1), (Ly, Lx))


def build_rhs2d(p: ForcedProblem, g: Grid) -> DiscreteRHS:
    """`scheme1d.build_rhs`."""
    return _build_rhs(p, g)


def run2d_to(st: RunState, checkpoints) -> list[Checkpoint]:
    """`scheme1d.run_to`."""
    return _run_checkpoints(st, checkpoints)


def solve_steady_2d(p: ForcedProblem, g: Grid, dt: float, v0: Field,
                    tol: float = 1e-10, max_steps: int = 50_000_000) -> SteadySolve:
    """`scheme1d.solve_steady_iterative`."""
    return _solve_steady(p, g, dt, v0, tol, max_steps)
