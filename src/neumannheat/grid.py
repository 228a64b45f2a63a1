"""Uniform node-centered grids and the discrete geometry built on them.

The 1D grid places J nodes x_j = j*dx, j = 0..J-1, with dx = L/(J-1), so the
first and last nodes sit exactly on the interval ends.  All discrete norms use
the scaled inner product <v, w> = (1/J) * sum_j v_j w_j; sums are accumulated
with compensated (exact) summation so results are bit-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid1D", "Field1D", "Grid2D", "Field2D",
    "inner", "mean", "norm_l2", "project", "ones",
    "inner2d", "mean2d", "norm2d", "project2d", "ones2d",
]


@dataclass(frozen=True)
class Grid1D:
    """J equispaced nodes on [0, L], endpoints included."""

    J: int
    L: float

    def __post_init__(self):
        if self.J < 2:
            raise ValueError(f"need at least 2 nodes, got J={self.J}")
        if not self.L > 0:
            raise ValueError(f"interval length must be positive, got L={self.L}")

    @property
    def dx(self) -> float:
        return self.L / (self.J - 1)

    @property
    def shape(self) -> tuple:
        return (self.J,)

    @property
    def spacings(self) -> tuple:
        return (self.dx,)

    def nodes(self) -> np.ndarray:
        return np.arange(self.J) * self.dx

    def node(self, j: int) -> float:
        if not 0 <= j < self.J:
            raise IndexError(f"node index {j} out of range for J={self.J}")
        return j * self.dx


@dataclass(eq=False)
class Field1D:
    """Nodal values of a real function on a Grid1D (and, as `Field2D`, on a
    Grid2D); the values array has the grid's shape."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field has shape {self.values.shape}, grid has shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def copy(self):
        return type(self)(self.grid, self.values.copy())


def _same_grid(v: Field1D, w: Field1D) -> None:
    if v.grid != w.grid:
        raise GridMismatchError(f"fields on different grids: {v.grid} vs {w.grid}")


def inner(v: Field1D, w: Field1D) -> float:
    """Scaled inner product (1/J) sum_j v_j w_j, exactly rounded; J counts
    all nodes, so it serves 2D fields as well."""
    _same_grid(v, w)
    return math.fsum((v.values * w.values).ravel()) / v.values.size


def mean(v: Field1D) -> float:
    """Discrete mean value (1/J) sum_j v_j (same summation as `inner`, so it
    serves 2D fields as well)."""
    return math.fsum(v.values.ravel()) / v.values.size


def norm_l2(v: Field1D) -> float:
    return math.sqrt(inner(v, v))


def ones(g: Grid1D) -> Field1D:
    return Field1D(g, np.ones(g.J))


def project(g: Grid1D, w: Callable) -> Field1D:
    """Sample a function at the grid nodes: (project w)_j = w(x_j)."""
    x = g.nodes()
    vals = np.asarray(w(x), dtype=float)
    if vals.shape != x.shape:
        # scalar-only callable
        vals = np.array([float(w(xj)) for xj in x])
    return Field1D(g, vals)


@dataclass(frozen=True)
class Grid2D:
    """Tensor lattice of Jx*Jy nodes on [0, Lx] x [0, Ly]."""

    Jx: int
    Jy: int
    Lx: float
    Ly: float

    def __post_init__(self):
        if self.Jx < 2 or self.Jy < 2:
            raise ValueError(f"need at least 2 nodes per direction, got {self.Jx}x{self.Jy}")
        if not (self.Lx > 0 and self.Ly > 0):
            raise ValueError("side lengths must be positive")

    @property
    def dx(self) -> float:
        return self.Lx / (self.Jx - 1)

    @property
    def dy(self) -> float:
        return self.Ly / (self.Jy - 1)

    @property
    def shape(self) -> tuple:
        """Array shape of a field, (Jy, Jx), matching values[iy, ix]."""
        return (self.Jy, self.Jx)

    @property
    def spacings(self) -> tuple:
        """Node spacing per array axis: (dy, dx)."""
        return (self.dy, self.dx)

    def nodes_x(self) -> np.ndarray:
        return np.arange(self.Jx) * self.dx

    def nodes_y(self) -> np.ndarray:
        return np.arange(self.Jy) * self.dy

    def mesh(self):
        """(X, Y) arrays of shape (Jy, Jx); the x index varies fastest in memory."""
        return np.meshgrid(self.nodes_x(), self.nodes_y())


class Field2D(Field1D):
    """Nodal values on a Grid2D, stored as values[iy, ix] = v(x_ix, y_iy)."""


inner2d = inner


def mean2d(v: Field2D) -> float:
    return math.fsum(v.values.ravel()) / (v.grid.Jx * v.grid.Jy)


def norm2d(v: Field2D) -> float:
    return math.sqrt(inner2d(v, v))


def ones2d(g: Grid2D) -> Field2D:
    return Field2D(g, np.ones((g.Jy, g.Jx)))


def project2d(g: Grid2D, f: Callable) -> Field2D:
    """Sample f(x, y) at the tensor lattice."""
    X, Y = g.mesh()
    vals = np.asarray(f(X, Y), dtype=float)
    if vals.shape != X.shape:
        vals = np.array([[float(f(x, y)) for x in g.nodes_x()] for y in g.nodes_y()])
    return Field2D(g, vals)
