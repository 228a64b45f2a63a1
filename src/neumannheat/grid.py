"""Uniform node-centered grids on a box of any number of axes, and the discrete
geometry built on them.

Along each axis a grid places J nodes x_j = j*h, j = 0..J-1, with h = L/(J-1),
so the first and last nodes sit exactly on the interval ends: `Grid.coordinates`,
read by `project` and by `scheme1d.build_rhs`.  Shapes,
lengths and spacings are listed in array-axis order with x last, so a field's
values[..., iy, ix] is v(x_ix, y_iy, ...).  `Grid1D(J, L)` and
`Grid2D(Jx, Jy, Lx, Ly)` build the one- and two-axis grids.

All discrete norms use the scaled inner product <v, w> = (1/N) * sum v w over
the N nodes; sums are accumulated with compensated (exact) summation so results
are bit-stable across runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid", "Field", "Grid1D", "Field1D", "Grid2D", "Field2D", "check_grid",
    "exact_sum", "inner", "mean", "norm_l2", "sample", "project", "ones",
    "mean2d", "norm2d", "project2d",
]

_SUM_BLOCK = 16384  # entries `exact_sum` turns into one list at a time: about 0.5 MB


@dataclass(frozen=True)
class Grid:
    """Equispaced nodes on a box, endpoints included; ``shape``, ``lengths``
    and the derived ``spacings`` are in array-axis order, x last."""

    shape: tuple
    lengths: tuple
    spacings: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape, lengths = tuple(self.shape), tuple(self.lengths)
        if not shape or len(shape) != len(lengths):
            raise ValueError(f"need one length per axis, got shape {shape}, lengths {lengths}")
        try:  # a count such as 3.5 would place nodes past the interval end
            shape = tuple([operator.index(J) for J in shape])
        except TypeError:
            raise ValueError(f"node counts must be integers, got shape {shape}") from None
        if min(shape) < 2:
            raise ValueError(f"need at least 2 nodes per axis, got shape {shape}")
        if not all([0 < L < math.inf for L in lengths]):
            raise ValueError(
                f"every interval length must be positive and finite, got {lengths}")
        spacings = tuple([L / (J - 1) for J, L in zip(shape, lengths)])
        # the stencil and the stability rule divide by h^2, the spectrum reaches
        # -4 sum 1/h^2, and the balance is divided by N times the cell volume
        if not (all([0 < h * h < math.inf for h in spacings])
                and 4 * sum([1 / (h * h) for h in spacings]) < math.inf
                and 0 < math.prod(shape) * math.prod(spacings) < math.inf):
            raise ValueError(f"every spacing's square and its reciprocal must be "
                             f"positive and finite, and so must 4 * sum(1/h^2) and "
                             f"N * cell volume, got spacings {spacings}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "spacings", spacings)

    # the x axis is the last array axis, y the one before it
    Jx = property(lambda g: g.shape[-1])
    Lx = property(lambda g: g.lengths[-1])
    dx = property(lambda g: g.spacings[-1])
    Jy = property(lambda g: g.shape[-2])
    Ly = property(lambda g: g.lengths[-2])
    dy = property(lambda g: g.spacings[-2])

    # J and L are the node count and length of a one-axis grid; the 1D
    # spectral formulas read them, so other grids refuse them
    @property
    def J(self) -> int:
        (J,) = self.shape
        return J

    @property
    def L(self) -> float:
        (L,) = self.lengths
        return L

    def coordinates(self) -> list:
        """Each axis's node coordinates j*h, in array-axis order."""
        return [np.arange(J) * h for J, h in zip(self.shape, self.spacings)]

    def nodes(self) -> np.ndarray:
        """The x coordinates of the nodes."""
        return self.coordinates()[-1]


def Grid1D(J: int, L: float) -> Grid:
    """J nodes on [0, L]."""
    return Grid((J,), (L,))


def Grid2D(Jx: int, Jy: int, Lx: float, Ly: float) -> Grid:
    """Jx*Jy nodes on [0, Lx] x [0, Ly]; fields are stored as values[iy, ix]."""
    return Grid((Jy, Jx), (Ly, Lx))


@dataclass(eq=False)
class Field:
    """Nodal values of a real function on a grid; the values array has the
    grid's shape."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field has shape {self.values.shape}, grid has shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")


Field1D = Field2D = Field


def check_grid(g: Grid, *fields: Field) -> None:
    """Raise GridMismatchError unless every field lives on ``g``."""
    for v in fields:
        if v.grid != g:
            raise GridMismatchError(f"field on {v.grid} does not live on {g}")


def exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a.ravel())``, fed as Python floats (which it reads several times
    faster) one `_SUM_BLOCK` of entries at a time: exactly rounded, in flat memory."""
    flat = a.ravel()
    if flat.size <= _SUM_BLOCK:
        return math.fsum(flat.tolist())
    return math.fsum(itertools.chain.from_iterable(
        flat[i:i + _SUM_BLOCK].tolist() for i in range(0, flat.size, _SUM_BLOCK)))


def inner(v: Field, w: Field) -> float:
    """Scaled inner product (1/N) sum v w over the N nodes, exactly rounded."""
    check_grid(v.grid, w)
    return exact_sum(v.values * w.values) / v.values.size


def mean(v: Field) -> float:
    """Discrete mean value (1/N) sum v (the summation of `inner`)."""
    return exact_sum(v.values) / v.values.size


def norm_l2(v: Field) -> float:
    return math.sqrt(inner(v, v))


def ones(g: Grid) -> Field:
    return Field(g, np.ones(g.shape))


def sample(f, points) -> np.ndarray:
    """f on the tensor product of the per-axis ``points`` (array-axis order, x
    last), called x first with one coordinate array per axis, each shaped to
    broadcast against the others: the k-th axis from the end (x is the 0th)
    has k trailing unit axes.  A number f is constant, and a result with fewer
    axes (a callable that ignores an axis) is broadcast into a writable copy."""
    shape = tuple(map(len, points))
    if not callable(f):
        return np.full(shape, f, dtype=float)
    coords = [np.asarray(x).reshape((-1,) + (1,) * k) for k, x in enumerate(points[::-1])]
    vals = np.asarray(f(*coords), dtype=float)
    return vals if vals.shape == shape else np.array(np.broadcast_to(vals, shape))


def project(g: Grid, f) -> Field:
    """Sample f (a callable or a number) at the grid nodes by `sample`:
    (project f)[..., iy, ix] = f(x_ix, y_iy, ...)."""
    return Field(g, sample(f, g.coordinates()))


# the two-axis names that bench/ reads; ROADMAP item 8 removes them
mean2d, norm2d, project2d = mean, norm_l2, project
