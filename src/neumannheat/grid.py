"""Uniform node-centered grids on a box of any number of axes, and the discrete
geometry built on them.

Along each axis a grid places J nodes x_j = j*h, j = 0..J-1, with h = L/(J-1),
so the first and last nodes sit exactly on the interval ends: `Grid.coordinates`,
read by `project` and by `scheme1d.build_rhs`.  Shapes,
lengths and spacings are listed in array-axis order with x last, so a field's
values[..., iy, ix] is v(x_ix, y_iy, ...).  `Grid1D(J, L)` builds a one-axis
grid, and `grid_for(Jx, Lx, Ly, ...)` a grid whose further axes match dx.

All discrete norms use the scaled inner product <v, w> = (1/N) * sum v w over
the N nodes; every sum is `exact_sum`, the exactly rounded `math.fsum` value,
which on large arrays, and in `exact_sums` on each row of an array, comes
from vectorised error-free extraction rather than Python floats, so results
are bit-stable across runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from sys import float_info

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid", "Field", "Grid1D", "Field1D", "Field2D", "grid_for", "check_grid",
    "exact_sum", "exact_sums", "inner", "mean", "norm_l2", "sample", "project", "ones",
    "mean2d", "norm2d", "project2d",
]

_SUM_BLOCK = 16384  # widest list `exact_sum` hands fsum, widest row it or `exact_sums` extracts


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
        if not all([2 <= J <= float_info.max for J in shape]):  # float(J) of a larger J overflows
            raise ValueError(f"need 2 to {float_info.max:g} nodes per axis, got shape {shape}")
        if not all([0 < L < math.inf for L in lengths]):
            raise ValueError(
                f"every interval length must be positive and finite, got {lengths}")
        spacings = tuple([L / (J - 1) for J, L in zip(shape, lengths)])
        # the stencil and the stability rule divide by h^2, the spectrum reaches
        # -4 sum 1/h^2, and the balance is divided by N times the cell volume
        if not (all([0 < h * h < math.inf for h in spacings])
                and 4 * sum([1 / (h * h) for h in spacings]) < math.inf
                and 0 < math.prod(map(float, shape)) * math.prod(spacings) < math.inf):
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


def grid_for(Jx: int, Lx: float, *lengths: float) -> Grid:
    """Jx nodes on [0, Lx] and, on each further axis of ``lengths`` (y, z, ...),
    the J whose spacing best matches dx: round((L / Lx) * (Jx - 1)) + 1."""
    Grid((Jx,), (Lx,))  # refuses Jx and Lx before the spans; Grid refuses a span past the floats
    shape = [round(min((L / Lx) * (Jx - 1), float_info.max)) + 1 for L in lengths]
    return Grid((*shape[::-1], Jx), (*lengths[::-1], Lx))


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
    """``math.fsum(a.ravel())``, bit for bit.  Beyond `_SUM_BLOCK` entries, rows of
    `_SUM_BLOCK` (zero-padded) are summed by error-free extraction (Rump, Ogita &
    Oishi, SIAM J. Sci. Comput. 31, 2008): with 2^e > the row's max |p| and
    sigma = 2^15 * 2^e, each q = (p + sigma) - sigma is a multiple of 2^-53 sigma
    with |q| <= 2^e, so the row sum of q in any order, and p - q, are exact; fsum
    rounds the row sums once every row is zero.  Entries that are not finite or
    reach 2^1000 go to fsum as Python floats, so its errors are raised as before."""
    flat = a.ravel()
    if flat.size <= _SUM_BLOCK:
        return math.fsum(flat.tolist())
    rows = np.zeros((-(-flat.size // _SUM_BLOCK), _SUM_BLOCK))
    rows.ravel()[:flat.size] = flat
    q, parts = np.empty_like(rows), []
    while (mu := np.abs(rows, out=q).max(axis=1)).any():
        if not mu.max() < 2.0 ** 1000:  # nan, inf, or sums that may overflow
            return math.fsum(itertools.chain.from_iterable(
                flat[i:i + _SUM_BLOCK].tolist() for i in range(0, flat.size, _SUM_BLOCK)))
        sigma = np.ldexp(1.0, np.frexp(mu)[1] + 15)[:, None]  # 2^15 >= _SUM_BLOCK + 2
        np.subtract(np.add(rows, sigma, out=q), sigma, out=q)
        parts += q.sum(axis=1).tolist()
        rows -= q
    return math.fsum(parts)


def exact_sums(a: np.ndarray) -> np.ndarray:
    """``exact_sum`` of each row of ``a`` along its last axis, shaped ``a.shape[:-1]``,
    bit for bit, from one vectorised pass instead of a Python float per entry.  Per
    row, as in `exact_sum`, q = (p + sigma) - sigma and r = p - q are exact, and so
    is t = sum q in any order.  s = fl(sum r), in any order, is within
    gamma_{n-1} sum|r| < 2^-52 n fl(sum|r|) of sum r for n entries (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 4.2): that product,
    rounded once, is the bound, plus 2^-1022 in case it underflows.  TwoSum
    gives res + err = t + s exactly, so the row sum is within |err| + bound
    of res, and rounds to res when that is strictly below half the gap from
    |res| down to its neighbour, the smaller gap (half the upper one when |res|
    is a power of two); rounding is monotone, so the rounded left side may be
    compared.  Other rows go to `exact_sum`: res == 0 (fsum picks the sign
    of zero); a max |p| that is not finite or reaches 2^1000 (fsum raises as
    before) or is below 2^-900 (near where 2^-1022 outweighs the gap); near
    ties; and all of them when rows are empty or longer than `_SUM_BLOCK`."""
    n, res, sure = a.shape[-1], np.zeros(a.shape[:-1]), np.zeros(a.shape[:-1], bool)
    if 0 < n <= _SUM_BLOCK:
        w = np.abs(a)  # |p|, then q, then r = p - q, then |r|
        mu = w.max(axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):  # the rows that go to exact_sum
            sigma = np.ldexp(1.0, np.frexp(mu)[1] + 15)[..., None]
            t = np.subtract(np.add(a, sigma, out=w), sigma, out=w).sum(axis=-1)
            s = np.subtract(a, w, out=w).sum(axis=-1)
            bound = np.abs(w, out=w).sum(axis=-1) * (n * 2.0 ** -52) + 2.0 ** -1022
            res[...] = t + s  # in place: res and sure stay arrays when a is 1D
            z = res - t
            err = (t - (res - z)) + (s - z)
            r = np.abs(res)  # r - nextafter(r, 0) is 0 when res == 0
            sure[...] = ((np.abs(err) + bound < (r - np.nextafter(r, 0.0)) / 2)
                    & (2.0 ** -900 <= mu) & (mu < 2.0 ** 1000))
    res[~sure] = [exact_sum(row) for row in a[~sure]]  # in row order: the first error raises
    return res


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
