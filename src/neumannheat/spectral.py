"""The discrete Neumann Laplacian, its closed-form eigenpairs, and the
amplification / spectral-sum bounds used by the stability analysis.

The operator acts matrix-free in O(J):

    (A v)_0     = (v_1 - v_0) / dx^2
    (A v)_j     = (v_{j-1} - 2 v_j + v_{j+1}) / dx^2     (0 < j < J-1)
    (A v)_{J-1} = (v_{J-2} - v_{J-1}) / dx^2

written once, in `second_difference`; `laplacian` and the stepping loop of
`_kernels` apply it along every axis of an array of any dimension (the
operator on a grid of several axes is the Kronecker sum of the 1D ones).

Its eigenvalues are lambda_l = -(4/dx^2) sin^2(l pi / (2J)), l = 0..J-1, with
eigenvectors W_0 = 1 and (W_l)_j = sqrt(2) cos(l (j + 1/2) pi / J), an
orthonormal family for the scaled inner product.  Eigenpairs always come from
these closed forms, never from a numerical eigensolver.  The eigenvectors are
the orthonormal DCT-II basis, per axis on any number of axes, and one stability
rule, `cfl_ok`, serves every grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError
from .grid import Field, Grid, check_grid, ones

__all__ = [
    "NeumannLaplacian1D", "laplacian", "eigenvalue", "eigenvalues",
    "eigenvector", "eta", "cfl_ok", "require_stable",
    "amplification_envelope", "amplification_bound_check", "AmplificationReport",
    "geometric_sum", "eta_geometric_sum", "resolvent_power_sum",
    "heat_kernel_spectrum_sum",
]


@dataclass(frozen=True)
class NeumannLaplacian1D:
    """Matrix-free second-difference operator with zero-flux boundary rows."""

    grid: Grid

    def apply(self, v: Field) -> Field:
        check_grid(self.grid, v)
        return Field(self.grid, laplacian(v.values, self.grid.spacings))


def axis_slices(ndim: int, axis: int) -> tuple:
    """Index tuples along ``axis`` of an ndim-axis array, for
    `second_difference`: the first node, the second, the interior, the
    interior's left and right neighbours, the second-to-last and the last."""
    pad = (slice(None),) * axis, (slice(None),) * (ndim - axis - 1)
    return tuple(pad[0] + (s,) + pad[1] for s in
                 (0, 1, slice(1, -1), slice(None, -2), slice(2, None), -2, -1))


def second_difference(v: np.ndarray, out: np.ndarray, ix: tuple) -> np.ndarray:
    """Write the unscaled Neumann second difference of ``v`` (the stencil of
    the module docstring times dx^2) along the axis of ``ix = axis_slices(...)``
    into ``out``, and return it."""
    first, second, interior, left, right, penult, last = ix
    out[first] = v[second] - v[first]
    out[interior] = v[left] - 2.0 * v[interior] + v[right]
    out[last] = v[penult] - v[last]
    return out


def laplacian(u: np.ndarray, spacings) -> np.ndarray:
    """Kronecker sum over the axes of the per-axis `second_difference`, each
    divided by its spacing squared; ``spacings`` is in axis order, as the
    grids give it, and the last (x) axis is added first."""
    out = None
    for axis in reversed(range(u.ndim)):
        d = second_difference(u, np.empty_like(u), axis_slices(u.ndim, axis))
        term = d / spacings[axis] ** 2
        out = term if out is None else out + term
    return out


def _check_index(g: Grid, ell: int) -> None:
    if not 0 <= ell <= g.J - 1:
        raise IndexError(f"mode index {ell} out of range for J={g.J}")


def eigenvalue(g: Grid, ell: int) -> float:
    """lambda_ell = -(4/dx^2) sin^2(ell pi / (2J)); zero for ell = 0."""
    _check_index(g, ell)
    return -4.0 / g.dx ** 2 * math.sin(ell * math.pi / (2 * g.J)) ** 2


def eigenvalues(g: Grid) -> np.ndarray:
    """All eigenvalues of `laplacian` on the grid in DCT-II mode order, shaped
    like a field: lambda_l at [l] in 1D, the Kronecker sum
    lambda_ly + lambda_lx at [ly, lx] in 2D, and so on per axis."""
    out = np.zeros(g.shape)
    for axis, (J, h) in enumerate(zip(g.shape, g.spacings)):
        lam = -4.0 / h ** 2 * np.sin(np.arange(J) * np.pi / (2 * J)) ** 2
        out += lam.reshape([J if a == axis else 1 for a in range(out.ndim)])
    return out


def eigenvector(g: Grid, ell: int) -> Field:
    """Unit-norm eigenvector; the constant vector for ell = 0."""
    _check_index(g, ell)
    if ell == 0:
        return ones(g)
    j = np.arange(g.J)
    return Field(g, math.sqrt(2.0) * np.cos(ell * (j + 0.5) * math.pi / g.J))


def cfl_ok(g: Grid, dt: float) -> bool:
    """Exact comparison dt * sum over the axes of 1/h^2 <= 1/2, no tolerance:
    dt/dx^2 <= 1/2 in 1D (up to the rounding of 1/dx^2), and the 1D rule again
    when all spacings but one become infinite."""
    if not dt > 0:
        raise ValueError(f"time step must be positive, got dt={dt}")
    return dt * sum(1.0 / h ** 2 for h in g.spacings) <= 0.5


def require_stable(g: Grid, dt: float) -> None:
    """Raise CflViolationError unless dt passes the stability rule `cfl_ok`."""
    if not cfl_ok(g, dt):
        raise CflViolationError(f"dt = {dt:.6g} exceeds the stability limit of {g}")


def eta(g: Grid, dt: float) -> float:
    """Spectral radius of one Euler step restricted to the mean-free subspace.

    eta = max over 1 <= l <= J-1 of |1 + dt*lambda_l|.  Since l -> 1+dt*lambda_l
    is monotone in l, only the extreme modes can attain the maximum.
    """
    if not dt > 0:
        raise ValueError(f"time step must be positive, got dt={dt}")
    return max(abs(1.0 + dt * eigenvalue(g, 1)),
               abs(1.0 + dt * eigenvalue(g, g.J - 1)))


@dataclass(frozen=True)
class AmplificationReport:
    """Per-mode slack of |1 + dt*lambda_l| below its exponential envelope."""

    grid: Grid
    dt: float
    margins: np.ndarray
    ok: bool

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min())

    @property
    def worst_index(self) -> int:
        return int(self.margins.argmin())


def amplification_envelope(g: Grid, dt: float) -> np.ndarray:
    """exp(-(dt/dx^2) sin^2(l pi / J)) for l = 0..J-1: the per-mode bound on
    |1 + dt*lambda_l| that holds under the stability restriction."""
    return np.exp(-(dt / g.dx ** 2) * np.sin(np.arange(g.J) * np.pi / g.J) ** 2)


def amplification_bound_check(g: Grid, dt: float) -> AmplificationReport:
    """Check |1 + dt*lambda_l| <= `amplification_envelope` for all l."""
    require_stable(g, dt)
    margins = amplification_envelope(g, dt) - np.abs(1.0 + dt * eigenvalues(g))
    return AmplificationReport(g, dt, margins, bool(np.all(margins >= 0.0)))


def geometric_sum(lam, qk, k: int, dt: float):
    """dt * sum_{i<k} q^i per entry of ``lam`` (a float or an array), given
    qk = q^k for the ratio q = 1 + dt*lam: (1 - q^k)/(-lam), or k*dt where
    |1 - q| < 1e-14 (the constant mode, lambda = 0, and ratios the closed
    form cannot resolve)."""
    if isinstance(lam, float):  # one ratio (eta): float arithmetic, a few times faster
        return k * dt if abs(dt * lam) < 1e-14 else (1.0 - qk) / -lam
    near = np.abs(dt * lam) < 1e-14
    return np.divide(1.0 - qk, -lam, out=np.full(lam.shape, k * dt), where=~near)


def eta_geometric_sum(g: Grid, dt: float, n: int) -> float:
    """dt * sum_{k=0}^{n-1} eta^k via the closed geometric form.

    Under the stability restriction the result is bounded by 2 L^2 uniformly
    in n, J and dt.
    """
    require_stable(g, dt)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    e = eta(g, dt)
    return geometric_sum((e - 1.0) / dt, e ** n, n, dt)


def resolvent_power_sum(g: Grid, dt: float, n: int) -> float:
    """sum_l |dt * sum_{k<n} (1 + dt*lambda_l)^k|^2 over the nonzero modes.

    Each inner sum uses the closed geometric form (guarded near ratio 1), so
    the cost is O(J) regardless of n.  The result is bounded by
    4 * pi^4 * L^4 / 90 uniformly in n and dt under the CFL restriction.
    """
    require_stable(g, dt)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lam = eigenvalues(g)[1:g.J]  # g.J: a grid of several axes refuses this 1D sum
    s = geometric_sum(lam, (1.0 + dt * lam) ** n, n, dt)
    return math.fsum(s * s)


def resolvent_power_sum_bound(L: float) -> float:
    return 4.0 * math.pi ** 4 * L ** 4 / 90.0


def heat_kernel_spectrum_sum(g: Grid, alpha: float, m: int) -> tuple[float, float]:
    """Riemann-type sum dx * sum_l exp(-alpha*m*sin^2(l pi / J)) and its bound.

    Returns (value, bound) with bound = L*sqrt(pi)/sqrt(m*alpha); the value
    never exceeds the bound, uniformly in J.
    """
    if not alpha > 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    ell = np.arange(1, g.J)
    value = g.dx * math.fsum(np.exp(-alpha * m * np.sin(ell * np.pi / g.J) ** 2))
    bound = g.L * math.sqrt(math.pi) / math.sqrt(m * alpha)
    return value, bound
