"""The discrete Neumann Laplacian, its closed-form eigenpairs, and the
amplification / spectral-sum bounds used by the stability analysis.

The operator acts matrix-free in O(J):

    (A v)_0     = (v_1 - v_0) / dx^2
    (A v)_j     = (v_{j-1} - 2 v_j + v_{j+1}) / dx^2     (0 < j < J-1)
    (A v)_{J-1} = (v_{J-2} - v_{J-1}) / dx^2

and `laplacian` applies it along every axis of a 1D or 2D array (the 2D
operator is the Kronecker sum of the 1D ones).

Its eigenvalues are lambda_l = -(4/dx^2) sin^2(l pi / (2J)), l = 0..J-1, with
eigenvectors W_0 = 1 and (W_l)_j = sqrt(2) cos(l (j + 1/2) pi / J), an
orthonormal family for the scaled inner product.  Eigenpairs always come from
these closed forms, never from a numerical eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, GridMismatchError
from .grid import Field1D, Grid1D, Grid2D, ones

__all__ = [
    "NeumannLaplacian1D", "laplacian", "EigenPair", "eigenvalue", "eigenvector",
    "eigenpair", "eta", "cfl_ok", "cfl2d", "require_stable",
    "amplification_bound_check", "AmplificationReport",
    "eta_geometric_sum", "resolvent_power_sum", "heat_kernel_spectrum_sum",
]


@dataclass(frozen=True)
class NeumannLaplacian1D:
    """Matrix-free second-difference operator with zero-flux boundary rows."""

    grid: Grid1D

    def apply(self, v: Field1D) -> Field1D:
        if v.grid != self.grid:
            raise GridMismatchError("field does not live on the operator's grid")
        return Field1D(self.grid, laplacian(v.values, self.grid.spacings))


def laplacian(u: np.ndarray, spacings) -> np.ndarray:
    """Kronecker sum over the axes of the per-axis Neumann second difference
    (the stencil of the module docstring), each divided by its spacing
    squared; ``spacings`` is in axis order, as the grids give it, and the last
    (x) axis is added first."""
    out = None
    for axis in range(u.ndim - 1, -1, -1):
        v = np.moveaxis(u, axis, -1)
        d = np.empty_like(v)
        d[..., 0] = v[..., 1] - v[..., 0]
        d[..., 1:-1] = v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]
        d[..., -1] = v[..., -2] - v[..., -1]
        term = np.moveaxis(d, -1, axis) / spacings[axis] ** 2
        out = term if out is None else out + term
    return out


@dataclass(frozen=True)
class EigenPair:
    index: int
    eigenvalue: float
    eigenvector: Field1D


def _check_index(g: Grid1D, ell: int) -> None:
    if not 0 <= ell <= g.J - 1:
        raise IndexError(f"mode index {ell} out of range for J={g.J}")


def eigenvalue(g: Grid1D, ell: int) -> float:
    """lambda_ell = -(4/dx^2) sin^2(ell pi / (2J)); zero for ell = 0."""
    _check_index(g, ell)
    return -4.0 / g.dx ** 2 * math.sin(ell * math.pi / (2 * g.J)) ** 2


def eigenvector(g: Grid1D, ell: int) -> Field1D:
    """Unit-norm eigenvector; the constant vector for ell = 0."""
    _check_index(g, ell)
    if ell == 0:
        return ones(g)
    j = np.arange(g.J)
    return Field1D(g, math.sqrt(2.0) * np.cos(ell * (j + 0.5) * math.pi / g.J))


def eigenpair(g: Grid1D, ell: int) -> EigenPair:
    return EigenPair(ell, eigenvalue(g, ell), eigenvector(g, ell))


def cfl_ok(g: Grid1D, dt: float) -> bool:
    """Exact comparison dt/dx^2 <= 1/2, no tolerance."""
    if not dt > 0:
        raise ValueError(f"time step must be positive, got dt={dt}")
    return dt / g.dx ** 2 <= 0.5


def cfl2d(g: Grid2D, dt: float) -> bool:
    """Exact comparison dt * (1/dx^2 + 1/dy^2) <= 1/2; reduces to the 1D rule
    when one spacing becomes infinite."""
    if not dt > 0:
        raise ValueError(f"time step must be positive, got dt={dt}")
    return dt * (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2) <= 0.5


def require_stable(g: Grid1D | Grid2D, dt: float) -> None:
    """Raise CflViolationError unless dt passes the grid's stability rule."""
    if not (cfl2d(g, dt) if isinstance(g, Grid2D) else cfl_ok(g, dt)):
        raise CflViolationError(f"dt = {dt:.6g} exceeds the stability limit of {g}")


def eta(g: Grid1D, dt: float) -> float:
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

    grid: Grid1D
    dt: float
    margins: np.ndarray
    ok: bool

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min())

    @property
    def worst_index(self) -> int:
        return int(self.margins.argmin())


def amplification_bound_check(g: Grid1D, dt: float) -> AmplificationReport:
    """Check |1 + dt*lambda_l| <= exp(-(dt/dx^2) sin^2(l pi / J)) for all l."""
    require_stable(g, dt)
    ell = np.arange(g.J)
    lam = -4.0 / g.dx ** 2 * np.sin(ell * np.pi / (2 * g.J)) ** 2
    lhs = np.abs(1.0 + dt * lam)
    rhs = np.exp(-(dt / g.dx ** 2) * np.sin(ell * np.pi / g.J) ** 2)
    margins = rhs - lhs
    return AmplificationReport(g, dt, margins, bool(np.all(margins >= 0.0)))


def eta_geometric_sum(g: Grid1D, dt: float, n: int) -> float:
    """dt * sum_{k=0}^{n-1} eta^k via the closed geometric form.

    Under the stability restriction the result is bounded by 2 L^2 uniformly
    in n, J and dt.
    """
    require_stable(g, dt)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    e = eta(g, dt)
    if abs(1.0 - e) < 1e-14:
        return n * dt
    return dt * (1.0 - e ** n) / (1.0 - e)


def resolvent_power_sum(g: Grid1D, dt: float, n: int) -> float:
    """sum_l |dt * sum_{k<n} (1 + dt*lambda_l)^k|^2 over the nonzero modes.

    Each inner sum uses the closed geometric form (guarded near ratio 1), so
    the cost is O(J) regardless of n.  The result is bounded by
    4 * pi^4 * L^4 / 90 uniformly in n and dt under the CFL restriction.
    """
    require_stable(g, dt)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 0.0
    for ell in range(1, g.J):
        q = 1.0 + dt * eigenvalue(g, ell)
        if abs(1.0 - q) < 1e-14:
            s = n * dt
        else:
            s = dt * (1.0 - q ** n) / (1.0 - q)
        total += s * s
    return total


def resolvent_power_sum_bound(L: float) -> float:
    return 4.0 * math.pi ** 4 * L ** 4 / 90.0


def heat_kernel_spectrum_sum(g: Grid1D, alpha: float, m: int) -> tuple[float, float]:
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
