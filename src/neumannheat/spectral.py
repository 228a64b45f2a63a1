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
the orthonormal DCT-II basis (`dctn`, `idctn`), per axis on any number of axes,
and one stability rule, `cfl_ok`, serves every grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError
from .grid import Field, Grid, check_grid, exact_sums, ones

__all__ = [
    "NeumannLaplacian1D", "laplacian", "eigenvalue", "eigenvalues", "dctn", "idctn", "eigenvector",
    "eta", "cfl_ok", "require_stable", "amplification_envelope", "amplification_bound_check",
    "amplification_bound_checks", "AmplificationReport", "geometric_sum", "eta_geometric_sum",
    "eta_geometric_sums", "resolvent_power_sum", "resolvent_power_sums",
    "heat_kernel_spectrum_sum", "heat_kernel_spectrum_sums",
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


@functools.lru_cache(maxsize=64)
def _dct_twiddles(n: int) -> np.ndarray:
    """s_k exp(-i pi k / (2n)) for k < n: the scaling of `dctn` and Makhoul's twiddle."""
    t = np.exp(-0.5j * np.pi / n * np.arange(n)) * math.sqrt(2.0 / n)
    t[0] = math.sqrt(1.0 / n)
    t.flags.writeable = False
    return t


def dctn(a: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II over every axis: the coefficients in the eigenvectors of
    `laplacian`, ordered as `eigenvalues`; c_k = s_k sum_n a_n cos(pi k (2n+1) / (2N)),
    s_0 = sqrt(1/N), else sqrt(2/N): per axis, one FFT of length N after Makhoul's reordering."""
    for _ in range(a.ndim):  # transform the last axis, then roll the next one last
        v = np.concatenate((a[..., ::2], a[..., 1::2][..., ::-1]), axis=-1)  # evens, odds reversed
        a = (_dct_twiddles(a.shape[-1]) * np.fft.fft(v)).real.transpose(-1, *range(a.ndim - 1))
    return np.ascontiguousarray(a)


def idctn(c: np.ndarray) -> np.ndarray:
    """The inverse of `dctn` (its transpose, the orthonormal DCT-III)."""
    for _ in range(c.ndim):  # Re(FFT(twiddles * c)) is the last axis in Makhoul's order
        v, h = np.fft.fft(_dct_twiddles(c.shape[-1]) * c).real, (c.shape[-1] + 1) // 2
        c = np.empty(c.shape)
        c[..., ::2], c[..., 1::2] = v[..., :h], v[..., :h - 1:-1]
        c = c.transpose(-1, *range(c.ndim - 1))
    return np.ascontiguousarray(c)


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


def require_stable(g: Grid, *dts: float) -> None:
    """Raise CflViolationError unless each dt passes the stability rule `cfl_ok`."""
    for dt in dts:
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


def amplification_envelope(g: Grid, dt) -> np.ndarray:
    """exp(-(dt/dx^2) sin^2(l pi / J)) for l = 0..J-1: the per-mode bound on
    |1 + dt*lambda_l| under the stability restriction; a column of dts gives a row each."""
    return np.exp(-(dt / g.dx ** 2) * np.sin(np.arange(g.J) * np.pi / g.J) ** 2)


def amplification_bound_checks(g: Grid, dts) -> list[AmplificationReport]:
    """Check |1 + dt*lambda_l| <= `amplification_envelope` for all l and each dt of ``dts``."""
    require_stable(g, *dts)
    dt = np.array(dts, float)[:, None]
    margins = amplification_envelope(g, dt) - np.abs(1.0 + dt * eigenvalues(g))
    return [AmplificationReport(g, d, m, bool(np.all(m >= 0.0))) for d, m in zip(dts, margins)]


def amplification_bound_check(g: Grid, dt: float) -> AmplificationReport:
    """The one-dt case of `amplification_bound_checks`."""
    return amplification_bound_checks(g, (dt,))[0]


def geometric_sum(lam, qk, k, dt):
    """dt * sum_{i<k} q^i per entry of ``lam`` (a float or an array), given
    qk = q^k for the ratio q = 1 + dt*lam: (1 - q^k)/(-lam), or k*dt where
    |1 - q| < 1e-14 (the constant mode, lambda = 0, and ratios the closed
    form cannot resolve); ``k`` and ``dt`` may be arrays that broadcast to qk."""
    if isinstance(lam, float):  # one ratio (eta): float arithmetic, a few times faster
        return k * dt if abs(dt * lam) < 1e-14 else (1.0 - qk) / -lam
    near = np.abs(dt * lam) < 1e-14
    return np.divide(1.0 - qk, -lam, out=np.full(qk.shape, k * dt), where=~near)


def eta_geometric_sums(g: Grid, dt: float, ns) -> list:
    """dt * sum_{k<n} eta^k for each n of ``ns``, from one eta, via the closed
    geometric form; under the stability restriction each is bounded by 2 L^2
    uniformly in n, J and dt."""
    require_stable(g, dt)
    if min(ns) < 1:
        raise ValueError(f"need n >= 1, got {min(ns)}")
    e = eta(g, dt)
    return [geometric_sum((e - 1.0) / dt, e ** n, n, dt) for n in ns]


def eta_geometric_sum(g: Grid, dt: float, n: int) -> float:
    """The one-n case of `eta_geometric_sums`."""
    return eta_geometric_sums(g, dt, (n,))[0]


def resolvent_power_sums(g: Grid, dts, ns) -> list:
    """sum_l |dt * sum_{k<n} (1 + dt*lambda_l)^k|^2 over the nonzero modes, at
    [i][j] for dt = dts[i] and n = ns[j], from one spectrum.

    Each inner sum uses the closed geometric form (guarded near ratio 1), so
    the cost is O(J) per (dt, n) regardless of n.  Each sum is exactly rounded
    and bounded by 4 * pi^4 * L^4 / 90 uniformly in n and dt under the CFL rule."""
    require_stable(g, *dts)
    if min(ns) < 1:
        raise ValueError(f"need n >= 1, got {min(ns)}")
    lam, dt = eigenvalues(g)[1:g.J], np.array(dts, float)[:, None, None]  # g.J: 1D grids only
    # one power per n, with n a Python number as one pair has it (numpy squares n = 2)
    qk = np.concatenate([(1.0 + dt * lam) ** n for n in ns], axis=1)
    s = geometric_sum(lam, qk, np.array(ns, float)[:, None], dt)
    s *= s  # in place, so that exact_sums' work array adds nothing to the peak memory
    return np.reshape(exact_sums(s.reshape(-1, g.J - 1)), s.shape[:2]).tolist()


def resolvent_power_sum(g: Grid, dt: float, n: int) -> float:
    """The one-(dt, n) case of `resolvent_power_sums`."""
    return resolvent_power_sums(g, (dt,), (n,))[0][0]


def resolvent_power_sum_bound(L: float) -> float:
    return 4.0 * math.pi ** 4 * L ** 4 / 90.0


def heat_kernel_spectrum_sums(g: Grid, alphas, ms) -> tuple[list, list]:
    """Riemann-type sums dx * sum_l exp(-alpha*m*sin^2(l pi / J)), exactly
    rounded, and their bounds L*sqrt(pi)/sqrt(m*alpha), at [i][j] for
    alpha = alphas[i] and m = ms[j]; no sum exceeds its bound, uniformly in J."""
    if not all(a > 0 for a in alphas):
        raise ValueError(f"need alpha > 0, got {alphas}")
    if min(ms) < 1:
        raise ValueError(f"need m >= 1, got {min(ms)}")
    am = np.array(alphas, float)[:, None] * np.array(ms, float)
    terms = np.exp(-am[..., None] * np.sin(np.arange(1, g.J) * np.pi / g.J) ** 2)
    values = (g.dx * np.reshape(exact_sums(terms.reshape(-1, g.J - 1)), am.shape)).tolist()
    return values, (g.L * math.sqrt(math.pi) / np.sqrt(am)).tolist()


def heat_kernel_spectrum_sum(g: Grid, alpha: float, m: int) -> tuple[float, float]:
    """The one-(alpha, m) case of `heat_kernel_spectrum_sums`: (value, bound)."""
    values, bounds = heat_kernel_spectrum_sums(g, (alpha,), (m,))
    return values[0][0], bounds[0][0]
