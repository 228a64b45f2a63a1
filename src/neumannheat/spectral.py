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
and one stability rule, `cfl_ok`, serves every grid.  Each of the four bound figures is one float
array at [k, i, j] over 1D grids[k], read in zero-padded blocks (`_spectrum`), their time steps
dts[k][i] (or the kernel's alphas[i]) and counts; its one-grid case returns Python numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .errors import CflViolationError
from .grid import Field, Grid, check_grid, exact_sums, ones

__all__ = [
    "NeumannLaplacian1D", "laplacian", "eigenvalue", "eigenvalues", "dctn", "idctn", "eigenvector",
    "eta", "cfl_ok", "require_stable", "amplification_envelope", "amplification_bound_check",
    "amplification_bound_checks", "AmplificationReport", "geometric_sum", "eta_geometric_sum",
    "eta_geometric_sums", "power", "resolvent_power_sum", "resolvent_power_sums",
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


def _eigenvalues(scale, ell, J) -> np.ndarray:
    """scale * sin^2(ell pi / (2J)) entrywise: lambda_ell for scale = -4/h^2."""
    return scale * np.sin(ell * np.pi / (2 * J)) ** 2


def eigenvalues(g: Grid) -> np.ndarray:
    """All eigenvalues of `laplacian` on the grid in DCT-II mode order, shaped
    like a field: lambda_l at [l] in 1D, the Kronecker sum
    lambda_ly + lambda_lx at [ly, lx] in 2D, and so on per axis."""
    out = np.zeros(g.shape)
    for axis, (J, h) in enumerate(zip(g.shape, g.spacings)):
        lam = _eigenvalues(-4.0 / h ** 2, np.arange(J), J)
        out += lam.reshape([J if a == axis else 1 for a in range(out.ndim)])
    return out


# count * max J * rows of a padded block, the rows of its caller's largest array: at 12 (the default
# sweep) 3072 modes, where the cost per block has stopped falling and the peak memory is < 2 MB
_BLOCK = 36864


def _spectrum(grids, first: int, dts, rows: int, **counts):
    """The 1D ``grids`` in runs of one grid or of count * max J * ``rows`` <= `_BLOCK`, padded
    when read: l = first..max J - 1, J, h, h^2 at [k, 0], dts[k][i] at [i, k, 0], live l < J.
    Refused at once: no grids, unpaired or unstable dts, counts not whole in [1, max float]."""
    if not grids:
        raise ValueError("need a nonempty block of grids")
    for g, d in zip(grids, dts, strict=True):
        require_stable(g, *d)
    for name, c in counts.items():  # float(x) of a larger int overflows
        if not len(c) or not all(1 <= x <= float_info.max and float(x).is_integer() for x in c):
            raise ValueError(f"need whole {name} >= 1, got {list(c)}")

    def blocks():
        cuts, top = [0], 0  # top: the largest J of the run from cuts[-1] to k
        for k, g in enumerate(grids):
            if (k + 1 - cuts[-1]) * (top := max(top, g.J)) * rows > _BLOCK and k > cuts[-1]:
                cuts, top = [*cuts, k], g.J
        for a, b in zip(cuts, [*cuts[1:], len(grids)]):
            J, h, h2 = np.array([[g.J, g.dx, g.dx ** 2] for g in grids[a:b]]).T[:, :, None]  # 1D
            ell = np.arange(first, J.max())
            yield ell, J, h, h2, np.array(dts[a:b], float).T[..., None], ell < J
    return blocks()


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
    return _etas(g, (dt,))[0]


def _etas(g: Grid, dts) -> list:
    """`eta` at each of ``dts``, from one pair of extreme eigenvalues."""
    if not all(dt > 0 for dt in dts):
        raise ValueError(f"time step must be positive, got dt={min(dts)}")
    first, last = eigenvalue(g, 1), eigenvalue(g, g.J - 1)
    return [max(abs(1.0 + dt * first), abs(1.0 + dt * last)) for dt in dts]


@dataclass(frozen=True)
class AmplificationReport:
    """The smallest slack of |1 + dt*lambda_l| below its envelope, and its first mode."""

    grid: Grid
    dt: float
    worst_margin: float
    worst_index: int

    @property
    def ok(self) -> bool:
        return self.worst_margin >= 0.0


def _envelope(a, ell, J) -> np.ndarray:
    """exp(-a sin^2(ell pi / J)) entrywise: the amplification envelope for
    a = dt/dx^2, the heat-kernel term for a = alpha*m."""
    return np.exp(-a * np.sin(ell * np.pi / J) ** 2)


def amplification_envelope(g: Grid, dt) -> np.ndarray:
    """exp(-(dt/dx^2) sin^2(l pi / J)) for l = 0..J-1: the per-mode bound on
    |1 + dt*lambda_l| under the stability restriction."""
    return _envelope(dt / g.dx ** 2, np.arange(g.J), g.J)


def amplification_bound_checks(grids, dts) -> tuple[np.ndarray, np.ndarray]:
    """The smallest margin of `amplification_envelope` over |1 + dt*lambda_l|,
    l = 0..J-1, and its first mode, at [k, i] for grids[k] and dt = dts[k][i], from padded
    blocks of 4 temporaries per dt (padded margins +inf): the bound holds where it is >= 0."""
    worst = []  # per block, the smallest margins and their first modes at [i, k]
    for ell, J, _, h2, dt, live in _spectrum(grids, 0, dts, 4 * max(map(len, dts), default=0)):
        margins = _envelope(dt / h2, ell, J) - np.abs(1.0 + dt * _eigenvalues(-4.0 / h2, ell, J))
        np.copyto(margins, np.inf, where=~live)
        worst.append((margins.min(axis=-1), margins.argmin(axis=-1)))
    return tuple(np.concatenate(a, axis=1).T for a in zip(*worst))


def amplification_bound_check(g: Grid, dt: float) -> AmplificationReport:
    """The one-grid, one-dt case of `amplification_bound_checks`."""
    return AmplificationReport(g, dt, *(a.item() for a in amplification_bound_checks([g], [[dt]])))


def geometric_sum(lam, qk, k, dt):
    """dt * sum_{i<k} q^i per entry of the array ``lam``, given the array qk = q^k for the
    ratio q = 1 + dt*lam: (1 - q^k)/(-lam), or k*dt where |1 - q| < 1e-14 (the constant mode,
    lambda = 0, and ratios the closed form cannot resolve); ``k`` and ``dt`` may be arrays
    that broadcast to qk, which is overwritten with the result."""
    near = np.abs(dt * lam) < 1e-14
    np.divide(np.subtract(1.0, qk, out=qk), -lam, out=qk, where=~near)
    return np.multiply(k, dt, out=qk, where=near)


def power(q: np.ndarray, k: int) -> np.ndarray:
    """q ** k for a whole k >= 0, bit for bit, with pow only where k * log2|q| > -1080:
    below, |q|^k underflows to 0, signed as q for odd k, and pow is slowest there."""
    out = np.copysign(0.0, q) if k % 2 else np.zeros_like(q)
    with np.errstate(divide="ignore", invalid="ignore"):  # log2(0) = -inf, and 0 * -inf
        live = ~(k * np.log2(np.abs(q)) <= -1080.0)  # is nan: 0 ** 0 = 1 stays live
    out[live] = q[live] ** k  # k a Python number, as `q ** k` has it (numpy squares k = 2)
    return out


def eta_geometric_sums(grids, dts, ns) -> np.ndarray:
    """dt * sum_{k<n} eta^k at [k, i, j] for grids[k], dt = dts[k][i] and
    n = ns[j], from one `eta` per (grid, dt), via the closed geometric form;
    under the stability restriction each is bounded by 2 L^2 uniformly in n, J and dt."""
    _spectrum(grids, 0, dts, 0, n=ns)  # the refusals; no block is read
    etas, dt = [_etas(g, d) for g, d in zip(grids, dts)], np.array(dts, float)[..., None]
    qk = np.array([[[e ** n for n in ns] for e in es] for es in etas])  # Python pow, as `eta` ** n
    return geometric_sum((np.array(etas)[..., None] - 1.0) / dt, qk, np.array(ns, float), dt)


def eta_geometric_sum(g: Grid, dt: float, n: int) -> float:
    """The one-grid, one-(dt, n) case of `eta_geometric_sums`."""
    return eta_geometric_sums([g], [[dt]], (n,)).item()


def resolvent_power_sums(grids, dts, ns) -> np.ndarray:
    """sum_l |dt * sum_{k<n} (1 + dt*lambda_l)^k|^2 over the nonzero modes, at
    [k, i, j] for grids[k], dt = dts[k][i] and n = ns[j], from padded blocks.

    Each inner sum uses the closed geometric form (guarded near ratio 1), so
    the cost is O(J) per (dt, n) regardless of n.  Each sum is exactly rounded
    and bounded by 4 * pi^4 * L^4 / 90 uniformly in n and dt under the CFL rule."""
    sums, rows = [], len(ns) * max(map(len, dts), default=0)  # the rows of qk
    for ell, J, _, h2, dt, live in _spectrum(grids, 1, dts, rows, n=ns):
        lam = _eigenvalues(-4.0 / h2, ell, J)
        q, qk = 1.0 + dt * lam, np.zeros((*dt.shape[:2], len(ns), len(ell)))  # at [i, k, n, mode]
        with np.errstate(divide="ignore"):  # log2(0) = -inf, as at the padding: no power there
            log2q = np.log2(np.abs(q), out=np.full(q.shape, -np.inf), where=live)
        for j, n in enumerate(ns):
            # `power` with the floor -128: 1 - x rounds to 1 for |x| < 2^-54, so far
            # smaller powers stay 0 (-128 leaves room for the rounding of log2)
            on = n * log2q > -128.0
            qk[:, :, j][on] = q[on] ** n
        s = geometric_sum(lam[:, None], qk, np.array(ns, float)[:, None], dt[..., None])
        np.copyto(s, 0.0, where=~live[:, None])
        s *= s  # in place, so that exact_sums' work array adds nothing to the peak memory
        sums.append(exact_sums(s))
    return np.concatenate(sums, axis=1).swapaxes(0, 1)


def resolvent_power_sum(g: Grid, dt: float, n: int) -> float:
    """The one-grid, one-(dt, n) case of `resolvent_power_sums`."""
    return resolvent_power_sums([g], [[dt]], (n,)).item()


def resolvent_power_sum_bound(L: float) -> float:
    return 4.0 * math.pi ** 4 * L ** 4 / 90.0


def heat_kernel_spectrum_sums(grids, alphas, ms) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-type sums dx * sum_l exp(-alpha*m*sin^2(l pi / J)), exactly
    rounded, and their bounds L*sqrt(pi)/sqrt(m*alpha), at [k, i, j] for grids[k],
    alpha = alphas[i] and m = ms[j]; no sum exceeds its bound, uniformly in J."""
    blocks = _spectrum(grids, 1, [()] * len(grids), len(alphas) * len(ms), m=ms)  # no time steps
    if not all(0 < a * m < math.inf for a in alphas for m in ms):
        raise ValueError(f"need alpha > 0 and every alpha * m finite, got {alphas} and {ms}")
    am, values = np.array(alphas, float)[:, None] * np.array(ms, float), []
    for ell, J, h, _, _, live in blocks:
        terms = _envelope(am[:, None, :, None], ell, J[:, None])  # at [i, k, m, mode]
        np.copyto(terms, 0.0, where=~live[:, None])  # np.where on a broadcast mask is far slower
        values.append(h[..., None] * exact_sums(terms).swapaxes(0, 1))
    bounds = np.divide.outer([g.L * math.sqrt(math.pi) for g in grids], np.sqrt(am))
    return np.concatenate(values), bounds


def heat_kernel_spectrum_sum(g: Grid, alpha: float, m: int) -> tuple[float, float]:
    """The one-grid, one-(alpha, m) case of `heat_kernel_spectrum_sums`: (value, bound)."""
    return tuple(a.item() for a in heat_kernel_spectrum_sums([g], (alpha,), (m,)))
