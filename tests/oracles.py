"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (dense matrices,
brute-force summation, heat-kernel images) and never calls into the package's
own computational paths for the quantity it checks.
"""

import math

import numpy as np
from scipy import integrate


def dense_neumann_matrix(J: int, dx: float) -> np.ndarray:
    """The J x J second-difference matrix with zero-flux end rows, built
    entry by entry."""
    A = np.zeros((J, J))
    for i in range(J):
        for j in range(J):
            if i == j:
                A[i, j] = -1.0 if i in (0, J - 1) else -2.0
            elif abs(i - j) == 1:
                A[i, j] = 1.0
    return A / dx ** 2


def dense_power_apply(J: int, dx: float, dt: float, v0: np.ndarray, n: int,
                      b=None) -> np.ndarray:
    """(I + dt A)^n v0 [+ dt * sum_k (I + dt A)^k b] by explicit matrix ops."""
    M = np.eye(J) + dt * dense_neumann_matrix(J, dx)
    v = v0.copy()
    for _ in range(n):
        v = M @ v
        if b is not None:
            v = v + dt * b
    return v


def scaled_inner(v: np.ndarray, w: np.ndarray) -> float:
    return math.fsum(np.asarray(v) * np.asarray(w)) / len(v)


def scaled_norm(v: np.ndarray) -> float:
    return math.sqrt(scaled_inner(v, v))


def _kernel_antideriv2(z, t):
    """Second antiderivative of the 1D heat kernel: S'' = G_t."""
    s2 = 2.0 * math.sqrt(t)
    z = np.asarray(z, dtype=float)
    return 0.5 * z * (1.0 + np.array([math.erf(zz / s2) for zz in np.atleast_1d(z)]).reshape(z.shape)) \
        + math.sqrt(t / math.pi) * np.exp(-z * z / (4.0 * t))


def hat_solution_images(t: float, x: np.ndarray, L: float, width: float,
                        images: int = 8) -> np.ndarray:
    """Exact solution of the Neumann heat problem for the triangular datum
    centered at L/2, via the method of images.

    The triangle is the second difference of ramps, so its convolution with
    the Gaussian kernel is the second difference of the kernel's second
    antiderivative.
    """
    if t == 0.0:
        return np.maximum(1.0 - np.abs(L / 2.0 - x) / width, 0.0)
    c = L / 2.0
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for m in range(-images, images + 1):
        for sign in (1.0, -1.0):
            z = sign * x - 2.0 * m * L - c
            acc += (_kernel_antideriv2(z + width, t)
                    - 2.0 * _kernel_antideriv2(z, t)
                    + _kernel_antideriv2(z - width, t)) / width
    return acc


class PolynomialFunction:
    """sum(coeffs[i] * x^i) with its x-derivatives by numpy's `Polynomial`,
    called as the defect operators call a `CosineSeries`: w(x), w.deriv(k, x)."""

    def __init__(self, coeffs):
        self.p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))

    def __call__(self, x):
        return self.p(np.asarray(x, dtype=float))

    def deriv(self, k: int, x):
        return self.p.deriv(k)(np.asarray(x, dtype=float))


def quad_cosine_coefficient(f, p: int, L: float) -> float:
    """alpha_p = (1/L) integral of f * c_p by adaptive quadrature."""
    if p == 0:
        val, _ = integrate.quad(f, 0.0, L, epsabs=1e-13, limit=400)
        return val / L
    val, _ = integrate.quad(f, 0.0, L, weight="cos", wvar=p * math.pi / L,
                            epsabs=1e-13, limit=400)
    return math.sqrt(2.0) * val / L


def brute_resolvent_power_sum(J: int, L: float, dt: float, n: int) -> float:
    """Literal double sum over modes and step counts."""
    dx = L / (J - 1)
    total = 0.0
    for ell in range(1, J):
        lam = -4.0 / dx ** 2 * math.sin(ell * math.pi / (2 * J)) ** 2
        s = 0.0
        for k in range(n):
            s += (1.0 + dt * lam) ** k
        total += (dt * s) ** 2
    return total


def brute_eta_sum(J: int, L: float, dt: float, n: int) -> float:
    dx = L / (J - 1)
    lams = [-4.0 / dx ** 2 * math.sin(ell * math.pi / (2 * J)) ** 2 for ell in range(1, J)]
    eta = max(abs(1.0 + dt * lam) for lam in lams)
    return dt * math.fsum(eta ** k for k in range(n))


def exact_steady_count(axes, v0: np.ndarray, b: np.ndarray, dt: float, tol: float,
                       check_every: int = 64) -> int:
    """First multiple of ``check_every`` at which the Euler iteration's
    residual, taken in exact-arithmetic form (I + dt A)^n (A v0 + b), has
    root-mean-square <= tol.

    ``axes`` gives (J, h) for each array axis; A is the Kronecker sum of the
    dense 1D Neumann matrices, each diagonalised by `eigh`.
    """
    r = b.astype(float)
    lam = np.zeros(v0.shape)
    bases = []
    for axis, (J, h) in enumerate(axes):
        A = dense_neumann_matrix(J, h)
        r += np.moveaxis(np.tensordot(A, v0, axes=(1, axis)), 0, axis)
        w, W = np.linalg.eigh(A)
        lam += w.reshape([J if a == axis else 1 for a in range(v0.ndim)])
        bases.append(W)
    for axis, W in enumerate(bases):  # coefficients of r in the eigenbasis
        r = np.moveaxis(np.tensordot(W.T, r, axes=(1, axis)), 0, axis)
    q = 1.0 + dt * lam
    n = 0
    while math.sqrt(math.fsum(((q ** n * r) ** 2).ravel()) / r.size) > tol:
        n += check_every
    return n
