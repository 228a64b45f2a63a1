"""Exact-solution oracles: cosine-series solutions of the homogeneous Neumann
heat problem, the catalog of initial data used by the convergence studies, and
the closed-form steady states of the 1D and 2D nonhomogeneous problems.

Series are expressed in the orthonormal cosine basis of L^2(0, L) with the
scaled inner product (1/L) * integral:

    c_0(x) = 1,    c_p(x) = sqrt(2) cos(p pi x / L)   (p >= 1)

so u(t, x) = sum_p alpha_p exp(-p^2 pi^2 t / L^2) c_p(x).  Each closed form
has one home: the basis and its x-derivatives are evaluated only in
`_mode_sum` (a single mode, `cosine_mode`, is a one-term `CosineSeries`), and a
catalog datum is its `CosineSeries`, whose `alpha` is the one copy of its
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import SeriesTruncationError

__all__ = [
    "SmoothFunction", "cosine_mode", "polynomial_function",
    "CosineSeries",
    "trig_poly", "poly_bump", "hat_function",
    "SteadyState1D", "steady_1d", "companion_w",
    "Gaussian2DProblem", "gaussian_2d",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SmoothFunction:
    """A real function on [0, L] bundled with analytic derivatives.

    ``derivs[k]`` evaluates the k-th derivative; all callables are vectorized
    over numpy arrays.  Finite-difference fallbacks are deliberately not
    provided: consumers that need derivatives (the consistency-defect
    operators) must receive them analytically.
    """

    derivs: tuple = field(repr=False)

    def __call__(self, x):
        return self.derivs[0](np.asarray(x, dtype=float))

    def deriv(self, k: int, x):
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} not available (max {self.order})")
        return self.derivs[k](np.asarray(x, dtype=float))

    @property
    def order(self) -> int:
        return len(self.derivs) - 1


def polynomial_function(coeffs) -> SmoothFunction:
    """Polynomial sum(coeffs[i] * x^i) with its first five analytic derivatives."""
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    ds = [p]
    for _ in range(5):
        ds.append(ds[-1].deriv())
    return SmoothFunction(tuple(ds))


def _mode_sum(weights: np.ndarray, L: float, order: int) -> tuple:
    """The k-th x-derivatives, k = 0..order, of sum_p weights[p] * c_p(x) as
    callables on float arrays, dead modes dropped once: the package's one
    evaluation of the continuous cosine basis."""
    live = np.flatnonzero(np.abs(weights[1:]) > 1e-300) + 1
    kp = live * math.pi / L
    kp_column = kp[:, None]

    def derivative(k):
        amplitudes = _SQRT2 * weights[live] * kp ** k
        phase = k * math.pi / 2

        def dk(x):
            out = amplitudes @ np.cos(kp_column * x.ravel() + phase)
            if k == 0:
                out += weights[0]
            return out.reshape(x.shape)[()]  # [()]: a 0-d result as a scalar
        return dk

    return tuple(derivative(k) for k in range(order + 1))


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients alpha_p of a heat-flow solution in the cosine basis.

    ``coef_bound = (C, q)`` certifies |alpha_p| <= C / p^q for p beyond the
    stored range and enables tail estimates; without it the series is exact
    (all discarded coefficients are zero).  ``exact_at_zero`` evaluates the
    generating datum pointwise, bypassing truncation at t = 0.  Called on x,
    the series is the datum: u(0, x).
    """

    L: float
    alpha: np.ndarray = field(repr=False)
    exact_at_zero: Optional[Callable] = None
    coef_bound: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("need a nonempty 1D coefficient array")
        if not self.L > 0:
            raise ValueError("L must be positive")

    def __call__(self, x):
        return self.evaluate(0.0, x)

    @property
    def p_max(self) -> int:
        return self.alpha.size - 1

    def rates(self) -> np.ndarray:
        p = np.arange(self.alpha.size)
        return (p * math.pi / self.L) ** 2

    def weights(self, t: float) -> np.ndarray:
        return self.alpha * np.exp(-self.rates() * t)

    def tail_bound(self, t: float, deriv_order: int = 0) -> float:
        """Bound on the dropped modes of the deriv_order-th derivative at time t,
        in closed form.  With (C, q) = coef_bound, k = deriv_order, m = k - q,
        P = p_max + 1 and a = (pi/L)^2 t it is sqrt(2) C (pi/L)^k S, where
        S >= sum_{p >= P} p^m exp(-a p^2) is the smaller of the integral-test
        bound P^m + P^(m+1)/(-m-1) (any t, when m < -1) and the geometric bound
        P^m exp(-a P^2)/(1 - rho) (when the ratio bound of consecutive terms,
        rho = (1 + 1/P)^max(m, 0) exp(-a (2P + 1)), is below 1); inf when
        neither holds.  The one check of t: `evaluate` and `solution` reach it
        before any tail work."""
        if not 0 <= t < math.inf:
            raise ValueError(f"time must be nonnegative and finite, got t={t}")
        if self.coef_bound is None:
            return 0.0
        C, q = self.coef_bound
        k = deriv_order
        m, P = k - q, float(self.p_max + 1)
        a = (math.pi / self.L) ** 2 * t
        S = P ** m + P ** (m + 1) / (-m - 1) if m < -1 else math.inf
        rho = (1.0 + 1.0 / P) ** max(m, 0) * math.exp(-a * (2.0 * P + 1.0))
        if rho < 1.0:
            S = min(S, P ** m * math.exp(-a * P * P) / (1.0 - rho))
        return _SQRT2 * C * (math.pi / self.L) ** k * S

    def evaluate(self, t: float, x):
        """u(t, x); exact for finite series, tail below 1e-13 otherwise."""
        xv = np.asarray(x, dtype=float)
        if np.any(xv < -1e-12) or np.any(xv > self.L + 1e-12):
            raise ValueError("evaluation point outside [0, L]")
        if t == 0.0 and self.exact_at_zero is not None:
            return self.exact_at_zero(xv)
        if self.tail_bound(t) > 1e-13:
            raise SeriesTruncationError(
                f"stored {self.p_max + 1} modes leave tail {self.tail_bound(t):.2e} at t={t}")
        return _mode_sum(self.weights(t), self.L, 0)[0](xv)

    def solution(self, t: float, order: int = 5) -> SmoothFunction:
        """The time-t solution as a SmoothFunction with x-derivatives."""
        for k in range(order + 1):
            if self.tail_bound(t, k) > 1e-12:
                raise SeriesTruncationError(
                    f"derivative order {k} not resolved by {self.p_max + 1} modes at t={t}")
        return SmoothFunction(_mode_sum(self.weights(t), self.L, order))


def cosine_mode(p: int, L: float) -> SmoothFunction:
    """The orthonormal mode c_p(x) (sqrt(2) cos(p pi x / L), 1 for p = 0) with
    five derivatives, as a one-mode series."""
    if p < 0:
        raise ValueError("mode index must be nonnegative")
    alpha = np.zeros(p + 1)
    alpha[p] = 1.0
    return CosineSeries(L, alpha).solution(0.0)


def trig_poly() -> CosineSeries:
    """The finite combination 1 + cos(pi x) + 5 cos(2 pi x) - cos(3 pi x)
    + 2 cos(4 pi x) + cos(5 pi x) on [0, 1].

    The amplitudes multiply plain cosines, so the orthonormal-basis
    coefficients are alpha_0 = a_0 and alpha_p = a_p / sqrt(2).
    """
    alpha = np.array([1.0, 1.0, 5.0, -1.0, 2.0, 1.0])
    alpha[1:] /= _SQRT2
    return CosineSeries(1.0, alpha)


def poly_bump(p_max: int = 400) -> CosineSeries:
    """The quartic bump x^2 (1 - x)^2 on [0, 1]: smooth, but its Laplacian is
    not flux-free at the ends, so the uniform-bound hypotheses fail."""

    def coefficient(p: int) -> float:
        if p == 0:
            return 1.0 / 30.0
        if p % 2 == 1:
            return 0.0
        return -24.0 * _SQRT2 / (p * math.pi) ** 4

    alpha = np.array([coefficient(p) for p in range(p_max + 1)])
    return CosineSeries(1.0, alpha,
                        exact_at_zero=lambda x: x ** 2 * (1.0 - x) ** 2,
                        coef_bound=(24.0 * _SQRT2 / math.pi ** 4, 4.0))


def hat_function(p_max: int = 600) -> CosineSeries:
    """Triangular bump of half-width 1/50 centered at x = 1 on [0, 2];
    continuous but not differentiable, hypotheses fail."""
    L, width = 2.0, 0.02

    def coefficient(p: int) -> float:
        if p == 0:
            return width / L
        k = p * math.pi / L
        z = k * width / 2.0
        return (_SQRT2 / L) * math.cos(p * math.pi / 2.0) * width * (math.sin(z) / z) ** 2

    alpha = np.array([coefficient(p) for p in range(p_max + 1)])
    return CosineSeries(
        L, alpha,
        exact_at_zero=lambda x: np.maximum(1.0 - np.abs(L / 2.0 - x) / width, 0.0),
        coef_bound=(4.0 * _SQRT2 * L / (math.pi ** 2 * width), 2.0),
    )


class SteadyState1D:
    """The piecewise catalog steady problem on [0, 2]:

        f(x)   = 1 for x <= 1/2, 2x beyond;  flux 1/2 at x=0, -15/4 at x=2,
        u(x)   = -(x - 1/2)^2 / 2            on [0, 1/2],
                 -x^3/3 + x/4 - 1/12         on (1/2, 2],

    which balances exactly (gamma - beta + int f = 0) and has mean -193/384.
    """

    L = 2.0
    beta = 0.5
    gamma = -15.0 / 4.0
    breakpoint = 0.5
    source_integral = 17.0 / 4.0
    mean_value = -193.0 / 384.0

    def source(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.breakpoint, 1.0, 2.0 * x)

    def solution(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.breakpoint,
                        -((x - 0.5) ** 2) / 2.0,
                        -x ** 3 / 3.0 + x / 4.0 - 1.0 / 12.0)


def steady_1d() -> SteadyState1D:
    return SteadyState1D()


def companion_w(beta: float, gamma: float, L: float) -> SmoothFunction:
    """The zero-mean quadratic with prescribed end fluxes:

        w(x) = ((gamma - beta)/(2L)) x^2 + beta x - ((gamma - beta)/6) L - (beta/2) L
    """
    c2 = (gamma - beta) / (2.0 * L)
    c0 = -(gamma - beta) * L / 6.0 - beta * L / 2.0
    return polynomial_function([c0, beta, c2])


@dataclass(frozen=True)
class Gaussian2DProblem:
    """Manufactured 2D steady state exp(-a(x-x0)^2 - b(y-y0)^2) on
    (0,2) x (0,4), with its source and boundary flux data."""

    alpha: float
    beta_g: float
    x0: float
    y0: float
    Lx: float = 2.0
    Ly: float = 4.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta_g > 0):
            raise ValueError("Gaussian widths must be positive")

    def u_inf(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(-self.alpha * (x - self.x0) ** 2 - self.beta_g * (y - self.y0) ** 2)

    def f(self, x, y):
        a, b = self.alpha, self.beta_g
        return (2 * a * (1 - 2 * a * (x - self.x0) ** 2)
                + 2 * b * (1 - 2 * b * (y - self.y0) ** 2)) * self.u_inf(x, y)

    def g1(self, x, y):
        """x-derivative of the steady state (flux data on the vertical sides)."""
        return -2 * self.alpha * (x - self.x0) * self.u_inf(x, y)

    def g2(self, x, y):
        """y-derivative of the steady state (flux data on the horizontal sides)."""
        return -2 * self.beta_g * (y - self.y0) * self.u_inf(x, y)

    @property
    def source_integral(self) -> float:
        """int f over the rectangle in closed form: u_inf = X(x) Y(y) and
        f = -(X''Y + XY''), so the integral is -(X'|_0^Lx int Y + Y'|_0^Ly int X)."""
        def factor(a, c, L):  # int_0^L exp(-a(s - c)^2) ds, and -X'|_0^L
            r, e = math.sqrt(a), lambda s: s * math.exp(-a * s * s)
            return (math.sqrt(math.pi) / (2 * r) * (math.erf(r * (L - c)) + math.erf(r * c)),
                    2 * a * (e(L - c) + e(c)))
        (ix, jx), (iy, jy) = (factor(self.alpha, self.x0, self.Lx),
                              factor(self.beta_g, self.y0, self.Ly))
        return jx * iy + jy * ix


def gaussian_2d(alpha: float, beta_g: float, x0: float, y0: float) -> Gaussian2DProblem:
    return Gaussian2DProblem(alpha, beta_g, x0, y0)
