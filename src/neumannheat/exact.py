"""Exact-solution oracles: cosine-series solutions of the homogeneous Neumann
heat problem, the catalog of initial data used by the convergence studies, the
closed-form 1D steady state, and a product Gaussian on any number of axes.

Series are expressed in the orthonormal cosine basis of L^2(0, L) with the
scaled inner product (1/L) * integral:

    c_0(x) = 1,    c_p(x) = sqrt(2) cos(p pi x / L)   (p >= 1)

so u(t, x) = sum_p alpha_p exp(-p^2 pi^2 t / L^2) c_p(x).  Each closed form
has one home: the basis and its x-derivatives are evaluated only in
`_mode_sum`, and `CosineSeries` is the one exact-function type.  A single mode,
`cosine_mode`, is a one-term series; a catalog datum is its series, whose
`alpha` is the one copy of its coefficients; `solution(t)` is the time-t
series; `deriv(k, x)` gives any of them the x-derivatives that the defect
operators of `consistency` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import SeriesTruncationError

__all__ = [
    "cosine_mode", "CosineSeries",
    "trig_poly", "poly_bump", "hat_function",
    "SteadyState1D", "steady_1d", "companion_w",
    "GaussianProblem", "gaussian_2d",
]

_SQRT2 = math.sqrt(2.0)


def _mode_sum(weights: np.ndarray, L: float, x: np.ndarray, k: int = 0):
    """The k-th x-derivative of sum_p weights[p] * c_p(x) on a float array x,
    dead modes dropped: the package's one evaluation of the continuous cosine
    basis."""
    live = (np.abs(weights[1:]) > 1e-300).nonzero()[0] + 1
    kp = live * math.pi / L
    out = (_SQRT2 * weights[live] * kp ** k) @ np.cos(kp[:, None] * x.ravel() + k * math.pi / 2)
    if k == 0:
        out += weights[0]
    return out.reshape(x.shape)[()]  # [()]: a 0-d result as a scalar


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients alpha_p of a heat-flow solution in the cosine basis.

    ``coef_bound = (C, q)`` certifies |alpha_p| <= C / p^q for p beyond the
    stored range and enables tail estimates; without it the series is exact
    (all discarded coefficients are zero).  ``exact_at_zero`` evaluates the
    generating datum pointwise, bypassing truncation at t = 0.  Called on x,
    the series is the datum: u(0, x); `deriv` gives its x-derivatives.
    """

    L: float
    alpha: np.ndarray = field(repr=False)
    exact_at_zero: Optional[Callable] = None
    coef_bound: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("need a nonempty 1D coefficient array")
        if not np.isfinite(self.alpha).all():
            raise ValueError("coefficients must be finite")
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")

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

    def _points(self, x) -> np.ndarray:
        """x as a float array, refused unless every point lies in [0, L] up to
        a relative 1e-12 (a grid's last node may exceed L by rounding); the
        comparisons are false for a NaN point, so it is refused too."""
        xv = np.asarray(x, dtype=float)
        if not (-1e-12 * self.L <= xv.min() and xv.max() <= self.L * (1.0 + 1e-12)):
            raise ValueError("evaluation point outside [0, L]")
        return xv

    def _check_tail(self, t: float, k: int) -> None:
        """Refuse derivative order k at time t unless the stored modes resolve it."""
        if self.tail_bound(t, k) > 1e-12:
            raise SeriesTruncationError(
                f"derivative order {k} not resolved by {self.p_max + 1} modes at t={t}")

    def evaluate(self, t: float, x):
        """u(t, x); exact for finite series, tail below 1e-13 otherwise."""
        xv = self._points(x)
        if t == 0.0 and self.exact_at_zero is not None:
            return self.exact_at_zero(xv)
        if self.tail_bound(t) > 1e-13:
            raise SeriesTruncationError(
                f"stored {self.p_max + 1} modes leave tail {self.tail_bound(t):.2e} at t={t}")
        return _mode_sum(self.alpha if t == 0.0 else self.weights(t), self.L, xv)

    def deriv(self, k: int, x):
        """The k-th x-derivative of the datum at x, from the stored modes;
        refused when their tail does not resolve order k."""
        if not (k >= 0 and float(k).is_integer()):
            raise ValueError(f"derivative order must be a nonnegative whole number, got {k}")
        self._check_tail(0.0, k)
        return _mode_sum(self.alpha, self.L, self._points(x), k)

    def solution(self, t: float) -> CosineSeries:
        """The time-t solution as a finite series, refused unless the stored
        modes resolve its x-derivatives of orders 0 to 5."""
        for k in range(6):
            self._check_tail(t, k)
        return CosineSeries(self.L, self.weights(t))


def cosine_mode(p: int, L: float) -> CosineSeries:
    """The orthonormal mode c_p(x) (sqrt(2) cos(p pi x / L), 1 for p = 0) as a
    one-mode series."""
    if p < 0:
        raise ValueError("mode index must be nonnegative")
    alpha = np.zeros(p + 1)
    alpha[p] = 1.0
    return CosineSeries(L, alpha)


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


def companion_w(beta: float, gamma: float, L: float) -> np.polynomial.Polynomial:
    """The zero-mean quadratic with prescribed end fluxes:

        w(x) = ((gamma - beta)/(2L)) x^2 + beta x - ((gamma - beta)/6) L - (beta/2) L
    """
    c2 = (gamma - beta) / (2.0 * L)
    c0 = -(gamma - beta) * L / 6.0 - beta * L / 2.0
    return np.polynomial.Polynomial([c0, beta, c2])


@dataclass(frozen=True)
class GaussianProblem:
    """Manufactured steady state u_inf = prod_i X_i(s_i), X_i(s) = exp(-a_i (s - c_i)^2)
    for a_i, c_i in ``widths``, ``centers``, on the box [0, lengths] (array-axis
    order, x last, as `Grid.lengths`).  One factor rule, `_product`, gives u_inf,
    f = -sum_i X_i'' prod_{j!=i} X_j, ``fluxes[i]`` = X_i' prod_{j!=i} X_j (in the
    order `ForcedProblem` takes them) and `source_integral`; callables take x first."""

    widths: tuple
    centers: tuple
    lengths: tuple

    def __post_init__(self):
        if not all(a > 0 for a in self.widths):
            raise ValueError("Gaussian widths must be positive")

    def _product(self, x, k: int = 0, axes=()):
        """prod_i X_i at the coordinates x (x first), times sum_{i in axes} X_i^(k) / X_i
        (-2a(s - c) for k = 1, 2a(2a(s - c)^2 - 1) for k = 2), both from their first term."""
        d = [s - c for s, c in zip(x[::-1], self.centers, strict=True)]
        X = [np.exp(-w * e ** 2) for w, e in zip(self.widths, d, strict=True)]
        r = [-2 * w * e if k == 1 else 2 * w * (2 * w * e ** 2 - 1)
             for w, e in ((self.widths[i], d[i]) for i in axes)]
        return math.prod(X[1:], start=X[0] * sum(r[1:], start=r[0]) if r else X[0])

    def u_inf(self, *x):
        return self._product(x)

    def f(self, *x):
        return -self._product(x, 2, range(len(self.widths)))

    @property
    def fluxes(self) -> tuple:
        return tuple(lambda *x, i=i: self._product(x, 1, (i,)) for i in range(len(self.widths)))

    @property
    def source_integral(self) -> float:
        """int f over the box in closed form, sum_i -[X_i']_0^L_i prod_{j!=i} int X_j:
        the jump is the flux with every other factor at its peak 1, and
        int_0^L X = sqrt(pi/a)/2 (erf(sqrt(a)(L - c)) + erf(sqrt(a) c))."""
        ints, jumps = [], []
        for i, (a, c, L) in enumerate(zip(self.widths, self.centers, self.lengths, strict=True)):
            r, at = math.sqrt(a), [*self.centers[:i], np.array([0.0, L]), *self.centers[i + 1:]]
            ints.append(math.sqrt(math.pi) / (2 * r) * (math.erf(r * (L - c)) + math.erf(r * c)))
            jumps.append(float(np.subtract(*self._product(at[::-1], 1, (i,)))))
        return sum(j * math.prod(ints[:i] + ints[i + 1:]) for i, j in enumerate(jumps))

    # the two-axis names that bench/ reads; ROADMAP item 8 removes them
    Lx, Ly = property(lambda p: p.lengths[-1]), property(lambda p: p.lengths[-2])
    g1, g2 = property(lambda p: p.fluxes[-1]), property(lambda p: p.fluxes[-2])


def gaussian_2d(alpha: float, beta_g: float, x0: float, y0: float) -> GaussianProblem:
    return GaussianProblem((beta_g, alpha), (y0, x0), (4.0, 2.0))
