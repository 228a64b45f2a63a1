import math

import numpy as np
import pytest
import sympy as sp
from scipy import integrate

from neumannheat import (CosineSeries, SeriesTruncationError, companion_w,
                         cosine_mode, gaussian_2d, hat_function, poly_bump,
                         steady_1d, trig_poly)

from oracles import hat_solution_images, quad_cosine_coefficient

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------- series

def test_constant_series():
    s = CosineSeries(1.0, [3.25])
    x = np.linspace(0, 1, 7)
    for t in (0.0, 0.3, 10.0):
        assert np.allclose(s.evaluate(t, x), 3.25, atol=1e-15)


def test_single_mode_series():
    s = CosineSeries(1.0, [0.0, 1.0])
    for t in (0.0, 0.17, 2.0):
        assert s.evaluate(t, 0.0) == pytest.approx(SQ2 * math.exp(-math.pi ** 2 * t), rel=1e-14)


def test_orthonormal_coefficient_semantics():
    # coefficients multiply the orthonormal modes c_p = sqrt(2) cos(p pi x / L)
    s = CosineSeries(1.0, [1.0, 1.0, 5.0, -1.0, 2.0, 1.0])
    assert s.evaluate(0.0, 0.0) == pytest.approx(1.0 + 8.0 * SQ2, rel=1e-14)


def test_series_domain_checks():
    s = CosineSeries(1.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        s.evaluate(-0.1, 0.5)
    with pytest.raises(ValueError):
        s.evaluate(0.1, 1.5)


def test_series_refuses_non_finite_times():
    # a nan time used to give nan values (inf: 0 * inf in the constant mode);
    # with a coefficient bound it first summed 200,000 tail terms
    for s in (trig_poly(), hat_function(p_max=30)):
        for t in (math.nan, math.inf, -math.inf, -0.1):
            for call in (lambda: s.evaluate(t, np.array([0.5])), lambda: s.solution(t),
                         lambda: s.tail_bound(t)):
                with pytest.raises(ValueError, match="nonnegative and finite"):
                    call()


def test_series_time_derivative_matches_spatial_difference():
    # the flow solves u_t = u_xx: check d/dt against the centered second
    # difference quotient on a smooth mode
    s = CosineSeries(1.0, [0.0, 0.0, 1.0])
    t, x, h = 0.13, 0.37, 1e-4
    dudt = (s.evaluate(t + h, x) - s.evaluate(t - h, x)) / (2 * h)
    uxx = (s.evaluate(t, x + h) - 2 * s.evaluate(t, x) + s.evaluate(t, x - h)) / h ** 2
    assert dudt == pytest.approx(uxx, abs=5e-6)  # O(h^2) on an O(1) mode


# ---------------------------------------------------------------- catalog

def test_trig_poly_plain_amplitudes():
    d = trig_poly()
    x = np.linspace(0, 1, 11)
    direct = (1.0 + np.cos(np.pi * x) + 5 * np.cos(2 * np.pi * x)
              - np.cos(3 * np.pi * x) + 2 * np.cos(4 * np.pi * x) + np.cos(5 * np.pi * x))
    assert np.abs(d(x) - direct).max() < 1e-13
    # its smooth representative agrees, including derivatives
    assert np.abs(d.solution(0.0)(x) - direct).max() < 1e-13
    d2 = -(np.pi ** 2) * (np.cos(np.pi * x) + 20 * np.cos(2 * np.pi * x)
                          - 9 * np.cos(3 * np.pi * x) + 32 * np.cos(4 * np.pi * x)
                          + 25 * np.cos(5 * np.pi * x))
    assert np.abs(d.solution(0.0).deriv(2, x) - d2).max() < 1e-10


def test_datum_call_is_evaluate_at_zero_bitwise():
    # the closed-form path (poly_bump, hat_function) and the mode sum (trig_poly)
    for d in (poly_bump(), hat_function(), trig_poly()):
        x = np.linspace(0.0, d.L, 37)
        assert np.array_equal(d(x), d.evaluate(0.0, x))
        assert d(0.3) == d.evaluate(0.0, 0.3)
    assert trig_poly().exact_at_zero is None


def test_poly_bump_coefficients():
    d = poly_bump()
    alpha = d.alpha
    assert alpha[0] == pytest.approx(1.0 / 30.0, rel=1e-15)
    for p in range(1, 9):
        ref = quad_cosine_coefficient(lambda x: x ** 2 * (1 - x) ** 2, p, 1.0)
        assert alpha[p] == pytest.approx(ref, abs=1e-13)
    # Parseval against the exact squared norm 1/630
    assert math.fsum(alpha * alpha) == pytest.approx(1.0 / 630.0, abs=1e-8)


def test_poly_bump_exact_at_zero():
    d = poly_bump()
    x = np.linspace(0, 1, 23)
    assert np.array_equal(d(x), x ** 2 * (1 - x) ** 2)


def test_hat_coefficients():
    alpha = hat_function().alpha  # width 1/50, L = 2
    assert alpha[0] == pytest.approx(0.01, rel=1e-15)
    f = lambda x: max(1.0 - abs(1.0 - x) / 0.02, 0.0)
    for p in range(1, 9):
        ref = quad_cosine_coefficient(f, p, 2.0)
        assert alpha[p] == pytest.approx(ref, abs=1e-12)


def test_hat_series_vs_heat_kernel_images():
    d = hat_function()
    x = np.linspace(0, 2, 201)
    for t in (0.005, 0.02, 0.05, 1.0):
        mine = d.evaluate(t, x)
        ref = hat_solution_images(t, x, 2.0, 0.02)
        assert np.abs(mine - ref).max() < 1e-12


def test_hat_truncation_guard():
    d = hat_function(p_max=30)
    with pytest.raises(SeriesTruncationError):
        d.solution(0.0)  # derivatives of the kink do not exist
    with pytest.raises(SeriesTruncationError):
        d.evaluate(1e-7, np.array([1.0]))  # 30 modes cannot resolve this
    # but t = 0 works through the closed-form evaluator
    assert d.evaluate(0.0, np.array([1.0]))[0] == 1.0


def test_cosine_coefficients_operation():
    # a factory's p_max sets the length of the one coefficient array
    s = poly_bump(p_max=12)
    assert s.p_max == 12
    assert s.alpha[0] == pytest.approx(1.0 / 30.0)
    assert s.alpha[3] == 0.0
    assert np.array_equal(poly_bump(p_max=40).alpha[:13], s.alpha)
    # a finite series stores its degree and is exact: no tail beyond it
    s5 = trig_poly()
    assert s5.p_max == 5 and s5.coef_bound is None and s5.tail_bound(0.0, 5) == 0.0


def test_parseval_catalog():
    # trig poly: ||u0||^2 = a0^2 + sum_{p>=1} a_p^2 / 2 = 1 + 32/2 = 17
    d = trig_poly()
    assert math.fsum(d.alpha ** 2) == pytest.approx(17.0, abs=1e-12)
    # quartic bump: 1/630 (exact Beta-integral norm)
    db = poly_bump()
    assert math.fsum(db.alpha ** 2) == pytest.approx(1.0 / 630.0, abs=1e-8)
    # hat: ||u0||^2 = (1/L) * 2 width / 3 = 1/150; slow 1/p^2 decay needs a
    # long coefficient tail
    alpha = hat_function(p_max=6000).alpha
    assert math.fsum(alpha * alpha) == pytest.approx(1.0 / 150.0, abs=1e-8)


def test_single_mode_derivative_decay_is_sharp():
    # for a single-mode solution the fourth-derivative norm decays at exactly
    # the envelope rate
    s = CosineSeries(1.0, [0.0, 1.0])
    mu = math.pi ** 2
    for t in (0.0, 0.2, 1.0):
        p4_norm = mu ** 2 * math.exp(-mu * t)  # L2 norm of d^4 u(t)
        assert p4_norm == pytest.approx(math.exp(-mu * t) * mu ** 2, rel=1e-14)
        w = s.weights(t)
        assert abs(w[1] * mu ** 2 - p4_norm) < 1e-12 * p4_norm


# ---------------------------------------------------------------- steady 1D

def test_steady_problem_balance_and_solution():
    ss = steady_1d()
    x = sp.symbols("x")
    f1, f2 = sp.Integer(1), 2 * x
    u1 = -((x - sp.Rational(1, 2)) ** 2) / 2
    u2 = -x ** 3 / 3 + x / 4 - sp.Rational(1, 12)
    # -u'' = f on both pieces
    assert sp.simplify(-sp.diff(u1, x, 2) - f1) == 0
    assert sp.simplify(-sp.diff(u2, x, 2) - f2) == 0
    # junction continuity and end fluxes
    assert u1.subs(x, sp.Rational(1, 2)) == u2.subs(x, sp.Rational(1, 2)) == 0
    assert sp.diff(u1, x).subs(x, 0) == sp.Rational(1, 2)
    assert sp.diff(u2, x).subs(x, 2) == sp.Rational(-15, 4)
    # source integral and mean of the solution
    total = sp.integrate(f1, (x, 0, sp.Rational(1, 2))) + sp.integrate(f2, (x, sp.Rational(1, 2), 2))
    assert total == sp.Rational(17, 4)
    mean_val = (sp.integrate(u1, (x, 0, sp.Rational(1, 2)))
                + sp.integrate(u2, (x, sp.Rational(1, 2), 2))) / 2
    assert mean_val == sp.Rational(-193, 384)
    # the numeric implementation agrees with the symbolic pieces
    xs = np.linspace(0, 2, 41)
    ref = np.array([float((u1 if xi <= 0.5 else u2).subs(x, xi)) for xi in xs])
    assert np.abs(ss.solution(xs) - ref).max() < 1e-12
    assert ss.source_integral == 17.0 / 4.0
    assert ss.mean_value == -193.0 / 384.0
    # interior residual -u'' = f away from the kink, by high-order differences
    for xi in (0.2, 0.8, 1.5):
        h = 1e-4
        upp = (ss.solution(xi - h) - 2 * ss.solution(xi) + ss.solution(xi + h)) / h ** 2
        assert -upp == pytest.approx(float(ss.source(xi)), abs=1e-7)
    # the end fluxes the solvers read are the ones checked symbolically above
    assert (ss.beta, ss.gamma) == (0.5, -15 / 4)


def test_companion_quadratic():
    w0 = companion_w(0.0, 0.0, 2.0)
    xs = np.linspace(0, 2, 9)
    assert np.abs(w0(xs)).max() == 0.0
    w = companion_w(0.5, -15.0 / 4.0, 2.0)
    assert w.deriv(1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert w.deriv(1, 2.0) == pytest.approx(-15.0 / 4.0, abs=1e-12)
    val, _ = integrate.quad(lambda t: float(w(t)), 0.0, 2.0, epsabs=1e-12)
    assert abs(val) < 1e-12


# ---------------------------------------------------------------- 2D Gaussian

def test_gaussian_2d_symbolic():
    x, y = sp.symbols("x y")
    a, b, x0, y0 = 15, 5, 1, 2
    u = sp.exp(-a * (x - x0) ** 2 - b * (y - y0) ** 2)
    prob = gaussian_2d(float(a), float(b), float(x0), float(y0))
    f_sym = sp.lambdify((x, y), -sp.diff(u, x, 2) - sp.diff(u, y, 2), "numpy")
    g1_sym = sp.lambdify((x, y), sp.diff(u, x), "numpy")
    g2_sym = sp.lambdify((x, y), sp.diff(u, y), "numpy")
    xs = np.linspace(0, 2, 13)
    ys = np.linspace(0, 4, 17)
    X, Y = np.meshgrid(xs, ys)
    assert np.abs(prob.f(X, Y) - f_sym(X, Y)).max() < 1e-9
    assert np.abs(prob.g1(X, Y) - g1_sym(X, Y)).max() < 1e-12
    assert np.abs(prob.g2(X, Y) - g2_sym(X, Y)).max() < 1e-12


def test_gaussian_2d_examples():
    prob = gaussian_2d(15.0, 5.0, 1.0, 2.0)
    assert prob.u_inf(1.0, 2.0) == 1.0
    assert prob.g1(0.0, 2.0) == pytest.approx(30.0 * math.exp(-15.0), rel=1e-12)


def test_gaussian_2d_flux_balance():
    from neumannheat.scheme1d import check_compatibility
    from neumannheat.scheme2d import Problem2D
    case = gaussian_2d(15.0, 5.0, 1.0, 2.0)
    p = Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly)
    assert abs(check_compatibility(p)) < 1e-8
    offset = gaussian_2d(1.0, 5.0, 0.0, 4.0)
    p2 = Problem2D(offset.f, offset.g1, offset.g2, offset.Lx, offset.Ly)
    assert abs(check_compatibility(p2)) < 1e-8


def test_gaussian_2d_source_integral_matches_tensor_rule():
    from neumannheat.scheme1d import ForcedProblem, check_compatibility
    for case in (gaussian_2d(15.0, 5.0, 1.0, 2.0), gaussian_2d(1.0, 5.0, 0.0, 4.0)):
        # the same problem with and without the closed form: only f's integral differs
        fluxes, lengths = (case.g2, case.g1), (case.Ly, case.Lx)
        gap = (check_compatibility(ForcedProblem(case.f, fluxes, lengths, case.source_integral))
               - check_compatibility(ForcedProblem(case.f, fluxes, lengths)))
        assert abs(gap) <= 1e-15


def test_cosine_mode_derivatives_symbolic():
    x = sp.symbols("x")
    L = 1.5
    for p in (0, 1, 4):
        c = cosine_mode(p, L)
        amp = 1 if p == 0 else sp.sqrt(2)
        expr = amp * sp.cos(p * sp.pi * x / L)
        xs = np.linspace(0, L, 9)
        for k in range(6):
            ref = sp.lambdify(x, sp.diff(expr, x, k), "numpy")(xs)
            ref = np.broadcast_to(np.asarray(ref, dtype=float), xs.shape)
            assert np.abs(c.deriv(k, xs) - ref).max() < 1e-10 * max(1.0, (p * math.pi / L) ** k)
