import math

import numpy as np
import pytest

from scipy.fft import dctn

from neumannheat import (CflViolationError, Field1D, Grid, Grid1D, Grid2D,
                         GridMismatchError, NeumannLaplacian1D,
                         amplification_bound_check, cfl_ok,
                         eigenvalue, eigenvector, eta,
                         eta_geometric_sum, heat_kernel_spectrum_sum, inner,
                         norm_l2, ones, resolvent_power_sum)
from neumannheat.spectral import eigenvalues, laplacian, resolvent_power_sum_bound

from oracles import brute_eta_sum, brute_resolvent_power_sum, dense_neumann_matrix


def test_apply_kernel_and_examples():
    g = Grid1D(3, 1.0)
    op = NeumannLaplacian1D(g)
    assert np.array_equal(op.apply(ones(g)).values, np.zeros(3))
    out = op.apply(Field1D(g, np.array([1.0, 0.0, 0.0])))
    assert np.allclose(out.values, [-4.0, 4.0, 0.0], atol=1e-14)


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(0)
    for J in (2, 5, 9):
        g = Grid1D(J, 1.7)
        A = dense_neumann_matrix(J, g.dx)
        v = rng.standard_normal(J)
        mine = NeumannLaplacian1D(g).apply(Field1D(g, v)).values
        assert np.abs(mine - A @ v).max() < 1e-9 * np.abs(A @ v).max()


def test_apply_eigenpairs():
    for J in (2, 3, 17):
        g = Grid1D(J, 1.0)
        op = NeumannLaplacian1D(g)
        for ell in range(J):
            W = eigenvector(g, ell)
            lam = eigenvalue(g, ell)
            resid = op.apply(W).values - lam * W.values
            assert norm_l2(Field1D(g, resid)) <= 1e-11 * max(1.0, abs(lam))


def test_apply_symmetry_and_nonpositivity():
    rng = np.random.default_rng(3)
    g = Grid1D(19, 2.0)
    op = NeumannLaplacian1D(g)
    for _ in range(50):
        v = Field1D(g, rng.standard_normal(19))
        w = Field1D(g, rng.standard_normal(19))
        assert abs(inner(op.apply(v), w) - inner(v, op.apply(w))) < 1e-12 * g.J / g.dx ** 2
        assert inner(op.apply(v), v) <= 1e-12 / g.dx ** 2


def test_eigenvalue_examples():
    assert eigenvalue(Grid1D(4, 1.0), 0) == 0.0
    assert eigenvalue(Grid1D(2, 1.0), 1) == pytest.approx(-2.0, abs=1e-14)
    assert eigenvalue(Grid1D(4, 3.0), 2) == pytest.approx(-2.0, abs=1e-14)
    g = Grid1D(12, 1.0)
    lams = [eigenvalue(g, ell) for ell in range(12)]
    assert all(a > b for a, b in zip(lams, lams[1:]))  # strictly decreasing
    with pytest.raises(IndexError):
        eigenvalue(g, 12)
    with pytest.raises(IndexError):
        eigenvalue(g, -1)


def test_min_nonzero_eigenvalue_identity():
    for J in (2, 5, 33):
        g = Grid1D(J, 1.4)
        smallest = min(abs(eigenvalue(g, ell)) for ell in range(1, J))
        assert smallest == pytest.approx(
            4.0 / g.dx ** 2 * math.sin(math.pi / (2 * J)) ** 2, rel=1e-15)


def test_eigenvalues_diagonalised_by_dct():
    rng = np.random.default_rng(17)
    g1 = Grid1D(7, 1.3)
    g2 = Grid2D(5, 8, 1.0, 2.5)
    lam1, lam2 = eigenvalues(g1), eigenvalues(g2)
    assert lam1.shape == (7,) and lam2.shape == (8, 5)
    assert lam1 == pytest.approx([eigenvalue(g1, ell) for ell in range(7)], rel=1e-14)
    gx, gy = Grid1D(5, 1.0), Grid1D(8, 2.5)
    for ly in range(8):
        for lx in range(5):
            assert lam2[ly, lx] == pytest.approx(
                eigenvalue(gy, ly) + eigenvalue(gx, lx), rel=1e-14, abs=1e-14)
    # the orthonormal DCT-II turns the stencil into multiplication by lambda
    for g, lam in ((g1, lam1), (g2, lam2)):
        u = rng.standard_normal(g.shape)
        lhs = dctn(laplacian(u, g.spacings), type=2, norm="ortho")
        rhs = lam * dctn(u, type=2, norm="ortho")
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lam).max()


def test_eigenvector_examples():
    g = Grid1D(7, 1.0)
    assert np.array_equal(eigenvector(g, 0).values, np.ones(7))
    g2 = Grid1D(2, 1.0)
    assert np.allclose(eigenvector(g2, 1).values, [1.0, -1.0], atol=1e-15)


def test_eigenbasis_completeness():
    rng = np.random.default_rng(11)
    for J in (2, 3, 17, 64, 257):
        g = Grid1D(J, 1.0)
        v = Field1D(g, rng.standard_normal(J))
        recon = np.zeros(J)
        for ell in range(J):
            W = eigenvector(g, ell)
            recon += inner(v, W) * W.values
        assert norm_l2(Field1D(g, recon - v.values)) <= 1e-11 * norm_l2(v)


def test_eta_examples():
    g = Grid1D(2, 1.0)
    assert abs(eta(g, 0.5)) < 1e-14
    assert eta(g, 0.25) == pytest.approx(0.5, abs=1e-14)
    g17 = Grid1D(17, 1.0)
    assert 0.0 < eta(g17, g17.dx ** 2 / 2) < 1.0
    # dt -> 0+: approaches 1 from below
    assert 1.0 - 1e-6 < eta(g17, 1e-9) < 1.0


def test_eta_is_max_over_all_modes():
    rng = np.random.default_rng(2)
    for _ in range(30):
        J = int(rng.integers(2, 40))
        g = Grid1D(J, float(rng.uniform(0.5, 3.0)))
        dt = float(rng.uniform(0.05, 0.5)) * g.dx ** 2
        brute = max(abs(1.0 + dt * eigenvalue(g, ell)) for ell in range(1, J))
        assert eta(g, dt) == pytest.approx(brute, abs=0.0)


def test_cfl_examples():
    g = Grid1D(9, 1.0)
    assert cfl_ok(g, g.dx ** 2 / 2)
    assert not cfl_ok(g, 0.51 * g.dx ** 2)
    assert cfl_ok(g, g.dx ** 2 / 4)


def test_stability_rule_at_its_limit():
    # one rule, dt * sum over the axes of 1/h^2 <= 1/2, must accept every time
    # step the harness and the CLI build: cfl * dx^2 on a 1D grid and
    # cfl / sum(1/h^2) on more axes (the catalog boxes: x in (0, 2), y in
    # (0, 4), z in (0, 2)); 0.51 times the limit is still refused
    for J in range(2, 513):
        Jy = round(2.0 * (J - 1)) + 1  # dy = dx, as `scheme2d.grid_for` picks
        multi = (Grid((Jy, J), (4.0, 2.0)), Grid((J, Jy, J), (2.0, 4.0, 2.0)),
                 Grid((J, J), (1.0, 1.0)))
        for g in (Grid1D(J, 1.0), Grid1D(J, 2.0)):
            assert not cfl_ok(g, 0.51 * g.dx ** 2)
            for cfl in (0.5, 0.25):
                assert cfl_ok(g, cfl * g.dx ** 2)
        for g in multi:
            inv_h2 = sum(1.0 / h ** 2 for h in g.spacings)
            assert not cfl_ok(g, 0.51 / inv_h2)
            for cfl in (0.5, 0.25):
                assert cfl_ok(g, cfl / inv_h2)


def test_grid_mismatch_is_one_error():
    op = NeumannLaplacian1D(Grid1D(5, 1.0))
    for other in (Grid1D(5, 2.0), Grid1D(6, 1.0), Grid2D(5, 2, 1.0, 1.0)):
        with pytest.raises(GridMismatchError):
            op.apply(ones(other))
    # the 1D spectral formulas read J and L, which a 2D grid refuses
    with pytest.raises(ValueError):
        eta(Grid2D(5, 4, 1.0, 1.0), 1e-3)
    with pytest.raises(ValueError):
        resolvent_power_sum(Grid2D(5, 4, 1.0, 1.0), 1e-3, 10)


def test_amplification_bound():
    for J, c in ((17, 0.5), (64, 0.25)):
        g = Grid1D(J, 1.0)
        rep = amplification_bound_check(g, c * g.dx ** 2)
        assert rep.ok
        assert rep.margins[0] == 0.0  # both sides are exactly 1 at ell = 0
        assert rep.margins.min() >= 0.0
    with pytest.raises(CflViolationError):
        amplification_bound_check(Grid1D(9, 1.0), Grid1D(9, 1.0).dx ** 2)


def test_eta_geometric_sum():
    g = Grid1D(17, 1.0)
    dt = g.dx ** 2 / 2
    assert eta_geometric_sum(g, dt, 1) == pytest.approx(dt, abs=0.0)
    assert eta_geometric_sum(g, dt, 10 ** 6) <= 2.0
    g2 = Grid1D(33, 2.0)
    assert eta_geometric_sum(g2, g2.dx ** 2 / 2, 10 ** 6) <= 8.0
    # closed form vs direct power sum
    for n in (1, 2, 7, 40):
        assert eta_geometric_sum(g, dt, n) == pytest.approx(
            brute_eta_sum(17, 1.0, dt, n), rel=1e-12)
    # eta = 0 edge case: J = 2 at the CFL boundary
    g3 = Grid1D(2, 1.0)
    assert eta_geometric_sum(g3, 0.5, 5) == pytest.approx(0.5, rel=1e-12)


def test_resolvent_power_sum():
    g = Grid1D(9, 1.0)
    dt = g.dx ** 2 / 2
    assert resolvent_power_sum(g, dt, 1) == pytest.approx((9 - 1) * dt ** 2, rel=1e-13)
    for n in (1, 3, 7, 25):
        assert resolvent_power_sum(g, dt, n) == pytest.approx(
            brute_resolvent_power_sum(9, 1.0, dt, n), rel=1e-11)
    # ratio within 1e-14 of 1: the geometric sum falls back to n*dt per mode
    assert resolvent_power_sum(g, 1e-18, 7) == pytest.approx(8 * (7e-18) ** 2, rel=1e-12)
    vals = [resolvent_power_sum(g, dt, n) for n in (1, 2, 5, 20, 100, 10 ** 5)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))  # nondecreasing
    g65 = Grid1D(65, 1.0)
    assert resolvent_power_sum(g65, g65.dx ** 2 / 2, 10 ** 5) <= resolvent_power_sum_bound(1.0)


def test_heat_kernel_spectrum_sum():
    g2 = Grid1D(2, 1.0)
    val, bound = heat_kernel_spectrum_sum(g2, 0.7, 3)
    assert val == pytest.approx(g2.dx * math.exp(-0.7 * 3), rel=1e-14)
    assert val <= bound
    g = Grid1D(101, 1.0)
    val, bound = heat_kernel_spectrum_sum(g, 0.5, 100)
    assert bound == pytest.approx(math.sqrt(math.pi) / math.sqrt(50.0), rel=1e-14)
    assert val <= bound
    vals = [heat_kernel_spectrum_sum(g, 0.5, m)[0] for m in (1, 2, 5, 20, 100)]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in m
