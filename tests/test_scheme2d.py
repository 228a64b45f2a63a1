import numpy as np
import pytest

from neumannheat import (CflViolationError, Field1D, Field2D, Grid1D, Grid2D,
                         GridMismatchError, IncompatibleProblemError,
                         NeumannLaplacian1D, Problem2D, build_rhs2d, cfl_ok,
                         check_compatibility, gaussian_2d, inner, mean2d,
                         new_run, norm2d, ones, project, propagate, run2d_to,
                         solve_steady_2d)
from neumannheat.scheme2d import grid_for
from neumannheat.spectral import eigenvalue, eigenvector, laplacian

from oracles import exact_steady_count


# the four test_apply2d_* tests check `laplacian` on two-axis grids
def test_apply2d_constant_kernel():
    g = Grid2D(4, 6, 2.0, 3.0)
    out = laplacian(2.5 * np.ones((6, 4)), g.spacings)
    assert np.array_equal(out, np.zeros((6, 4)))


def test_apply2d_tensor_eigenvector():
    g = Grid2D(5, 7, 1.0, 2.0)
    gx, gy = Grid1D(5, 1.0), Grid1D(7, 2.0)
    for lx in (0, 1, 4):
        for ly in (0, 2, 6):
            wx = eigenvector(gx, lx).values
            wy = eigenvector(gy, ly).values
            field = np.outer(wy, wx)
            lam = eigenvalue(gx, lx) + eigenvalue(gy, ly)
            out = laplacian(field, g.spacings)
            assert np.abs(out - lam * field).max() <= \
                1e-11 * max(1.0, abs(lam))


def test_apply2d_symmetry():
    rng = np.random.default_rng(6)
    g = Grid2D(5, 7, 1.0, 2.0)
    for _ in range(30):
        v = Field2D(g, rng.standard_normal((7, 5)))
        w = Field2D(g, rng.standard_normal((7, 5)))
        av = Field2D(g, laplacian(v.values, g.spacings))
        aw = Field2D(g, laplacian(w.values, g.spacings))
        assert inner(av, w) == pytest.approx(inner(v, aw), abs=1e-10)


def test_apply2d_embeds_1d():
    rng = np.random.default_rng(13)
    g = Grid2D(9, 5, 1.0, 7.0)
    g1 = Grid1D(9, 1.0)
    row = rng.standard_normal(9)
    out = laplacian(np.tile(row, (5, 1)), g.spacings)
    ref = NeumannLaplacian1D(g1).apply(Field1D(g1, row)).values
    for iy in range(5):
        assert np.array_equal(out[iy], ref)


def test_cfl2d():
    g = Grid2D(5, 5, 1.0, 1.0)  # dx = dy = 1/4
    h2 = g.dx ** 2
    assert cfl_ok(g, h2 / 4)
    assert not cfl_ok(g, h2 / 2)
    # a very coarse y-direction recovers the 1D rule
    g_wide = Grid2D(5, 2, 1.0, 1e6)
    assert cfl_ok(g_wide, 0.499 * g_wide.dx ** 2)


def test_grid_for_matches_spacings():
    g = grid_for(33, 2.0, 4.0)
    assert g.Jx == 33 and g.Jy == 65
    assert g.dx == pytest.approx(g.dy, rel=1e-12)


def test_build_rhs2d_zero():
    g = Grid2D(4, 5, 1.0, 1.0)
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    p = Problem2D(zero, zero, zero, 1.0, 1.0)
    rhs = build_rhs2d(p, g)
    assert np.array_equal(rhs.b.values, np.zeros((5, 4)))
    assert rhs.r == 0.0


def test_build_rhs2d_mean_and_correction_size():
    case = gaussian_2d(15.0, 5.0, 1.0, 2.0)
    p = Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly)
    for Jx in (32, 64):
        g = grid_for(Jx, case.Lx, case.Ly)
        rhs = build_rhs2d(p, g)
        assert abs(mean2d(rhs.b)) < 1e-14 * np.abs(rhs.b.values).max()
        assert abs(rhs.r) <= 1e-3


def test_build_rhs2d_corner_accumulates_both_faces():
    g = Grid2D(3, 3, 2.0, 2.0)
    one = lambda *args: np.ones(np.broadcast(*[np.asarray(a) for a in args]).shape)
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    p = Problem2D(zero, one, zero, 2.0, 2.0)  # g1 = 1 on the vertical sides
    b = build_rhs2d(p, g).b.values
    # corner (0,0) gets the x-face term -1/dx; a y-face-only node gets none
    assert b[0, 0] - b[1, 0] == pytest.approx(0.0, abs=1e-15)  # same x-face column
    assert b[1, 0] - b[1, 1] == pytest.approx(-1.0 / g.dx, abs=1e-14)
    p2 = Problem2D(zero, one, one, 2.0, 2.0)
    b2 = build_rhs2d(p2, g).b.values
    assert b2[0, 0] - b2[1, 0] == pytest.approx(-1.0 / g.dy, abs=1e-14)


def test_cfl2d_enforced():
    g = Grid2D(5, 5, 1.0, 1.0)
    with pytest.raises(CflViolationError):
        new_run(g, g.dx ** 2 / 2, ones(g))


def test_run2d_checkpoint_rounding():
    g = Grid2D(2, 2, 1.0, 1.0)  # dx = dy = 1
    st = new_run(g, 0.25, ones(g))
    (cp,) = run2d_to(st, [1.0])
    assert cp.n == 4 and cp.t_realized == 1.0
    assert np.array_equal(cp.field.values, np.ones((2, 2)))


def test_homogeneous_norm_never_increases():
    rng = np.random.default_rng(17)
    g = Grid2D(6, 9, 1.0, 2.0)
    dt = 0.5 / (1 / g.dx ** 2 + 1 / g.dy ** 2)
    for _ in range(100):
        vals = rng.standard_normal((9, 6))
        vals -= vals.mean()
        st = new_run(g, dt, Field2D(g, vals))
        prev = norm2d(st.field)
        for n in range(1, 101):
            run2d_to(st, [n * dt])
            cur = norm2d(st.field)
            assert cur <= prev * (1 + 1e-14)
            prev = cur


def test_solve_steady_2d_trivial_fixed_point():
    g = Grid2D(4, 4, 1.0, 1.0)
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    p = Problem2D(zero, zero, zero, 1.0, 1.0)
    res = solve_steady_2d(p, g, g.dx ** 2 / 8, Field2D(g, 0.7 * np.ones((4, 4))), tol=1e-12)
    assert res.converged and res.iterations == 0
    assert res.residual == 0.0


def test_solve_steady_2d_small_gaussian():
    case = gaussian_2d(1.0, 1.0, 1.0, 2.0)
    p = Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly)
    g = grid_for(17, case.Lx, case.Ly)
    dt = 0.5 / (1 / g.dx ** 2 + 1 / g.dy ** 2)
    res = solve_steady_2d(p, g, dt, Field2D(g, np.zeros((g.Jy, g.Jx))), tol=1e-10)
    assert res.converged
    # mean is conserved at the initial (zero) value
    assert abs(mean2d(res.field)) < 1e-10
    # after matching the free constant the shape approximates the Gaussian
    target = project(g, case.u_inf).values
    shifted = res.field.values + (target.mean() - res.field.values.mean())
    assert np.abs(shifted - target).max() < 0.05


def test_solve_steady_2d_count_matches_exact_arithmetic():
    case = gaussian_2d(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)
    p = Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly)
    g = grid_for(48, case.Lx, case.Ly)
    dt = 0.5 / (1 / g.dx ** 2 + 1 / g.dy ** 2)
    v0 = np.zeros((g.Jy, g.Jx))
    res = solve_steady_2d(p, g, dt, Field2D(g, v0), tol=1e-8)
    assert res.converged
    b = build_rhs2d(p, g).b.values
    assert res.iterations == exact_steady_count([(g.Jy, g.dy), (g.Jx, g.dx)], v0, b, dt, 1e-8)


def test_solve_steady_2d_rejects_unbalanced_problem():
    # f = 1 with zero flux heats the rectangle forever: no steady state
    g = Grid2D(5, 5, 1.0, 1.0)
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    p = Problem2D(one, zero, zero, 1.0, 1.0)
    assert check_compatibility(p) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(IncompatibleProblemError):
        solve_steady_2d(p, g, g.dx ** 2 / 8, ones(g))
    # the same source balanced by the outflow of u = -x^2/2 through x = Lx
    p_ok = Problem2D(one, lambda x, y: -np.asarray(x) * np.ones_like(y), zero, 2.0, 1.0)
    assert abs(check_compatibility(p_ok)) < 1e-14
    g_ok = grid_for(5, 2.0, 1.0)
    assert solve_steady_2d(p_ok, g_ok, 0.01, ones(g_ok), tol=1e-8).converged


def test_unbalanced_2d_mean_drifts_at_the_continuous_rate():
    # f = 1, zero flux: the mean grows by int f / (N dx dy) = 64/81 per unit
    # time on the 9x9 unit square, by stepping and by propagation alike
    g = Grid2D(9, 9, 1.0, 1.0)
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    rhs = build_rhs2d(Problem2D(one, zero, zero, 1.0, 1.0), g)
    dt = 0.5 / (1 / g.dx ** 2 + 1 / g.dy ** 2)
    v0 = Field2D(g, np.zeros((9, 9)))
    for run in (run2d_to, propagate):
        (cp,) = run(new_run(g, dt, v0, rhs), [1.0])
        assert cp.t_realized == 1.0
        assert mean2d(cp.field) == pytest.approx(64.0 / 81.0, rel=1e-13)


def test_check_compatibility_2d_tensor_rule():
    # polynomial data are integrated exactly by the 24-point panels:
    # int_0^2 int_0^3 x y^2 = 18; flux terms (g1 = x^2 y, g2 = x y):
    # int_0^3 (4 y - 0) dy + int_0^2 (3 x - 0) dx = 18 + 6
    p = Problem2D(lambda x, y: x * y ** 2, lambda x, y: x ** 2 * np.asarray(y),
                  lambda x, y: np.asarray(x) * y, 2.0, 3.0)
    assert check_compatibility(p) == pytest.approx(18.0 + 24.0, rel=1e-14)


def test_new_run2d_checks_rhs_grid():
    g, other = Grid2D(4, 4, 1.0, 1.0), Grid2D(4, 5, 1.0, 1.0)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    rhs = build_rhs2d(Problem2D(zero, zero, zero, 1.0, 1.0), other)
    with pytest.raises(GridMismatchError):
        new_run(g, g.dx ** 2 / 8, ones(g), rhs)
