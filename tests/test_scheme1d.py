import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from neumannheat import (CflViolationError, DiscreteRHS, Field, Field1D, Field2D,
                         ForcedProblem, Grid, Grid1D, GridMismatchError,
                         IncompatibleProblemError,
                         InstabilityError, NeumannLaplacian1D, NonhomogProblem,
                         Problem2D, build_rhs, check_compatibility, eta,
                         eigenvalue, eigenvector, gaussian_2d, mean, new_run, norm_l2,
                         ones, propagate, run_to, solve_steady_2d,
                         solve_steady_iterative, solve_steady_laplace,
                         steady_1d)
from neumannheat import _kernels, grid, scheme1d
from neumannheat.scheme1d import _iterate_to_steady
from neumannheat.scheme2d import grid_for
from neumannheat.spectral import laplacian

from oracles import dense_neumann_matrix, dense_power_apply, exact_steady_count


def sec52_problem():
    ss = steady_1d()
    return NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L,
                           f_integral=ss.source_integral), ss


def test_step_kernel_mode():
    g = Grid1D(9, 1.0)
    st = new_run(g, g.dx ** 2 / 2, ones(g))
    run_to(st, [(st.n + 1) * st.dt])
    assert np.array_equal(st.values, np.ones(9))
    assert st.n == 1 and st.t == g.dx ** 2 / 2


@pytest.mark.parametrize("spacings", [(0.1,), (0.25, 0.2), (0.5, 0.4, 0.3)])
@pytest.mark.parametrize("forced", [False, True])
def test_advance_matches_laplacian_steps_on_any_number_of_axes(spacings, forced):
    # the one stepping loop against v <- v + dt*(A v + b) written with the
    # out-of-place `laplacian`, on 1, 2 and 3 axes (x is the last array axis)
    rng = np.random.default_rng(len(spacings))
    shape = (11, 7, 5)[-len(spacings):]
    v0 = rng.standard_normal(shape)
    b = rng.standard_normal(shape) if forced else np.zeros(shape)
    dt = 0.45 / sum(h ** -2 for h in spacings)
    expected = v0
    for _ in range(40):
        expected = expected + dt * (laplacian(expected, spacings) + b)
    got = _kernels.advance(v0.copy(), [dt / h ** 2 for h in spacings],
                           dt * b if forced else None, 40)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_step_eigenmode():
    g = Grid1D(12, 1.0)
    dt = g.dx ** 2 / 4
    for ell in (1, 5, 11):
        st = new_run(g, dt, eigenvector(g, ell))
        run_to(st, [(st.n + 1) * st.dt])
        expected = (1.0 + dt * eigenvalue(g, ell)) * eigenvector(g, ell).values
        assert np.abs(st.values - expected).max() < 1e-12


def test_step_preserves_mean_with_balanced_rhs():
    p, ss = sec52_problem()
    g = Grid1D(33, ss.L)
    rhs = build_rhs(p, g)
    rng = np.random.default_rng(4)
    st = new_run(g, g.dx ** 2 / 2, Field1D(g, rng.standard_normal(33)), rhs)
    m0 = mean(st.field)
    run_to(st, [(st.n + 1) * st.dt])
    assert mean(st.field) == pytest.approx(m0, abs=1e-13)


def test_cfl_enforced_at_construction():
    g = Grid1D(9, 1.0)
    with pytest.raises(CflViolationError):
        new_run(g, 0.51 * g.dx ** 2, ones(g))


def test_run_to_checkpoints():
    g = Grid1D(5, 1.0)
    st = new_run(g, 0.25 * g.dx ** 2, ones(g))
    (cp,) = run_to(st, [0.0])
    assert cp.n == 0 and cp.t_realized == 0.0
    assert np.array_equal(cp.field.values, np.ones(5))

    g2 = Grid1D(2, 1.0)  # dx = 1 allows round time steps
    st = new_run(g2, 0.25, ones(g2))
    (cp,) = run_to(st, [1.0])
    assert cp.n == 4 and cp.t_realized == 1.0

    st = new_run(g2, 0.3, ones(g2))
    (cp,) = run_to(st, [1.0])
    assert cp.n == 3 and cp.t_realized == pytest.approx(0.9)

    with pytest.raises(ValueError):
        run_to(new_run(g2, 0.25, ones(g2)), [])
    with pytest.raises(ValueError):
        run_to(new_run(g2, 0.25, ones(g2)), [0.5, 0.25])


def test_new_run_checks_grids():
    g = Grid1D(5, 1.0)
    p = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.3, f_integral=0.0)
    with pytest.raises(GridMismatchError):
        new_run(g, g.dx ** 2 / 2, ones(Grid1D(5, 1.3)))
    with pytest.raises(GridMismatchError):
        new_run(g, g.dx ** 2 / 2, ones(g), build_rhs(p, Grid1D(5, 1.3)))


def test_run_to_equivalent_to_single_steps():
    g = Grid1D(17, 1.0)
    rng = np.random.default_rng(9)
    v0 = Field1D(g, rng.standard_normal(17))
    dt = g.dx ** 2 / 2
    st_bulk = new_run(g, dt, v0)
    (cp,) = run_to(st_bulk, [100 * dt])
    st_manual = new_run(g, dt, v0)
    for _ in range(100):
        run_to(st_manual, [(st_manual.n + 1) * st_manual.dt])
    assert np.array_equal(cp.field.values, st_manual.values)


def test_build_rhs_examples():
    g = Grid1D(4, 1.0)
    p_one = NonhomogProblem(lambda x: np.ones_like(x), 0.0, -1.0, 1.0, f_integral=1.0)
    rhs = build_rhs(p_one, g)
    assert rhs.r == pytest.approx(-0.25, abs=1e-15)

    p_zero = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.0, f_integral=0.0)
    rhs0 = build_rhs(p_zero, g)
    assert np.array_equal(rhs0.b.values, np.zeros(4))
    assert rhs0.r == 0.0

    p52, ss = sec52_problem()
    for J in (16, 257):
        assert abs(mean(build_rhs(p52, Grid1D(J, ss.L)).b)) < 1e-12


def test_check_compatibility():
    p52, _ = sec52_problem()
    assert check_compatibility(p52) == 0.0
    p_bad = NonhomogProblem(lambda x: np.zeros_like(x), 1.0, 0.0, 1.0, f_integral=0.0)
    assert check_compatibility(p_bad) == -1.0
    p_ok = NonhomogProblem(lambda x: np.ones_like(x), 0.0, -1.0, 1.0, f_integral=1.0)
    assert check_compatibility(p_ok) == 0.0


@pytest.mark.parametrize("shape, lengths", [((9,), (1.0,)), ((5, 9), (2.0, 1.0)),
                                            ((4, 5, 6), (1.5, 2.0, 1.0))])
def test_rhs_carries_the_balance_on_any_number_of_axes(shape, lengths):
    # f = 1: with zero flux it heats the box forever; the outflow u_x = -x
    # of u = -x^2/2 through the high x face balances it.  No f_integral: the
    # source integral comes from the tensor Gauss rule.
    g = Grid(shape, lengths)
    one = lambda *c: np.ones(np.broadcast(*c).shape)
    zero_flux = (0.0,) * len(shape)
    heating = ForcedProblem(one, zero_flux, lengths)
    outflow = ForcedProblem(one, zero_flux[:-1] + (lambda x, *c: -x * one(x, *c),), lengths)
    volume = math.prod(lengths)
    n_dv = math.prod(shape) * math.prod(g.spacings)
    for p, balance in ((heating, volume), (outflow, 0.0)):
        residual = check_compatibility(p)
        assert residual == pytest.approx(balance, abs=1e-14 * volume)
        assert n_dv * mean(build_rhs(p, g).b) == pytest.approx(residual, abs=1e-13 * volume)
    dt = 0.5 / sum(1.0 / h ** 2 for h in g.spacings)
    with pytest.raises(IncompatibleProblemError):
        solve_steady_iterative(heating, g, dt, ones(g))
    res = solve_steady_iterative(outflow, g, dt, ones(g), tol=1e-8)
    assert res.converged and mean(res.field) == pytest.approx(1.0, abs=1e-12)


def test_balance_is_integrated_once_when_the_problem_is_made():
    # the 2D Gaussian's fluxes: integrated on the 384-point Gauss rule of the
    # other axis when the problem is made, then sampled only on face nodes
    case = gaussian_2d(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)
    sizes = []

    def counting(flux):
        return lambda x, y: sizes.append(np.broadcast(x, y).size) or flux(x, y)
    p = ForcedProblem(case.f, (counting(case.g2), counting(case.g1)), (case.Ly, case.Lx),
                      case.source_integral)
    assert 2 * 384 in sizes
    assert check_compatibility(p) == math.fsum(p.balance)
    assert p.balance[0] == case.source_integral and len(p.balance) == 3
    sizes.clear()
    for Jx in (8, 16, 33):
        g = grid_for(Jx, case.Lx, case.Ly)
        build_rhs(p, g)
        assert sizes[-2:] == [2 * g.Jx, 2 * g.Jy]
    assert len(sizes) == 6


def test_forced_problem_refuses_a_mismatched_box():
    zero = lambda *c: np.zeros(np.broadcast(*c).shape)
    with pytest.raises(ValueError):
        check_compatibility(ForcedProblem(zero, (0.0,), (1.0, 2.0)))
    with pytest.raises(GridMismatchError):
        build_rhs(NonhomogProblem(zero, 0.0, 0.0, 1.0, f_integral=0.0), Grid1D(5, 2.0))


def test_steady_solvers_refuse_by_the_balance_without_summing_b(monkeypatch):
    def unread(*args):
        raise AssertionError("the refusal must not assemble or sum b")
    for name in ("build_rhs", "_build_rhs", "exact_sum"):
        monkeypatch.setattr(scheme1d, name, unread)
    monkeypatch.setattr(grid, "mean", unread)
    g = Grid1D(9, 1.0)
    p_bad = NonhomogProblem(lambda x: np.zeros_like(x), 1.0, 0.0, 1.0, f_integral=0.0)
    # the balance -1 over N dV = 9/8
    with pytest.raises(IncompatibleProblemError, match=r"mean\(b\), is -8\.889e-01"):
        solve_steady_iterative(p_bad, g, g.dx ** 2 / 2, ones(g))
    with pytest.raises(IncompatibleProblemError):
        solve_steady_laplace(p_bad, g, 1e-3)
    g2 = Grid((5, 5), (1.0, 1.0))
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    with pytest.raises(IncompatibleProblemError):
        solve_steady_2d(Problem2D(one, zero, zero, 1.0, 1.0), g2, g2.dx ** 2 / 8, ones(g2))


def test_balanced_problem_on_a_mismatched_box_is_refused_by_the_solvers():
    p = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.0, f_integral=0.0)
    g = Grid1D(5, 2.0)
    with pytest.raises(GridMismatchError):
        solve_steady_iterative(p, g, g.dx ** 2 / 2, ones(g))
    with pytest.raises(GridMismatchError):
        solve_steady_laplace(p, g, 1e-3)
    with pytest.raises(GridMismatchError):
        solve_steady_2d(Problem2D(lambda x, y: 0.0 * x * y, 0.0, 0.0, 1.0, 1.0),
                        Grid((5, 5), (1.0, 2.0)), 1e-3, ones(Grid((5, 5), (1.0, 2.0))))


def test_forced_problem_refuses_non_finite_balance_terms():
    zero = lambda *c: np.zeros(np.broadcast(*c).shape)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="balance terms must be finite"):
            NonhomogProblem(zero, bad, 0.0, 1.0, f_integral=0.0)
        with pytest.raises(ValueError, match="balance terms must be finite"):
            NonhomogProblem(zero, 0.0, 0.0, 1.0, f_integral=bad)
        with pytest.raises(ValueError, match="balance terms must be finite"):
            ForcedProblem(zero, (0.0, lambda x, y: bad + 0.0 * x * y), (1.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("source", [True, False])
def test_build_rhs_refuses_a_value_that_is_not_finite_at_a_node(bad, source):
    # not finite on the row y = 0.5 of nodes, which the balance never samples:
    # its source integral is given, and its x-face rule has Gauss points in y.
    # An infinite flux enters b as -inf on one face and +inf on the other,
    # which math.fsum refuses in the mean.
    g = Grid((5, 5), (1.0, 1.0))
    spike = lambda x, y: np.where(y == 0.5, bad, 0.0 * x)
    p = ForcedProblem(spike if source else 0.0, (0.0, 0.0 if source else spike),
                      g.lengths, f_integral=0.0)
    with pytest.raises(ValueError, match="non-finite entries|inf \\+ inf in fsum"):
        build_rhs(p, g)


def test_build_rhs_leaves_the_source_array_alone():
    g = Grid1D(9, 1.0)
    kept = np.linspace(0.0, 1.0, 9)
    p = NonhomogProblem(lambda x: kept, 0.5, 1.0, 1.0, f_integral=0.0)
    rhs = build_rhs(p, g)
    assert np.array_equal(kept, np.linspace(0.0, 1.0, 9))
    assert not np.shares_memory(rhs.b.values, kept)


def test_incompatible_rejected_by_steady_solvers_but_steppable():
    g = Grid1D(9, 1.0)
    p_bad = NonhomogProblem(lambda x: np.zeros_like(x), 1.0, 0.0, 1.0, f_integral=0.0)
    with pytest.raises(IncompatibleProblemError):
        solve_steady_iterative(p_bad, g, g.dx ** 2 / 2, ones(g))
    with pytest.raises(IncompatibleProblemError):
        solve_steady_laplace(p_bad, g, 1e-3)
    # time stepping remains well defined, also past 4096 steps
    for n in (20, 5000):
        st = new_run(g, g.dx ** 2 / 2, ones(g), build_rhs(p_bad, g))
        (cp,) = run_to(st, [n * st.dt])
        assert cp.n == n
        assert np.all(np.isfinite(cp.field.values))
        # the mean drifts linearly at rate mean(b)
        drift = mean(cp.field) - 1.0
        assert drift == pytest.approx(n * st.dt * mean(build_rhs(p_bad, g).b), rel=1e-10)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2, 3]), J=hs.integers(2, 12), cfl=hs.floats(0.01, 0.5),
       n=hs.integers(0, 10_000), seed=hs.integers(0, 2 ** 32 - 1))
@example(dim=1, J=9, cfl=0.5, n=5000, seed=0)
@example(dim=2, J=5, cfl=0.5, n=4096, seed=1)
@example(dim=3, J=6, cfl=0.5, n=2048, seed=2)
def test_mean_evolves_at_rate_mean_b(dim, J, cfl, n, seed):
    # sum_j (A v)_j = 0, so each step adds exactly dt * mean(b) to the mean
    rng = np.random.default_rng(seed)
    if dim == 1:
        g = Grid1D(J, 1.0 + rng.random())
        dt = cfl * g.dx ** 2
    else:
        g = (Grid((J + 2, J), (1.0 + rng.random(), 1.0)) if dim == 2
             else Grid((3, min(J, 6), 4), (1.0 + rng.random(), 1.0, 0.5)))
        dt = cfl / sum(1.0 / h ** 2 for h in g.spacings)
    v0, b = Field(g, rng.standard_normal(g.shape)), Field(g, rng.standard_normal(g.shape))
    for advance in (run_to, propagate):
        run = new_run(g, dt, v0, DiscreteRHS(b, 0.0))
        (cp,) = advance(run, [n * dt])
        assert cp.n == n
        expected = mean(v0) + n * dt * b.values.mean()
        scale = max(1.0, np.abs(cp.field.values).max(), n * dt * np.abs(b.values).max())
        assert abs(cp.field.values.mean() - expected) <= 1e-13 * (n + 1) * scale


def _random_run(dim, J, Jy, cfl, seed, forced):
    """A random datum, and a random right-hand side if ``forced``, on a random
    grid of ``dim`` axes: J nodes along x, Jy along y and 3 along z, with J and
    Jy capped at 6 in 3D.  dt/dx^2 = cfl in 1D, dt * sum(1/h^2) = cfl else."""
    rng = np.random.default_rng(seed)
    shape = ((J,), (Jy, J), (3, min(Jy, 6), min(J, 6)))[dim - 1]
    g = Grid(shape, [0.5 + rng.random() for _ in shape][::-1])
    dt = cfl * g.dx ** 2 if dim == 1 else cfl / sum(1.0 / h ** 2 for h in g.spacings)
    rhs = DiscreteRHS(Field(g, rng.standard_normal(g.shape)), 0.0) if forced else None
    return g, dt, Field(g, rng.standard_normal(g.shape)), rhs


def _rel_gap(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


@settings(max_examples=16, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2, 3]), J=hs.integers(2, 64), Jy=hs.integers(2, 16),
       cfl=hs.floats(0.01, 0.5), n=hs.integers(0, 10_000),
       seed=hs.integers(0, 2 ** 32 - 1), forced=hs.booleans())
@example(dim=1, J=64, Jy=2, cfl=0.5, n=10_000, seed=3, forced=True)
@example(dim=2, J=64, Jy=16, cfl=0.5, n=10_000, seed=4, forced=True)
@example(dim=2, J=2, Jy=2, cfl=0.5, n=7, seed=5, forced=False)
@example(dim=3, J=6, Jy=5, cfl=0.5, n=2000, seed=11, forced=True)
def test_propagate_matches_stepping(dim, J, Jy, cfl, n, seed, forced):
    g, dt, v0, rhs = _random_run(dim, J, Jy, cfl, seed, forced)
    stepped = run_to(new_run(g, dt, v0, rhs), [n * dt / 3, n * dt])
    exact = propagate(new_run(g, dt, v0, rhs), [n * dt / 3, n * dt])
    for s, p in zip(stepped, exact):
        assert (p.n, p.t_realized) == (s.n, s.t_realized)
        assert _rel_gap(p.field.values, s.field.values) <= 1e-11


def test_propagate_matches_stepping_forced_j257():
    p52, ss = sec52_problem()
    g = Grid1D(257, ss.L)
    dt = g.dx ** 2 / 2
    v0 = Field1D(g, np.full(257, ss.mean_value))
    (s,) = run_to(new_run(g, dt, v0, build_rhs(p52, g)), [1.0])
    (p,) = propagate(new_run(g, dt, v0, build_rhs(p52, g)), [1.0])
    assert p.n == s.n == round(1.0 / dt)
    assert _rel_gap(p.field.values, s.field.values) <= 1e-11


def test_propagate_matches_dense_matrix_power():
    rng = np.random.default_rng(32)
    for J in (2, 5, 9):
        g = Grid1D(J, 1.3)
        for c in (0.5, 0.23):
            dt = c * g.dx ** 2
            v0, b = rng.standard_normal(J), rng.standard_normal(J)
            for rhs in (None, DiscreteRHS(Field1D(g, b), 0.0)):
                st = new_run(g, dt, Field1D(g, v0), rhs)
                propagate(st, [200 * dt])
                ref = dense_power_apply(J, g.dx, dt, v0, 200, None if rhs is None else b)
                assert np.abs(st.values - ref).max() < 1e-12


def test_propagate_matches_dense_kronecker_sum_power_3d():
    # A = A_z (x) I (x) I + I (x) A_y (x) I + I (x) I (x) A_x acts on the
    # C-order ravel of a (z, y, x) field; the steps are dense matrix products
    rng = np.random.default_rng(35)
    g = Grid((3, 4, 5), (0.7, 1.1, 1.3))
    A = 0.0
    for axis in range(3):
        factors = [dense_neumann_matrix(J, h) if a == axis else np.eye(J)
                   for a, (J, h) in enumerate(zip(g.shape, g.spacings))]
        A = A + np.kron(np.kron(factors[0], factors[1]), factors[2])
    for cfl in (0.5, 0.23):
        dt = cfl / sum(1.0 / h ** 2 for h in g.spacings)
        M = np.eye(60) + dt * A
        v0, b = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        for forced in (False, True):
            st = new_run(g, dt, Field(g, v0), DiscreteRHS(Field(g, b), 0.0) if forced else None)
            propagate(st, [200 * dt])
            ref = v0.ravel()
            for _ in range(200):
                ref = M @ ref + (dt * b.ravel() if forced else 0.0)
            assert np.abs(st.values.ravel() - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(J=hs.integers(2, 12), cfl=hs.floats(0.0, 0.5, exclude_min=True, allow_subnormal=False),
       n=hs.integers(0, 300), seed=hs.integers(0, 2 ** 32 - 1), forced=hs.booleans())
@example(J=2, cfl=0.5, n=300, seed=9, forced=True)
@example(J=12, cfl=1e-300, n=300, seed=10, forced=True)
def test_run_to_and_propagate_match_dense_matrix_power(J, cfl, n, seed, forced):
    g, dt, v0, rhs = _random_run(1, J, 2, cfl, seed, forced)
    ref = dense_power_apply(J, g.dx, dt, v0.values, n, None if rhs is None else rhs.b.values)
    for advance in (run_to, propagate):
        (cp,) = advance(new_run(g, dt, v0, rhs), [n * dt])
        assert cp.n == n
        assert np.abs(cp.field.values - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@settings(max_examples=12, deadline=None, derandomize=True)
@given(J=hs.integers(2, 64), cfl=hs.floats(0.01, 0.5), n=hs.integers(1, 10_000),
       seed=hs.integers(0, 2 ** 32 - 1))
@example(J=17, cfl=0.5, n=500, seed=8)
def test_mean_free_norm_decays_at_rate_eta(J, cfl, n, seed):
    # on the mean-free subspace one step contracts by eta = max_l |1 + dt lambda_l|;
    # the absolute slack covers rounding residue in the constant mode
    g, dt, v0, _ = _random_run(1, J, 2, cfl, seed, False)
    v0 = Field1D(g, v0.values - v0.values.mean())
    bound = eta(g, dt) ** n * norm_l2(v0)
    for advance in (run_to, propagate):
        st = new_run(g, dt, v0)
        (cp,) = advance(st, [n * dt])
        assert norm_l2(cp.field) <= bound * (1 + 1e-12) + 1e-15 * n * norm_l2(v0)


def test_propagate_checkpoint_contract():
    g = Grid1D(9, 1.0)
    rng = np.random.default_rng(40)
    v0 = Field1D(g, rng.standard_normal(9))
    rhs = DiscreteRHS(Field1D(g, rng.standard_normal(9)), 0.0)
    st = new_run(g, g.dx ** 2 / 2, v0, rhs)
    cp0, cp1, cp2 = propagate(st, [0.0, 0.0, 10 * st.dt])
    assert cp0.n == cp1.n == 0 and cp0.t_realized == 0.0
    assert np.array_equal(cp0.field.values, v0.values)
    assert np.array_equal(cp1.field.values, v0.values)
    assert cp2.n == st.n == 10
    (cp3,) = propagate(st, [10 * st.dt])  # k = 0 after a move leaves values as they are
    assert np.array_equal(cp3.field.values, cp2.field.values)
    for advance in (run_to, propagate):  # bad lists raise alike on both paths
        # empty, decreasing, behind the run, not finite
        for bad in ([], [0.5, 0.25], [5 * st.dt], [math.inf], [-math.inf]):
            with pytest.raises(ValueError):
                advance(st, bad)


def test_checkpoints_whose_step_count_overflows_are_refused():
    # t / dt = inf made round(t / dt) raise OverflowError, which is no ValueError
    g = Grid1D(9, 1.0)
    for advance in (run_to, propagate):
        st = new_run(g, g.dx ** 2 / 2, ones(g))
        with pytest.raises(ValueError, match="checkpoints must be finite"):
            advance(st, [0.0, 1e308])
        assert st.n == 0


def test_steady_iterative_homogeneous_decays_to_mean():
    g = Grid1D(17, 1.0)
    p0 = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.0, f_integral=0.0)
    rng = np.random.default_rng(12)
    v0 = Field1D(g, rng.standard_normal(17))
    res = solve_steady_iterative(p0, g, g.dx ** 2 / 2, v0, tol=1e-12)
    assert res.converged
    assert np.abs(res.field.values - mean(v0)).max() < 1e-11


def test_steady_iterative_sec52_mean_anchor():
    p52, ss = sec52_problem()
    g = Grid1D(129, ss.L)
    v0 = Field1D(g, np.full(129, ss.mean_value))
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-10)
    assert res.converged and res.stop_reason == "converged"
    assert mean(res.field) == pytest.approx(ss.mean_value, abs=1e-10)


@pytest.mark.parametrize("J", [65, 129, 257])
def test_steady_count_matches_exact_arithmetic(J):
    # block updates carry no per-step rounding, so the loop stops at the first
    # check where the exact residual (I + dt A)^n r0 is below tol
    p52, ss = sec52_problem()
    g = Grid1D(J, ss.L)
    dt = g.dx ** 2 / 2
    v0 = np.full(J, ss.mean_value)
    res = solve_steady_iterative(p52, g, dt, Field1D(g, v0), tol=1e-10)
    b = build_rhs(p52, g).b.values
    assert res.iterations == exact_steady_count([(J, g.dx)], v0, b, dt, 1e-10)
    # the closed-form first block covers all but a short tail of checked blocks
    tail = res.iterations - res.jumped
    assert res.jumped > 0 and tail % 64 == 0 and 64 <= tail <= 256


def test_steady_j257_reaches_tol_1e_11():
    # demo 04's setting: the residual floor must sit below tol
    p52, ss = sec52_problem()
    g = Grid1D(257, ss.L)
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.full(257, ss.mean_value)), tol=1e-11)
    assert res.converged and res.residual <= 1e-11


def test_steady_stagnates_below_rounding_floor():
    p52, ss = sec52_problem()
    g = Grid1D(65, ss.L)
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.full(65, ss.mean_value)), tol=1e-16)
    assert res.stop_reason == "stagnated" and not res.converged
    assert res.residual < 1e-11


@pytest.mark.parametrize("J,tol", [(65, 1e-16), (257, 1e-12)])
def test_stagnated_solve_returns_best_iterate(J, tol, monkeypatch):
    seen, real = [], scheme1d._residual
    monkeypatch.setattr(scheme1d, "_residual",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    p52, ss = sec52_problem()
    g = Grid1D(J, ss.L)
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.full(J, ss.mean_value)), tol=tol)
    assert res.stop_reason == "stagnated"
    assert res.residual == min(r for _, r in seen)
    # the returned field is the one whose residual is reported
    assert res.residual == real(g, res.field.values, build_rhs(p52, g).b.values)[1]


def test_stagnated_restart_at_floor_returns_start():
    # restarted from its best iterate at J=65 with tol 3e-14, the solve jumps
    # 448 steps (the exact residual reaches tol) but no later check beats the
    # start, so the start comes back with no steps and no jump
    p52, ss = sec52_problem()
    g = Grid1D(65, ss.L)
    dt = g.dx ** 2 / 2
    first = solve_steady_iterative(p52, g, dt, Field1D(g, np.full(65, ss.mean_value)),
                                   tol=1e-16)
    again = solve_steady_iterative(p52, g, dt, first.field, tol=3e-14)
    assert again.stop_reason == "stagnated"
    assert (again.iterations, again.jumped) == (0, 0)
    assert np.array_equal(again.field.values, first.field.values)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2, 3]), J=hs.integers(2, 64), Jy=hs.integers(2, 16),
       cfl=hs.floats(0.01, 0.5), max_steps=hs.integers(1, 5000).filter(lambda n: n % 64),
       seed=hs.integers(0, 2 ** 32 - 1))
@example(dim=1, J=64, Jy=2, cfl=0.05, max_steps=4999, seed=6)
@example(dim=2, J=64, Jy=16, cfl=0.05, max_steps=3001, seed=7)
@example(dim=3, J=6, Jy=6, cfl=0.05, max_steps=1001, seed=12)
def test_steady_loop_matches_stepping(dim, J, Jy, cfl, max_steps, seed):
    # tol 0 is out of reach: the loop runs to the cap (a short last block)
    # unless it stagnates first; either way it returns the stepped field
    g, dt, v0, rhs = _random_run(dim, J, Jy, cfl, seed, True)
    b = rhs.b.values - rhs.b.values.mean()
    rhs = DiscreteRHS(Field(g, b), 0.0)
    res = _iterate_to_steady(new_run(g, dt, v0, rhs), 0.0, max_steps)
    assert (res.iterations == max_steps) == (res.stop_reason == "max_steps")
    (cp,) = run_to(new_run(g, dt, v0, rhs), [res.iterations * dt])
    assert cp.n == res.iterations
    assert _rel_gap(res.field.values, cp.field.values) <= 1e-10


def test_steady_loop_matches_dense_matrix_power():
    rng = np.random.default_rng(33)
    for J in (2, 5, 9):
        g = Grid1D(J, 1.3)
        for c in (0.5, 0.23):
            dt = c * g.dx ** 2
            v0, b = rng.standard_normal(J), rng.standard_normal(J)
            b -= b.mean()
            rhs = DiscreteRHS(Field1D(g, b), 0.0)
            res = _iterate_to_steady(new_run(g, dt, Field1D(g, v0), rhs), 0.0, 200)
            ref = dense_power_apply(J, g.dx, dt, v0, res.iterations, b)
            assert np.abs(res.field.values - ref).max() < 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2]), J=hs.integers(2, 64), Jy=hs.integers(2, 16),
       cfl=hs.floats(0.1, 0.5), digits=hs.integers(0, 6),
       seed=hs.integers(0, 2 ** 32 - 1))
@example(dim=1, J=64, Jy=2, cfl=0.1, digits=6, seed=8)
@example(dim=2, J=64, Jy=16, cfl=0.1, digits=6, seed=9)
def test_steady_jump_matches_exact_count_and_stepping(dim, J, Jy, cfl, digits, seed):
    # a positive tol within the cap: the first block jumps to one check before
    # the exact-arithmetic count, and one checked block lands on it
    g, dt, v0, rhs = _random_run(dim, J, Jy, cfl, seed, True)
    b = rhs.b.values - rhs.b.values.mean()
    rhs = DiscreteRHS(Field(g, b), 0.0)
    tol = 10.0 ** -digits
    res = _iterate_to_steady(new_run(g, dt, v0, rhs), tol, 1_000_000)
    assert res.converged
    axes = list(zip(g.shape, g.spacings))
    assert res.iterations == exact_steady_count(axes, v0.values, b, dt, tol)
    assert res.jumped == max(res.iterations - 64, 0)
    (cp,) = run_to(new_run(g, dt, v0, rhs), [res.iterations * dt])
    assert cp.n == res.iterations
    assert _rel_gap(res.field.values, cp.field.values) <= 1e-10


def test_steady_jump_matches_dense_matrix_power():
    rng = np.random.default_rng(34)
    jumps = []
    for J in (2, 5, 9):
        g = Grid1D(J, 1.3)
        for c in (0.5, 0.23):
            dt = c * g.dx ** 2
            v0, b = rng.standard_normal(J), rng.standard_normal(J)
            b -= b.mean()
            rhs = DiscreteRHS(Field1D(g, b), 0.0)
            res = _iterate_to_steady(new_run(g, dt, Field1D(g, v0), rhs), 1e-9, 10_000)
            assert res.converged
            assert res.iterations == exact_steady_count([(J, g.dx)], v0, b, dt, 1e-9)
            ref = dense_power_apply(J, g.dx, dt, v0, res.iterations, b)
            assert np.abs(res.field.values - ref).max() < 1e-12
            jumps.append(res.jumped)
    assert max(jumps) > 0


@pytest.mark.parametrize("bad", [dict(max_steps=-1),
                                 dict(max_steps=-1, tol=float("nan")),
                                 dict(tol=float("-inf")), dict(tol=-1.0),
                                 dict(tol=float("nan"))])
def test_steady_solvers_refuse_bad_loop_arguments(bad):
    p52, ss = sec52_problem()
    g = Grid1D(17, ss.L)
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    g2 = Grid((4, 5), (1.0, 1.0))
    with pytest.raises(ValueError):
        solve_steady_iterative(p52, g, g.dx ** 2 / 2, Field1D(g, np.zeros(17)), **bad)
    with pytest.raises(ValueError):
        solve_steady_2d(Problem2D(zero, zero, zero, 1.0, 1.0), g2,
                        0.5 / (1 / g2.dx ** 2 + 1 / g2.dy ** 2),
                        Field2D(g2, np.ones((4, 5))), **bad)


def test_steady_iteration_count_scaling():
    # contraction at rate eta ~ 1 - dt pi^2 / L^2: the iteration count should
    # sit within a factor 3 of log(e0/tol) / (-log eta)
    g = Grid1D(33, 1.0)
    p = NonhomogProblem(lambda x: np.cos(np.pi * x), 0.0, 0.0, 1.0, f_integral=0.0)
    dt = g.dx ** 2 / 2
    tol = 1e-8
    v0 = Field1D(g, np.zeros(33))
    res = solve_steady_iterative(p, g, dt, v0, tol=tol)
    assert res.converged
    e0 = norm_l2(build_rhs(p, g).b) / abs(eigenvalue(g, 1))  # initial gap scale
    expected = math.log(e0 / tol) / (-math.log(eta(g, dt)))
    assert expected / 3 <= res.iterations <= expected * 3


def test_steady_iterative_matches_brute_force_series():
    # the limit equals mean(v0)*1 + dt * sum_k (I + dt A)^k b
    p = NonhomogProblem(lambda x: np.cos(np.pi * x), 0.0, 0.0, 1.0, f_integral=0.0)
    g = Grid1D(7, 1.0)
    dt = g.dx ** 2 / 2
    b = build_rhs(p, g).b.values
    acc = np.zeros(7)
    term = b.copy()
    for _ in range(4000):
        acc += dt * term
        term = dense_power_apply(7, g.dx, dt, term, 1)
    v0 = Field1D(g, 0.3 * np.ones(7))
    res = solve_steady_iterative(p, g, dt, v0, tol=1e-13)
    assert np.abs(res.field.values - (0.3 + acc)).max() < 1e-10


def test_steady_iterative_max_steps_flagged():
    p52, ss = sec52_problem()
    g = Grid1D(65, ss.L)
    v0 = Field1D(g, np.full(65, ss.mean_value))
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-12, max_steps=50)
    assert not res.converged and res.stop_reason == "max_steps"
    assert res.iterations == 50
    assert res.residual > 1e-12  # the residual of the iterate at the cap


def test_steady_dt_independence():
    # two CFL-valid steps converge to the same steady state (to solver tol)
    p52, ss = sec52_problem()
    g = Grid1D(65, ss.L)
    v0 = Field1D(g, np.full(65, ss.mean_value))
    r1 = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-11)
    r2 = solve_steady_iterative(p52, g, g.dx ** 2 / 4, v0, tol=1e-11)
    assert norm_l2(Field1D(g, r1.field.values - r2.field.values)) < 1e-8


def test_laplace_solver_contract():
    p52, ss = sec52_problem()
    g = Grid1D(257, ss.L)
    rhs = build_rhs(p52, g)
    for s in (1e-2, 1e-6):
        v = solve_steady_laplace(p52, g, s)
        assert abs(mean(v)) < 1e-11
        op = NeumannLaplacian1D(g)
        resid = s * v.values - op.apply(v).values - rhs.b.values
        assert norm_l2(Field1D(g, resid)) <= 1e-11 * norm_l2(rhs.b)
    for s in (0.0, math.inf, math.nan):  # s = inf used to return an all-zero field
        with pytest.raises(ValueError, match="shift must be positive and finite"):
            solve_steady_laplace(p52, g, s)
    # s lost against 1/dx^2 (J=6, L=1): every reduced pivot of that singular
    # matrix comes out positive, so the up-front check refuses; an indefinite
    # matrix (s < 0) is refused by a pivot that is not positive
    for s, c in ((1e-300, 1.0 / 0.2 ** 2), (-0.5, 1.0)):
        with pytest.raises(np.linalg.LinAlgError, match="singular in floating point"):
            scheme1d._solve_shifted(np.ones(6), s, c)


def test_laplace_refuses_a_grid_of_more_than_one_axis(monkeypatch):
    # b was assembled first, then g.J raised "too many values to unpack"
    monkeypatch.setattr(scheme1d, "build_rhs", lambda *a: pytest.fail("b was assembled"))
    p = ForcedProblem(0.0, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"one axis, got shape \(3, 4\)"):
        solve_steady_laplace(p, Grid((3, 4), (1.0, 1.0)), 1e-3)


def test_laplace_matches_dense_solve():
    # both parities of every reduction level, and reductions down to one unknown
    p52, ss = sec52_problem()
    for J in range(2, 41):
        g = Grid1D(J, ss.L)
        b = build_rhs(p52, g).b.values
        for s in (1e-6, 1e-3, 1.0, 1e3):
            ref = np.linalg.solve(s * np.eye(J) - dense_neumann_matrix(J, g.dx), b)
            v = solve_steady_laplace(p52, g, s).values
            assert np.abs(v - (ref - ref.mean())).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("J, tol", [(257, 1e-12), (1_000_001, 1e-6)])
def test_laplace_matches_lapack_dptsv(J, tol):
    # LAPACK's LDL^T solve of the same system, on the same b, re-anchored alike
    from scipy.linalg.lapack import dptsv
    p52, ss = sec52_problem()
    g = Grid1D(J, ss.L)
    b, inv_dx2 = build_rhs(p52, g).b.values, 1.0 / g.dx ** 2
    diag = np.full(J, 1e-3 + 2.0 * inv_dx2)
    diag[0] = diag[-1] = 1e-3 + inv_dx2
    _, _, ref, info = dptsv(diag, np.full(J - 1, -inv_dx2), b)
    assert info == 0
    ref -= grid.exact_sum(ref) / J
    v = solve_steady_laplace(p52, g, 1e-3).values
    assert np.abs(v - ref).max() <= tol * np.abs(ref).max()


def test_laplace_zero_rhs():
    p0 = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.0, f_integral=0.0)
    v = solve_steady_laplace(p0, Grid1D(9, 1.0), 1e-3)
    assert np.abs(v.values).max() == 0.0


def test_laplace_shift_bound_holds():
    p52, ss = sec52_problem()
    g = Grid1D(65, ss.L)
    rhs = build_rhs(p52, g)
    ref = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.zeros(65)), tol=1e-12).field
    ref0 = ref.values - mean(ref)  # zero-mean steady state
    for s in (1e-2, 1e-4):
        v = solve_steady_laplace(p52, g, s)
        gap = norm_l2(Field1D(g, v.values - ref0))
        assert gap <= s * ss.L ** 4 / math.pi ** 4 * norm_l2(rhs.b)


def _steady_3d_solve(L, f):
    g = Grid((3, 3, 3), (L,) * 3)
    dt = 0.25 / sum(1 / (h * h) for h in g.spacings)
    return solve_steady_iterative(ForcedProblem(f, (0.0,) * 3, g.lengths), g, dt,
                                  Field(g, np.zeros(g.shape)))


def test_cell_volume_that_underflows_is_refused():
    # the volume 1.25e-361 read 0: ZeroDivisionError in the balance per volume
    with pytest.raises(ValueError, match="cell volume"):
        _steady_3d_solve(1e-120, 0.0)


def test_cell_volume_that_overflows_is_refused():
    # the volume 1.25e359 read inf, so the balance 1e60 read 0 per volume and
    # the unbalanced problem was reported converged after 0 iterations
    with pytest.raises(ValueError, match="cell volume"):
        _steady_3d_solve(1e120, 1e-300)


def test_stability_random_fields():
    g = Grid1D(33, 1.0)
    dt = g.dx ** 2 / 2
    rng = np.random.default_rng(77)
    for _ in range(1000):
        v = Field1D(g, rng.standard_normal(33))
        st = new_run(g, dt, v)
        run_to(st, [(st.n + 1) * st.dt])
        assert norm_l2(st.field) <= norm_l2(v) * (1 + 1e-14)


def test_discrete_decay_rate():
    g = Grid1D(17, 1.0)
    dt = g.dx ** 2 / 2
    rng = np.random.default_rng(8)
    v = rng.standard_normal(17)
    v -= v.mean()
    v0 = Field1D(g, v)
    n0 = norm_l2(v0)
    e = eta(g, dt)
    st = new_run(g, dt, v0)
    checked = 0
    for n in (1, 5, 50, 500):
        run_to(st, [n * dt])
        assert norm_l2(st.field) <= e ** n * n0 * (1 + 1e-12)
        checked += 1
    assert checked == 4


def test_mean_drift_over_many_steps():
    g = Grid1D(17, 1.0)
    dt = g.dx ** 2 / 2
    rng = np.random.default_rng(21)
    v0 = Field1D(g, rng.standard_normal(17))
    (cp,) = run_to(new_run(g, dt, v0), [1_000_000 * dt])
    assert cp.n == 1_000_000
    assert abs(mean(cp.field) - mean(v0)) <= 1e-8


def test_overflow_raises_instability_error():
    # +-1e308 alternating: the first update overflows to inf and then nan
    g = Grid1D(9, 1.0)
    v0 = Field1D(g, 1e308 * (-1.0) ** np.arange(9))
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    p = NonhomogProblem(zero, 0.0, 0.0, 1.0, f_integral=0.0)
    g2 = Grid((4, 5), (1.0, 1.0))
    checker = 1e308 * (-1.0) ** np.add.outer(np.arange(4), np.arange(5))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError):
            st = new_run(g, g.dx ** 2 / 2, v0)
            run_to(st, [(st.n + 1) * st.dt])
        with pytest.raises(InstabilityError):
            propagate(new_run(g, g.dx ** 2 / 2, v0), [10 * g.dx ** 2 / 2])
        with pytest.raises(InstabilityError):
            solve_steady_iterative(p, g, g.dx ** 2 / 2, v0)
        with pytest.raises(InstabilityError):
            solve_steady_2d(Problem2D(zero, zero, zero, 1.0, 1.0), g2,
                            0.5 / (1 / g2.dx ** 2 + 1 / g2.dy ** 2), Field2D(g2, checker))


@pytest.mark.parametrize("c", [1e300, 1.5e154])
def test_steady_residual_overflow_raises_instability_error(c):
    # balanced problems near the float range, whose values stay finite: at
    # 1e300 the residual's squares overflowed to an rms of inf with a numpy
    # RuntimeWarning, and the loop ran all 50,000,000 steps to stop=max_steps;
    # at 1.5e154 the squares are finite but math.fsum raised OverflowError
    p = NonhomogProblem(c, 0.0, -c, 1.0, f_integral=c)
    g = Grid1D(9, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="residual rms is inf"):
            solve_steady_iterative(p, g, g.dx ** 2 / 2, Field1D(g, np.zeros(9)))


@pytest.mark.parametrize("c", [1e300, 1.2e154])
def test_residual_overflow_of_more_than_one_block_is_refused(c):
    # the squares reach inf (1e300), or are finite but from 2^1000 on, where
    # the blocked exact sum hands them to math.fsum and its OverflowError
    g = Grid1D(3 * grid._SUM_BLOCK + 5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="residual rms is inf"):
            scheme1d._residual(g, np.zeros(g.J), np.full(g.J, c))


def test_small_instance_matches_dense_matrix_power():
    rng = np.random.default_rng(31)
    for J in (2, 5, 9):
        g = Grid1D(J, 1.3)
        for c in (0.5, 0.23):
            dt = c * g.dx ** 2
            v0 = rng.standard_normal(J)
            st = new_run(g, dt, Field1D(g, v0))
            run_to(st, [200 * dt])
            ref = dense_power_apply(J, g.dx, dt, v0, 200)
            assert np.abs(st.values - ref).max() < 1e-12
