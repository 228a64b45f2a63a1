import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from neumannheat import (CflViolationError, DiscreteRHS, Field1D, Field2D,
                         Grid1D, Grid2D, IncompatibleProblemError,
                         InstabilityError, NeumannLaplacian1D, NonhomogProblem,
                         Problem2D, build_rhs, check_compatibility, eta,
                         eigenvalue, eigenvector, mean, new_run, norm_l2,
                         ones, propagate, run_to, solve_steady_2d,
                         solve_steady_iterative, solve_steady_laplace,
                         steady_1d, step)
from neumannheat import _kernels
from neumannheat.scheme1d import _iterate_to_steady, laplace_shift_gap_bound

from oracles import dense_neumann_matrix, dense_power_apply, exact_steady_count


def sec52_problem():
    ss = steady_1d()
    return NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L,
                           f_integral=ss.source_integral), ss


def test_step_kernel_mode():
    g = Grid1D(9, 1.0)
    st = new_run(g, g.dx ** 2 / 2, ones(g))
    step(st)
    assert np.array_equal(st.values, np.ones(9))
    assert st.n == 1 and st.t == g.dx ** 2 / 2


def test_step_eigenmode():
    g = Grid1D(12, 1.0)
    dt = g.dx ** 2 / 4
    for ell in (1, 5, 11):
        st = new_run(g, dt, eigenvector(g, ell))
        step(st)
        expected = (1.0 + dt * eigenvalue(g, ell)) * eigenvector(g, ell).values
        assert np.abs(st.values - expected).max() < 1e-12


def test_step_preserves_mean_with_balanced_rhs():
    p, _ = sec52_problem()
    g = Grid1D(33, p.L)
    rhs = build_rhs(p, g)
    rng = np.random.default_rng(4)
    st = new_run(g, g.dx ** 2 / 2, Field1D(g, rng.standard_normal(33)), rhs)
    m0 = mean(st.field)
    step(st)
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


def test_run_to_equivalent_to_single_steps():
    g = Grid1D(17, 1.0)
    rng = np.random.default_rng(9)
    v0 = Field1D(g, rng.standard_normal(17))
    dt = g.dx ** 2 / 2
    st_bulk = new_run(g, dt, v0)
    (cp,) = run_to(st_bulk, [100 * dt])
    st_manual = new_run(g, dt, v0)
    for _ in range(100):
        step(st_manual)
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

    p52, _ = sec52_problem()
    for J in (16, 257):
        assert abs(mean(build_rhs(p52, Grid1D(J, p52.L)).b)) < 1e-12


def test_check_compatibility():
    p52, _ = sec52_problem()
    assert check_compatibility(p52) == 0.0
    p_bad = NonhomogProblem(lambda x: np.zeros_like(x), 1.0, 0.0, 1.0, f_integral=0.0)
    assert check_compatibility(p_bad) == -1.0
    p_ok = NonhomogProblem(lambda x: np.ones_like(x), 0.0, -1.0, 1.0, f_integral=1.0)
    assert check_compatibility(p_ok) == 0.0


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
@given(dim=hs.sampled_from([1, 2]), J=hs.integers(2, 12), cfl=hs.floats(0.01, 0.5),
       n=hs.integers(0, 10_000), seed=hs.integers(0, 2 ** 32 - 1))
@example(dim=1, J=9, cfl=0.5, n=5000, seed=0)
@example(dim=2, J=5, cfl=0.5, n=4096, seed=1)
def test_mean_evolves_at_rate_mean_b(dim, J, cfl, n, seed):
    # sum_j (A v)_j = 0, so each step adds exactly dt * mean(b) to the mean
    rng = np.random.default_rng(seed)
    if dim == 1:
        g, make = Grid1D(J, 1.0 + rng.random()), Field1D
        dt = cfl * g.dx ** 2
    else:
        g, make = Grid2D(J, J + 2, 1.0, 1.0 + rng.random()), Field2D
        dt = cfl / (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2)
    v0, b = make(g, rng.standard_normal(g.shape)), make(g, rng.standard_normal(g.shape))
    for advance in (run_to, propagate):
        run = new_run(g, dt, v0, DiscreteRHS(b, 0.0))
        (cp,) = advance(run, [n * dt])
        assert cp.n == n
        expected = run.mean0 + n * dt * b.values.mean()
        scale = max(1.0, np.abs(cp.field.values).max(), n * dt * np.abs(b.values).max())
        assert abs(cp.field.values.mean() - expected) <= 1e-13 * (n + 1) * scale


def _random_run(dim, J, Jy, cfl, seed, forced):
    """A random datum, and a random right-hand side if ``forced``, on a random
    1D or 2D grid, with dt/dx^2 = cfl in 1D and dt (1/dx^2 + 1/dy^2) = cfl
    in 2D."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        g, make = Grid1D(J, 0.5 + rng.random()), Field1D
        dt = cfl * g.dx ** 2
    else:
        g, make = Grid2D(J, Jy, 0.5 + rng.random(), 0.5 + rng.random()), Field2D
        dt = cfl / (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2)
    rhs = DiscreteRHS(make(g, rng.standard_normal(g.shape)), 0.0) if forced else None
    return g, dt, make(g, rng.standard_normal(g.shape)), rhs


def _rel_gap(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


@settings(max_examples=16, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2]), J=hs.integers(2, 64), Jy=hs.integers(2, 16),
       cfl=hs.floats(0.01, 0.5), n=hs.integers(0, 10_000),
       seed=hs.integers(0, 2 ** 32 - 1), forced=hs.booleans())
@example(dim=1, J=64, Jy=2, cfl=0.5, n=10_000, seed=3, forced=True)
@example(dim=2, J=64, Jy=16, cfl=0.5, n=10_000, seed=4, forced=True)
@example(dim=2, J=2, Jy=2, cfl=0.5, n=7, seed=5, forced=False)
def test_propagate_matches_stepping(dim, J, Jy, cfl, n, seed, forced):
    g, dt, v0, rhs = _random_run(dim, J, Jy, cfl, seed, forced)
    stepped = run_to(new_run(g, dt, v0, rhs), [n * dt / 3, n * dt])
    exact = propagate(new_run(g, dt, v0, rhs), [n * dt / 3, n * dt])
    for s, p in zip(stepped, exact):
        assert (p.n, p.t_realized) == (s.n, s.t_realized)
        assert _rel_gap(p.field.values, s.field.values) <= 1e-11


def test_propagate_matches_stepping_forced_j257():
    p52, ss = sec52_problem()
    g = Grid1D(257, p52.L)
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
        for bad in ([], [0.5, 0.25], [5 * st.dt]):  # empty, decreasing, behind the run
            with pytest.raises(ValueError):
                advance(st, bad)


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
    g = Grid1D(129, p52.L)
    v0 = Field1D(g, np.full(129, ss.mean_value))
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-10)
    assert res.converged and res.stop_reason == "converged"
    assert mean(res.field) == pytest.approx(ss.mean_value, abs=1e-10)


@pytest.mark.parametrize("J", [65, 129, 257])
def test_steady_count_matches_exact_arithmetic(J):
    # block updates carry no per-step rounding, so the loop stops at the first
    # check where the exact residual (I + dt A)^n r0 is below tol
    p52, ss = sec52_problem()
    g = Grid1D(J, p52.L)
    dt = g.dx ** 2 / 2
    v0 = np.full(J, ss.mean_value)
    res = solve_steady_iterative(p52, g, dt, Field1D(g, v0), tol=1e-10)
    b = build_rhs(p52, g).b.values
    assert res.iterations == exact_steady_count([(J, g.dx)], v0, b, dt, 1e-10)


def test_steady_j257_reaches_tol_1e_11():
    # demo 04's setting: the residual floor must sit below tol
    p52, ss = sec52_problem()
    g = Grid1D(257, p52.L)
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.full(257, ss.mean_value)), tol=1e-11)
    assert res.converged and res.residual <= 1e-11


def test_steady_stagnates_below_rounding_floor():
    p52, ss = sec52_problem()
    g = Grid1D(65, p52.L)
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.full(65, ss.mean_value)), tol=1e-16)
    assert res.stop_reason == "stagnated" and not res.converged
    assert res.residual < 1e-11


@settings(max_examples=16, deadline=None, derandomize=True)
@given(dim=hs.sampled_from([1, 2]), J=hs.integers(2, 64), Jy=hs.integers(2, 16),
       cfl=hs.floats(0.01, 0.5), max_steps=hs.integers(1, 5000).filter(lambda n: n % 64),
       seed=hs.integers(0, 2 ** 32 - 1))
@example(dim=1, J=64, Jy=2, cfl=0.05, max_steps=4999, seed=6)
@example(dim=2, J=64, Jy=16, cfl=0.05, max_steps=3001, seed=7)
def test_steady_loop_matches_stepping(dim, J, Jy, cfl, max_steps, seed):
    # tol 0 is out of reach: the loop runs to the cap (a short last block)
    # unless it stagnates first; either way it returns the stepped field
    g, dt, v0, rhs = _random_run(dim, J, Jy, cfl, seed, True)
    b = rhs.b.values - rhs.b.values.mean()
    rhs = DiscreteRHS(type(v0)(g, b), 0.0)
    res = _iterate_to_steady(new_run(g, dt, v0, rhs), 0.0, max_steps, 64)
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
            res = _iterate_to_steady(new_run(g, dt, Field1D(g, v0), rhs), 0.0, 200, 64)
            ref = dense_power_apply(J, g.dx, dt, v0, res.iterations, b)
            assert np.abs(res.field.values - ref).max() < 1e-12


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
    g = Grid1D(65, p52.L)
    v0 = Field1D(g, np.full(65, ss.mean_value))
    res = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-12, max_steps=50)
    assert not res.converged and res.stop_reason == "max_steps"
    assert res.iterations == 50
    assert res.residual > 1e-12  # best-so-far residual reported


def test_steady_dt_independence():
    # two CFL-valid steps converge to the same steady state (to solver tol)
    p52, ss = sec52_problem()
    g = Grid1D(65, p52.L)
    v0 = Field1D(g, np.full(65, ss.mean_value))
    r1 = solve_steady_iterative(p52, g, g.dx ** 2 / 2, v0, tol=1e-11)
    r2 = solve_steady_iterative(p52, g, g.dx ** 2 / 4, v0, tol=1e-11)
    assert norm_l2(Field1D(g, r1.field.values - r2.field.values)) < 1e-8


def test_laplace_solver_contract():
    p52, _ = sec52_problem()
    g = Grid1D(257, p52.L)
    rhs = build_rhs(p52, g)
    for s in (1e-2, 1e-6):
        v = solve_steady_laplace(p52, g, s)
        assert abs(mean(v)) < 1e-11
        op = NeumannLaplacian1D(g)
        resid = s * v.values - op.apply(v).values - rhs.b.values
        assert norm_l2(Field1D(g, resid)) <= 1e-11 * norm_l2(rhs.b)
    with pytest.raises(ValueError):
        solve_steady_laplace(p52, g, 0.0)


def test_laplace_matches_dense_solve():
    p52, _ = sec52_problem()
    for J in (2, 5, 33):
        g = Grid1D(J, p52.L)
        b = build_rhs(p52, g).b.values
        for s in (1e-3, 1.0):
            ref = np.linalg.solve(s * np.eye(J) - dense_neumann_matrix(J, g.dx), b)
            v = solve_steady_laplace(p52, g, s).values
            assert np.abs(v - (ref - ref.mean())).max() <= 1e-12 * np.abs(ref).max()


def test_laplace_zero_rhs():
    p0 = NonhomogProblem(lambda x: np.zeros_like(x), 0.0, 0.0, 1.0, f_integral=0.0)
    v = solve_steady_laplace(p0, Grid1D(9, 1.0), 1e-3)
    assert np.abs(v.values).max() == 0.0


def test_laplace_shift_bound_holds():
    p52, ss = sec52_problem()
    g = Grid1D(65, p52.L)
    rhs = build_rhs(p52, g)
    ref = solve_steady_iterative(p52, g, g.dx ** 2 / 2,
                                 Field1D(g, np.zeros(65)), tol=1e-12).field
    ref0 = ref.values - mean(ref)  # zero-mean steady state
    for s in (1e-2, 1e-4):
        v = solve_steady_laplace(p52, g, s)
        gap = norm_l2(Field1D(g, v.values - ref0))
        assert gap <= laplace_shift_gap_bound(s, norm_l2(rhs.b), p52.L)


def test_stability_random_fields():
    g = Grid1D(33, 1.0)
    dt = g.dx ** 2 / 2
    rng = np.random.default_rng(77)
    for _ in range(1000):
        v = Field1D(g, rng.standard_normal(33))
        st = new_run(g, dt, v)
        step(st)
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
    st = new_run(g, dt, Field1D(g, rng.standard_normal(17)))
    (cp,) = run_to(st, [1_000_000 * dt])
    assert cp.n == 1_000_000
    assert abs(mean(cp.field) - st.mean0) <= 1e-8


def test_overflow_raises_instability_error():
    # +-1e308 alternating: the first update overflows to inf and then nan
    g = Grid1D(9, 1.0)
    v0 = Field1D(g, 1e308 * (-1.0) ** np.arange(9))
    zero = lambda *args: np.zeros(np.broadcast(*[np.asarray(a) for a in args]).shape)
    p = NonhomogProblem(zero, 0.0, 0.0, 1.0, f_integral=0.0)
    g2 = Grid2D(5, 4, 1.0, 1.0)
    checker = 1e308 * (-1.0) ** np.add.outer(np.arange(4), np.arange(5))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError):
            step(new_run(g, g.dx ** 2 / 2, v0))
        with pytest.raises(InstabilityError):
            propagate(new_run(g, g.dx ** 2 / 2, v0), [10 * g.dx ** 2 / 2])
        with pytest.raises(InstabilityError):
            solve_steady_iterative(p, g, g.dx ** 2 / 2, v0)
        with pytest.raises(InstabilityError):
            solve_steady_2d(Problem2D(zero, zero, zero, 1.0, 1.0), g2,
                            0.5 / (1 / g2.dx ** 2 + 1 / g2.dy ** 2), Field2D(g2, checker))


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


def test_kernel_backends_agree():
    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    rng = np.random.default_rng(55)
    v0 = rng.standard_normal(40)
    dtb = rng.standard_normal(40) * 1e-3
    a = _kernels.advance_1d_rhs(v0.copy(), 0.41, dtb, 137)
    try:
        _kernels.FORCE_NUMPY = True
        b = _kernels.advance_1d_rhs(v0.copy(), 0.41, dtb, 137)
    finally:
        _kernels.FORCE_NUMPY = False
    assert np.array_equal(a, b)
    a2 = _kernels.advance_1d(v0.copy(), 0.41, 137)
    try:
        _kernels.FORCE_NUMPY = True
        b2 = _kernels.advance_1d(v0.copy(), 0.41, 137)
    finally:
        _kernels.FORCE_NUMPY = False
    assert np.array_equal(a2, b2)
