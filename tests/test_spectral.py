import math

import numpy as np
import pytest

import scipy.fft
from scipy.fft import dctn

from neumannheat import (CflViolationError, Field1D, Grid, Grid1D,
                         GridMismatchError, NeumannLaplacian1D,
                         amplification_bound_check, cfl_ok,
                         eigenvalue, eigenvector, eta,
                         eta_geometric_sum, heat_kernel_spectrum_sum, inner,
                         norm_l2, ones, resolvent_power_sum)
from neumannheat import spectral
from neumannheat.spectral import (amplification_bound_checks, eigenvalues, eta_geometric_sums,
                                  geometric_sum, heat_kernel_spectrum_sums, laplacian, power,
                                  resolvent_power_sum_bound, resolvent_power_sums)

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
    g2 = Grid((8, 5), (2.5, 1.0))
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


def _cosine_matrix(N):
    """The orthonormal DCT-II matrix s_k cos(pi k (2n+1) / (2N)), entry by entry."""
    C = np.array([[math.cos(math.pi * k * (2 * n + 1) / (2 * N)) for n in range(N)]
                  for k in range(N)])
    C[0] *= math.sqrt(1.0 / N)
    C[1:] *= math.sqrt(2.0 / N)
    return C


def _along_each_axis(matrices, a):
    for axis, M in enumerate(matrices):
        a = np.moveaxis(np.tensordot(M, a, axes=([1], [axis])), 0, axis)
    return a


def test_dct_pair_matches_the_dense_cosine_matrix():
    # every length 2..33 on every axis, odd and even lengths side by side
    rng = np.random.default_rng(20)
    shapes = [(N,) for N in range(2, 34)]
    shapes += [(N, 35 - N) for N in range(2, 34)]
    shapes += [(N, 35 - N, (N + 15) % 32 + 2) for N in range(2, 34)]
    for shape in shapes:
        a = rng.standard_normal(shape)
        C = [_cosine_matrix(N) for N in shape]
        tol = 1e-14 * np.linalg.norm(a)
        assert np.linalg.norm(spectral.dctn(a) - _along_each_axis(C, a)) <= tol, shape
        assert np.linalg.norm(spectral.idctn(a) - _along_each_axis([M.T for M in C], a)) <= tol
        assert np.linalg.norm(spectral.idctn(spectral.dctn(a)) - a) <= tol


def test_dct_pair_agrees_with_scipy():
    rng = np.random.default_rng(21)
    for shape in [(2,), (65,), (257,), (1000,), (31, 16), (127, 64), (4, 9, 6), (3, 2, 5, 4)]:
        a = rng.standard_normal(shape)
        tol = 1e-14 * np.linalg.norm(a)
        for mine, theirs in ((spectral.dctn, scipy.fft.dctn), (spectral.idctn, scipy.fft.idctn)):
            assert np.linalg.norm(mine(a) - theirs(a, type=2, norm="ortho")) <= tol, shape


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
    for other in (Grid1D(5, 2.0), Grid1D(6, 1.0), Grid((2, 5), (1.0, 1.0))):
        with pytest.raises(GridMismatchError):
            op.apply(ones(other))
    # the 1D spectral formulas read J and L, which a 2D grid refuses
    with pytest.raises(ValueError):
        eta(Grid((4, 5), (1.0, 1.0)), 1e-3)
    with pytest.raises(ValueError):
        resolvent_power_sum(Grid((4, 5), (1.0, 1.0)), 1e-3, 10)


def test_amplification_bound():
    for J, c in ((17, 0.5), (64, 0.25)):
        g = Grid1D(J, 1.0)
        rep = amplification_bound_check(g, c * g.dx ** 2)
        assert rep.ok
        # both sides are exactly 1 at ell = 0, and no margin is below it
        assert (rep.worst_margin, rep.worst_index) == (0.0, 0)
    with pytest.raises(CflViolationError):
        amplification_bound_check(Grid1D(9, 1.0), Grid1D(9, 1.0).dx ** 2)


def test_batched_amplification_check_matches_the_one_dt_check():
    # every (grid, dt) of one flat spectrum gives the bits of its own one-dt
    # check, and the first smallest margin and its mode of the envelope minus
    # |1 + dt*lambda_l| written out for that one dt
    cfls = (0.5, 0.25, 0.1)
    for Js, L in ((range(2, 65), 1.0), ([64, 2, 17, 3, 5], 3.7)):
        grids = [Grid1D(J, L) for J in Js]
        dts = [[c * g.dx ** 2 for c in cfls] for g in grids]
        worst, first = amplification_bound_checks(grids, dts)
        for g, ds, margins, modes in zip(grids, dts, worst, first):
            for dt, margin, mode in zip(ds, margins, modes):
                one = amplification_bound_check(g, dt)
                closed = (np.exp(-(dt / g.dx ** 2) * np.sin(np.arange(g.J) * np.pi / g.J) ** 2)
                          - np.abs(1.0 + dt * eigenvalues(g)))
                assert (margin, mode) == (one.worst_margin, one.worst_index) \
                    == (closed.min(), closed.argmin())
                assert one.dt == dt and one.ok
    g = Grid1D(9, 1.0)
    with pytest.raises(CflViolationError):
        amplification_bound_checks([g], [[0.25 * g.dx ** 2, g.dx ** 2, 0.1 * g.dx ** 2]])


def test_amplification_worst_is_the_first_smallest_margin_of_each_grid(monkeypatch):
    # under the stability rule no margin is below mode 0's 0.0, so the worst
    # is at mode 0; forged integer margins, with ties, put it anywhere
    # (zero eigenvalues make each margin the forged envelope minus 1)
    rng, forged = np.random.default_rng(5), []

    def forge(a, ell, J):
        forged.append(rng.choice([0.0, 1.0, 2.0], np.broadcast(a, ell).shape, p=[0.05, 0.5, 0.45]))
        return forged[-1]

    monkeypatch.setattr(spectral, "_eigenvalues", lambda scale, ell, J: np.zeros(ell.shape))
    monkeypatch.setattr(spectral, "_envelope", forge)
    Js = (7, 2, 30, 3, 11, 2)
    grids = [Grid1D(J, 1.0) for J in Js]
    worst, first = amplification_bound_checks(grids, [[c * g.dx ** 2 for c in (0.5, 0.1)]
                                                      for g in grids])
    (envelope,) = forged
    for k, J in enumerate(Js):  # the envelope at [i, k, mode], padded to J = 30
        for i, margins in enumerate(envelope[:, k, :J] - 1.0):
            assert (worst[k][i], first[k][i]) == (margins.min(), margins.argmin())
    assert len({f for fs in first for f in fs}) > 2
    assert {w >= 0.0 for ws in worst for w in ws} == {True, False}


def test_a_padded_block_gives_each_grid_its_one_grid_figures():
    # J = 2 beside J = 600, out of order: its row holds 598 padded modes whose
    # margins, powers and terms must reach none of its figures
    Js, cfls, ns, ms = (600, 2, 17, 2, 600, 3), (0.5, 0.37, 0.1), (1, 2, 10, 10 ** 6), (1, 7, 1000)
    grids = [Grid1D(J, 3.0) for J in Js]
    dts = [[c * g.dx ** 2 for c in cfls] for g in grids]
    worst, first = amplification_bound_checks(grids, dts)
    sums = eta_geometric_sums(grids, dts, ns), resolvent_power_sums(grids, dts, ns)
    values, bounds = heat_kernel_spectrum_sums(grids, cfls, ms)
    for k, (g, d) in enumerate(zip(grids, dts)):
        for i, dt in enumerate(d):
            report = amplification_bound_check(g, dt)
            assert (worst[k][i], first[k][i]) == (report.worst_margin, report.worst_index)
            assert [s[k, i].tolist() for s in sums] == [[eta_geometric_sum(g, dt, n) for n in ns],
                                                       [resolvent_power_sum(g, dt, n) for n in ns]]
            assert list(zip(values[k, i].tolist(), bounds[k, i].tolist())) == \
                [heat_kernel_spectrum_sum(g, cfls[i], m) for m in ms]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 63, 64, 65, 1001, 10 ** 6 + 1, 5 * 10 ** 7])
def test_power_equals_pow_bitwise(k):
    # pow is skipped where |q|^k underflows to a zero whose sign is q's for odd
    # k, (-0.0)^odd included, and 0^0 = 1; bases 2^(-e/k) sit at the cut
    cut = 2.0 ** (-np.arange(1060, 1090) / max(k, 1))
    base = np.concatenate([[0.0, 1.0, 5e-324, 1e-300], cut,
                           np.random.default_rng(k).uniform(-1, 1, 2000)])
    for q in (np.concatenate([base, -base]), np.stack([-base, base])):  # 1D, and 2D as in 2D runs
        assert np.array_equal(power(q, k).view(np.int64), (q ** k).view(np.int64))


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


def test_batched_sums_match_per_call_sums():
    # every (grid, dt, n) and (grid, alpha, m) of one flat spectrum gives the
    # bits of its own per-call sum over a fresh spectrum, and each (grid, dt, n)
    # of an eta block those of its own eta; dt = 1e-18 L^2 puts every ratio of
    # J <= 9 and some of J = 65 within 1e-14 of 1 (the k*dt fallback), eta is
    # 0 at J = 2 and cfl 1/2, numpy squares for a Python n = 2, and counts
    # beyond int64 still work
    cfls, ns, ms = (0.5, 0.37, 0.1), (1, 2, 7, 1000, 10 ** 6, 10 ** 20), (1, 3, 7, 10 ** 30)
    for Js, L in (((2, 3, 9, 65), 1.0), ((65, 2, 9, 3), 3.7), ((2, 9, 65), 1e60),
                  ((65, 3, 2), 1e-60)):
        grids = [Grid1D(J, L) for J in Js]
        dts = [[c * g.dx ** 2 for c in cfls] + [1e-18 * L ** 2] for g in grids]
        resolvent = resolvent_power_sums(grids, dts, ns)
        values, bounds = heat_kernel_spectrum_sums(grids, cfls, ms)
        etas = eta_geometric_sums(grids, dts, ns)
        for k, g in enumerate(grids):
            closed = []  # `geometric_sum` per entry, written out in Python floats
            for dt in dts[k]:
                e = eta(g, dt)
                lam = (e - 1.0) / dt
                closed.append([n * dt if abs(dt * lam) < 1e-14 else (1.0 - e ** n) / -lam
                               for n in ns])
            assert etas[k].tolist() == closed
            assert [[eta_geometric_sum(g, dt, n) for n in ns] for dt in dts[k]] == closed
            lam = eigenvalues(g)[1:]
            per_call = [[math.fsum(s * s) for s in
                         (geometric_sum(lam, (1.0 + dt * lam) ** n, n, dt) for n in ns)]
                        for dt in dts[k]]
            assert resolvent[k].tolist() == per_call
            assert [[resolvent_power_sum(g, dt, n) for n in ns] for dt in dts[k]] == per_call
            sin2 = np.sin(np.arange(1, g.J) * np.pi / g.J) ** 2
            assert values[k].tolist() == [[g.dx * math.fsum(np.exp(-c * m * sin2)) for m in ms]
                                          for c in cfls]
            assert bounds[k].tolist() == [[L * math.sqrt(math.pi) / math.sqrt(m * c) for m in ms]
                                          for c in cfls]
            assert [[heat_kernel_spectrum_sum(g, c, m) for m in ms] for c in cfls] == \
                [list(zip(v, b)) for v, b in zip(values[k].tolist(), bounds[k].tolist())]


_G9 = Grid1D(9, 1.0)


@pytest.mark.parametrize("call", [
    lambda: resolvent_power_sum(_G9, _G9.dx ** 2 / 4, 2.5),
    lambda: resolvent_power_sums([_G9], [[_G9.dx ** 2 / 4]], (1, math.inf)),
    lambda: eta_geometric_sum(_G9, _G9.dx ** 2 / 4, math.nan),
    lambda: eta_geometric_sum(_G9, _G9.dx ** 2 / 4, 1.5),
    lambda: heat_kernel_spectrum_sum(_G9, 0.5, math.nan),
    lambda: heat_kernel_spectrum_sum(_G9, 0.5, math.inf),
    lambda: heat_kernel_spectrum_sums([_G9], (0.5,), (2, 7.25)),
    # a block whose dts rows do not pair with its grids: fewer rows raised an
    # IndexError, extra rows (even an unstable dt) went unchecked, and an
    # empty block raised a numpy TypeError
    lambda: resolvent_power_sums([_G9, _G9], [[_G9.dx ** 2 / 4]], (1,)),
    lambda: amplification_bound_checks([_G9], [[_G9.dx ** 2 / 4], [10.0]]),
    lambda: eta_geometric_sums([_G9], [[_G9.dx ** 2 / 4], [10.0]], (1,)),
    lambda: amplification_bound_checks([], []),
    lambda: eta_geometric_sums([], [], (1,)),
    lambda: heat_kernel_spectrum_sums([], (0.5,), (1,)),
    # float(10 ** 400) raised OverflowError, which is no ValueError
    lambda: eta_geometric_sum(_G9, _G9.dx ** 2 / 4, 10 ** 400),
], ids=["resolvent-fraction", "resolvent-inf", "eta-nan", "eta-fraction", "kernel-nan",
        "kernel-inf", "kernel-fraction", "resolvent-fewer-dts", "amplification-more-dts",
        "eta-more-dts", "amplification-empty", "eta-empty", "kernel-empty", "eta-too-large"])
def test_step_counts_must_be_whole_numbers(call):
    # each returned a number, nan or 0.0 for a count that is no step count,
    # or misread a block of grids
    with pytest.raises(ValueError, match="need whole [nm] >= 1|argument 2 is|nonempty block"):
        call()


def test_eta_sums_over_the_default_grids_build_no_padded_block(monkeypatch):
    # eta needs each grid's two extreme eigenvalues: `_spectrum`'s refusals
    # run, but no padded (grids x modes) block is built only to be thrown away:
    # each axis of an array eta builds is one of (511 grids, 3 dts, 4 ns), none
    # the 512 modes of a block
    grids = [Grid1D(J, 1.0) for J in range(2, 513)]
    dts, ns = [[c * g.dx ** 2 for c in (0.5, 0.25, 0.1)] for g in grids], (1, 10, 1000, 10 ** 6)
    expected, built = eta_geometric_sums(grids, dts, ns), []

    def recording(name, whole):
        return lambda *args, **kw: built.append((name, (out := whole(*args, **kw)).shape)) or out

    for name in ("array", "arange", "zeros", "empty"):  # what a padded block is built from
        monkeypatch.setattr(np, name, recording(name, getattr(np, name)))
    sums = eta_geometric_sums(grids, dts, ns)
    monkeypatch.undo()
    assert ("array", (511, 3, 4)) in built
    assert all(len(shape) <= 3 and set(shape) <= {1, 511, 3, 4} for _, shape in built), built
    assert sums.tolist() == expected.tolist()


def test_integral_float_step_counts_equal_their_ints():
    dt = _G9.dx ** 2 / 4
    assert resolvent_power_sum(_G9, dt, 10.0) == resolvent_power_sum(_G9, dt, 10)
    assert eta_geometric_sum(_G9, dt, 1e3) == eta_geometric_sum(_G9, dt, 1000)
    assert heat_kernel_spectrum_sum(_G9, 0.5, 4.0) == heat_kernel_spectrum_sum(_G9, 0.5, 4)


def test_batched_sums_refuse_what_the_per_call_sums_refuse():
    g, g3 = Grid1D(9, 1.0), Grid1D(3, 1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        resolvent_power_sums([g], [[g.dx ** 2 / 4]], (1, 0))
    # the first failing grid of a block is named
    with pytest.raises(CflViolationError, match=r"limit of Grid\(shape=\(9,\)"):
        resolvent_power_sums([g3, g, g3], [[g3.dx ** 2 / 4], [0.6 * g.dx ** 2], [g3.dx ** 2]], (1,))
    with pytest.raises(ValueError, match="m >= 1"):
        heat_kernel_spectrum_sums([g], (0.5,), (1, 0))
    # alpha * m = inf gave the bound-less value 0.0, and 1e308 * 10 a numpy
    # overflow warning as well
    for alpha in (0.0, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="alpha > 0"):
            heat_kernel_spectrum_sums([g], (0.5, alpha), (1, 10))
    with pytest.raises(ValueError, match="alpha > 0"):
        heat_kernel_spectrum_sum(Grid1D(5, 1.0), math.inf, 1)
