import math

import numpy as np
import pytest
from scipy import integrate

from neumannheat import Grid1D, cosine_mode, l1, l2, l_delta, norm_l2, trig_poly
from neumannheat.consistency import embed_boundary, split_defect
from neumannheat.exact import polynomial_function

SQ2 = math.sqrt(2.0)
PI = math.pi


def test_defect_of_constant_vanishes():
    g = Grid1D(9, 1.0)
    c0 = cosine_mode(0, 1.0)
    assert np.abs(l_delta(c0, g).values).max() == 0.0


def test_defect_row0_hand_value():
    # the orthonormal mode sqrt(2) cos(pi x), J=3, L=1 (dx = 1/2): the plain
    # cosine's row -pi^2 + 4, scaled by sqrt(2)
    g = Grid1D(3, 1.0)
    row0n = l_delta(cosine_mode(1, 1.0), g).values[0]
    assert row0n == pytest.approx(SQ2 * (-PI ** 2 + 4.0), rel=1e-12)


def test_defect_interior_second_order():
    w = cosine_mode(1, 1.0)
    for J in (33, 65):
        g = Grid1D(J, 1.0)
        interior = l_delta(w, g).values[1:-1]
        bound = PI ** 4 / 12.0 * g.dx ** 2 * SQ2 + 1e-12
        assert np.abs(interior).max() <= bound


def test_defect_interior_order_two_slope():
    w = cosine_mode(1, 1.0)
    Js = (17, 33, 65, 129)
    errs = [np.abs(l_delta(w, Grid1D(J, 1.0)).values[1:-1]).max() for J in Js]
    slope, _ = np.polyfit(np.log(Js), np.log(errs), 1)
    assert -slope == pytest.approx(2.0, abs=0.1)


def test_boundary_inconsistency_persists():
    # the first defect entry converges to w''(0)/2, not to zero
    w = cosine_mode(1, 1.0)
    target = 0.5 * float(w.deriv(2, 0.0))  # = -sqrt(2) pi^2 / 2
    gaps = []
    for J in (17, 33, 65, 129):
        row0 = l_delta(w, Grid1D(J, 1.0)).values[0]
        gaps.append(abs(row0 - target))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1
    assert abs(target) == pytest.approx(SQ2 * PI ** 2 / 2, rel=1e-15)


def test_l1_of_flat_mode_is_zero():
    g = Grid1D(17, 1.0)
    assert l1(cosine_mode(0, 1.0), g) == (0.0, 0.0)


def test_l1_matches_full_defect_at_end_rows():
    # for zero-slope data the interior split contributes nothing at the ends,
    # so each boundary value of l1 must equal the corresponding l_delta row
    for w in (cosine_mode(1, 1.0), cosine_mode(5, 1.0),
              polynomial_function([0.0, 0.0, 1.0, -2.0, 1.0])):  # x^2 (1-x)^2
        for J in (3, 9, 33):
            g = Grid1D(J, 1.0)
            full = l_delta(w, g).values
            left, right = l1(w, g)
            assert left == pytest.approx(full[0], rel=1e-11, abs=1e-11)
            assert right == pytest.approx(full[-1], rel=1e-11, abs=1e-11)


def test_l1_quadrature_against_adaptive_oracle():
    # 16-node Gauss on the left remainder integral vs adaptive quadrature
    w = polynomial_function([0, 0, 1, -2, 1])
    g = Grid1D(9, 1.0)
    left, _ = l1(w, g)
    ref_int, _ = integrate.quad(
        lambda s: (1 - s) ** 2 * float(w.deriv(3, s * g.dx)), 0.0, 1.0, epsabs=1e-14)
    ref = 0.5 * float(w.deriv(2, 0.0)) - 0.5 * g.dx * ref_int
    assert left == pytest.approx(ref, rel=1e-13)
    assert 0.5 * float(w.deriv(2, 0.0)) == 1.0  # leading term of the example


def test_l1_mode_growth_is_cubic():
    # |l1[0]| <= sqrt(2) pi^2/2 p^2 + sqrt(2) pi^3/6 dx p^3 <= C p^3 uniformly
    for J in (17, 65):
        g = Grid1D(J, 1.0)
        for p in range(1, 33):
            left, right = l1(cosine_mode(p, 1.0), g)
            bound = SQ2 * PI ** 2 / 2 * p ** 2 + SQ2 * PI ** 3 / 6 * g.dx * p ** 3
            assert abs(left) <= bound * (1 + 1e-12)
            assert abs(right) <= bound * (1 + 1e-12)
            assert abs(left) <= 7.5 * p ** 3


def test_l2_of_cubic_vanishes():
    g = Grid1D(11, 1.0)
    cubic = polynomial_function([0.3, -1.0, 2.0, 0.7])
    assert np.abs(l2(cubic, g).values).max() < 1e-14


def test_l2_endpoints_zero_and_mode_growth():
    for J in (9, 33):
        g = Grid1D(J, 1.0)
        for p in range(1, 33):
            vals = l2(cosine_mode(p, 1.0), g)
            assert vals.values[0] == 0.0 and vals.values[-1] == 0.0
            assert norm_l2(vals) <= SQ2 * (p * PI) ** 4 / 12.0 * (1 + 1e-12)


def test_splitting_identity():
    # l_delta = boundary part + dx^2 * interior part for zero-slope data
    for w in (cosine_mode(1, 1.0), cosine_mode(2, 1.0), cosine_mode(5, 1.0),
              polynomial_function([0.0, 0.0, 1.0, -2.0, 1.0])):
        for J in (3, 17, 33):
            g = Grid1D(J, 1.0)
            full = l_delta(w, g).values
            bnd, interior = split_defect(w, g)
            recon = bnd.values + g.dx ** 2 * interior.values
            assert np.abs(full - recon).max() < 1e-10


def test_split_defect_of_series_backed_functions():
    # l2 evaluates the fourth derivative on a (nodes x quadrature points)
    # array, which series-backed functions must accept
    datum = trig_poly()
    for w in (datum.solution(0.0), datum.solution(0.01)):
        for J in (17, 65):
            g = Grid1D(J, 1.0)
            bnd, interior = split_defect(w, g)
            full = l_delta(w, g).values
            recon = bnd.values + g.dx ** 2 * interior.values
            assert np.abs(full - recon)[1:-1].max() < 1e-8 * np.abs(full).max()


def test_embed_boundary():
    g = Grid1D(5, 1.0)
    f = embed_boundary((2.5, -1.0), g)
    assert np.array_equal(f.values, [2.5, 0.0, 0.0, 0.0, -1.0])
