import math

import numpy as np
import pytest

from neumannheat import (Field, Field1D, Field2D, Grid, Grid1D, Grid2D,
                         GridMismatchError, inner, mean, mean2d, norm2d,
                         default_config, norm_l2, ones, project, project2d,
                         run_convergence)
from neumannheat.grid import check_grid
from neumannheat.exact import cosine_mode
from neumannheat.spectral import eigenvalues, eigenvector


def test_grid_geometry():
    g = Grid1D(5, 2.0)
    assert g.dx * (g.J - 1) == pytest.approx(g.L, abs=1e-15)
    (x,) = g.coordinates()
    assert x[0] == 0.0
    assert x[4] == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    g3 = Grid((2, 3, 4), (1.0, 2.0, 3.0))
    assert [c.tolist() for c in g3.coordinates()] == [[0.0, 1.0], [0.0, 1.0, 2.0],
                                                        [0.0, 1.0, 2.0, 3.0]]
    assert np.array_equal(g3.nodes(), g3.coordinates()[-1])


def test_grid_degenerate_and_invalid():
    Grid1D(2, 1.0)  # smallest legal grid
    with pytest.raises(ValueError):
        Grid1D(1, 1.0)
    with pytest.raises(ValueError):
        Grid1D(4, 0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid1D(5, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            Grid2D(5, 5, bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            Grid2D(5, 5, 1.0, bad)
    # 1e200 overflowed h**2 in the stability rule (OverflowError), 1e-170
    # underflowed it to 0 (ZeroDivisionError in the shifted solve)
    for shape, lengths in (((3,), (1e200,)), ((9,), (1e200,)), ((3,), (1e-170,)),
                           ((3, 5), (1.0, 1e-160)), ((5, 5, 5), (1e160, 1.0, 1.0))):
        with pytest.raises(ValueError, match="spacing's square"):
            Grid(shape, lengths)
    Grid1D(3, 1e150), Grid1D(3, 1e-150)  # squares and reciprocals in range


def test_grid_refuses_node_counts_that_are_not_integers():
    # Grid1D(3.5, 1.0) had dx = 0.4 and nodes running to 1.2, past L; a float
    # count in J_list reached a TypeError deep inside the run
    for shape in ((3.5,), (17.0,), (5, 4.0), ("5",)):
        with pytest.raises(ValueError, match="node counts must be integers"):
            Grid(shape, (1.0,) * len(shape))
    with pytest.raises(ValueError, match="node counts must be integers"):
        run_convergence(default_config("homog-trigpoly", J_list=(17.0,)))
    # integer types other than int are accepted and stored as Python ints
    g = Grid((np.int64(5), np.int32(3)), (1.0, 2.0))
    assert g.shape == (5, 3) and all(type(J) is int for J in g.shape)


def test_grid_refuses_spacings_whose_spectrum_sum_overflows():
    # 4/h^2 is finite on each axis, but the Kronecker sum's lowest eigenvalue
    # -4 (1/hx^2 + 1/hy^2) is not
    L = 2 / math.sqrt(3e307)
    assert np.all(np.isfinite(eigenvalues(Grid1D(3, L))))
    with pytest.raises(ValueError, match="spacing's square"):
        Grid((3, 3), (L, L))


def test_field_validation():
    g = Grid1D(4, 1.0)
    with pytest.raises(ValueError):
        Field1D(g, np.zeros(5))
    with pytest.raises(ValueError):
        Field1D(g, np.array([0.0, np.inf, 0.0, 0.0]))


def test_inner_examples():
    g = Grid1D(4, 1.0)
    assert inner(ones(g), ones(g)) == 1.0
    e0 = Field1D(g, np.array([1.0, 0.0, 0.0, 0.0]))
    assert inner(e0, ones(g)) == 0.25


def test_inner_eigenvector_orthogonality():
    g = Grid1D(8, 1.0)
    w1, w2 = eigenvector(g, 1), eigenvector(g, 2)
    # independent check: evaluate the cosine formula and sum directly
    j = np.arange(8)
    ref = math.fsum(2.0 * np.cos(1 * (j + 0.5) * np.pi / 8)
                    * np.cos(2 * (j + 0.5) * np.pi / 8)) / 8
    assert abs(ref) < 1e-12
    assert abs(inner(w1, w2)) < 1e-12


def test_inner_grid_mismatch():
    with pytest.raises(GridMismatchError):
        inner(ones(Grid1D(4, 1.0)), ones(Grid1D(5, 1.0)))


def test_mean_examples():
    g = Grid1D(10, 1.0)
    assert mean(ones(g)) == 1.0
    e0 = Field1D(g, np.eye(10)[0])
    assert mean(e0) == pytest.approx(0.1, abs=1e-16)
    for ell in range(1, 10):
        assert abs(mean(eigenvector(g, ell))) < 1e-12


def test_mean_is_inner_with_ones_bitwise():
    rng = np.random.default_rng(7)
    g = Grid1D(33, 2.0)
    for _ in range(20):
        v = Field1D(g, rng.standard_normal(33))
        assert mean(v) == inner(v, ones(g))


def test_norm_examples():
    g = Grid1D(16, 1.0)
    assert norm_l2(ones(g)) == 1.0
    assert norm_l2(Field1D(g, 2.0 * np.ones(16))) == 2.0
    for ell in range(1, 16):
        assert norm_l2(eigenvector(g, ell)) == pytest.approx(1.0, abs=1e-12)


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(1234)
    g = Grid1D(21, 3.0)
    for _ in range(200):
        v = Field1D(g, rng.standard_normal(21))
        w = Field1D(g, rng.standard_normal(21))
        assert abs(inner(v, w)) <= norm_l2(v) * norm_l2(w) * (1 + 1e-15)


def test_project_examples():
    g = Grid1D(3, 1.0)
    assert np.array_equal(project(g, lambda x: np.ones_like(x)).values, [1, 1, 1])
    assert np.allclose(project(g, lambda x: x).values, [0.0, 0.5, 1.0], atol=1e-15)
    g2 = Grid1D(2, 1.0)
    c1 = cosine_mode(1, 1.0)
    assert np.allclose(project(g2, c1).values, [math.sqrt(2), -math.sqrt(2)], atol=1e-15)


def test_project_refuses_a_result_that_does_not_broadcast():
    for g, f in ((Grid1D(4, 1.0), lambda x: np.ones(3)),
                 (Grid2D(4, 3, 1.0, 1.0), lambda x, y: np.ones((2, 4))),
                 (Grid((2, 3, 4), (1.0, 1.0, 1.0)), lambda x, y, z: np.ones(5))):
        with pytest.raises(ValueError):
            project(g, f)


@pytest.mark.parametrize("g", [Grid2D(4, 3, 1.0, 2.0), Grid((2, 3, 4), (1.0, 2.0, 3.0))])
def test_project_broadcasts_a_callable_that_ignores_an_axis(g):
    for f, expected in ((lambda x, *rest: np.cos(x), np.cos(g.nodes())),
                        (lambda x, *rest: 3.5, 3.5)):
        calls = []
        v = project(g, lambda *c: calls.append(c) or f(*c))
        assert len(calls) == 1
        assert np.array_equal(v.values, np.broadcast_to(expected, g.shape))
        v.values[(0,) * len(g.shape)] = -1.0  # a writable copy, not a broadcast view


def test_project_linearity():
    rng = np.random.default_rng(5)
    g = Grid1D(17, 1.5)
    a, b = rng.standard_normal(2)
    f = lambda x: np.sin(3 * x) + 0.5
    h = lambda x: np.cos(x) * x
    combo = project(g, lambda x: a * f(x) + b * h(x))
    split = a * project(g, f).values + b * project(g, h).values
    assert np.abs(combo.values - split).max() < 1e-14


def test_2d_basics():
    g = Grid2D(3, 5, 2.0, 4.0)
    assert g.dx == 1.0 and g.dy == 1.0
    v = ones(g)
    assert inner(v, v) == 1.0
    assert mean2d(v) == 1.0
    assert norm2d(Field2D(g, 3.0 * np.ones((5, 3)))) == 3.0
    w = project2d(g, lambda x, y: x + 10 * y)
    assert w.values.shape == (5, 3)
    assert w.values[2, 1] == pytest.approx(1.0 + 20.0, abs=1e-15)


def test_mean_equals_mean2d_on_2d_fields():
    rng = np.random.default_rng(9)
    g = Grid2D(7, 4, 1.0, 3.0)
    for _ in range(5):
        v = Field2D(g, rng.standard_normal((4, 7)))
        assert mean(v) == math.fsum(v.values.ravel()) / (g.Jx * g.Jy)


def test_2d_mismatch_and_validation():
    with pytest.raises(GridMismatchError):
        inner(ones(Grid2D(3, 4, 1, 1)), ones(Grid2D(3, 5, 1, 1)))
    with pytest.raises(ValueError):
        Field2D(Grid2D(3, 4, 1, 1), np.zeros((3, 4)))  # transposed shape


def test_one_grid_for_any_number_of_axes():
    g = Grid((3, 4, 5), (2.0, 3.0, 4.0))  # z, y, x in array-axis order
    assert g.spacings == (1.0, 1.0, 1.0)
    assert (g.Jx, g.Jy, g.Lx, g.Ly) == (5, 4, 4.0, 3.0)
    assert Grid1D(5, 2.0) == Grid((5,), (2.0,))
    assert Grid2D(3, 5, 2.0, 4.0) == Grid((5, 3), (4.0, 2.0))
    assert Field1D is Field2D is Field
    # J and L name the one axis of a 1D grid; the 1D formulas refuse other grids
    with pytest.raises(ValueError):
        g.J
    with pytest.raises(ValueError):
        Grid2D(3, 5, 2.0, 4.0).L
    for shape, lengths in (((), ()), ((3, 4), (1.0,)), ((3, 1), (1.0, 1.0))):
        with pytest.raises(ValueError):
            Grid(shape, lengths)


def test_project_3d_calls_x_first():
    g = Grid((2, 3, 4), (1.0, 2.0, 3.0))
    w = project(g, lambda x, y, z: x + 10 * y + 100 * z)
    assert w.values.shape == (2, 3, 4)
    assert w.values[1, 2, 3] == 3.0 + 10 * 2.0 + 100 * 1.0
    # a callable that ignores an axis is broadcast
    assert np.array_equal(project(g, lambda x, y, z: x).values,
                          np.broadcast_to(g.nodes(), g.shape))


def test_check_grid():
    g = Grid2D(3, 4, 1.0, 1.0)
    check_grid(g, ones(g), ones(Grid2D(3, 4, 1.0, 1.0)))
    for other in (Grid2D(4, 3, 1.0, 1.0), Grid2D(3, 4, 1.0, 2.0), Grid1D(3, 1.0)):
        with pytest.raises(GridMismatchError):
            check_grid(g, ones(g), ones(other))
