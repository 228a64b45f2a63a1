import math

import numpy as np
import pytest

from neumannheat import (Field, Field1D, Field2D, Grid, Grid1D,
                         GridMismatchError, bound_sweep, inner, mean, mean2d, norm2d,
                         default_config, norm_l2, ones, project, project2d,
                         run_convergence)
from neumannheat import grid, spectral
from neumannheat.grid import check_grid, exact_sum, exact_sums
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
            Grid((5, 5), (1.0, bad))
        with pytest.raises(ValueError, match="positive and finite"):
            Grid((5, 5), (bad, 1.0))
    # 1e200 overflowed h**2 in the stability rule (OverflowError), 1e-170
    # underflowed it to 0 (ZeroDivisionError in the shifted solve)
    for shape, lengths in (((3,), (1e200,)), ((9,), (1e200,)), ((3,), (1e-170,)),
                           ((3, 5), (1.0, 1e-160)), ((5, 5, 5), (1e160, 1.0, 1.0))):
        with pytest.raises(ValueError, match="spacing's square"):
            Grid(shape, lengths)
    Grid1D(3, 1e150), Grid1D(3, 1e-150)  # squares and reciprocals in range
    # a count past the largest float overflowed L / (J - 1) (OverflowError), in
    # grid_for before any Grid was made; so did N = 10^600 times the cell volume
    with pytest.raises(ValueError, match="nodes per axis"):
        Grid1D(10 ** 400, 1.0)
    with pytest.raises(ValueError, match="nodes per axis"):
        grid.grid_for(10 ** 400, 2.0, 4.0)
    with pytest.raises(ValueError, match="spacing's square"):
        Grid((10 ** 300, 10 ** 300), (1e160, 1e160))
    # a span past the floats overflowed round(), and Lx = 0 divided by zero
    for args in ((5, 1e-300, 1e300), (5, 0.0, 1.0), (5, 1.0, math.inf)):
        with pytest.raises(ValueError):
            grid.grid_for(*args)


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


def test_exact_sum_equals_fsum_bit_for_bit():
    rng = np.random.default_rng(20)
    C = grid._SUM_BLOCK
    for n in (1, 7, C - 1, C, C + 1, 3 * C + 5):
        # magnitudes over +-20 decades, and each large value cancelled by its
        # negative elsewhere, so that only an exactly rounded sum gets it right
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20, 20, n)
        x[n // 2:] = -x[:n - n // 2][::-1] * (1.0 + 1e-16 * rng.standard_normal(n - n // 2))
        for a in (x, x.reshape(1, n), x[:n - n % 2].reshape(2, -1).T):
            assert exact_sum(a) == math.fsum(a.ravel()), (n, a.shape)
    assert exact_sum(np.zeros((0, 3))) == 0.0


def _fsum_or_error(a):
    """math.fsum(a.ravel()), or the type of the exception it raises."""
    try:
        return math.fsum(a.ravel())
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_sums_like_fsum(a):
    want = _fsum_or_error(a)
    if isinstance(want, type):
        with pytest.raises(want):
            exact_sum(a)
    elif math.isnan(want):
        assert math.isnan(exact_sum(a))
    else:
        assert exact_sum(a) == want, a.shape


def test_exact_sum_of_more_than_one_block_equals_fsum():
    rng = np.random.default_rng(26)
    C = grid._SUM_BLOCK
    # sizes that are not a multiple of the block, over +-20 and +-300 decades
    for n, decades in ((C + 1, 20), (2 * C + 3, 20), (5 * C - 7, 20), (3 * C + 11, 300)):
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-decades, decades, n)
        _assert_sums_like_fsum(x)
        x[n // 2:] = -x[:n - n // 2][::-1]
        x[0] += 1e-300
        _assert_sums_like_fsum(x)
    # half-ulp ties whose halves sit in different rows, rounded to even or,
    # with a tiny third term in a further row, away from the tie
    for top in (1.0, 1.0 + 2.0 ** -52, -3.0):
        x = np.zeros(3 * C)
        x[5], x[C + 7] = top, math.copysign(math.ulp(top) / 2, top)
        _assert_sums_like_fsum(x)
        x[2 * C + 1] = 2.0 ** -300
        _assert_sums_like_fsum(x)
        x[2 * C + 1] = -2.0 ** -300
        _assert_sums_like_fsum(x)
    # subnormals, alone and next to normal numbers; all-zero rows; -0.0
    tiny = rng.integers(-2 ** 40, 2 ** 40, 2 * C + 9) * 5e-324
    _assert_sums_like_fsum(tiny)
    tiny[C + 3] = 1e-300
    _assert_sums_like_fsum(tiny)
    x = rng.standard_normal(4 * C + 2)
    x[C:3 * C] = 0.0
    _assert_sums_like_fsum(x)
    _assert_sums_like_fsum(np.zeros(2 * C + 1))
    _assert_sums_like_fsum(np.full(2 * C + 1, -0.0))
    # a non-contiguous two-axis view
    y = rng.standard_normal((301, 250)) * 10.0 ** rng.uniform(-30, 30, (301, 250))
    view = y[::2, ::-1].T
    assert not view.flags.c_contiguous and view.size > C
    _assert_sums_like_fsum(view)


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, "inf-inf",
                                     2.0 ** 1000, 2.0 ** 1023, "pair-at-max"])
def test_exact_sum_of_more_than_one_block_keeps_fsum_special_values(special):
    # what fsum returns or raises on nan, infinities, inf - inf and entries
    # from 2^1000 on: the blocked sum hands such arrays to fsum itself
    x = np.random.default_rng(2).standard_normal(3 * grid._SUM_BLOCK + 5)
    if special == "inf-inf":
        x[7], x[-2] = math.inf, -math.inf
    elif special == "pair-at-max":
        x[7] = x[-2] = 1.5 * 2.0 ** 1023  # overflows in fsum: OverflowError
    else:
        x[x.size // 2] = special
    _assert_sums_like_fsum(x)


def _assert_rows_sum_like_fsum(rows):
    """The fsum of each row of a 2D array, bit for bit (repr tells -0.0 from
    0.0), from `exact_sums` of the rows (or the first failing row's error), and
    again with row k's last k % width entries set to +0.0, as a block of grids
    padded to its largest J has them."""
    rows = np.asarray(rows)
    padded, n = rows.copy(), rows.shape[1]
    for k in range(len(rows)):
        padded[k, n - k % max(n, 1):] = 0.0
    for a in (rows, padded):
        want = [_fsum_or_error(row) for row in a]
        errors = [w for w in want if isinstance(w, type)]
        if errors:
            with pytest.raises(errors[0]):
                exact_sums(a)
        else:
            assert list(map(repr, exact_sums(a).tolist())) == list(map(repr, want)), a


def _near_tie_rows(top):
    """Rows whose sum is ``top`` plus half the gap to either neighbour: the
    exact tie, the tie with a tiny term to either side, and the value just
    inside the tie plus five quarter-gaps that a running sum drops one by one
    but that carry the exact sum past the tie."""
    rows = []
    for half in ((math.nextafter(top, math.inf) - top) / 2,
                 (math.nextafter(top, -math.inf) - top) / 2):
        inside = math.nextafter(half, 0.0)
        quarter = (half - inside) / 4
        rows += [[top, half, 0.0, 0.0, 0.0, 0.0, 0.0],
                 [top, half, 2.0 ** -300, 0.0, 0.0, 0.0, 0.0],
                 [top, half, -2.0 ** -300, 0.0, 0.0, 0.0, 0.0],
                 [top, inside, quarter, quarter, quarter, quarter, quarter],
                 [top, inside, -quarter, -quarter, -quarter, -quarter, -quarter]]
    return rows


def test_exact_sums_of_near_ties_equal_fsum():
    # ties on both sides of values inside a binade and of powers of two, where
    # the gap below is half the gap above, so sums land on 2^k from either side
    tops = [1.5, -3.0, 1.0 + 2.0 ** -52, 1e300, 2.0 ** -890 * 3]
    tops += [s * 2.0 ** k for k in (-899, -40, 0, 1, 52, 999) for s in (1.0, -1.0)]
    tops += [math.nextafter(2.0 ** k, 0.0) for k in (0, 7)]
    rows = np.array([row for top in tops for row in _near_tie_rows(top)])
    _assert_rows_sum_like_fsum(rows)
    for row in rows:
        _assert_rows_sum_like_fsum(row[None, :])
        _assert_rows_sum_like_fsum(np.concatenate([row, np.zeros(504)])[None, :])
    # random tops, each with a random near-tie tail split in several parts
    rng = np.random.default_rng(28)
    top = rng.choice([-1.0, 1.0], 4000) * 2.0 ** rng.integers(-60, 60, 4000)
    top *= np.where(rng.random(4000) < 0.5, 1.0, rng.uniform(1.0, 2.0, 4000))
    half = np.spacing(top) / 2 * rng.choice([-1.0, 1.0, 0.5, -0.5], 4000)
    split = rng.uniform(0.0, 1.0, (4000, 4)) * half[:, None]
    noise = half[:, None] * rng.choice([0.0, 1e-3, 1e-9, 2.0 ** -53], (4000, 2))
    _assert_rows_sum_like_fsum(np.column_stack([top, half - split.sum(axis=1), split, noise]))


def test_exact_sums_equal_fsum_on_cancellation_and_range_edges():
    sub, C = 5e-324, grid._SUM_BLOCK
    for row in ([1.0, -1.0], [-0.0, -0.0], [0.0, -0.0], [-0.0], [0.0], [1.0, -1.0, -0.0],
                [1e300, 1.0, -1e300], [0.75, 0.25], [1.0 + 2.0 ** -52, -2.0 ** -52],
                [0.5, 0.5 - 2.0 ** -54], [2.0, -2.0 ** -52, -2.0 ** -53],
                # subnormals, and a max just under and just over 2^-900 and 2^1000
                [sub, sub, -sub], [1e-310, -1e-311, 3 * sub], [2.0 ** -1022, -sub],
                [math.nextafter(2.0 ** -900, 0.0), 2.0 ** -950, -sub],
                [2.0 ** -900, 2.0 ** -950, -sub], [2.0 ** -900, -2.0 ** -953 * 3],
                [math.nextafter(2.0 ** 1000, 0.0)] * 2 + [1.0],
                [2.0 ** 1000, 1.0, -2.0 ** 1000], [-2.0 ** 1000, 2.0 ** 1000],
                # nan, infinities, inf - inf and pairs that overflow in fsum
                [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0],
                [math.inf, -math.inf], [1.5 * 2.0 ** 1023] * 2, [1e308, 1e308, -1e308]):
        _assert_rows_sum_like_fsum(np.array([row]))
        _assert_rows_sum_like_fsum(np.array([[0.1] * len(row), row, [-3.0] * len(row)]))
    rng = np.random.default_rng(29)
    for n in (1, 2, 511, C, C + 1):
        # magnitudes over +-20 decades, each large value cancelled by its
        # negative in the same row, so only an exactly rounded sum gets it right
        x = rng.choice([-1.0, 1.0], (6, n)) * 10.0 ** rng.uniform(-20, 20, (6, n))
        jitter = 1.0 + 1e-16 * rng.standard_normal(n - n // 2)
        x[:, n // 2:] = -x[:, :n - n // 2][:, ::-1] * jitter
        x[0] = 0.0
        x[1, 0] = 1.0
        _assert_rows_sum_like_fsum(x)
        x[2, -1] = math.inf
        _assert_rows_sum_like_fsum(x)
    assert exact_sums(np.zeros((0, 4))).shape == (0,)
    assert exact_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    # a 1D array is one row; the empty row sums to +0.0
    assert repr(exact_sums(np.zeros(0)).tolist()) == "0.0"
    assert repr(exact_sums(np.array([1e300, 1.0, -1e300, -0.0])).tolist()) == "1.0"
    # the rows of a 3-axis array
    z = rng.standard_normal((3, 2, 40)) * 10.0 ** rng.uniform(-20, 20, (3, 2, 40))
    assert exact_sums(z).tolist() == [[math.fsum(z[k, m]) for m in range(2)] for k in range(3)]
    # non-contiguous views, one with a row longer than _SUM_BLOCK, and rows of
    # one to 220 entries zero-padded to 220
    y = rng.standard_normal((301, 250)) * 10.0 ** rng.uniform(-30, 30, (301, 250))
    view = y[::2, ::-1].T
    assert not view.flags.c_contiguous
    _assert_rows_sum_like_fsum(view)
    flat = y.ravel()[::-3]
    assert not flat.flags.c_contiguous and flat.size > C
    _assert_rows_sum_like_fsum(flat[None, :])
    segments = np.split(flat, np.cumsum(np.arange(1, 221)))[:-1]
    padded = np.zeros((220, 220))
    for k, segment in enumerate(segments):
        padded[k, :k + 1] = segment
    assert list(map(repr, exact_sums(padded[:, ::-1]).tolist())) == \
        [repr(math.fsum(segment)) for segment in segments]


def test_exact_sums_of_every_row_of_the_bound_sweep_equal_fsum(monkeypatch):
    seen = []

    def recording(a):
        seen.append(a.copy())
        return grid.exact_sums(a)

    monkeypatch.setattr(spectral, "exact_sums", recording)
    bound_sweep()
    # per block of grids, one (3 cfls, grids, 4 n, modes) array for the
    # resolvent sums, then per block one (3 cfls, grids, 4 m, modes) for the
    # kernel sums, modes 1..max J - 1: grid k's row holds its J - 1 terms, then +0.0
    grids = [Grid1D(J, 1.0) for J in range(2, 513)]
    blocks = [J.ravel().astype(int).tolist()
              for _, J, *_ in spectral._spectrum(grids, 1, [()] * 511, 12)]
    assert [J for Js in blocks for J in Js] == list(range(2, 513))
    assert len(seen) == 2 * len(blocks) < 2 * 511
    for a, Js in zip(seen, blocks + blocks, strict=True):
        assert a.shape == (3, len(Js), 4, max(Js) - 1)
        sums = exact_sums(a)
        for k, J in enumerate(Js):
            assert not a[:, k, :, J - 1:].any() and not np.signbit(a[:, k, :, J - 1:]).any()
            assert list(map(repr, sums[:, k].ravel().tolist())) == \
                [repr(math.fsum(a[i, k, j, :J - 1].tolist())) for i in range(3) for j in range(4)]


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
                 (Grid((3, 4), (1.0, 1.0)), lambda x, y: np.ones((2, 4))),
                 (Grid((2, 3, 4), (1.0, 1.0, 1.0)), lambda x, y, z: np.ones(5))):
        with pytest.raises(ValueError):
            project(g, f)


@pytest.mark.parametrize("g", [Grid((3, 4), (2.0, 1.0)), Grid((2, 3, 4), (1.0, 2.0, 3.0))])
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
    g = Grid((5, 3), (4.0, 2.0))
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
    g = Grid((4, 7), (3.0, 1.0))
    for _ in range(5):
        v = Field2D(g, rng.standard_normal((4, 7)))
        assert mean(v) == math.fsum(v.values.ravel()) / (g.Jx * g.Jy)


def test_2d_mismatch_and_validation():
    with pytest.raises(GridMismatchError):
        inner(ones(Grid((4, 3), (1, 1))), ones(Grid((5, 3), (1, 1))))
    with pytest.raises(ValueError):
        Field2D(Grid((4, 3), (1, 1)), np.zeros((3, 4)))  # transposed shape


def test_one_grid_for_any_number_of_axes():
    g = Grid((3, 4, 5), (2.0, 3.0, 4.0))  # z, y, x in array-axis order
    assert g.spacings == (1.0, 1.0, 1.0)
    assert (g.Jx, g.Jy, g.Lx, g.Ly) == (5, 4, 4.0, 3.0)
    assert Grid1D(5, 2.0) == Grid((5,), (2.0,))
    assert Field1D is Field2D is Field
    # J and L name the one axis of a 1D grid; the 1D formulas refuse other grids
    with pytest.raises(ValueError):
        g.J
    with pytest.raises(ValueError):
        Grid((5, 3), (4.0, 2.0)).L
    for shape, lengths in (((), ()), ((3, 4), (1.0,)), ((3, 1), (1.0, 1.0))):
        with pytest.raises(ValueError):
            Grid(shape, lengths)


def test_grid_for_matches_dx_on_every_axis():
    assert grid.grid_for(17, 2.0) == Grid1D(17, 2.0)
    # on (0,2) x (0,4) dy = dx, as in the 2D studies (bench/ takes Jx = 48)
    for Jx in range(8, 65):
        assert grid.grid_for(Jx, 2.0, 4.0) == Grid((2 * Jx - 1, Jx), (4.0, 2.0))
    # x first, array-axis order z, y, x: each further axis takes J - 1 nearest L / dx
    assert grid.grid_for(5, 2.0, 4.0, 2.0) == Grid((5, 9, 5), (2.0, 4.0, 2.0))
    for Jx in range(2, 65):
        for lengths in ((2.0, 4.0, 2.0), (2.0, 4.0, 3.0)):
            g = grid.grid_for(Jx, *lengths)
            assert g.lengths == lengths[::-1] and g.Jx == Jx
            for J, L in zip(g.shape, g.lengths):
                assert abs(J - 1 - L / g.dx) <= 0.5 + 1e-9


def test_project_3d_calls_x_first():
    g = Grid((2, 3, 4), (1.0, 2.0, 3.0))
    w = project(g, lambda x, y, z: x + 10 * y + 100 * z)
    assert w.values.shape == (2, 3, 4)
    assert w.values[1, 2, 3] == 3.0 + 10 * 2.0 + 100 * 1.0
    # a callable that ignores an axis is broadcast
    assert np.array_equal(project(g, lambda x, y, z: x).values,
                          np.broadcast_to(g.nodes(), g.shape))


def test_check_grid():
    g = Grid((4, 3), (1.0, 1.0))
    check_grid(g, ones(g), ones(Grid((4, 3), (1.0, 1.0))))
    for other in (Grid((3, 4), (1.0, 1.0)), Grid((4, 3), (2.0, 1.0)), Grid1D(3, 1.0)):
        with pytest.raises(GridMismatchError):
            check_grid(g, ones(g), ones(other))
