import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from neumannheat import (CflViolationError, CosineSeries, Grid1D, bound_sweep,
                         cosine_mode, default_config, emit_csv, epsilon_diagnostics, estimate_slope,
                         quadrature_inequality_check, run_convergence,
                         trig_poly)
from neumannheat import harness, scheme1d, spectral
from neumannheat.exact import hat_function
from neumannheat.grid import Field, mean, norm_l2, project
from neumannheat.harness import (EXPERIMENTS, ErrorRecord, H1Function,
                                 csv_text, h1_constant,
                                 h1_cosine_mode, h1_linear, records_at)
from neumannheat.spectral import (amplification_bound_check, eta_geometric_sum,
                                  heat_kernel_spectrum_sum, resolvent_power_sum,
                                  resolvent_power_sum_bound)


def _mk_records(errs_by_J, t=1.0):
    return [ErrorRecord("homog-trigpoly", J, 1.0 / (J - 1), 0.0, t, t, 0, e, e, 0.0)
            for J, e in errs_by_J.items()]


def test_slope_fit_exact_power_law():
    recs = _mk_records({J: 3.7 / J for J in (10, 20, 40, 80)})
    fit = estimate_slope(recs)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-12)


def test_slope_fit_requires_three_points():
    with pytest.raises(ValueError):
        estimate_slope(_mk_records({10: 1.0, 20: 0.5}))


def test_slope_fit_refuses_errors_that_are_not_positive():
    for bad in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="positive errors; not positive at J=\\[20\\]"):
            estimate_slope(_mk_records({10: 1.0, 20: bad, 40: 0.25}))


def test_slope_fit_on_published_convergence_data():
    # frozen first-order data points: errors 0.013019139, 0.006570036,
    # 0.003300383 at J = 129, 257, 513
    recs = _mk_records({129: 0.013019139, 257: 0.006570036, 513: 0.003300383})
    assert estimate_slope(recs).slope == pytest.approx(0.99, abs=0.02)
    # frozen second-order regime: 1.91656944868195e-05 ... 1.99729607065668e-08
    recs2 = _mk_records({201: 1.91656944868195e-05, 401: 5.00699694141903e-06,
                         801: 1.26650633318485e-06, 1601: 3.17657578666634e-07,
                         3201: 7.95611383457554e-08, 6401: 1.99729607065668e-08})
    assert estimate_slope(recs2).slope == pytest.approx(1.98, abs=0.02)


def test_run_convergence_basic():
    cfg = default_config("homog-trigpoly", J_list=(17, 33), checkpoints=(0.0, 0.02))
    recs = run_convergence(cfg)
    assert len(recs) == 4
    # starting from the sampled datum the initial error vanishes
    for r in records_at(recs, 0.0):
        assert r.abs_err == 0.0
    # realized times sit on the step lattice
    for r in recs:
        assert r.t_realized == pytest.approx(r.n * r.dt, abs=0.0)


def _study_fields(experiment, J, checkpoints=None):
    """The (grid, dt, checkpoint, reference, normalizer) of one study, as
    `run_convergence` reads them."""
    cfg = default_config(experiment, J_list=(J,), checkpoints=checkpoints)
    return harness._checkpoints(cfg, J, EXPERIMENTS[experiment][3]())


def test_checkpoint_fields_give_the_records_bit_for_bit():
    for experiment, J_list in (("homog-trigpoly", (17, 33)), ("steady2d-offset", (8, 16))):
        records = run_convergence(default_config(experiment, J_list=J_list))
        studies = [row for J in J_list for row in _study_fields(experiment, J)]
        assert len(studies) == len(records)
        for (g, dt, cp, reference, normalizer), r in zip(studies, records):
            err = norm_l2(Field(g, reference.values - cp.field.values))
            assert (g.Jx, dt, cp.t_target, cp.t_realized, cp.n) == \
                (r.J, r.dt, r.t_target, r.t_realized, r.n)
            assert (err, err / normalizer) == (r.abs_err, r.rel_err)
            assert cp.n * dt == cp.t_realized


def _propagate_transforming_b_at_each_checkpoint(st, checkpoints):
    """`scheme1d.propagate` with the eigenvalues and the DCT-II of b computed
    again at every checkpoint: the reference for computing them once."""
    def jump(st, k):
        lam = spectral.eigenvalues(st.grid)
        qk = spectral.power(1.0 + st.dt * lam, k)
        vhat = qk * spectral.dctn(st.values)
        vhat += spectral.geometric_sum(lam, qk, k, st.dt) * spectral.dctn(st.rhs.b.values)
        return spectral.idctn(vhat)
    return scheme1d._run_checkpoints(st, checkpoints, jump)


def test_a_forced_study_transforms_its_forcing_once(monkeypatch):
    cfg = default_config("steady2d-offset", J_list=(64,))
    calls = []
    monkeypatch.setattr(scheme1d, "dctn", lambda a: calls.append(a.shape) or spectral.dctn(a))
    records = run_convergence(cfg)
    # one transform of the values per checkpoint, one of b for the whole run
    assert len(records) == 8 and len(calls) == 9
    monkeypatch.setattr(scheme1d, "propagate", _propagate_transforming_b_at_each_checkpoint)
    for r, want in zip(records, run_convergence(cfg), strict=True):
        assert dataclasses.replace(r, wall_ms=0.0) == dataclasses.replace(want, wall_ms=0.0)


def test_a_zero_normalizer_is_refused_before_a_checkpoint():
    # the sampled hat is all zeros at J = 2
    with pytest.raises(ValueError, match="normalizer is 0.0"):
        next(_study_fields("homog-hat", 2))


def test_hat_late_error_is_the_node_mean_gap_off_the_kink_nodes():
    # at J - 1 not a multiple of 100 the outer kinks x = 0.98 and 1.02 are not
    # nodes; the run keeps the sampled datum's node mean, the exact state
    # tends to the continuous mean width/L = 0.01, and the error is their gap
    for J, gap in ((251, 3.5857e-4), (2251, 4.9361e-7)):
        ((g, dt, cp, reference, normalizer),) = _study_fields("homog-hat", J, (5.0,))
        sampled = mean(project(g, hat_function()))
        assert mean(cp.field) == pytest.approx(sampled, rel=1e-13, abs=0.0)
        assert abs(sampled - 0.01) == pytest.approx(gap, rel=1e-4)
        err = norm_l2(Field(g, reference.values - cp.field.values))
        assert err == pytest.approx(abs(sampled - 0.01), rel=1e-6)


def _hat_early_slope(J_list):
    cfg = default_config("homog-hat", J_list=J_list, checkpoints=(0.02,))
    return estimate_slope(run_convergence(cfg)).slope


def test_hat_early_second_order_regime_holds_on_the_catalog_grids():
    # J - 1 = 200, 400, 800: criterion 05's grids, where the slope reads 1.97
    assert _hat_early_slope((201, 401, 801)) >= 1.85


def test_hat_early_second_order_regime_is_absent_off_the_catalog_grid_family():
    # negative result: with J - 1 not a multiple of 200 the t = 0.02 error is
    # 46 to 158 times that at (201, 401, 801) and falls at a slope of 1.07, not 2
    assert _hat_early_slope((211, 421, 841)) < 1.5


def test_run_convergence_builds_its_case_once(monkeypatch):
    J_list, checkpoints, normalization, case = EXPERIMENTS["steady2d-offset"]
    calls = []

    def counted():
        calls.append(1)
        return case()

    monkeypatch.setitem(EXPERIMENTS, "steady2d-offset",
                        (J_list, checkpoints, normalization, counted))
    cfg = default_config("steady2d-offset", J_list=(8, 16, 4), checkpoints=(0.625,))
    assert [r.J for r in run_convergence(cfg)] == [4, 8, 16]
    assert len(calls) == 1


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        default_config("nope")


def test_default_config_runs_on_one_thread_only():
    assert default_config("homog-trigpoly", threads=1) == default_config("homog-trigpoly")
    with pytest.raises(ValueError):
        default_config("homog-trigpoly", threads=2)


def test_default_config_refuses_empty_lists():
    # an empty list is not a request for the catalog's defaults
    with pytest.raises(ValueError, match="grid resolution"):
        default_config("homog-trigpoly", J_list=())
    with pytest.raises(ValueError, match="checkpoint"):
        default_config("homog-trigpoly", checkpoints=[])
    assert default_config("homog-trigpoly", J_list=None).J_list == EXPERIMENTS["homog-trigpoly"][0]


def test_config_refuses_a_repeated_grid_resolution():
    # each copy of J ran the same study again, and the CSV repeated its rows
    for J_list in ((33, 33, 33), (65, 33, 65)):
        with pytest.raises(ValueError, match="grid resolutions must be distinct"):
            default_config("homog-trigpoly", J_list=J_list)


def test_config_refuses_checkpoints_that_do_not_increase():
    # a repeated checkpoint wrote each CSV row twice and repeated every J in the fit
    for checkpoints in ((0.1, 0.1), (0.2, 0.1), (-0.1, 0.1), (0.1, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="strictly increasing"):
            default_config("homog-trigpoly", checkpoints=checkpoints)
    assert default_config("homog-trigpoly", checkpoints=(0.0, 0.1)).checkpoints == (0.0, 0.1)


def test_default_config_refuses_an_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        default_config("homog-nonsense")


def test_epsilon_diagnostics_constant_datum():
    g = Grid1D(17, 1.0)
    d = CosineSeries(1.0, [2.0])
    e1, e2 = epsilon_diagnostics(d, g, g.dx ** 2 / 2, 5)
    assert e1 == 0.0 and e2 == 0.0


def test_epsilon_diagnostics_single_mode_closed_form():
    g = Grid1D(33, 1.0)
    dt = g.dx ** 2 / 2
    d = CosineSeries(1.0, [0.0, 1 / math.sqrt(2)])  # single cosine mode
    n = 7
    _, e2 = epsilon_diagnostics(d, g, dt, n)
    # independent evaluation: quadrature of the Taylor-remainder integral
    mu = math.pi ** 2
    I, _ = integrate.quad(lambda s: ((n + 1) * dt - s) * math.exp(-mu * s),
                          n * dt, (n + 1) * dt, epsabs=1e-16)
    x = g.nodes()
    field = (1.0 / math.sqrt(2.0)) * mu ** 2 * I * math.sqrt(2.0) * np.cos(math.pi * x)
    ref = math.sqrt(math.fsum(field * field) / g.J)
    assert e2 == pytest.approx(ref, rel=1e-12)


def test_epsilon_scalings_in_dt():
    g = Grid1D(33, 1.0)
    d = trig_poly()
    dt = g.dx ** 2 / 2
    e1a, e2a = epsilon_diagnostics(d, g, dt, 0)
    e1b, e2b = epsilon_diagnostics(d, g, dt / 2, 0)
    assert e1a / e1b == pytest.approx(2.0, rel=1e-12)   # eps1 ~ dt exactly at n=0
    assert e2a / e2b == pytest.approx(4.0, rel=2e-2)    # eps2 ~ dt^2
    # eps1 carries the boundary inconsistency: it does not vanish with dx
    e1_fine, _ = epsilon_diagnostics(d, Grid1D(129, 1.0), dt, 0)
    assert e1_fine / dt > 0.1


def test_quadrature_inequality_refuses_an_empty_sweep():
    # it used to report WorstCase(0.0, (0, 'x'), ok=True), a check of nothing
    with pytest.raises(ValueError, match="nonempty"):
        quadrature_inequality_check(h1_linear(1.0), [], 1.0)


def test_quadrature_inequality():
    sweep = range(2, 130)
    assert quadrature_inequality_check(h1_constant(), sweep, 1.0).ok
    assert quadrature_inequality_check(h1_linear(1.0), sweep, 1.0).ok
    rep = quadrature_inequality_check(h1_cosine_mode(1, 1.0), sweep, 1.0)
    assert rep.ok
    assert rep.where[1] == "cos mode 1" and rep.where[0] in sweep
    # forged norm must fail: claim a much smaller H^1 norm than the truth
    fake = H1Function(h1_cosine_mode(1, 1.0).fn, 0.1, "forged")
    assert not quadrature_inequality_check(fake, sweep, 1.0).ok
    # the worst case is at a grid of the sweep even where every ratio is 0
    zero = H1Function(lambda x: 0.0 * x, 1.0, "zero")
    assert quadrature_inequality_check(zero, sweep, 1.0).where == (2, "zero")


def test_sampling_ratios_equal_the_one_grid_ratios():
    # each ratio of the check, sampled per block of grids, is the one-grid
    # norm_l2(project(g, fn)) ** 2 / rhs bit for bit: y ** 2 of a Python float
    # y = sqrt(mean) differs from numpy's square of y for h1_linear at J = 368,
    # L = 3.7 (and J = 154, 191 at L = 1e60), at L = 1e60 the last node of
    # J = 282 lies past L by rounding, and J = 20000 is wider than an extracted row
    for L in (1.0, 3.7, 1e60):
        grids = [Grid1D(J, L) for J in [*range(2, 600), 282, 20000, 3]]
        fns = (h1_constant(), h1_linear(L), h1_cosine_mode(1, L))
        ratios = harness._sampling_ratios(fns, grids)
        assert ratios.dtype == float and ratios.tolist() == \
            [[norm_l2(project(g, h1.fn)) ** 2 / ((g.J - 1) / g.J * 2.0 * (1.0 + g.dx)
                                                 * h1.h1_norm_sq) for g in grids] for h1 in fns]


def test_sampling_check_samples_each_grid_on_its_own_nodes():
    # in a block of J = 600 and J = 2, the padded nodes of J = 2 are x = 0, not
    # j * h past L: a cosine series, which refuses points outside [0, L], runs,
    # and a function that is nan at one node of one grid is refused
    grids = [Grid1D(J, 1.0) for J in (600, 2, 37, 2, 3)]
    mode = H1Function(cosine_mode(2, 1.0), 1.0 + (2 * math.pi) ** 2, "cos mode 2")
    assert harness._sampling_ratios([mode], grids).tolist() == \
        [[norm_l2(project(g, mode.fn)) ** 2 / ((g.J - 1) / g.J * 2.0 * (1.0 + g.dx)
                                                * mode.h1_norm_sq) for g in grids]]
    node = grids[2].nodes()[5]
    hole = H1Function(lambda x: np.where(x == node, math.nan, 1.0), 1.0, "hole")
    assert (np.concatenate([g.nodes() for g in grids]) == node).sum() == 1
    with pytest.raises(ValueError, match="non-finite"):
        harness._sampling_ratios([mode, hole], grids)


def test_sweeps_over_an_array_of_J_report_python_ints():
    # `if not J_sweep` raised numpy's "truth value of an array is ambiguous",
    # and bound_sweep reported where=(np.int64(5), ...)
    rep = quadrature_inequality_check(h1_linear(1.0), np.arange(2, 6), 1.0)
    assert rep.ok and rep.where == (2, "x") and type(rep.where[0]) is int
    for name, worst in bound_sweep(J_list=np.arange(2, 6)).items():
        assert type(worst.where[0]) is int and worst.where[0] in range(2, 6), name
    # and the cfl and n or m of where=(int, np.float64, np.int64)
    arrays = dict(J_list=np.arange(2, 6), cfls=np.array([0.5, 0.25]), ns=np.array([1, 10]),
                  ms=np.array([1, 10]))
    for name, worst in bound_sweep(**arrays).items():
        if name != "quadrature":
            assert [type(x) for x in worst.where] == [int, float, int], name


def test_one_grid_figures_and_worst_cases_hold_python_numbers():
    # the batched figures are float arrays; their one-grid cases and the
    # sweep's worst cases give Python numbers, not numpy scalars
    g, dt = Grid1D(9, 1.0), Grid1D(9, 1.0).dx ** 2 / 4
    report = amplification_bound_check(g, dt)
    assert type(report.worst_margin) is float and type(report.worst_index) is int
    assert type(eta_geometric_sum(g, dt, 10)) is float
    assert type(resolvent_power_sum(g, dt, 10)) is float
    assert [type(x) for x in heat_kernel_spectrum_sum(g, 0.5, 10)] == [float, float]
    for name, worst in bound_sweep().items():
        assert type(worst.value) is float and type(worst.ok) is bool, name
        assert not [x for x in worst.where if isinstance(x, np.generic)], name


def test_blocks_cut_by_padded_area():
    # out of order, every block of more than one grid holds at most
    # spectral._BLOCK entries padded to its largest J, and takes the next grid
    # only within that
    rng, size = np.random.default_rng(33), spectral._BLOCK
    for Js in (rng.permutation(np.arange(2, 513)).tolist(), [600, 2, 3, 20000, 2, 599, 601, 2],
               rng.integers(2, 3000, 400).tolist(), [5000]):
        grids = [Grid1D(J, 1.0) for J in Js]
        for rows in (4, 12):
            runs = [J.ravel().astype(int).tolist()
                    for _, J, *_ in spectral._spectrum(grids, 0, [()] * len(Js), rows)]
            assert [J for run in runs for J in run] == Js
            for run, after in zip(runs, [*runs[1:], []]):
                assert run and (len(run) == 1 or len(run) * max(run) * rows <= size)
                assert not after or (len(run) + 1) * max(run + after[:1]) * rows > size


def test_h1_norms_match_quadrature():
    for h1, L in ((h1_cosine_mode(1, 1.0), 1.0), (h1_cosine_mode(3, 2.0), 2.0),
                  (h1_linear(1.0), 1.0)):
        fn = h1.fn
        val, _ = integrate.quad(lambda x: float(np.asarray(fn(np.array([x])))[0]) ** 2,
                                0, L, epsabs=1e-12, limit=200)
        h = 1e-5
        dval, _ = integrate.quad(
            lambda x: ((float(np.asarray(fn(np.array([x + h])))[0])
                        - float(np.asarray(fn(np.array([x - h])))[0])) / (2 * h)) ** 2,
            h, L - h, epsabs=1e-9, limit=200)
        assert (val + dval) / L == pytest.approx(h1.h1_norm_sq, rel=1e-3)


def test_emit_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], path)
    assert path.read_text() == ("experiment,J,dx,dt,t_target,t_realized,n,"
                                "abs_err,rel_err,wall_ms\n")
    rec = ErrorRecord("homog-hat", 5, 0.5, 0.125, 1.0, 1.0, 8, 1e-3, 2e-3, 4.5)
    emit_csv([rec], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("homog-hat,5,0.5,0.125,")


def test_emit_csv_meta_and_determinism(tmp_path):
    cfg = default_config("homog-trigpoly", J_list=(17, 33), checkpoints=(0.02, 0.05))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_convergence(cfg), a, cfg)
    emit_csv(run_convergence(cfg), b, cfg)

    def strip_wall(p):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in p.read_text().splitlines())

    assert strip_wall(a) == strip_wall(b)
    meta = (tmp_path / "a.csv.meta").read_text()
    assert "experiment=homog-trigpoly" in meta
    assert "J=17,33" in meta


def test_bound_sweep_reports_worst_case_and_location():
    Js, cfls, ns = range(2, 20), (0.5, 0.1), (1, 50)
    worst = bound_sweep(Js, cfls, ns=ns, ms=(1, 10))
    assert list(worst) == ["amplification", "eta_sum", "resolvent", "kernel", "quadrature"]
    assert all(w.ok for w in worst.values())
    # independent brute loop over the same sweep
    grid_points = [(J, c, n) for J in Js for c in cfls for n in ns]

    def resolvent_ratio(J, c, n):
        g = Grid1D(J, 1.0)
        return resolvent_power_sum(g, c * g.dx ** 2, n) / resolvent_power_sum_bound(1.0)

    where = max(grid_points, key=lambda p: resolvent_ratio(*p))
    assert worst["resolvent"].where == where
    assert worst["resolvent"].value == resolvent_ratio(*where)
    eta_max = max(eta_geometric_sum(Grid1D(J, 1.0), c / (J - 1) ** 2, n) / 2.0
                  for J, c, n in grid_points)
    assert worst["eta_sum"].value == pytest.approx(eta_max, rel=1e-15)
    margins = [(amplification_bound_check(Grid1D(J, 1.0), c / (J - 1) ** 2).worst_margin, J, c)
               for J in Js for c in cfls]
    first_min = min(margins, key=lambda m: m[0])  # ties keep the first in sweep order
    assert worst["amplification"].value == first_min[0]
    assert worst["amplification"].where[:2] == first_min[1:]
    quad = quadrature_inequality_check(h1_linear(1.0), Js, 1.0)
    assert worst["quadrature"].value >= quad.value


def test_bound_sweep_refuses_empty_lists():
    # an empty list would skip whole bounds, and the sweep would still pass
    full = dict(J_list=(2, 3), cfls=(0.5,), ns=(1,), ms=(1,))
    assert all(w.ok for w in bound_sweep(**full).values())
    for name in full:
        with pytest.raises(ValueError, match="nonempty"):
            bound_sweep(**{**full, name: ()})


def _scalar_sweep(J_list, cfls, ns, ms, L, sums=None):
    """The worst cases of `bound_sweep` from one scalar call per (J, cfl, n)
    and (J, cfl, m), as criterion 08 sweeps; ties keep the first in sweep order.
    A dict ``sums`` receives each resolvent sum at ("resolvent", J, cfl, n)
    and each (value, bound) of the kernel at ("kernel", J, cfl, m)."""
    worst = {}

    def keep(name, value, where, sign=1.0):
        if name not in worst or sign * value > sign * worst[name][0]:
            worst[name] = (value, where)

    for J in J_list:
        g = Grid1D(J, L)
        for c in cfls:
            dt = c * g.dx ** 2
            rep = amplification_bound_check(g, dt)
            keep("amplification", rep.worst_margin, (J, c, rep.worst_index), -1.0)
            for n in ns:
                keep("eta_sum", eta_geometric_sum(g, dt, n) / (2.0 * L ** 2), (J, c, n))
                r = resolvent_power_sum(g, dt, n)
                keep("resolvent", r / resolvent_power_sum_bound(L), (J, c, n))
                if sums is not None:
                    sums["resolvent", J, c, n] = r
            for m in ms:
                value, bound = heat_kernel_spectrum_sum(g, c, m)
                keep("kernel", value / bound, (J, c, m))
                if sums is not None:
                    sums["kernel", J, c, m] = value, bound
    return worst


def test_bound_sweep_is_bit_identical_to_scalar_calls():
    # the batched sums must give the same bits, so the same ties win
    cfls, ns, ms, L = (0.5, 0.37, 0.1), (1, 2, 7, 10, 1000, 10 ** 6), (1, 7, 1000), 3.0
    for J_list in (range(2, 65), [2]):  # at J = 2 eta_sum and resolvent tie across n
        worst = bound_sweep(J_list, cfls, ns=ns, ms=ms, L=L)
        for name, (value, where) in _scalar_sweep(J_list, cfls, ns, ms, L).items():
            assert (worst[name].value, worst[name].where) == (value, where), name


def test_bound_sweep_is_bit_identical_across_blocks_of_grids(monkeypatch):
    # J lists out of order whose grids fill several blocks, at L where the
    # sums scale by 1e+-240: every per-grid resolvent and kernel sum of the
    # sweep's blocks is its one-grid function's, and the worst cases are the scalar sweep's
    monkeypatch.setattr(spectral, "_BLOCK", 12288)  # so that the sweeps span > 4 blocks
    blocks, sums, read = [], {}, []
    spectrum = spectral._spectrum
    monkeypatch.setattr(spectral, "_spectrum",  # counts the blocks read; refuses at once
                        lambda *args, **counts: (read.append(len(b[1])) or b
                                                 for b in spectrum(*args, **counts)))

    def recording(name):
        whole = getattr(spectral, name)

        def record(grids, *args):
            before = len(read)
            blocks.append((name, grids, whole(grids, *args), len(read) - before))
            return blocks[-1][2]
        return record

    for name in ("resolvent_power_sums", "heat_kernel_spectrum_sums"):
        monkeypatch.setattr(spectral, name, recording(name))
    for J_list, cfls, ns, ms in (([512, 2, 300, 3, 511, 17, 1500, 2, 2100, 700], (0.5, 0.37, 0.1),
                                  (1, 2, 10, 10 ** 6), (1, 7, 1000)),
                                 (range(2, 200), (0.5, 0.1), (1, 2, 10 ** 6), (1, 1000))):
        for L in (3.0, 1e60, 1e-60):
            blocks.clear()
            worst = bound_sweep(J_list, cfls, ns=ns, ms=ms, L=L)
            swept = blocks[:]  # the one-grid functions below add their own
            assert len(swept) == 2 and 4 < sum(n for *_, n in swept) < 2 * len(J_list)
            assert [g.J for name, grids, *_ in swept if name == "resolvent_power_sums"
                    for g in grids] == list(J_list)
            for name, (value, where) in _scalar_sweep(J_list, cfls, ns, ms, L, sums).items():
                assert (worst[name].value, worst[name].where) == (value, where), (name, L)
            for name, grids, out, _ in swept:
                for k, g in enumerate(grids):
                    if name == "resolvent_power_sums":
                        assert out[k].tolist() == \
                            [[sums["resolvent", g.J, c, n] for n in ns] for c in cfls]
                    else:
                        assert [list(zip(*vb)) for vb in zip(out[0][k].tolist(),
                                                              out[1][k].tolist())] == \
                            [[sums["kernel", g.J, c, m] for m in ms] for c in cfls]


def test_default_bound_sweep_is_the_same_for_any_block_size(monkeypatch):
    # 3072 entries make 385 blocks of 1 to 21 grids, 10 ** 9 one block of all 511
    default = repr(bound_sweep())
    for size in (3072, 12288, 10 ** 9):
        monkeypatch.setattr(spectral, "_BLOCK", size)
        assert repr(bound_sweep()) == default, size


def test_bound_sweep_peak_memory_stays_below_2_mb():
    # the sweep holds one block of grids' arrays at a time; the whole
    # (pairs, sum of J) spectrum of the default sweep at once takes tens of MB
    bound_sweep(J_list=(2, 3))  # one-time allocations of the first call
    tracemalloc.start()
    try:
        bound_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_bound_sweep_out_of_order_peak_memory_stays_below_2_mb():
    # blocks are cut by padded area, so an out-of-order J list, whose blocks
    # pad small grids to J near 512, holds no more at a time than the default sweep
    J_list = np.random.default_rng(34).permutation(np.arange(2, 513)).tolist()
    bound_sweep(J_list=(2, 3))  # one-time allocations of the first call
    tracemalloc.start()
    try:
        bound_sweep(J_list=J_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_bound_sweep_refusals():
    full = dict(J_list=(2, 3), cfls=(0.5,), ns=(1,), ms=(1,))
    for bad, error in (({"ns": (1, 0)}, ValueError), ({"ms": (0,)}, ValueError),
                       # ns = (2.5,) read as a resolvent bound of WorstCase(nan, ok=False)
                       ({"ns": (2.5,)}, ValueError), ({"ns": (1, math.nan)}, ValueError),
                       ({"ms": (1.5,)}, ValueError), ({"ms": (math.inf,)}, ValueError),
                       ({"cfls": (0.5, 0.6)}, CflViolationError),
                       ({"cfls": (0.5, math.inf)}, ValueError),
                       ({"cfls": (math.nan,)}, ValueError),
                       ({"cfls": (0.5, 0.0)}, ValueError), ({"cfls": (-1.0,)}, ValueError),
                       # 1e200 overflowed dx**2, 1e77 the resolvent bound (its
                       # ratio read 0), and 1e-100 underflowed it to 0
                       ({"L": 1e200}, ValueError), ({"L": 1e77}, ValueError),
                       ({"L": 1e-100}, ValueError)):
        with pytest.raises(error) as info:
            bound_sweep(**{**full, **bad})
        assert info.type is error, bad  # a bad cfl is no stability violation
    # at J = 282 the last node, 281 * (L / 281), exceeds L = 1e60 by rounding;
    # the sampling check still evaluates the cosine mode there
    assert all(w.ok for w in bound_sweep(**{**full, "J_list": (2, 3, 282), "L": 1e60}).values())


def test_csv_text_matches_emit_csv(tmp_path):
    recs = run_convergence(default_config("homog-trigpoly", J_list=(17,), checkpoints=(0.02,)))
    emit_csv(recs, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == csv_text(recs)
