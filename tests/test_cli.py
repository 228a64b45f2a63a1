import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neumannheat
from neumannheat import harness
from neumannheat.cli import build_parser, main, parse_j_list, parse_t_list


def run_cli(*argv):
    return main(list(argv))


def test_parse_j_list():
    assert parse_j_list("17,33,65") == [17, 33, 65]
    assert parse_j_list("2..6") == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        parse_j_list("7..3")
    with pytest.raises(ValueError):
        parse_j_list("a,b")
    for text in (",", "", " , "):  # an empty list is refused, not read as the default
        with pytest.raises(ValueError, match="empty list"):
            parse_j_list(text)


def test_parse_t_list():
    assert parse_t_list("0.02,1") == [0.02, 1.0]
    for text in (",", ""):
        with pytest.raises(ValueError, match="empty list"):
            parse_t_list(text)


def test_empty_lists_exit_2(capsys):
    # each used to fall back to the defaults, and bounds then printed "all
    # bounds hold" after checking less or nothing
    for argv in (("homog", "--datum", "trigpoly", "--J", ","),
                 ("homog", "--datum", "trigpoly", "--J", "17", "--t", ","),
                 ("steady2d", "--case", "centered", "--J", ""),
                 ("bounds", "--J", ","), ("bounds", "--J", "2..4", "--cfl-list", ","),
                 ("bounds", "--J", "2..4", "--m", ",")):
        assert run_cli(*argv) == 2, argv
        assert "empty list" in capsys.readouterr().err


def test_homog_csv_row_count(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = run_cli("homog", "--datum", "trigpoly", "--J", "17,33,65",
                   "--t", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3
    assert "slope summary" in capsys.readouterr().out


def test_homog_stdout_when_no_out(capsys):
    code = run_cli("homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment,J,dx,")
    assert "homog-trigpoly,17," in out


def test_homog_hat_two_rows(tmp_path):
    out = tmp_path / "hat.csv"
    code = run_cli("homog", "--datum", "hat", "--J", "201",
                   "--t", "0.02,1", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_flag_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("homog", "--datum", "nonsense", "--J", "17", "--t", "1")
    assert exc.value.code == 2
    assert run_cli("homog", "--datum", "trigpoly", "--J", "banana", "--t", "1") == 2
    for t in ("inf", "-inf", "0.02,inf"):
        assert run_cli("homog", "--datum", "trigpoly", "--J", "17,33,65", f"--t={t}") == 2
        assert "checkpoints must be finite" in capsys.readouterr().err
    # a ratio that is not a number is a usage error, not a CFL violation (exit 3)
    cfgfile = tmp_path / "nan.cfg"
    cfgfile.write_text(f"experiments=homog-trigpoly\nout_prefix={tmp_path / 'x'}\ncfl=nan\n")
    for argv in (["homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02", "--cfl=nan"],
                 ["steady2d", "--case", "centered", "--J", "8", "--t", "0.1", "--cfl=nan"],
                 ["homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02", "--cfl=inf"],
                 ["steady1d", "--J", "9", "--cfl=inf"],
                 ["sweep", "--config", str(cfgfile)]):
        assert run_cli(*argv) == 2
        assert "cfl ratio must be finite" in capsys.readouterr().err
    assert run_cli("bounds", "--J", "2..6", "--L=inf") == 2
    assert "interval length must be positive and finite" in capsys.readouterr().err
    # a ratio of 0 or -1 was refused as "time step must be positive, got
    # dt=0.0", a dt never given (cfl/4 at J = 3)
    for cfl in ("0", "-1"):
        assert run_cli("bounds", "--J", "2..6", f"--cfl-list=0.5,{cfl}") == 2
        err = capsys.readouterr().err
        assert "cfl ratio must be finite and positive" in err and "time step" not in err


def test_spectra_refuses_a_spacing_whose_spectrum_overflows(capsys):
    # 1/h^2 was finite but -4/h^2 was not: lambda printed as nan and -inf, exit 0
    assert run_cli("spectra", "--J", "3", "--L", "2.4e-154") == 2
    captured = capsys.readouterr()
    assert "spacing's square and its reciprocal must be positive and finite" in captured.err
    assert "nan" not in captured.out and "inf" not in captured.out


def test_non_positive_cfl_is_a_usage_error_on_every_subcommand(tmp_path, capsys):
    # homog, steady2d and sweep exited 3 (a CFL violation); the others exit 2
    cfgfile = tmp_path / "zero.cfg"
    cfgfile.write_text(f"experiments=homog-trigpoly\nout_prefix={tmp_path / 'x'}\ncfl=0\n")
    for cfl in ("0", "-0.2"):
        for argv in (["homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02"],
                     ["steady2d", "--case", "centered", "--J", "8", "--t", "0.1"],
                     ["spectra", "--J", "5"], ["steady1d", "--J", "9"]):
            assert run_cli(*argv, f"--cfl={cfl}") == 2
        assert run_cli("bounds", "--J", "2..4", f"--cfl-list={cfl}") == 2
    assert run_cli("sweep", "--config", str(cfgfile)) == 2
    assert "CFL violation" not in capsys.readouterr().err


def test_cfl_violation_exit_3():
    assert run_cli("homog", "--datum", "trigpoly", "--J", "17", "--t", "1",
                   "--cfl", "0.7") == 3


def test_io_failure_exit_4():
    assert run_cli("homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02",
                   "--out", "/nonexistent-dir/x.csv") == 4


def test_steady1d_iterate_and_laplace(capsys):
    code = run_cli("steady1d", "--problem", "sec52", "--J", "64",
                   "--solver", "iterate", "--tol", "1e-10")
    assert code == 0
    out = capsys.readouterr().out
    mean_val = float(out.split("mean=")[1].split()[0])
    assert mean_val == pytest.approx(-193.0 / 384.0, abs=1e-10)
    assert "err_vs_exact=" in out and " stop=converged " in out

    code = run_cli("steady1d", "--problem", "sec52", "--J", "65",
                   "--solver", "laplace", "--s", "1e-3")
    assert code == 0
    out = capsys.readouterr().out
    assert "solver=laplace" in out and "residual=" in out


def test_steady1d_laplace_refuses_a_shift_lost_against_the_stencil(capsys):
    # dptsv found the system singular: "dptsv failed with info=9"
    assert run_cli("steady1d", "--solver", "laplace", "--s", "1e-300", "--J", "9") == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: the shifted system is singular in floating "
                          "point: s=1e-300 vanishes against 2/dx^2=")


@pytest.mark.parametrize("flag", ["--L", "--f-const", "--beta", "--gamma"])
def test_steady1d_sec52_refuses_custom_data(flag, capsys):
    assert run_cli("steady1d", "--problem", "sec52", "--J", "17", flag, "0.5") == 2
    assert flag in capsys.readouterr().err


def test_steady1d_custom_fluxes_default_to_zero(capsys):
    argv = ["steady1d", "--problem", "custom", "--f-const", "0", "--J", "9"]
    assert run_cli(*argv) == run_cli(*argv, "--beta", "0", "--gamma", "0", "--L", "1") == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_steady1d_incompatible_exit_5(capsys):
    code = run_cli("steady1d", "--problem", "custom", "--f-const", "1",
                   "--beta", "0", "--gamma", "0", "--L", "1", "--J", "17")
    assert code == 5


def test_steady2d_runs(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli("steady2d", "--case", "centered", "--J", "8,16",
                   "--t", "0.625", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_spectra(capsys):
    code = run_cli("spectra", "--J", "4", "--L", "3", "--dt", "0.25")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ell,lambda,amplification,envelope"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == 0.0
    assert float(rows[2][1]) == pytest.approx(-2.0, abs=1e-14)
    for row in rows:
        assert abs(float(row[2])) <= float(row[3]) + 1e-15


def test_spectra_refuses_nonpositive_time_step(capsys):
    for flag in (["--dt", "-1"], ["--dt", "0"], ["--cfl", "0"], ["--cfl", "-0.2"],
                 ["--dt=inf"], ["--dt=nan"], ["--cfl=inf"]):
        assert run_cli("spectra", "--J", "4", *flag) == 2
        assert "time step must be positive" in capsys.readouterr().err
    # an unstable positive step is still reported, not refused
    assert run_cli("spectra", "--J", "4", "--cfl", "2") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert max(abs(float(row[2])) for row in rows) > 1.0


def test_spectra_refuses_a_step_whose_spectrum_product_overflows(capsys):
    # dt * 4/dx^2 overflowed, and the rows read amplification -inf, envelope nan
    for flags in (["--dt", "1e308"], ["--L", "1e-150", "--dt", "1e300"]):
        assert run_cli("spectra", "--J", "3", *flags) == 2
        assert "time step must be positive" in capsys.readouterr().err
    # a huge step whose product stays finite still prints finite rows
    assert run_cli("spectra", "--J", "3", "--dt", "1e307") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_steady1d_and_spectra_need_j(tmp_path, capsys):
    cfgfile = tmp_path / "no_j.cfg"
    cfgfile.write_text("cfl=0.25\n")
    for argv in (["steady1d"], ["spectra"], ["spectra", "--config", str(cfgfile)]):
        assert run_cli(*argv) == 2
        assert "--J" in capsys.readouterr().err


def test_bounds_small_sweep(capsys):
    assert run_cli("bounds", "--J", "2..64") == 0
    assert "all bounds hold" in capsys.readouterr().out


def test_bounds_refuses_fractional_step_counts(capsys):
    for m in ("2.7", "1,2.5", "inf", "nan"):
        assert run_cli("bounds", "--J", "2..4", "--m", m) == 2
        assert "--m takes whole step counts" in capsys.readouterr().err
    # integer spellings keep working
    for m in ("2", "1,10", "1e2", "3.0"):
        assert run_cli("bounds", "--J", "2..4", "--m", m) == 0
    assert "kernel" in capsys.readouterr().out


def test_bounds_refuses_lengths_whose_sums_overflow(capsys):
    # --L 1e200 used to end in an OverflowError traceback from dx**2
    assert run_cli("bounds", "--J", "2..4", "--L", "1e200") == 2
    assert "invalid arguments: L must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("spectra", "--J", "3", "--L", "1e200"),
    ("steady1d", "--problem", "custom", "--f-const", "0", "--J", "9", "--L", "1e200"),
    ("steady1d", "--problem", "custom", "--f-const", "0", "--J", "3", "--L", "1e-170",
     "--solver", "laplace"),
])
def test_lengths_whose_spacing_squares_overflow_exit_2(argv, capsys):
    # these ended in OverflowError (1e200) and ZeroDivisionError (1e-170) tracebacks
    assert run_cli(*argv) == 2
    assert "spacing's square and its reciprocal must be positive and finite" in \
        capsys.readouterr().err


def test_slope_table_reports_no_fit_on_zero_errors(capsys):
    # at t = 0 every error is 0: the fit used to take log(0) and print slope=nan
    assert run_cli("homog", "--datum", "trigpoly", "--J", "17,33,65", "--t", "0,0.01") == 0
    out = capsys.readouterr().out
    assert "t=0: no fit: a log-log fit needs positive errors" in out
    assert "t=0.01: slope=" in out and "nan" not in out


def test_slope_fit_needs_three_distinct_grids(capsys):
    # three records at one J passed the old "at least 3 records" rule, and the
    # rank-deficient fit printed slope=0.797
    recs = harness.run_convergence(harness.default_config(
        "homog-trigpoly", J_list=(33,), checkpoints=(0.1,))) * 3
    assert len(recs) == 3
    with pytest.raises(ValueError, match="3 distinct grids"):
        harness.estimate_slope(recs)
    # the CLI refuses the repeated grid before it runs
    assert run_cli("homog", "--datum", "trigpoly", "--J", "33,33,33", "--t", "0.1,1") == 2
    captured = capsys.readouterr()
    assert "grid resolutions must be distinct" in captured.err and captured.out == ""


def test_repeated_checkpoint_exit_2(capsys):
    # exited 0, wrote each row twice and fit "over J=(17, 17, 33, 33, 65, 65)"
    assert run_cli("homog", "--datum", "trigpoly", "--J", "17,33,65", "--t", "0.1,0.1") == 2
    captured = capsys.readouterr()
    assert "strictly increasing" in captured.err and captured.out == ""


def test_checkpoints_before_time_zero_exit_2(tmp_path, capsys):
    # -1e-6 rounds to step 0 at these grids: rows with t_realized 0 were written
    g = neumannheat.Grid1D(17, 1.0)
    for run in (neumannheat.run_to, neumannheat.propagate):
        st = neumannheat.new_run(g, 0.5 * g.dx ** 2, neumannheat.ones(g))
        with pytest.raises(ValueError, match="nonnegative"):
            run(st, [-1e-6, 0.1])
    out = tmp_path / "neg.csv"
    assert run_cli("homog", "--datum", "trigpoly", "--J", "17,33,65", "--t=-0.000001,0.1",
                   "--out", str(out)) == 2
    assert "checkpoints must be finite, nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_refuses_non_finite_cfl(capsys):
    # inf used to exit 3, a stability violation; homog --cfl inf exits 2
    assert run_cli("bounds", "--J", "2..4", "--cfl-list", "inf") == 2
    assert "cfl ratio must be finite" in capsys.readouterr().err


def test_bounds_perturbed_fails(capsys, monkeypatch):
    failing = {"amplification": harness.WorstCase(-1e-3, (2, 0.5, 1), False),
               "kernel": harness.WorstCase(0.5, (4, 0.1, 10), True)}
    monkeypatch.setattr(harness, "bound_sweep", lambda *a, **k: failing)
    assert run_cli("bounds", "--J", "2..16") == 1
    captured = capsys.readouterr()
    assert "FAILED: amplification at (2, 0.5, 1)" in captured.err
    assert "all bounds hold" not in captured.out


def test_cli_surface():
    # each subcommand takes exactly the flags its handler reads
    subcommands = build_parser()._subparsers._group_actions[0].choices
    surface = {name: {opt for action in p._actions for opt in action.option_strings
                      if opt.startswith("--")} - {"--help", "--config"}
               for name, p in subcommands.items()}
    assert surface == {
        "homog": {"--J", "--t", "--cfl", "--out", "--datum"},
        "steady1d": {"--J", "--L", "--cfl", "--problem", "--solver", "--s", "--tol",
                     "--f-const", "--beta", "--gamma"},
        "steady2d": {"--J", "--t", "--cfl", "--out", "--case"},
        "spectra": {"--J", "--L", "--cfl", "--out", "--dt"},
        "bounds": {"--J", "--L", "--cfl-list", "--m"},
        "sweep": {"--J", "--t", "--cfl"},
    }
    assert all("--config" in p._option_string_actions for p in subcommands.values())


_BASE_ARGV = {"homog": ["homog", "--datum", "trigpoly", "--J", "17", "--t", "0.02"],
              "steady2d": ["steady2d", "--case", "centered", "--J", "8", "--t", "0.625"],
              "steady1d": ["steady1d", "--J", "17"], "spectra": ["spectra", "--J", "4"],
              "bounds": ["bounds", "--J", "2..4"], "sweep": ["sweep"]}


@pytest.mark.parametrize("command,flag", [
    ("homog", "--L"), ("homog", "--threads"), ("steady2d", "--L"), ("steady2d", "--threads"),
    ("steady1d", "--t"), ("steady1d", "--out"), ("steady1d", "--threads"),
    ("spectra", "--t"), ("spectra", "--threads"),
    ("bounds", "--cfl"), ("bounds", "--t"), ("bounds", "--out"), ("bounds", "--threads"),
    ("bounds", "--perturb"), ("sweep", "--L"), ("sweep", "--out"), ("sweep", "--threads"),
])
def test_inapplicable_flag_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*_BASE_ARGV[command], flag, "1")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_inapplicable_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    for command, text in (("bounds", "cfl=0.3\n"), ("bounds", "t=1\n"),
                          ("spectra", "t=1\n"), ("steady1d", "out=x.csv\n"),
                          ("homog", "L=3\n"), ("steady1d", "L=3\n"),
                          # a typo and a retired key, which no subcommand reads
                          ("homog", "cfL=0.1\n"), ("homog", "threads=4\n"),
                          ("steady2d", "threads=4\n"), ("sweep", "thread=4\n"),
                          ("homog", "homog-trigply.J=17\n")):
        cfgfile.write_text(text)
        assert run_cli(*_BASE_ARGV[command], "--config", str(cfgfile)) == 2
        key = text.split("=")[0]
        assert f"{command} takes no config key {key}=" in capsys.readouterr().err
    cfgfile.write_text("experiments=homog-trigpoly\nhomog-trigpoly.L=3\n")
    assert run_cli("sweep", "--config", str(cfgfile)) == 2
    assert "sweep takes no config key homog-trigpoly.L=" in capsys.readouterr().err
    # keys that are no flag name (sweep's experiment list) stay allowed
    cfgfile.write_text("J=2..4\nexperiments=homog-trigpoly\n")
    assert run_cli("bounds", "--config", str(cfgfile)) == 0


def test_config_file_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("J=17,33\nt=0.02\n")
    code = run_cli("homog", "--datum", "trigpoly", "--config", str(cfgfile))
    assert code == 0
    out = capsys.readouterr().out
    assert "homog-trigpoly,17," in out and "homog-trigpoly,33," in out
    # an explicit --cfl beats cfl= from the config however it is spelled
    cfgfile.write_text("J=17\nt=0.02\ncfl=0.1\n")
    for flag in (["--cfl", "0.3"], ["--cfl=0.3"], []):
        code = run_cli("homog", "--datum", "trigpoly", "--config", str(cfgfile), *flag)
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        cfl = 0.3 if flag else 0.1
        assert float(row[3]) == cfl * float(row[2]) ** 2


def test_sweep_flags_beat_experiment_keys_beat_config(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    prefix = tmp_path / "r"
    cfgfile.write_text(
        f"experiments=homog-trigpoly,homog-polybump\nout_prefix={prefix}\n"
        "J=9\nt=0.01\ncfl=0.2\n"
        "homog-trigpoly.J=17\nhomog-trigpoly.t=0.02\nhomog-trigpoly.cfl=0.1\n")

    def rows(exp):
        lines = (tmp_path / f"r-{exp}.csv").read_text().splitlines()[1:]
        return [(int(r[1]), float(r[2]), float(r[3]), float(r[4]))
                for r in (line.split(",") for line in lines)]

    def check(exp, J, t, cfl):
        ((j, dx, dt, t_target),) = rows(exp)
        assert (j, t_target) == (J, t)
        assert dt == cfl * dx ** 2

    assert run_cli("sweep", "--config", str(cfgfile)) == 0
    check("homog-trigpoly", 17, 0.02, 0.1)   # <exp>.key beats the global key
    check("homog-polybump", 9, 0.01, 0.2)    # the global key beats the default
    assert run_cli("sweep", "--config", str(cfgfile),
                   "--J", "33", "--t=0.05", "--cfl", "0.3") == 0
    check("homog-trigpoly", 33, 0.05, 0.3)   # explicit flags beat both
    check("homog-polybump", 33, 0.05, 0.3)


def test_sweep_config(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    prefix = tmp_path / "runs"
    cfgfile.write_text(
        "experiments=homog-trigpoly,homog-polybump\n"
        f"out_prefix={prefix}\n"
        "homog-trigpoly.J=17,33\nhomog-trigpoly.t=0.02\n"
        "homog-polybump.J=17,33\nhomog-polybump.t=0.02\n")
    code = run_cli("sweep", "--config", str(cfgfile))
    assert code == 0
    assert (tmp_path / "runs-homog-trigpoly.csv").exists()
    assert (tmp_path / "runs-homog-polybump.csv").exists()
    meta = (tmp_path / "runs-homog-trigpoly.csv.meta").read_text()
    assert "cfl=0.5" in meta


def test_sweep_reads_config_once(tmp_path, monkeypatch):
    from neumannheat import cli
    calls = []
    real = cli.read_config
    monkeypatch.setattr(cli, "read_config", lambda path: calls.append(path) or real(path))
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(f"experiments=homog-trigpoly\nout_prefix={tmp_path / 'r'}\n"
                       "homog-trigpoly.J=17\nhomog-trigpoly.t=0.02\n")
    assert run_cli("sweep", "--config", str(cfgfile)) == 0
    assert calls == [str(cfgfile)]


def test_sweep_requires_config(capsys):
    assert run_cli("sweep") == 2


def run_module(*argv, timeout=None):
    """`python -m neumannheat` in a child, which imports the package from where
    this process found it, so it needs no installed package and no PYTHONPATH."""
    src = str(Path(neumannheat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "neumannheat", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_console_entry_point():
    proc = run_module("spectra", "--J", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("ell,lambda")


@pytest.mark.parametrize("argv,code,prefix", [
    # the sampled datum (hat) or its mean-free part (polybump) is all zeros at
    # J=2, and _study's rel_err divided by zero: ZeroDivisionError, exit 1
    pytest.param(("homog", "--datum", "polybump", "--J", "2,3,5", "--t", "0.1"), 2,
                 "invalid arguments: ", id="zero-fluctuation-normalizer"),
    pytest.param(("homog", "--datum", "hat", "--J", "2,4,6", "--t", "0.1"), 2,
                 "invalid arguments: ", id="zero-normalizer"),
    # the series cannot resolve the realized time: SeriesTruncationError, exit 1
    pytest.param(("homog", "--datum", "polybump", "--J", "513", "--t", "0.000001"), 2,
                 "invalid arguments: ", id="series-truncation"),
    # the residual's squares overflowed (a numpy warning), then 50,000,000
    # steps ran for about a minute and exited 0 with residual=inf
    pytest.param(("steady1d", "--problem", "custom", "--f-const", "1e300", "--gamma=-1e300",
                  "--J", "9", "--L", "1"), 2, "invalid arguments: ", id="residual-overflow"),
    # the shifted solve's residual line printed a numpy warning and residual=inf, exit 0
    pytest.param(("steady1d", "--problem", "custom", "--f-const", "1e200", "--gamma=-1e200",
                  "--J", "9", "--L", "1", "--solver", "laplace"), 2, "invalid arguments: ",
                 id="shifted-residual-overflow"),
    # an unreadable or malformed config printed a message of its own
    pytest.param(("sweep", "--config", "{missing}"), 4, "I/O failure: ", id="missing-config"),
    pytest.param(("sweep", "--config", "{malformed}"), 2,
                 "invalid arguments: malformed config line", id="malformed-config"),
])
def test_every_refusal_is_one_stderr_line(argv, code, prefix, tmp_path):
    (tmp_path / "malformed.cfg").write_text("J\n")
    argv = [a.format(missing=tmp_path / "missing.cfg", malformed=tmp_path / "malformed.cfg")
            for a in argv]
    proc = run_module(*argv, timeout=20)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
