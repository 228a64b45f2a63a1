import os
import subprocess
import sys
from pathlib import Path

import pytest

import neumannheat
from neumannheat.cli import main, parse_j_list, parse_t_list


def run_cli(*argv):
    return main(list(argv))


def test_parse_j_list():
    assert parse_j_list("17,33,65") == [17, 33, 65]
    assert parse_j_list("2..6") == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        parse_j_list("7..3")
    with pytest.raises(ValueError):
        parse_j_list("a,b")


def test_parse_t_list():
    assert parse_t_list("0.02,1") == [0.02, 1.0]


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


def test_flag_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("homog", "--datum", "nonsense", "--J", "17", "--t", "1")
    assert exc.value.code == 2
    assert run_cli("homog", "--datum", "trigpoly", "--J", "banana", "--t", "1") == 2


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


def test_steady1d_and_spectra_need_j(tmp_path, capsys):
    cfgfile = tmp_path / "no_j.cfg"
    cfgfile.write_text("cfl=0.25\n")
    for argv in (["steady1d"], ["spectra"], ["spectra", "--config", str(cfgfile)]):
        assert run_cli(*argv) == 2
        assert "--J" in capsys.readouterr().err


def test_bounds_small_sweep(capsys):
    assert run_cli("bounds", "--J", "2..64") == 0
    assert "all bounds hold" in capsys.readouterr().out


def test_bounds_perturbed_fails(capsys):
    assert run_cli("bounds", "--J", "2..16", "--perturb", "1e-3") == 1


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


def test_sweep_explicit_threads_beat_config(tmp_path, monkeypatch):
    from neumannheat import harness
    seen = []
    real = harness.run_convergence
    monkeypatch.setattr(harness, "run_convergence",
                        lambda cfg: seen.append(cfg.threads) or real(cfg))
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(f"experiments=homog-trigpoly\nout_prefix={tmp_path / 'r'}\n"
                       "homog-trigpoly.J=17\nhomog-trigpoly.t=0.02\nthreads=3\n")
    assert run_cli("sweep", "--config", str(cfgfile)) == 0
    assert run_cli("sweep", "--config", str(cfgfile), "--threads=2") == 0
    assert run_cli("sweep", "--config", str(cfgfile), "--threads", "1") == 0
    assert seen == [3, 2, 1]


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


def test_sweep_requires_config(capsys):
    assert run_cli("sweep") == 2


def test_console_entry_point():
    # the child imports the package from where this process found it, so the
    # test needs no installed package and no PYTHONPATH
    src = str(Path(neumannheat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "neumannheat", "spectra", "--J", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ell,lambda")
