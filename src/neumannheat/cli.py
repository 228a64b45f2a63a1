"""Command-line front end.

Subcommands:

    homog     1D homogeneous convergence study (trigpoly | polybump | hat)
    steady1d  steady-state solve of the catalog or a constant-source problem
    steady2d  2D Gaussian steady-state study (centered | offset)
    spectra   dump eigenvalues, per-step amplification factors and envelopes
    bounds    run the full spectral/quadrature bound sweep
    sweep     run experiments batch-listed in a config file

Exit codes (`main` maps each refusal): 0 success, 1 failed bound check, 2 bad
flags or refused data (a checkpoint the series cannot resolve, a zero error
normalizer, an overflow), 3 CFL violation, 4 I/O failure, 5 incompatible problem.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import harness, scheme1d, spectral
from .errors import CflViolationError, IncompatibleProblemError
from .exact import steady_1d
from .grid import Field, Grid1D, mean, norm_l2, project

EXIT_OK = 0
EXIT_BOUND_FAIL = 1
EXIT_USAGE = 2
EXIT_CFL = 3
EXIT_IO = 4
EXIT_INCOMPATIBLE = 5


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def parse_j_list(text: str) -> list[int]:
    """Comma list ("17,33,65") or inclusive range ("2..512"), not empty."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(tok) for tok in text.split(",") if tok], text)


def parse_t_list(text: str) -> list[float]:
    """Comma list of numbers, not empty."""
    return _nonempty([float(tok) for tok in text.split(",") if tok], text)


def read_config(path: str) -> dict:
    """Plain key=value lines; blank lines and #-comments ignored."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# The flags a subcommand may take: name -> (argparse keywords, config type,
# built-in default).  A config type of None means the flag has no config key.
_FLAGS = {
    "J": (dict(help="comma list (17,33,65) or range (2..512)"), str, None),
    "L": (dict(type=float, help="interval length (default 1)"), None, 1.0),
    "cfl": (dict(type=float, help="dt = cfl/sum(1/h^2), cfl*dx^2 in 1D (default 0.5)"), float, 0.5),
    "t": (dict(help="comma list of checkpoint times"), str, None),
    "out": (dict(help="CSV output path (default: stdout)"), str, None),
}


def _apply_config_defaults(args, config: dict) -> None:
    """Fill each flag of the subcommand not given on the command line from the
    config file, else from its built-in default; ``args.explicit`` keeps the
    names of the flags that were given.  A config key the subcommand does not
    read is refused, unless it is one of sweep's (a config may be shared)."""
    for key in config:
        exp, _, suffix = key.rpartition(".")
        shared = (key in ("experiments", "out_prefix")
                  or (exp in harness.EXPERIMENTS and suffix in ("J", "t", "cfl")))
        if not shared and (key not in args.flags or _FLAGS[key][1] is None):
            raise ValueError(f"{args.command} takes no config key {key}=")
    args.explicit = {key for key in args.flags if getattr(args, key) is not None}
    for key in args.flags:
        _, kind, default = _FLAGS[key]
        if getattr(args, key) is None:
            setattr(args, key, kind(config[key]) if key in config else default)


def _required_j(args) -> str:
    if args.J is None:
        raise ValueError(f"{args.command} needs --J (or J= in --config)")
    return args.J


def _print_slope_table(records, checkpoints) -> None:
    print("slope summary (error ~ J^-slope):")
    for t in checkpoints:
        try:
            fit = harness.estimate_slope(harness.records_at(records, t))
        except ValueError as exc:  # fewer than 3 grids, or a zero error
            print(f"  t={t:g}: no fit: {exc}")
        else:
            print(f"  t={t:g}: slope={fit.slope:.3f} over J={fit.J_used}")


def _run_study(experiment: str, J, t, cfl):
    """(config, records) of one catalog experiment; J and t are flag text, None
    for the catalog's own, and cfl is a number or its text."""
    cfg = harness.default_config(experiment, None if J is None else parse_j_list(J),
                                 None if t is None else parse_t_list(t), float(cfl))
    return cfg, harness.run_convergence(cfg)


def cmd_study(args) -> int:
    """Convergence study of one catalog experiment: `homog --datum D` runs
    homog-D, `steady2d --case C` runs steady2d-C."""
    cfg, records = _run_study(f"{args.command}-{args.variant}", args.J, args.t, args.cfl)
    if args.out:
        harness.emit_csv(records, args.out, cfg)
    else:
        sys.stdout.write(harness.csv_text(records))
    _print_slope_table(records, cfg.checkpoints)
    return EXIT_OK


def _steady_problem(args):
    if args.problem == "sec52":
        custom = {"--L": "L" in args.explicit, "--f-const": args.f_const is not None,
                  "--beta": args.beta is not None, "--gamma": args.gamma is not None}
        given = [flag for flag, set_ in custom.items() if set_]
        if given:
            raise ValueError(f"--problem sec52 fixes its own data; drop {', '.join(given)}")
        ss = steady_1d()
        problem = scheme1d.NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L,
                                           f_integral=ss.source_integral)
        return problem, ss
    if args.f_const is None:
        raise ValueError("custom problems need --f-const, --beta, --gamma, --L")
    c, L = args.f_const, args.L
    problem = scheme1d.NonhomogProblem(c, args.beta or 0.0, args.gamma or 0.0, L, f_integral=c * L)
    return problem, None


def cmd_steady1d(args) -> int:
    if not 0 < args.cfl < math.inf:  # a usage error, not a stability violation
        raise ValueError(f"cfl ratio must be finite and positive, got {args.cfl}")
    problem, ss = _steady_problem(args)
    for J in parse_j_list(_required_j(args)):
        g = Grid1D(J, *problem.lengths)
        if args.solver == "laplace":
            sol = scheme1d.solve_steady_laplace(problem, g, args.s)
            _, resid = scheme1d._residual(g, sol.values, scheme1d.build_rhs(problem, g).b.values,
                                          args.s)
            line = (f"steady1d J={J} solver=laplace s={args.s:g} "
                    f"residual={resid:.3e} mean={mean(sol):.12g}")
        else:
            dt = args.cfl * g.dx ** 2
            target_mean = ss.mean_value if ss is not None else 0.0
            v0 = Field(g, np.full(J, target_mean))
            res = scheme1d.solve_steady_iterative(problem, g, dt, v0, tol=args.tol)
            line = (f"steady1d J={J} solver=iterate tol={args.tol:g} "
                    f"iterations={res.iterations} residual={res.residual:.3e} "
                    f"stop={res.stop_reason} mean={mean(res.field):.12g}")
            sol = res.field
        if ss is not None:
            exact = project(g, ss.solution)
            err = norm_l2(Field(g, exact.values - (
                sol.values + (mean(exact) - mean(sol)))))
            line += f" err_vs_exact={err:.6e}"
        print(line)
    return EXIT_OK


def cmd_spectra(args) -> int:
    g = Grid1D(int(_required_j(args)), args.L)
    dt = args.dt if args.dt is not None else args.cfl * g.dx ** 2
    # an unstable positive step is a fair diagnostic question; dt <= 0 is not,
    # nor a step whose product with the spectrum's reach 4/dx^2 overflows
    if not (0 < dt < math.inf and dt * (4.0 / g.dx ** 2) < math.inf):
        raise ValueError(f"time step must be positive and keep 4*dt/dx^2 finite, got dt={dt}")
    lam = spectral.eigenvalues(g)
    rows = zip(lam.tolist(), (1.0 + dt * lam).tolist(),
               spectral.amplification_envelope(g, dt).tolist())
    lines = ["ell,lambda,amplification,envelope"]
    lines += [f"{ell},{lam_l!r},{amp!r},{env!r}" for ell, (lam_l, amp, env) in enumerate(rows)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _step_counts(text: str) -> list[int]:
    ms = parse_t_list(text)
    if not all(m.is_integer() for m in ms):
        raise ValueError(f"--m takes whole step counts, got {text}")
    return [int(m) for m in ms]


def cmd_bounds(args) -> int:
    """`harness.bound_sweep`, whose defaults are the default sweep, over the flags given."""
    given = {key: parse(text) for key, parse, text in (
        ("J_list", parse_j_list, args.J), ("cfls", parse_t_list, args.cfl_list),
        ("ms", _step_counts, args.m)) if text is not None}
    worst = harness.bound_sweep(**given, L=args.L)
    print("bound suite worst figures (amplification: min margin; others: max value/bound):")
    for name, w in worst.items():
        print(f"  {name}: {w.value:.6g} at {w.where}")
    failed = [f"{name} at {w.where}" for name, w in worst.items() if not w.ok]
    if failed:
        print(f"FAILED: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_BOUND_FAIL
    print("all bounds hold")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.config:
        raise ValueError("sweep requires --config")
    config = args.settings
    experiments = [e.strip() for e in config.get("experiments", "").split(",") if e.strip()]
    if not experiments:
        raise ValueError("config must list experiments=<id,id,...>")
    out_prefix = config.get("out_prefix", "sweep")
    for exp in experiments:
        def pick(key):
            # explicit flag > <exp>.key > global key or built-in (already in args)
            if key in args.explicit or f"{exp}.{key}" not in config:
                return getattr(args, key)
            return config[f"{exp}.{key}"]
        cfg, records = _run_study(exp, pick("J"), pick("t"), pick("cfl"))
        path = f"{out_prefix}-{exp}.csv"
        harness.emit_csv(records, path, cfg)
        print(f"{exp}: {len(records)} records -> {path}")
    return EXIT_OK


def _variants(kind: str) -> list[str]:
    """The catalog's experiment ids "<kind>-<variant>", as variants."""
    return [exp.split("-", 1)[1] for exp in harness.EXPERIMENTS
            if exp.split("-", 1)[0] == kind]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="neumannheat", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, flags, help):
        """A subcommand taking the given `_FLAGS` and --config.  Prefixes are
        not expanded, so a flag the subcommand lacks (bounds --cfl) is refused
        instead of read as a longer one (--cfl-list)."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag][0])
        p.add_argument("--config", help="key=value config file (flags win)")
        p.set_defaults(fn=fn, flags=flags)
        return p

    p = command("homog", cmd_study, ("J", "t", "cfl", "out"),
                "homogeneous 1D convergence study")
    p.add_argument("--datum", dest="variant", required=True, choices=_variants("homog"))

    p = command("steady1d", cmd_steady1d, ("J", "L", "cfl"), "1D steady-state solve")
    p.add_argument("--problem", default="sec52", choices=["sec52", "custom"])
    p.add_argument("--solver", default="iterate", choices=["iterate", "laplace"])
    p.add_argument("--s", type=float, default=1e-3, help="laplace shift")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--f-const", dest="f_const", type=float,
                   help="constant source value for --problem custom")
    p.add_argument("--beta", type=float, help="left flux for --problem custom (default 0)")
    p.add_argument("--gamma", type=float, help="right flux for --problem custom (default 0)")

    p = command("steady2d", cmd_study, ("J", "t", "cfl", "out"),
                "2D Gaussian steady-state study")
    p.add_argument("--case", dest="variant", required=True, choices=_variants("steady2d"))

    p = command("spectra", cmd_spectra, ("J", "L", "cfl", "out"), "dump the discrete spectrum")
    p.add_argument("--dt", type=float, help="time step (default cfl*dx^2)")

    p = command("bounds", cmd_bounds, ("J", "L"), "run the bound-verification sweep")
    p.add_argument("--cfl-list", dest="cfl_list", help="comma list of CFL ratios")
    p.add_argument("--m", help="comma list of kernel-sum step counts")

    command("sweep", cmd_sweep, ("J", "t", "cfl"),
            "batch experiments from a config file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.settings = read_config(args.config) if args.config else {}
        _apply_config_defaults(args, args.settings)
        return args.fn(args)
    except CflViolationError as exc:
        print(f"CFL violation: {exc}", file=sys.stderr)
        return EXIT_CFL
    except IncompatibleProblemError as exc:
        print(f"incompatible problem: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
