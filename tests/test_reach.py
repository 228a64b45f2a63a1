"""Guards against library code that nothing reads.

Every public name of a module must be read by the package itself, by a demo,
or by the benchmark in `bench/`; its tests alone do not count, and neither do
comments.  The package runs on numpy alone: importing it, the `bounds` and
`spectra` subcommands, exact propagation, the iterative steady solvers in 1D
and 2D and the shifted direct solve load no scipy module.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import neumannheat

PACKAGE = Path(neumannheat.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_read(path, dotted_strings=False):
    """The identifiers a module loads, as names or as attributes: a name's
    own def/class line, an assignment to it, an import of it and the strings
    of an ``__all__`` list are not reads of it.  With ``dotted_strings``, each
    part of a string constant that is a dotted name is a read as well: that is
    how `bench/tracing.py` names the entry points it wraps."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (dotted_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and _DOTTED_NAME.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def test_every_public_name_is_read():
    public = {}
    for info in pkgutil.iter_modules(neumannheat.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"neumannheat.{info.name}")
        public.update((name, info.name) for name in getattr(module, "__all__", ()))
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        if path.name != "__init__.py":  # re-exporting a name is not reading it
            read |= _names_read(path)
    for path in (ROOT / "bench").glob("*.py"):
        read |= _names_read(path, dotted_strings=True)
    unread = [f"{module}.{name}" for name, module in sorted(public.items())
              if name not in read]
    assert len(public) > 50
    assert unread == []


_SCIPY_PROBE = """
import contextlib, io, sys
import numpy as np
import neumannheat
from neumannheat import Grid1D, cli, exact, new_run, ones, propagate, scheme1d, scheme2d

def loaded():
    return [m for m in sorted(sys.modules) if m == "scipy" or m.startswith("scipy.")]

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["bounds", "--J", "2..8"]) == 0
    assert cli.main(["spectra", "--J", "5"]) == 0
print(loaded())
g = Grid1D(9, 1.0)
propagate(new_run(g, 0.5 * g.dx ** 2, ones(g)), [0.01, 0.02])
ss = exact.steady_1d()
problem = scheme1d.NonhomogProblem(ss.source, ss.beta, ss.gamma, ss.L, ss.source_integral)
g = Grid1D(9, ss.L)
scheme1d.solve_steady_iterative(problem, g, 0.5 * g.dx ** 2, ones(g), tol=1e-8)
case = exact.gaussian_2d(alpha=15.0, beta_g=5.0, x0=1.0, y0=2.0)
g2 = scheme2d.grid_for(8, case.Lx, case.Ly)
scheme2d.solve_steady_2d(scheme2d.Problem2D(case.f, case.g1, case.g2, case.Lx, case.Ly), g2,
                         0.25 * g2.dx ** 2, neumannheat.Field(g2, np.zeros(g2.shape)), tol=1e-8)
print(loaded())
scheme1d.solve_steady_laplace(problem, g, 1e-3)
print([m in sys.modules for m in ("scipy.linalg", "scipy.fft", "scipy.special")])
"""


def test_import_loads_no_unused_scipy_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]", "[False, False, False]"]
