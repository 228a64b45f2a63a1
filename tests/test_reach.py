"""Guards against library code that nothing reads.

Every public name of a module must be read by the package itself, by a demo,
or by the benchmark in `bench/`; its tests alone do not count.  Importing the
package must not load scipy modules that no public name uses.
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


def _names_read(path):
    """The identifiers a module loads, as names or as attributes: a name's
    own def/class line, an assignment to it, an import of it and the strings
    of an ``__all__`` list are not reads of it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
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
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    unread = [f"{module}.{name}" for name, module in sorted(public.items())
              if name not in read and not re.search(rf"\b{name}\b", bench)]
    assert len(public) > 50
    assert unread == []


def test_import_loads_no_unused_scipy_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, neumannheat; "
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == ""
