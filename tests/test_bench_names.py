"""The names of the package that the benchmark in `bench/` reads.

`bench/tracing.py` wraps each of its `ENTRY_POINTS` by name, and `bench/run.py`
reads ``prog.<module>.<name>`` for each module it loads, among them the
kernel-backend flags, and passes ``threads=1`` to `default_config`.  Only
`tracing.py` is imported here: it needs the standard library alone; `run.py`
is read as text.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import neumannheat
from neumannheat import _kernels, default_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _resolves(module, attribute):
    owner = importlib.import_module(f"neumannheat.{module}")
    try:
        for part in attribute.split("."):
            owner = getattr(owner, part)
    except AttributeError:
        return False
    return callable(owner)


def test_bench_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attribute}" for _, module, attribute, _ in tracing.ENTRY_POINTS
               if not _resolves(module, attribute)]
    assert not missing
    assert len(tracing.ENTRY_POINTS) > 20


def test_bench_scheme_entry_points_are_distinct_functions():
    # an alias would nest its spans under the other name's: 2D iterations
    # would then be counted under scheme1d.steady_iter
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    functions = [getattr(importlib.import_module(f"neumannheat.{module}"), attribute)
                 for _, module, attribute, _ in tracing.ENTRY_POINTS
                 if module in ("scheme1d", "scheme2d")]
    assert len(functions) == 7 and len(set(map(id, functions))) == 7


def test_bench_run_names_resolve():
    refs = set(re.findall(r"\bprog\.(\w+)\.(\w+)", (BENCH / "run.py").read_text()))
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"neumannheat.{module}"), name)]
    assert not missing
    assert ("grid", "project2d") in refs and len(refs) > 20


def test_bench_environment_names_exist():
    assert _kernels.HAVE_NUMBA is False and _kernels.FORCE_NUMPY is True
    cfg = default_config("homog-trigpoly", J_list=(17,), checkpoints=(0.02,),
                         cfl=0.5, threads=1)
    assert cfg.J_list == (17,) and cfg.checkpoints == (0.02,)


def _aliases():
    """(module, name) for each module-level name in the package bound to a
    package function or class of a different ``__name__``."""
    found = []
    for info in pkgutil.iter_modules(neumannheat.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"neumannheat.{info.name}")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__.startswith("neumannheat.") and obj.__name__ != name):
                found.append((info.name, name))
    return found


def test_every_alias_is_read_by_bench():
    # an alias that bench/ does not read is a second name for nothing
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    read = {(module, attribute) for _, module, attribute, _ in tracing.ENTRY_POINTS}
    read |= set(re.findall(r"\bprog\.(\w+)\.(\w+)", (BENCH / "run.py").read_text()))
    aliases = _aliases()
    assert ("_kernels", "advance_1d") in aliases and ("grid", "Field1D") in aliases
    assert [alias for alias in aliases if alias not in read] == []
