"""The names of the package that the benchmark in `bench/` reads.

`bench/tracing.py` wraps each of its `ENTRY_POINTS` by name, and `bench/run.py`
reads ``prog.<module>.<name>`` for each module it loads, among them the
kernel-backend flags, and passes ``threads=1`` to `default_config`.  Only
`tracing.py` is imported here: it needs the standard library alone; `run.py`
is read as text.
"""

import importlib
import importlib.util
import re
from pathlib import Path

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
