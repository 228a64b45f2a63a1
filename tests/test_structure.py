"""Guards on where the package decides how a refusal ends and how a study
runs, read by AST.

Every exception class of `errors.py` is a `ValueError`, so every refusal the
package raises reaches the CLI's one exit-code mapping.  In `cli.py` only
`main` maps an exception or a refusal to an exit code, and nothing but `main`
and the `FAILED:` line of `cmd_bounds` writes to stderr: a subcommand refuses
by raising, never by printing a message and returning a code of its own.
In `harness.py` only `_checkpoints` starts or carries a run, so every study
takes its one time step, only `run_convergence` calls `_checkpoints`, every
catalog entry is one case shape (J list, checkpoints, normalization, case), and
no function is named for a number of axes.  In `scheme1d.py` only
`_run_checkpoints` and the steady loop move a run's step or values.
`bound_sweep` makes one call of each batched spectral function over all its
grids, one call of `_sampling_ratios` and no one-grid spectral call, and loops
over nothing: `spectral._spectrum` alone cuts grids into padded blocks, so
`harness.py` defines no block size or block cutter.
Every bound figure stays one float array from `spectral` to `bound_sweep`: the
batched figures, `_sampling_ratios` and `bound_sweep` call no `tolist`, and
`spectral.geometric_sum` has one (array) path, with no `isinstance` branch.
`exact.CosineSeries` is the one exact-function type: no other class of the
package gives analytic x-derivatives.
"""

import ast
import re
from pathlib import Path

import neumannheat

PACKAGE = Path(neumannheat.__file__).resolve().parent

# the codes of a refusal; 0 and the failed bound check are results
_REFUSAL_CODES = {"EXIT_USAGE", "EXIT_CFL", "EXIT_IO", "EXIT_INCOMPATIBLE"}


def _functions(path):
    """(name, node) of each top-level function of a module."""
    return [(node.name, node) for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)]


def test_every_package_error_is_a_value_error():
    classes = [node for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert len(classes) >= 5
    refusals = {"ValueError"}
    for cls in classes:  # in file order, so a base is seen before its subclasses
        bases = {base.id for base in cls.bases if isinstance(base, ast.Name)}
        assert bases and bases <= refusals and len(bases) == len(cls.bases), cls.name
        refusals.add(cls.name)


def test_only_main_maps_a_refusal_to_an_exit_code():
    mapped, handled, stderr = set(), set(), []
    for name, fn in _functions(PACKAGE / "cli.py"):
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in _REFUSAL_CODES:
                mapped.add(name)
            elif isinstance(node, ast.ExceptHandler) and any(
                    isinstance(inner, ast.Return) for inner in ast.walk(node)):
                handled.add(name)
            elif (isinstance(node, ast.Call) and any(
                    isinstance(inner, ast.Attribute) and inner.attr == "stderr"
                    for inner in ast.walk(node))):
                stderr.append((name, node))
    assert mapped == {"main"}
    assert handled == {"main"}
    assert {name for name, _ in stderr} == {"main", "cmd_bounds"}
    (bounds_call,) = [call for name, call in stderr if name == "cmd_bounds"]
    message = bounds_call.args[0]
    assert isinstance(message, ast.JoinedStr)
    assert message.values[0].value.startswith("FAILED:")


def test_only_study_runs_a_study():
    callers = set()
    for name, fn in _functions(PACKAGE / "harness.py"):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", None))
                if called in ("new_run", "propagate"):
                    callers.add(name)
    assert callers == {"_checkpoints"}


def test_only_run_convergence_calls_study():
    callers = {name for name, fn in _functions(PACKAGE / "harness.py")
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checkpoints"}
    assert callers == {"run_convergence"}


def test_only_run_checkpoints_and_the_steady_loop_advance_a_run():
    movers = {name for name, fn in _functions(PACKAGE / "scheme1d.py") for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in ("n", "values")}
    assert movers == {"_run_checkpoints", "_iterate_to_steady"}


def test_every_experiment_has_four_fields():
    for name, entry in neumannheat.harness.EXPERIMENTS.items():
        assert len(entry) == 4, name
        J_list, checkpoints, normalization, case = entry
        assert all(isinstance(J, int) for J in J_list), name
        assert all(isinstance(t, float) for t in checkpoints), name
        assert normalization in neumannheat.harness._NORMALIZERS and callable(case), name


def test_bound_sweep_calls_each_block_function_once_and_no_one_grid_function():
    (sweep,) = [fn for name, fn in _functions(PACKAGE / "harness.py") if name == "bound_sweep"]
    called = [getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(sweep) if isinstance(node, ast.Call)]
    for name in ("amplification_bound_checks", "eta_geometric_sums", "resolvent_power_sums",
                 "heat_kernel_spectrum_sums"):
        assert called.count(name) == 1, name
    assert not {"eta", "eta_geometric_sum", "amplification_bound_check", "resolvent_power_sum",
                "heat_kernel_spectrum_sum"} & set(called)


def test_bound_sweep_loops_over_no_blocks_and_samples_once():
    (sweep,) = [fn for name, fn in _functions(PACKAGE / "harness.py") if name == "bound_sweep"]
    assert not [node for node in ast.walk(sweep) if isinstance(node, (ast.For, ast.While))]
    called = [getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(sweep) if isinstance(node, ast.Call)]
    assert called.count("_sampling_ratios") == 1


def _called(fn):
    """The names of the functions and methods that ``fn`` calls."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_bound_figures_stay_arrays_and_geometric_sum_has_one_path():
    spectral = dict(_functions(PACKAGE / "spectral.py"))
    harness = dict(_functions(PACKAGE / "harness.py"))
    for fn in [spectral["amplification_bound_checks"], spectral["eta_geometric_sums"],
               spectral["resolvent_power_sums"], spectral["heat_kernel_spectrum_sums"],
               harness["_sampling_ratios"], harness["bound_sweep"]]:
        assert "tolist" not in _called(fn), fn.name
    assert "isinstance" not in _called(spectral["geometric_sum"])


def test_harness_defines_no_block_size_or_block_cutter():
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    names += [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name)]
    assert "bound_sweep" in names and "EXPERIMENTS" in names
    assert [name for name in names if "block" in name.lower()] == []


def test_no_harness_function_is_named_for_a_dimension():
    names = [node.name for node in ast.walk(ast.parse((PACKAGE / "harness.py").read_text()))
             if isinstance(node, ast.FunctionDef)]
    assert "_checkpoints" in names
    assert [name for name in names if re.search(r"\dd(_|$)", name)] == []


def test_only_cosine_series_defines_deriv():
    owners = {(path.name, node.name) for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and any(
                  isinstance(item, ast.FunctionDef) and item.name == "deriv"
                  for item in node.body)}
    assert owners == {("exact.py", "CosineSeries")}
