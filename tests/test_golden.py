"""Golden outputs: the stdout of the CLI's default `bounds`, `spectra --J 9` and
`steady1d --J 65,257` with each solver against the fixtures under `data/`.

Each demo's stdout is checked against its fixture in
`test_demos.py::test_demo_runs`, so that no demo runs twice, and the catalog
CSV in `test_catalog.py`.  Text must match exactly, except on a line that
prints a residual: there the text between numbers must match exactly and each
number within a relative 1e-9.

A change that moves a golden output on purpose rewrites the fixtures it moves,
named by their file names under `data/`, with

    PYTHONPATH=src python tests/test_golden.py --write cli-bounds.txt demo-06_bound_suite.txt

and names each moved line in CHANGES.md; with no names, `--write` rewrites
every fixture, `catalog.csv` included.
"""

import contextlib
import functools
import io
import math
import re
import runpy
import sys
from pathlib import Path

import pytest

from neumannheat import harness
from neumannheat.cli import main

DATA = Path(__file__).parent / "data"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
CLI = {
    "bounds": ("bounds",),
    "spectra-J9": ("spectra", "--J", "9"),
    "steady1d-iterate": ("steady1d", "--J", "65,257", "--solver", "iterate"),
    "steady1d-laplace": ("steady1d", "--J", "65,257", "--solver", "laplace"),
}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _same_line(got: str, want: str) -> bool:
    if got == want:
        return True
    if "residual" not in want:
        return False
    pairs = list(zip(_NUMBER.findall(got), _NUMBER.findall(want)))
    return (_NUMBER.split(got) == _NUMBER.split(want)
            and all(math.isclose(float(a), float(b), rel_tol=1e-9) for a, b in pairs))


def assert_golden(text: str, name: str) -> None:
    """``text`` against the fixture `data/<name>.txt`."""
    want = (DATA / f"{name}.txt").read_text().splitlines()
    got = text.splitlines()
    assert len(got) == len(want), (name, len(got), len(want))
    for i, (g, w) in enumerate(zip(got, want), 1):
        assert _same_line(g, w), f"{name}.txt line {i}:\n got: {g}\nwant: {w}"


def demo_name(path: Path) -> str:
    return f"demo-{path.stem}"


def cli_stdout(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def catalog_text() -> str:
    """`csv_text` of each catalog experiment's default config, in catalog order,
    under one header and with `wall_ms` dropped."""
    lines = [harness.csv_text([]).rstrip().rsplit(",", 1)[0]]
    for experiment in harness.EXPERIMENTS:
        records = harness.run_convergence(harness.default_config(experiment))
        lines += [line.rsplit(",", 1)[0] for line in harness.csv_text(records).splitlines()[1:]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_stdout_matches_the_golden_fixture(name):
    assert_golden(cli_stdout(CLI[name]), f"cli-{name}")


def demo_stdout(path: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def write(names=()) -> None:
    """Rewrite the fixtures named in ``names`` (file names under `data/`, such
    as `cli-bounds.txt`), or every fixture when ``names`` is empty."""
    outputs = {f"cli-{name}.txt": functools.partial(cli_stdout, argv)
               for name, argv in CLI.items()}
    outputs.update({f"{demo_name(path)}.txt": functools.partial(demo_stdout, path)
                    for path in DEMOS})
    outputs["catalog.csv"] = catalog_text
    unknown = sorted(set(names) - set(outputs))
    if unknown:
        sys.exit(f"no fixture named {', '.join(unknown)}; the fixtures are {', '.join(outputs)}")
    for name in names or outputs:
        (DATA / name).write_text(outputs[name]())
        print(f"wrote {DATA / name}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write [fixture ...]")
    write(sys.argv[2:])
