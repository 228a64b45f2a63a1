"""Each demo script, and each Python block of the README, runs to completion,
in process, with its output captured; each demo's stdout matches its golden
fixture (`test_golden.py`)."""

import re
import runpy
from pathlib import Path

import pytest

from test_golden import assert_golden, demo_name

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
# each block padded with blank lines, so that tracebacks give README line numbers
README_BLOCKS = ["\n" * README.count("\n", 0, m.start(1)) + m.group(1)
                 for m in re.finditer(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "FAILS" not in out
    assert_golden(out, demo_name(path))


def test_readme_python_blocks_run(capsys):
    assert README_BLOCKS
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out.strip()
