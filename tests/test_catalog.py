"""Golden catalog: every default experiment's rows against `data/catalog.csv`.

The fixture is `csv_text` of each `EXPERIMENTS` default config with the
`wall_ms` column dropped.  The grid, step and time columns must match as
strings; `abs_err` and `rel_err` within a relative 1e-9.  A change that moves
catalog rows on purpose regenerates the fixture and says so in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import pytest

from neumannheat import harness

_FIXTURE = Path(__file__).parent / "data" / "catalog.csv"
_EXACT = ("experiment", "J", "dx", "dt", "t_target", "t_realized", "n")


def _golden():
    rows = {}
    with open(_FIXTURE, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["experiment"], []).append(row)
    return rows


_GOLDEN = _golden()


def test_fixture_covers_the_catalog():
    assert sorted(_GOLDEN) == sorted(harness.EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(_GOLDEN))
def test_catalog_rows_match_the_golden_fixture(experiment):
    records = harness.run_convergence(harness.default_config(experiment))
    rows = list(csv.DictReader(harness.csv_text(records).splitlines()))
    golden = _GOLDEN[experiment]
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert [row[k] for k in _EXACT] == [want[k] for k in _EXACT]
        for k in ("abs_err", "rel_err"):
            assert math.isclose(float(row[k]), float(want[k]), rel_tol=1e-9), (row, k)
