"""Self-test of the benchmark: one small task per workload, both modes.

Run from the repository root:

    python3 bench/selftest.py

For each workload it checks that a passing run emits exactly the metrics that
BENCHMARK.json names, each with its unit, with tracing off and on, and that a
deliberately wrong reference value makes the failed-check count non-zero, so
the checks are not vacuous.  Exits with 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench

# (workload, tasks for one small pass, reference key, a wrong value for it)
CASES = (
    ("convergence", ["trigpoly-J65"], "trigpoly_J65_t1", 0.05),
    ("steady", ["steady2d"], "steady2d_error", 1e-6),
    ("bounds", ["bounds"], "bounds_message", "no such line"),
)


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def quiet(*args, **kwargs):
        pass

    for workload, tasks, key, wrong in CASES:
        known = len(problems)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(workload, seed=0, seconds=0, trace=trace, probes=1,
                               tasks=tasks, log=quiet)
            if not result["correct"] or result["failed"] or result["attempted"] < 2:
                problems.append(f"{workload} trace={int(trace)}: expected a clean pass, "
                                f"got {result['failed']} of {result['attempted']} failed")
            if _emitted(result) != _declared(spec, kind):
                problems.append(f"{workload} trace={int(trace)}: metrics or units differ "
                                f"from BENCHMARK.json {kind}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{workload} trace={int(trace)}: a metric is not a number")
        ref = dict(bench.REFERENCE, **{key: wrong})
        with contextlib.redirect_stderr(io.StringIO()):
            result = bench.run(workload, seed=0, seconds=0, trace=False, probes=0,
                               tasks=tasks, ref=ref, log=quiet)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: wrong {key}={wrong!r} went unnoticed")
        print(f"{workload}: {'ok' if len(problems) == known else 'FAILED'}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selftest passed" if not problems else f"selftest failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
