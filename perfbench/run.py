"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid3d --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric of the traced pass.  Each metric is printed on its own line with its
unit, followed by the environment and cost stamp; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, and with ``--trace 1`` the span
trace as JSONL, are written under ``perfbench/out/``.

Exit status: 0 when every correctness gate passed, 1 when one failed (the
result line is still printed), 2 when the workload cannot run at all (no
result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("grid3d", "exact3d", "maintain2d")

#: Units of the record-only metrics that are not milliseconds.
EXTRA_UNITS = {
    "reference_p50_s": "s",
    "preprocess_wall_p50_s": "s",
    "suggest_many_qps": "1/s",
    "failed_frac": "ratio",
    "rss_baseline_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"error: no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, never its files as
    # top-level modules.
    sys.path[:] = [str(ROOT), str(SOURCE)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != BENCH_DIR
    ]
    from perfbench import BLAS_THREAD_VARIABLES

    # Cap the BLAS pools before NumPy loads: one closed-loop client, one thread.
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    from perfbench.harness import SetupError, run_traced, run_untraced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = run_traced(workload, args.seed, OUT_DIR / f"{stem}.trace.jsonl")
        else:
            result = run_untraced(workload, args.seed, args.seconds)
    except SetupError as error:
        print(f"error: configuration: {error}", file=sys.stderr)
        return 2

    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "units": result.units,
        "extra_metrics": result.extra,
        "stamp": result.stamp,
        "problems": result.problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {result.units[name]}")
    for name, value in result.extra.items():
        print(f"{name} = {value:.6g} {EXTRA_UNITS.get(name, 'ms')}")
    for key, value in result.stamp.items():
        if key != "raw":  # the raw samples go to the record only
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
