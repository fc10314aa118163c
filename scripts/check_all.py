#!/usr/bin/env python
"""The consolidated pre-PR gate: docs + contracts + doctests, one exit code.

Runs, in order:

1. ``scripts/check_docs.py`` — no stale code references in ``README.md`` /
   ``docs/*.md``, and no ``*.md`` name in ``src/``, ``examples/`` or
   ``benchmarks/`` that does not exist;
2. ``scripts/check_contracts.py`` — the contract linter over ``src/repro``,
   then the executed engine-seam and oracle-parity contracts
   (``tests/test_contracts.py``), plus the scoped ``mypy --strict`` pass when
   mypy is installed;
3. ``scripts/check_obs.py`` — the observability layer produces byte-identical
   trace exports and metrics snapshots on a fake clock;
4. the doctest pass — ``pytest --doctest-modules`` over the modules whose
   ``>>>`` examples are load-bearing documentation;
5. the differential smoke — the serial-vs-pooled bit-identity test at
   workers 1 and 2 on one small dataset
   (``tests/test_parallel_equivalence.py``, the unconditional smoke target);
6. the delta smoke — the delta-vs-rebuild bit-identity test on one small
   dataset (``tests/test_dynamic_equivalence.py``): an engine maintained
   through ``apply_delta`` must answer identically to a from-scratch rebuild
   on the mutated dataset;
7. the sweep smoke — one FM1 ray sweep on one small dataset three ways
   (``tests/test_incremental_oracle.py``): the array sweep kernel, the
   per-swap loop and the black-box oracle must give bit-identical intervals
   and oracle-call counts;
8. the region smoke — one small exact build twice
   (``tests/test_region_polygon.py``): with the d = 3 polygon route and
   with every region split and emptiness test forced through the linear
   program, bit-identical answers, oracle-call counts and payload bytes.

Usage::

    PYTHONPATH=src python scripts/check_all.py            # every gate
    PYTHONPATH=src python scripts/check_all.py --quick    # differential smoke only

``--quick`` is the fast inner-loop check while working on the parallel
layer: it runs only the differential smoke, which forks real worker
processes even on a single-CPU machine.

Prints one PASS/FAIL line per gate and exits 0 only when every gate passed.
This is the command to run before opening a PR; the full test suite
(``PYTHONPATH=src python -m pytest -q``) re-enforces all of them in tier-1.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose doctests are part of the documentation contract.
DOCTEST_MODULES = (
    "src/repro/geometry/dual.py",
    "src/repro/core/engine.py",
    "src/repro/core/system.py",
)

#: The unconditional serial-vs-pooled smoke test (workers 1 and 2, one small
#: dataset) — must stay cheap enough to run on every check_all invocation.
DIFFERENTIAL_SMOKE = (
    "tests/test_parallel_equivalence.py::test_differential_smoke_workers_1_and_2"
)

#: The delta-vs-rebuild smoke test (one small 2-D dataset, one mixed delta) —
#: the cheap incarnation of the PR-10 maintenance bit-identity proof.
DELTA_SMOKE = "tests/test_dynamic_equivalence.py::TestDeltaSmoke::test_delta_smoke"

#: The array-kernel-vs-loop-vs-black-box sweep smoke test (one small 2-D
#: dataset, one FM1 oracle).
SWEEP_SMOKE = "tests/test_incremental_oracle.py::TestArraySweepKernel::test_sweep_smoke"

#: The polygon-route-vs-all-LP smoke test (one small exact build).
REGION_SMOKE = "tests/test_region_polygon.py::test_region_smoke"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_check_docs() -> int:
    return _load_script("check_docs").main()


def run_check_contracts() -> int:
    return _load_script("check_contracts").main()


def run_check_obs() -> int:
    return _load_script("check_obs").main()


def _run_pytest(args: tuple[str, ...], ok_message: str) -> int:
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        print(result.stdout.strip())
        if result.stderr.strip():
            print(result.stderr.strip())
    else:
        print(ok_message)
    return result.returncode


def run_doctests() -> int:
    return _run_pytest(
        ("--doctest-modules", *DOCTEST_MODULES),
        f"doctests: OK ({', '.join(DOCTEST_MODULES)})",
    )


def run_differential_smoke() -> int:
    return _run_pytest(
        (DIFFERENTIAL_SMOKE,),
        "differential smoke: OK (serial == pooled at workers 1 and 2)",
    )


def run_delta_smoke() -> int:
    return _run_pytest(
        (DELTA_SMOKE,),
        "delta smoke: OK (apply_delta == rebuild on the mutated dataset)",
    )


def run_sweep_smoke() -> int:
    return _run_pytest(
        (SWEEP_SMOKE,),
        "sweep smoke: OK (array kernel == per-swap loop == black box)",
    )


def run_region_smoke() -> int:
    return _run_pytest(
        (REGION_SMOKE,),
        "region smoke: OK (polygon route == all-LP route on one exact build)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="consolidated pre-PR gate")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the serial-vs-pooled differential smoke gate",
    )
    args = parser.parse_args(argv)
    gates = (
        ("check_docs", run_check_docs),
        ("check_contracts", run_check_contracts),
        ("check_obs", run_check_obs),
        ("doctests", run_doctests),
        ("differential_smoke", run_differential_smoke),
        ("delta_smoke", run_delta_smoke),
        ("sweep_smoke", run_sweep_smoke),
        ("region_smoke", run_region_smoke),
    )
    if args.quick:
        gates = (("differential_smoke", run_differential_smoke),)
    failures = []
    for name, gate in gates:
        status = gate()
        print(f"[{'PASS' if status == 0 else 'FAIL'}] {name}")
        if status != 0:
            failures.append(name)
    if failures:
        print(f"check_all: {len(failures)} gate(s) failed: {', '.join(failures)}")
        return 1
    print("check_all: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
