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
   and oracle-call counts; on one tied integer dataset the three routes must
   agree too, and every sector must carry the brute-force label
   (``tests/ground_truth.py``);
8. the region smoke — one small exact build three times
   (``tests/test_region_polygon.py``): with the d = 3 polygon route and
   with every region split and emptiness test forced through the linear
   program, bit-identical answers, oracle-call counts and payload bytes;
   and with every representative point from the centring linear program,
   the same satisfactory regions, oracle-call counts and representatives'
   arrangement regions, with every suggestion passing the raw oracle;
9. the cellplane smoke — the ``CELLPLANE×`` array kernel on one uniform
   grid and one angle partition (``tests/test_partition_cellplane.py``):
   every cell's hyperplane list must equal the scalar per-cell corner
   test's, order included;
10. the ordering smoke — the batched ordering kernel on an untied batch, a
    tied one and one on a dataset with equal score vectors
    (``tests/test_batched_oracle.py``): ``order_many`` must equal the stable
    reference (``tests/reference/ordering.py``) and per-function ``order``,
    and ``to_weights_many`` must equal the scalar loop
    (``tests/reference/angles.py``) bit for bit.

Usage::

    PYTHONPATH=src python scripts/check_all.py            # every gate
    PYTHONPATH=src python scripts/check_all.py --quick    # differential smoke only

``--quick`` is the fast inner-loop check while working on the parallel
layer: it runs only the differential smoke, which forks real worker
processes even on a single-CPU machine.

Gates 4 to 10 run in one pytest session, started in this process, so the
script pays pytest's start-up and the library's imports once; each of them
still passes only when its own tests ran and none of them failed.

Prints one PASS/FAIL line per gate and exits 0 only when every gate passed.
This is the command to run before opening a PR; the full test suite
(``PYTHONPATH=src python -m pytest -q``) re-enforces all of them in tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose doctests are part of the documentation contract.
DOCTEST_MODULES = (
    "src/repro/geometry/dual.py",
    "src/repro/core/engine.py",
    "src/repro/core/system.py",
    "src/repro/core/session.py",
    "src/repro/parallel/shards.py",
    "src/repro/clock.py",
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
#: dataset, one FM1 oracle), plus one tied integer dataset against brute force.
SWEEP_SMOKE = "tests/test_incremental_oracle.py::TestArraySweepKernel::test_sweep_smoke"

#: The polygon-route-vs-all-LP and polygon-centres-vs-LP-centres smoke test
#: (one small exact build).
REGION_SMOKE = "tests/test_region_polygon.py::test_region_smoke"

#: The CELLPLANE× array-kernel-vs-scalar-reference smoke test (one uniform
#: grid, one angle partition).
CELLPLANE_SMOKE = "tests/test_partition_cellplane.py::test_cellplane_smoke"

#: The ordering-kernel-vs-stable-reference smoke test (an untied, a tied and
#: an every-row-tied batch), plus to_weights_many against the scalar loop.
ORDERING_SMOKE = "tests/test_batched_oracle.py::TestOrderMany::test_ordering_smoke"


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


#: The gates that share one pytest session: name, the node ids (module paths
#: for the doctest gate) it must run, and the line it prints when they pass.
PYTEST_GATES = {
    "doctests": (DOCTEST_MODULES, f"doctests: OK ({', '.join(DOCTEST_MODULES)})"),
    "differential_smoke": (
        (DIFFERENTIAL_SMOKE,),
        "differential smoke: OK (serial == pooled at workers 1 and 2)",
    ),
    "delta_smoke": (
        (DELTA_SMOKE,),
        "delta smoke: OK (apply_delta == rebuild on the mutated dataset)",
    ),
    "sweep_smoke": (
        (SWEEP_SMOKE,),
        "sweep smoke: OK (array kernel == per-swap loop == black box == brute force on "
        "tied data)",
    ),
    "region_smoke": (
        (REGION_SMOKE,),
        "region smoke: OK (polygon route == all-LP route, and polygon centres keep the "
        "LP centres' regions and oracle calls, on one exact build)",
    ),
    "cellplane_smoke": (
        (CELLPLANE_SMOKE,),
        "cellplane smoke: OK (array kernel == scalar corner test, both partitions)",
    ),
    "ordering_smoke": (
        (ORDERING_SMOKE,),
        "ordering smoke: OK (order_many == stable reference == per-function order on an "
        "untied, a tied and an every-row-tied batch, to_weights_many == scalar loop)",
    ),
}


def _covers(target: str, node_id: str) -> bool:
    """Whether ``node_id`` is ``target`` or one of the items under it."""
    return node_id == target or node_id.startswith((f"{target}::", f"{target}["))


class _GateSession:
    """Pytest plugin: keep only the gates' tests, and record which ran and failed.

    The session collects whole files and keeps the items under the gates'
    node ids, so a node id that names no test leaves only its own gate
    empty instead of stopping the session.
    """

    def __init__(self, targets: list[str]) -> None:
        self.targets = targets
        self.collected: list[str] = []
        self.failed: list[str] = []

    def pytest_collection_modifyitems(self, config, items) -> None:
        kept = [
            item
            for item in items
            if any(_covers(target, item.nodeid) for target in self.targets)
        ]
        config.hook.pytest_deselected(items=[item for item in items if item not in kept])
        items[:] = kept
        self.collected = [item.nodeid for item in kept]

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.append(report.nodeid)


def run_pytest_gates(names: list[str]) -> dict[str, int]:
    """Run the named :data:`PYTEST_GATES` in one pytest session; status per gate.

    A gate passes only when the session ran at least one of its tests and
    none of them, nor the collection of its files, failed.  pytest's report
    is printed only when a gate fails.
    """
    targets = [target for name in names for target in PYTEST_GATES[name][0]]
    files = [
        path
        for path in dict.fromkeys(target.split("::")[0] for target in targets)
        if (REPO_ROOT / path).is_file()
    ]
    doctests = ["--doctest-modules"] if "doctests" in names else []
    session = _GateSession(targets)
    report = io.StringIO()
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        with contextlib.redirect_stdout(report):
            pytest.main(
                ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 *doctests, *files],
                plugins=[session],
            )
    finally:
        os.chdir(previous)
    statuses = {}
    for name in names:
        gate_targets = PYTEST_GATES[name][0]
        ran = any(
            _covers(target, node_id)
            for target in gate_targets
            for node_id in session.collected
        )
        broken = any(
            _covers(target, node_id) or _covers(node_id, target)
            for target in gate_targets
            for node_id in session.failed
        )
        statuses[name] = 0 if ran and not broken else 1
    if any(statuses.values()):
        print(report.getvalue().strip())
    return statuses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="consolidated pre-PR gate")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the serial-vs-pooled differential smoke gate",
    )
    args = parser.parse_args(argv)
    scripts = () if args.quick else (
        ("check_docs", run_check_docs),
        ("check_contracts", run_check_contracts),
        ("check_obs", run_check_obs),
    )
    statuses = {}
    for name, script in scripts:
        statuses[name] = script()
        print(f"[{'PASS' if statuses[name] == 0 else 'FAIL'}] {name}")
    pytest_gates = ["differential_smoke"] if args.quick else list(PYTEST_GATES)
    for name, status in run_pytest_gates(pytest_gates).items():
        if status == 0:
            print(PYTEST_GATES[name][1])
        print(f"[{'PASS' if status == 0 else 'FAIL'}] {name}")
        statuses[name] = status
    failures = [name for name, status in statuses.items() if status != 0]
    if failures:
        print(f"check_all: {len(failures)} gate(s) failed: {', '.join(failures)}")
        return 1
    print("check_all: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
