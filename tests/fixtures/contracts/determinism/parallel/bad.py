"""Violation fixture: a pool in a parallel module without a worker initializer.

Forked workers inherit the parent's ambient trace recorder; the determinism
rule requires every ``ProcessPoolExecutor`` in parallel modules to pass
``initializer=`` so that recorder is detached.
"""

from concurrent.futures import ProcessPoolExecutor


def fan_out(task, shards):
    with ProcessPoolExecutor(max_workers=2) as executor:
        return [future.result() for future in [executor.submit(task, s) for s in shards]]
