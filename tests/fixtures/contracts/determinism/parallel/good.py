"""Clean fixture: the pool passes a worker initializer, as the rule requires."""

from concurrent.futures import ProcessPoolExecutor


def _init_worker(scores):
    pass


def fan_out(task, shards, scores):
    with ProcessPoolExecutor(
        max_workers=2, initializer=_init_worker, initargs=(scores,)
    ) as executor:
        return [future.result() for future in [executor.submit(task, s) for s in shards]]
