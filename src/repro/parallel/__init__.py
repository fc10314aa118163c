"""Sharded parallel preprocessing and the process-pool serving engine.

Both halves of this package fan embarrassingly parallel work out over
``concurrent.futures.ProcessPoolExecutor`` while keeping the repository's
standing guarantee: the parallel result is **bit-identical** to the serial
reference, regardless of worker count, shard size or completion order.

* :mod:`repro.parallel.shards` — shard planning: contiguous slices,
  submitted and merged in order;
* :mod:`repro.parallel.preprocess` — the sharded preprocessing driver over
  :func:`repro.data.dominance.exchange_pairs_for_block` (the exact block
  kernel the serial :func:`~repro.data.dominance.iter_exchange_pair_chunks`
  generator runs), with deterministic chunk-order merging and
  ``max_hyperplanes`` early stop across shards;
* :mod:`repro.parallel.pool` — :class:`~repro.parallel.pool.PoolEngine`, a
  registered engine (name ``"pool"``, config
  :class:`~repro.parallel.pool.PoolConfig`) sharding ``suggest_many``
  batches across worker processes over one shared read-only index.

See ``docs/parallelism.md`` for the shard/merge protocol, the determinism
argument and the worker-failure semantics.
"""

from repro.parallel.pool import PoolConfig, PoolEngine
from repro.parallel.preprocess import parallel_hyperplanes_for_dataset
from repro.parallel.shards import plan_shards

__all__ = [
    "PoolConfig",
    "PoolEngine",
    "parallel_hyperplanes_for_dataset",
    "plan_shards",
]
