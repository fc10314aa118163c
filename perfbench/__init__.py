"""The repository benchmark: seeded workloads driven through the engine seam.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; see ``perfbench/README.md``.

This module imports nothing heavy: ``run.py`` imports it to cap the BLAS
thread pools before NumPy loads.
"""

#: Environment variables that size the BLAS thread pools; the benchmark runs
#: one closed-loop client and pins each to one thread.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
