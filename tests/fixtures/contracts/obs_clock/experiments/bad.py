"""Seeded violation: an experiment timing its body with a stopwatch."""
import time


def timed(body) -> float:
    started = time.perf_counter()
    body()
    return time.perf_counter() - started
