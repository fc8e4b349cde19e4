"""Shared fixtures."""

import tracemalloc

import pytest

from lmelab import engine


@pytest.fixture
def chunk_workers(monkeypatch):
    """Set how many threads ``engine.map_chunks`` spreads groups over.

    The test gets a thread pool of its own, created on first use as in a
    run and shut down when the test ends.
    """
    monkeypatch.setattr(engine, "_executor", None)

    def use(workers: int) -> None:
        monkeypatch.setattr(engine, "_WORKERS", workers)

    yield use
    if engine._executor is not None:
        engine._executor.shutdown()


@pytest.fixture
def traced_peak():
    """Run ``fn()`` under tracemalloc; return its result and the peak number
    of bytes traced above the level when it started.

    numpy reports its buffers to tracemalloc, so the peak counts every
    array the call holds at once; LAPACK's workspace is not counted.
    """

    def run(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - before

    return run
