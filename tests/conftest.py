"""Shared fixtures."""

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
