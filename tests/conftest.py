import pytest
from hypothesis import settings

from errortail import pricing

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")


@pytest.fixture
def force_pool(monkeypatch):
    """A call that makes every later ``price_contracts`` call of two chunks or
    more take a pool of two processes, whatever its size and the cores."""

    def force() -> None:
        monkeypatch.setattr(pricing, "POOL_WORK", 0)
        monkeypatch.setattr(pricing, "usable_cores", lambda: 2)

    return force


@pytest.fixture
def pools(monkeypatch) -> list:
    """The size of each pool ``price_contracts`` opens, in order; the stand-in
    pool maps in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(pricing, "ProcessPoolExecutor", RecordingPool)
    return sizes
