"""Shared test configuration.

Isolates the sweep result cache: experiment runs during tests must never
read from or write into the developer's real ``~/.cache/repro-sweeps``.
Each test session gets a private cache directory, so cache-dependent
tests (warm-hit short-circuits) still exercise the real cache code.
"""

import pytest

from repro.sim import Simulator


@pytest.fixture(scope="session", autouse=True)
def _isolated_sweep_cache(tmp_path_factory):
    """Point REPRO_SWEEP_CACHE at a session-private directory."""
    import os
    cache_dir = tmp_path_factory.mktemp("repro-sweeps")
    previous = os.environ.get("REPRO_SWEEP_CACHE")
    os.environ["REPRO_SWEEP_CACHE"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_SWEEP_CACHE", None)
    else:
        os.environ["REPRO_SWEEP_CACHE"] = previous


@pytest.fixture
def spawned(monkeypatch):
    """Names of every Process started through ``Simulator.process``."""
    names = []
    original = Simulator.process

    def process(self, generator, name=""):
        names.append(name)
        return original(self, generator, name)

    monkeypatch.setattr(Simulator, "process", process)
    return names
