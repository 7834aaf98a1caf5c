import gc

import pytest


@pytest.fixture
def negativity_calls(monkeypatch):
    """The size of every state stack a record passes to ``negativities``."""
    import spinqrc.reservoir

    calls = []
    original = spinqrc.reservoir.negativities

    def counting(states):
        calls.append(len(states))
        return original(states)

    monkeypatch.setattr(spinqrc.reservoir, "negativities", counting)
    return calls


@pytest.fixture(autouse=True)
def unfreeze_heap():
    """``cli.main`` freezes the heap on return; hand what it froze back to the
    collector, so that no test's garbage outlives it in this process."""
    yield
    gc.unfreeze()
