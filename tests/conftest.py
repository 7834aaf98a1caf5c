import gc

import numpy as np
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


@pytest.fixture
def reset_run():
    """``reset_run(rho, s1, s2)``: an identity-map run; ``states[1]`` is rho reset to s1, s2."""
    from spinqrc.reservoir import run_reservoir, samples_needed

    def run(rho, s1, s2):
        seqs = [np.full(samples_needed(2), float(s)) for s in (s1, s2)]
        return run_reservoir(np.eye(256), [seqs], 2, 0, initial_state=rho)[0]

    return run
