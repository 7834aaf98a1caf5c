import spinqrc.dynamics
import spinqrc.experiments
import spinqrc.signals
from spinqrc.experiments import ExperimentConfig, run_cell, run_invariant_suite
from spinqrc.reservoir import RunConfig
from spinqrc.streams import COUPLING_DOMAIN, SIGNAL_DOMAIN, VALIDATE_DOMAIN, stream


def test_each_domain_keys_have_one_length(monkeypatch):
    # SeedSequence zero-pads short keys, so a key one word shorter than the
    # rest of its domain would alias another draw's stream.
    keys = []

    def recording(*key):
        keys.append(key)
        return stream(*key)

    for module in (spinqrc.dynamics, spinqrc.signals, spinqrc.experiments):
        monkeypatch.setattr(module, "stream", recording)
    run = RunConfig(t_final=750.0, washout_steps=30)
    for selection in ("test", "holdout"):
        cfg = ExperimentConfig(js_values=(0.3,), n_coupling_seeds=1, base_seed=5, run=run,
                               tau_max=10, lambda_selection=selection)
        assert run_cell(cfg, 0.3, 2.0, 0).status == "ok"
    run_invariant_suite(2, 5)
    lengths = {}
    for key in keys:
        lengths.setdefault(key[0], set()).add(len(key))
    assert set(lengths) == {SIGNAL_DOMAIN, COUPLING_DOMAIN, VALIDATE_DOMAIN}
    assert all(len(found) == 1 for found in lengths.values()), lengths
