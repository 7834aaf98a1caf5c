import numpy as np
import pytest

import spinqrc.dynamics
import spinqrc.experiments
import spinqrc.signals
from spinqrc.dynamics import random_model, sample_coupling_matrix
from spinqrc.experiments import ExperimentConfig, run_cell, run_invariant_suite
from spinqrc.signals import generate_raw_sequence, make_input_sequence, sequence_phases
from spinqrc.streams import COUPLING_DOMAIN, KEY_WORDS, SIGNAL_DOMAIN, VALIDATE_DOMAIN, stream

PAIR_FORM = r"\(base_seed, index\) pair"


def test_each_domain_keys_have_one_length(monkeypatch):
    # SeedSequence zero-pads short keys, so a key one word shorter than the
    # rest of its domain would alias another draw's stream.
    keys = []

    def recording(domain, seed, *tail):
        keys.append((domain, *seed, *tail))
        return stream(domain, seed, *tail)

    for module in (spinqrc.dynamics, spinqrc.signals, spinqrc.experiments):
        monkeypatch.setattr(module, "stream", recording)
    for selection in ("test", "holdout"):
        cfg = ExperimentConfig(js_values=(0.3,), n_coupling_seeds=1, base_seed=5,
                               t_final=750.0, washout_steps=30, tau_max=10,
                               lambda_selection=selection)
        assert run_cell(cfg, 0.3, 2.0, 0).status == "ok"
    run_invariant_suite(2, 5)
    lengths = {}
    for key in keys:
        lengths.setdefault(key[0], set()).add(len(key))
    assert set(lengths) == {SIGNAL_DOMAIN, COUPLING_DOMAIN, VALIDATE_DOMAIN}
    assert all(len(found) == 1 for found in lengths.values()), lengths
    assert {domain: found.pop() for domain, found in lengths.items()} == KEY_WORDS


SEEDED = {
    "sample_coupling_matrix": lambda seed: sample_coupling_matrix(1.0, 4, seed),
    "random_model": lambda seed: random_model(1.0, seed),
    "sequence_phases": lambda seed: sequence_phases(0, seed),
    "generate_raw_sequence": lambda seed: generate_raw_sequence(2.0, 0, seed),
    "make_input_sequence": lambda seed: make_input_sequence(2.0, 0, seed),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("seed", [3, (3,), (3, 1, 0), (-1, 0), (3, -1), [3, 1], (3.0, 1),
                                  (True, 0)])
def test_seeded_draws_take_only_a_nonnegative_pair(name, seed):
    # A bool is an int to isinstance: (True, 0) drew the stream of (1, 0).
    with pytest.raises(ValueError, match=PAIR_FORM):
        SEEDED[name](seed)


def test_int_seed_aliases_are_refused_or_distinct():
    # SeedSequence zero-pads keys, so an int seed s once drew the stream of
    # the pair (s, 0), and sequence q of it the stream of sequence 0 of (s, q).
    with pytest.raises(ValueError, match=PAIR_FORM):
        make_input_sequence(2.0, 1, 3)
    assert not np.array_equal(make_input_sequence(2.0, 1, (3, 0)),
                              make_input_sequence(2.0, 0, (3, 1)))
    with pytest.raises(ValueError, match=PAIR_FORM):
        sample_coupling_matrix(1.0, 4, 3)
    assert not np.array_equal(sample_coupling_matrix(1.0, 4, (3, 0)),
                              sample_coupling_matrix(1.0, 4, (0, 3)))


@pytest.mark.parametrize("domain, tail", [
    (COUPLING_DOMAIN, (0,)), (SIGNAL_DOMAIN, ()), (SIGNAL_DOMAIN, (0, 0)),
    (VALIDATE_DOMAIN, (0,)), (0x99, ()),
])
def test_stream_refuses_a_key_of_another_length(domain, tail):
    with pytest.raises(ValueError, match=r"has \d words, not "):
        stream(domain, (3, 0), *tail)
