"""Multi-sinusoid input sequences.

Each raw sequence is a sum of 20 sinusoids with frequencies linearly spaced
over [f0/5000, f0/50] and independent uniform phases, min-max normalized to
[0, 1]. Nine sequences (ids 0..8) are generated per (f0, seed): ids 0-1 drive
the training run, 2-3 the test run; 4-8 are unused.

The time variable is the integer sample index k = 0..N-1, so the component
periods span 50/f0 .. 5000/f0 samples and the signal varies slowly but
nontrivially between samples. A sequence is the 1-D array of its normalized
samples. How a reservoir run walks through the samples and encodes each
one into an input qubit is the run loop's concern (``reservoir``): its
``SAMPLE_SPACING`` lays the 1000 samples out uniformly over the evolution
window, 2.75 time units apart, so one full-length run consumes nearly the
whole sequence.
"""

from __future__ import annotations

import numpy as np

from .streams import SIGNAL_DOMAIN, stream

N_SAMPLES = 1000
N_COMPONENTS = 20

TRAIN_SEQUENCE_IDS = (0, 1)
TEST_SEQUENCE_IDS = (2, 3)
N_SEQUENCES = 9


def component_frequencies(f0: float) -> np.ndarray:
    """N_COMPONENTS linearly spaced frequencies, both endpoints included."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    return np.linspace(f0 / 5000.0, f0 / 50.0, N_COMPONENTS)


def sequence_phases(seq_id: int, seed: tuple[int, int]) -> np.ndarray:
    """The sequence's 20 phase offsets, i.i.d. uniform on [0, 1).

    Phases depend only on the (base_seed, index) pair ``seed`` and seq_id,
    never on f0, so sweeps over input frequency reuse the same phases.
    """
    if not 0 <= seq_id < N_SEQUENCES:
        raise ValueError(f"sequence id {seq_id} out of range 0..{N_SEQUENCES - 1}")
    rng = stream(SIGNAL_DOMAIN, seed, seq_id)
    return rng.uniform(0.0, 1.0, size=N_COMPONENTS)


def generate_raw_sequence(f0: float, seq_id: int, seed: tuple[int, int]) -> np.ndarray:
    """Un-normalized sum of sinusoids at the sample indices 0..N_SAMPLES-1."""
    freqs = component_frequencies(f0)
    phases = sequence_phases(seq_id, seed)
    t = np.arange(N_SAMPLES, dtype=float)
    # x(t) = sum_k sin(2 pi f_k t + 2 pi phi_k)
    arg = 2.0 * np.pi * (np.outer(t, freqs) + phases[np.newaxis, :])
    return np.sin(arg).sum(axis=1)


def normalize_minmax(x: np.ndarray) -> np.ndarray:
    """Affine rescaling onto [0, 1]; both endpoints are attained."""
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise ValueError("degenerate sequence: min-max normalization needs max > min")
    return (x - lo) / (hi - lo)


def make_input_sequence(f0: float, seq_id: int, seed: tuple[int, int]) -> np.ndarray:
    """One input sequence: its N_SAMPLES normalized samples on [0, 1]."""
    return normalize_minmax(generate_raw_sequence(f0, seq_id, seed))
