import itertools

import numpy as np
import pytest

from spinqrc.reservoir import all_zero_state
from spinqrc.signals import (
    N_COMPONENTS,
    N_SAMPLES,
    N_SEQUENCES,
    component_frequencies,
    generate_raw_sequence,
    make_input_sequence,
    normalize_minmax,
    sequence_phases,
)

from oracles import partial_trace_oracle


def rebuilt_sequence(f0, seq_id, seed):
    """The normalized sum of sines, rebuilt from the sequence's own phases."""
    t = np.arange(N_SAMPLES)
    phases = sequence_phases(seq_id, seed)
    raw = np.sin(2 * np.pi * (np.outer(t, component_frequencies(f0)) + phases)).sum(axis=1)
    return (raw - raw.min()) / (raw.max() - raw.min())


class TestRawSequence:
    def test_single_component_reduces_to_pure_sine(self):
        # Each component is a plain sinusoid with its drawn phase: the
        # sequence equals a direct reconstruction from those phases.
        assert np.allclose(make_input_sequence(2.0, 0, (42, 0)), rebuilt_sequence(2.0, 0, (42, 0)),
                           atol=1e-12)

    def test_amplitude_bound(self):
        raw = generate_raw_sequence(3.0, 4, (7, 0))
        assert np.abs(raw).max() <= N_COMPONENTS

    def test_frequencies_linearly_spaced_inclusive(self):
        freqs = component_frequencies(2.0)
        assert freqs[0] == pytest.approx(2.0 / 5000)
        assert freqs[-1] == pytest.approx(2.0 / 50)
        assert np.allclose(np.diff(freqs), freqs[1] - freqs[0])

    def test_spectrum_concentrated_at_requested_bins(self):
        # DFT oracle: energy of the generated signal lives in the 20
        # requested frequency bins (plus leakage from non-integer bins).
        f0 = 2.0
        raw = generate_raw_sequence(f0, 2, (11, 0), n_samples=5000)
        spec = np.abs(np.fft.rfft(raw - raw.mean())) ** 2
        grid = np.fft.rfftfreq(5000)
        freqs = component_frequencies(f0)
        near = np.zeros(len(grid), dtype=bool)
        for f in freqs:
            near |= np.abs(grid - f) <= 2.5 / 5000
        assert spec[near].sum() / spec.sum() >= 0.95


class TestNormalizeMinmax:
    def test_simple_case(self):
        assert np.allclose(normalize_minmax(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])

    def test_idempotent_on_attained_range(self):
        x = np.array([0.0, 0.25, 1.0])
        assert np.allclose(normalize_minmax(x), x)

    def test_affine_relation_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        y = normalize_minmax(x)
        corr = np.corrcoef(x, y)[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize_minmax(np.full(10, 3.7))


class TestEncodeInputState:
    """Input qubit 0 as the run loop's reset encodes s, and the <Z> read off it."""

    @staticmethod
    def input_qubit(reset_run, s):
        rec = reset_run(all_zero_state(4), s, 0.0)
        return partial_trace_oracle(rec.states[1], {1, 2, 3}, 4), rec.features[1, 0]

    def test_endpoints(self, reset_run):
        assert np.allclose(self.input_qubit(reset_run, 0.0)[0], [[1, 0], [0, 0]])
        assert np.allclose(self.input_qubit(reset_run, 1.0)[0], [[0, 0], [0, 1]])

    def test_balanced_superposition(self, reset_run):
        rho, z = self.input_qubit(reset_run, 0.5)
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))
        assert z == pytest.approx(0.0, abs=1e-14)

    def test_z_expectation_is_one_minus_two_s(self, reset_run):
        for s in np.linspace(0.0, 1.0, 21):
            rho, z = self.input_qubit(reset_run, s)
            assert z == pytest.approx(1 - 2 * s, abs=1e-12)
            # purity and positivity
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-14


class TestSequenceFamily:
    def test_determinism(self):
        a = make_input_sequence(2.0, 3, (2024, 0))
        b = make_input_sequence(2.0, 3, (2024, 0))
        assert np.array_equal(a, b)

    def test_normalization_attains_endpoints(self):
        seq = make_input_sequence(1.0, 0, (99, 0))
        assert seq.shape == (N_SAMPLES,)
        assert seq.min() == 0.0
        assert seq.max() == 1.0
        assert np.isfinite(seq).all()

    def test_nine_sequences_pairwise_distinct(self):
        family = [make_input_sequence(2.0, q, (2024, 0)) for q in range(N_SEQUENCES)]
        assert N_SEQUENCES == 9
        for a, b in itertools.combinations(family, 2):
            assert np.abs(a - b).max() > 0.1

    def test_phases_do_not_depend_on_f0(self):
        # Both frequencies are rebuilt from the one phase draw of (seed, id).
        a = make_input_sequence(1.0, 2, (7, 0))
        b = make_input_sequence(3.0, 2, (7, 0))
        assert np.allclose(a, rebuilt_sequence(1.0, 2, (7, 0)), atol=1e-12)
        assert np.allclose(b, rebuilt_sequence(3.0, 2, (7, 0)), atol=1e-12)
        assert not np.array_equal(a, b)

    def test_bad_frequency_or_sequence_id_rejected(self):
        for f0 in (0.0, -2.0):
            with pytest.raises(ValueError, match="f0 must be positive"):
                make_input_sequence(f0, 0, (7, 0))
        for seq_id in (-1, N_SEQUENCES):
            with pytest.raises(ValueError, match=r"sequence id .* out of range 0\.\.8"):
                make_input_sequence(2.0, seq_id, (7, 0))
