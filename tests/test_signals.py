import itertools

import numpy as np
import pytest

from spinqrc.linalg import PAULI_Z, expectation
from spinqrc.signals import (
    N_COMPONENTS,
    N_SAMPLES,
    N_SEQUENCES,
    component_frequencies,
    encode_input_state,
    generate_raw_sequence,
    make_input_sequence,
    make_sequence_family,
    normalize_minmax,
    read_sequence_csv,
    write_sequence_csv,
)


class TestRawSequence:
    def test_single_component_reduces_to_pure_sine(self):
        # With all phases zero and one component the sum is a plain sinusoid;
        # emulate via direct reconstruction from the stored phases.
        f0 = 2.0
        seq = make_input_sequence(f0, 0, 42)
        freqs = component_frequencies(f0)
        t = np.arange(N_SAMPLES)
        rebuilt = np.sin(2 * np.pi * (np.outer(t, freqs) + seq.phases)).sum(axis=1)
        rebuilt = (rebuilt - rebuilt.min()) / (rebuilt.max() - rebuilt.min())
        assert np.allclose(seq.samples, rebuilt, atol=1e-12)

    def test_amplitude_bound(self):
        raw = generate_raw_sequence(3.0, 4, 7)
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
        raw = generate_raw_sequence(f0, 2, 11, n_samples=5000)
        spec = np.abs(np.fft.rfft(raw - raw.mean())) ** 2
        grid = np.fft.rfftfreq(5000)
        freqs = component_frequencies(f0)
        near = np.zeros(len(grid), dtype=bool)
        for f in freqs:
            near |= np.abs(grid - f) <= 2.5 / 5000
        assert spec[near].sum() / spec.sum() >= 0.95

    def test_unit_interval_axis_is_nearly_constant(self):
        slow = generate_raw_sequence(2.0, 0, 5, time_axis="unit_interval")
        fast = generate_raw_sequence(2.0, 0, 5, time_axis="index")
        assert np.ptp(slow) < 0.05 * np.ptp(fast)


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
    def test_endpoints(self):
        assert np.allclose(encode_input_state(0.0), [[1, 0], [0, 0]])
        assert np.allclose(encode_input_state(1.0), [[0, 0], [0, 1]])

    def test_balanced_superposition(self):
        rho = encode_input_state(0.5)
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))
        assert expectation(rho, PAULI_Z) == pytest.approx(0.0, abs=1e-14)

    def test_z_expectation_is_one_minus_two_s(self):
        for s in np.linspace(0.0, 1.0, 21):
            rho = encode_input_state(float(s))
            assert expectation(rho, PAULI_Z) == pytest.approx(1 - 2 * s, abs=1e-12)
            # purity and positivity
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-14

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_input_state(-0.01)
        with pytest.raises(ValueError):
            encode_input_state(1.01)


class TestSequenceFamily:
    def test_determinism(self):
        a = make_input_sequence(2.0, 3, (2024, 0))
        b = make_input_sequence(2.0, 3, (2024, 0))
        assert np.array_equal(a.samples, b.samples)

    def test_normalization_attains_endpoints(self):
        seq = make_input_sequence(1.0, 0, 99)
        assert seq.samples.min() == 0.0
        assert seq.samples.max() == 1.0
        assert np.isfinite(seq.samples).all()

    def test_nine_sequences_pairwise_distinct(self):
        family = make_sequence_family(2.0, 2024)
        assert len(family) == N_SEQUENCES
        for a, b in itertools.combinations(family, 2):
            assert np.abs(a.samples - b.samples).max() > 0.1

    def test_phases_do_not_depend_on_f0(self):
        a = make_input_sequence(1.0, 2, 7)
        b = make_input_sequence(3.0, 2, 7)
        assert np.array_equal(a.phases, b.phases)
        assert not np.array_equal(a.samples, b.samples)

    def test_csv_round_trip(self, tmp_path):
        seq = make_input_sequence(2.0, 1, 5)
        path = tmp_path / "seq.csv"
        write_sequence_csv(seq, path)
        assert np.array_equal(read_sequence_csv(path), seq.samples)
