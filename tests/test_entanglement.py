import numpy as np
import pytest

from spinqrc.entanglement import (
    PARTITION_LABELS,
    NEGATIVITY_BLOCK,
    PARTITIONS,
    log_negativity,
    negativities,
    seed_average,
    steady_state_average,
    summary_from_means,
    summary_to_dict,
    write_summary_json,
)
from spinqrc.linalg import kron, kron_all

from oracles import random_density_matrix, random_pure_product_state

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)
KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


class TestLogNegativity:
    def test_product_states_have_zero_negativity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = random_pure_product_state(rng, 4)
            for label in PARTITION_LABELS:
                assert log_negativity(rho, PARTITIONS[label]) <= 1e-10
                assert log_negativity(rho, PARTITIONS[label], clamp=False) >= -1e-10

    def test_embedded_bell_pair_gives_one(self):
        # Bell pair on qubits 0,1 with |0> spectators on 2,3.
        rho = kron_all([BELL, KET0, KET0])
        assert log_negativity(rho, PARTITIONS["E1"]) == pytest.approx(1.0, abs=1e-10)
        assert log_negativity(rho, PARTITIONS["E2"]) == pytest.approx(1.0, abs=1e-10)
        # The pair cut {0,1} | {2,3} crosses no entanglement.
        assert log_negativity(rho, PARTITIONS["E12"]) <= 1e-10

    def test_complement_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho = random_density_matrix(rng, 16)
            part = PARTITIONS["E13"]
            a = log_negativity(rho, part, clamp=False)
            b = log_negativity(rho, part.complement, clamp=False)
            assert a == pytest.approx(b, abs=1e-10)

    def test_boundedness_on_random_states(self):
        rng = np.random.default_rng(2)
        states = np.stack([random_density_matrix(rng, 16) for _ in range(25)])
        for vals in np.maximum(negativities(states), 0.0):
            assert vals.min() >= 0.0
            assert vals.max() <= 2.0
            # single-vs-rest cuts of 4 qubits are bounded by 1
            assert vals[:4].max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("k", [1, NEGATIVITY_BLOCK - 1, NEGATIVITY_BLOCK,
                                   NEGATIVITY_BLOCK + 1, 300])
    def test_stacked_negativities_equal_the_per_state_reference(self, k):
        rng = np.random.default_rng(k)
        states = np.stack([random_density_matrix(rng, 16) for _ in range(k)])
        got = negativities(states)
        want = [[log_negativity(rho, PARTITIONS[lbl], clamp=False) for lbl in PARTITION_LABELS]
                for rho in states]
        assert got.shape == (k, len(PARTITION_LABELS))
        assert got.tolist() == want

    def test_stacked_negativities_check_hermiticity(self):
        rng = np.random.default_rng(7)
        states = np.stack([random_density_matrix(rng, 16) for _ in range(NEGATIVITY_BLOCK + 3)])
        states[-1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            negativities(states)

    def test_mixing_bell_with_identity_reduces_negativity(self):
        rho4 = 0.75 * BELL + 0.25 * np.eye(4) / 4
        rho = kron(rho4, kron(KET0, KET0))
        e = log_negativity(rho, PARTITIONS["E1"])
        assert 0.0 < e < 1.0


class TestSteadyStateAverage:
    def test_constant_samples(self):
        samples = np.tile(np.arange(1.0, 8.0), (30, 1))
        summary = steady_state_average(samples, washout=10)
        assert summary.means == dict(zip(PARTITION_LABELS, np.arange(1.0, 8.0)))

    def test_linear_ramp_average_is_window_midpoint(self):
        k = 101
        ramp = np.linspace(0.0, 1.0, k)
        samples = np.tile(ramp[:, None], (1, 7))
        washout = 20
        summary = steady_state_average(samples, washout)
        expected = 0.5 * (ramp[washout] + ramp[-1])
        for label in PARTITION_LABELS:
            assert summary.means[label] == pytest.approx(expected, abs=1e-12)

    def test_zero_samples_flag_ratios_undefined(self):
        samples = np.zeros((40, 7))
        summary = steady_state_average(samples, washout=5)
        assert summary.diff_single == 0.0
        assert summary.diff_pair == 0.0
        assert summary.ratio_single is None
        assert summary.ratio_pair is None

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            steady_state_average(np.zeros((10, 7)), washout=10)

    def test_aggregate_definitions(self):
        means = {"E1": 0.4, "E2": 0.6, "E3": 0.1, "E4": 0.2,
                 "E12": 0.05, "E13": 0.5, "E14": 0.3}
        s = summary_from_means(means)
        assert s.diff_single == pytest.approx(0.7)
        assert s.diff_pair == pytest.approx(0.7)
        assert s.ratio_single == pytest.approx(1.0 / 0.3)
        assert s.ratio_pair == pytest.approx(0.8 / 0.1)


class TestSeedAverage:
    def test_single_summary_is_identity(self):
        s = summary_from_means(dict(zip(PARTITION_LABELS, np.linspace(0.1, 0.7, 7))))
        avg = seed_average([s])
        assert avg.means == s.means

    def test_mean_symmetry(self):
        c = 0.35
        v = np.linspace(0.05, 0.65, 7)
        a = summary_from_means(dict(zip(PARTITION_LABELS, v)))
        b = summary_from_means(dict(zip(PARTITION_LABELS, -v + 2 * c)))
        avg = seed_average([a, b])
        for label in PARTITION_LABELS:
            assert avg.means[label] == pytest.approx(c, abs=1e-12)

    def test_matches_streaming_mean_oracle(self):
        rng = np.random.default_rng(3)
        summaries = [summary_from_means(dict(zip(PARTITION_LABELS, rng.uniform(0, 1, 7))))
                     for _ in range(10)]
        avg = seed_average(summaries)
        acc = np.zeros(7)
        for i, s in enumerate(summaries, start=1):
            acc += (s.as_vector() - acc) / i
        assert np.allclose(avg.as_vector(), acc, atol=1e-12)

    def test_aggregates_recomputed_from_seed_means(self):
        rng = np.random.default_rng(4)
        summaries = [summary_from_means(dict(zip(PARTITION_LABELS, rng.uniform(0.1, 1, 7))))
                     for _ in range(5)]
        avg = seed_average(summaries)
        m = avg.means
        assert avg.diff_single == pytest.approx((m["E1"] + m["E2"]) - (m["E3"] + m["E4"]))
        assert avg.ratio_pair == pytest.approx((m["E13"] + m["E14"]) / (2 * m["E12"]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            seed_average([])


def test_summary_json_round_trip(tmp_path):
    import json

    s = summary_from_means(dict(zip(PARTITION_LABELS, np.linspace(0.0, 0.6, 7))))
    path = tmp_path / "summary.json"
    write_summary_json(s, path, key={"J_s": 0.5, "seed": 3})
    payload = json.loads(path.read_text())
    assert payload["J_s"] == 0.5
    assert payload["E1"] == 0.0
    assert payload["ratio_single"] == s.ratio_single
    assert set(PARTITION_LABELS) <= set(payload)
    assert summary_to_dict(s)["diff_pair"] == s.diff_pair
