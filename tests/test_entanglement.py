import csv
import json

import numpy as np
import pytest

from spinqrc.entanglement import (
    PARTITION_LABELS,
    NEGATIVITY_BLOCK,
    PARTITIONS,
    SUMMARY_FIELDS,
    negativities,
    summarize,
)
from spinqrc.experiments import CellResult, ExperimentConfig, emit_figure_data, write_run_outputs
from spinqrc.learning import CapacityProfile
from spinqrc.linalg import kron, kron_all
from spinqrc.reservoir import TrajectoryRecord, all_zero_state

from oracles import log_negativity_oracle, random_density_matrix, random_pure_product_state

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)
KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


class TestLogNegativity:
    def test_product_states_have_zero_negativity(self):
        rng = np.random.default_rng(0)
        states = np.stack([random_pure_product_state(rng, 4) for _ in range(10)])
        assert np.abs(negativities(states)).max() <= 1e-10

    def test_embedded_bell_pair_gives_one(self):
        # Bell pair on qubits 0,1 with |0> spectators on 2,3.
        negs = dict(zip(PARTITION_LABELS, negativities(kron_all([BELL, KET0, KET0])[None])[0]))
        assert negs["E1"] == pytest.approx(1.0, abs=1e-10)
        assert negs["E2"] == pytest.approx(1.0, abs=1e-10)
        # The pair cut {0,1} | {2,3} crosses no entanglement.
        assert negs["E12"] <= 1e-10

    def test_partitions_name_the_transposed_qubits(self):
        # E13 is the pair {1, 3} in 1-based naming: indices 0 and 2.
        assert list(PARTITIONS) == list(PARTITION_LABELS)
        assert PARTITIONS["E13"] == (0, 2)
        assert PARTITIONS["E4"] == (3,)

    def test_complement_symmetry(self):
        # Transposing rho on every qubit and then on A transposes it on A's
        # complement, so each cut of rho^T reads the complement cut of rho.
        rng = np.random.default_rng(1)
        states = np.stack([random_density_matrix(rng, 16) for _ in range(25)])
        assert np.allclose(negativities(states.swapaxes(1, 2)), negativities(states), atol=1e-10)

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
        want = [[log_negativity_oracle(rho, PARTITIONS[lbl]) for lbl in PARTITION_LABELS]
                for rho in states]
        assert got.shape == (k, len(PARTITION_LABELS))
        assert got.tolist() == want

    def test_stacked_negativities_check_hermiticity(self):
        rng = np.random.default_rng(7)
        states = np.stack([random_density_matrix(rng, 16) for _ in range(NEGATIVITY_BLOCK + 3)])
        states[-1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            negativities(states)
        states[-1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            negativities(states)

    def test_mixing_bell_with_identity_reduces_negativity(self):
        rho4 = 0.75 * BELL + 0.25 * np.eye(4) / 4
        e = negativities(kron(rho4, kron(KET0, KET0))[None])[0, 0]  # column 0 is E1
        assert 0.0 < e < 1.0


class TestSteadyStateAverage:
    """A run's summary: ``summarize`` of its post-washout column means, as
    ``run_cell`` takes it."""

    def test_constant_samples(self):
        samples = np.tile(np.arange(1.0, 8.0), (30, 1))
        summary = summarize(samples[10:].mean(axis=0))
        assert {lbl: summary[lbl] for lbl in PARTITION_LABELS} == dict(
            zip(PARTITION_LABELS, np.arange(1.0, 8.0)))

    def test_linear_ramp_average_is_window_midpoint(self):
        k = 101
        ramp = np.linspace(0.0, 1.0, k)
        samples = np.tile(ramp[:, None], (1, 7))
        washout = 20
        summary = summarize(samples[washout:].mean(axis=0))
        expected = 0.5 * (ramp[washout] + ramp[-1])
        for label in PARTITION_LABELS:
            assert summary[label] == pytest.approx(expected, abs=1e-12)

    def test_zero_samples_flag_ratios_undefined(self):
        samples = np.zeros((40, 7))
        summary = summarize(samples[5:].mean(axis=0))
        assert summary["diff_single"] == 0.0
        assert summary["diff_pair"] == 0.0
        assert summary["ratio_single"] is None
        assert summary["ratio_pair"] is None

    def test_aggregate_definitions(self):
        # E1, E2, E3, E4, E12, E13, E14
        s = summarize([0.4, 0.6, 0.1, 0.2, 0.05, 0.5, 0.3])
        assert tuple(s) == SUMMARY_FIELDS
        assert s["diff_single"] == pytest.approx(0.7)
        assert s["diff_pair"] == pytest.approx(0.7)
        assert s["ratio_single"] == pytest.approx(1.0 / 0.3)
        assert s["ratio_pair"] == pytest.approx(0.8 / 0.1)
        with pytest.raises(ValueError):
            summarize([0.4, 0.6, 0.1, 0.2, 0.05, 0.5])


def figure_seed_average(summaries, out_dir) -> dict:
    """The seed averages the figures report for one (J_s, f) whose cells
    carry ``summaries``: each partition's mean (fig2b, fig2c) and the
    aggregates (fig2d, fig2e), an undefined one as None."""
    cells = [CellResult(js=1.0, f=2.0, seed_index=j, status="ok", capacity=None,
                        entanglement=s, wall_time_s=0.0) for j, s in enumerate(summaries)]
    out = {}
    for figure in ("fig2b", "fig2c", "fig2d", "fig2e"):
        (path,) = emit_figure_data(cells, figure, out_dir)
        with open(path, newline="") as fh:
            header, row = csv.reader(fh)
        for name, value in zip(header[1::2], row[1::2]):
            out[name.removesuffix("_mean")] = None if value == "nan" else float(value)
    return out


class TestSeedAverage:
    """The seed average of a (J_s, f) group in the figures: the mean of the
    cells' seven values, and ``summarize`` of those means."""

    def test_single_summary_is_identity(self, tmp_path):
        s = summarize(np.linspace(0.1, 0.7, 7))
        assert figure_seed_average([s], tmp_path) == s

    def test_mean_symmetry(self, tmp_path):
        c = 0.35
        v = np.linspace(0.05, 0.65, 7)
        avg = figure_seed_average([summarize(v), summarize(-v + 2 * c)], tmp_path)
        for label in PARTITION_LABELS:
            assert avg[label] == pytest.approx(c, abs=1e-12)

    def test_matches_streaming_mean_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        summaries = [summarize(rng.uniform(0, 1, 7)) for _ in range(10)]
        avg = figure_seed_average(summaries, tmp_path)
        acc = np.zeros(7)
        for i, s in enumerate(summaries, start=1):
            acc += (np.array([s[lbl] for lbl in PARTITION_LABELS]) - acc) / i
        assert np.allclose([avg[lbl] for lbl in PARTITION_LABELS], acc, atol=1e-12)

    def test_aggregates_recomputed_from_seed_means(self, tmp_path):
        rng = np.random.default_rng(4)
        summaries = [summarize(rng.uniform(0.1, 1, 7)) for _ in range(5)]
        m = figure_seed_average(summaries, tmp_path)
        assert m["diff_single"] == pytest.approx((m["E1"] + m["E2"]) - (m["E3"] + m["E4"]))
        assert m["ratio_pair"] == pytest.approx((m["E13"] + m["E14"]) / (2 * m["E12"]))


def test_summary_json_round_trip(tmp_path):
    s = summarize(np.linspace(0.0, 0.6, 7))
    record = TrajectoryRecord(features=np.zeros((2, 5)),
                              states=np.stack([all_zero_state(4)] * 2),
                              injected_values=np.zeros((2, 2)), washout_steps=0)
    profile = CapacityProfile(per_tau=np.zeros(1), lambda_per_tau=np.ones(1))
    cell = CellResult(js=0.5, f=2.0, seed_index=3, status="ok", capacity=profile,
                      entanglement=s, wall_time_s=0.0, train=record, test=record)
    write_run_outputs(ExperimentConfig(output_dir="unused"), cell, tmp_path)
    payload = json.loads((tmp_path / "entanglement.json").read_text())
    assert payload["J_s"] == 0.5
    assert payload["seed"] == 3
    assert payload["E1"] == 0.0
    assert payload["ratio_single"] == s["ratio_single"]
    assert set(SUMMARY_FIELDS) <= set(payload)
    assert payload["diff_pair"] == s["diff_pair"]
