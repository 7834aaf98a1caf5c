import numpy as np
import pytest

from spinqrc.dynamics import SpinNetworkModel, build_lindblad_system, random_model, stable_step_count
from spinqrc.entanglement import PARTITION_LABELS, PARTITIONS, log_negativity
from spinqrc.linalg import (
    PAULI_Z,
    QubitPartition,
    embed_single_qubit,
    expectation,
    hermitianize,
    kron,
    partial_trace,
)
from spinqrc.reservoir import (
    RunConfig,
    all_zero_state,
    inject,
    interval_map,
    run_reservoir,
    run_steps,
    write_trajectory_csv,
)
from spinqrc.signals import encode_input_state, make_input_sequence

from oracles import random_density_matrix, rk4_reference_step


def constant_sequence(value, n=1000):
    return np.full(n, float(value))


def short_cfg(n_steps=10, washout=0):
    return RunConfig(t_final=n_steps * 7.5, delta_t=7.5, dt=0.025, washout_steps=washout)


class TestInject:
    def test_reinjecting_same_state_is_identity(self):
        rho = all_zero_state(4)
        assert np.allclose(inject(rho, 0.0, 0.0), rho, atol=1e-15)

    def test_input_marginal_is_exact_product(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(rng, 16)
        out = inject(rho, 0.3, 0.8)
        marginal = partial_trace(out, traced={2, 3}, n_qubits=4)
        expected = kron(encode_input_state(0.3), encode_input_state(0.8))
        assert np.allclose(marginal, expected, atol=1e-12)

    def test_rest_marginal_preserved_exactly(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng, 16)
        before = partial_trace(rho, traced={0, 1}, n_qubits=4)
        after = partial_trace(inject(rho, 0.6, 0.1), traced={0, 1}, n_qubits=4)
        assert np.allclose(before, after, atol=1e-13)

    def test_input_pair_unentangled_after_reset(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, 16)
        out = inject(rho, 0.25, 0.75)
        pair = partial_trace(out, traced={2, 3}, n_qubits=4)
        e = log_negativity(pair, QubitPartition(frozenset({0}), 2), clamp=False)
        assert abs(e) <= 1e-10

    def test_z_readout_after_injection(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 16)
        for s1, s2 in ((0.0, 1.0), (0.37, 0.62)):
            out = inject(rho, s1, s2)
            z0 = embed_single_qubit(PAULI_Z, 0, 4)
            z1 = embed_single_qubit(PAULI_Z, 1, 4)
            assert expectation(out, z0) == pytest.approx(1 - 2 * s1, abs=1e-12)
            assert expectation(out, z1) == pytest.approx(1 - 2 * s2, abs=1e-12)

    def test_state_stays_physical(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, 16)
        out = inject(rho, 0.4, 0.5)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-13
        assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestRunReservoir:
    def test_decoupled_undriven_network_stays_polarized(self):
        model = SpinNetworkModel(coupling=np.zeros((4, 4)), gamma=0.0)
        cfg = short_cfg(n_steps=12)
        seq = constant_sequence(0.0)
        rec = run_reservoir(interval_map(model, cfg), seq, seq, cfg)
        assert np.allclose(rec.features[:, 0], 1.0, atol=1e-10)
        assert np.allclose(rec.features[:, 1], 1.0, atol=1e-10)
        assert np.allclose(rec.features[:, 4], 1.0)

    def test_zero_coupling_has_no_entanglement(self):
        model = SpinNetworkModel(coupling=np.zeros((4, 4)))
        cfg = short_cfg(n_steps=20)
        s1 = make_input_sequence(2.0, 0, 5)
        s2 = make_input_sequence(2.0, 1, 5)
        rec = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
        assert rec.entanglement_samples.max() <= 1e-8

    def test_matches_hand_driven_composition(self):
        # Compositional oracle: the run loop equals an explicit
        # measure / inject / evolve sequence built from the public pieces,
        # each interval evolved by textbook four-stage RK4 steps.
        model = random_model(0.8, seed=3)
        cfg = short_cfg(n_steps=10)
        s1 = make_input_sequence(2.0, 0, 12)
        s2 = make_input_sequence(2.0, 1, 12)
        rec = run_reservoir(interval_map(model, cfg), s1, s2, cfg)

        sys = build_lindblad_system(model)
        n_sub = stable_step_count(sys, cfg.delta_t, cfg.dt)
        z_ops = [embed_single_qubit(PAULI_Z, i, 4) for i in range(4)]
        rho = all_zero_state(4)
        for k in range(10):
            feats = [expectation(rho, z) for z in z_ops] + [1.0]
            assert np.allclose(rec.features[k], feats, atol=1e-10)
            negs = [log_negativity(rho, PARTITIONS[lbl]) for lbl in PARTITION_LABELS]
            assert np.allclose(rec.entanglement_samples[k], negs, atol=1e-10)
            idx = cfg.sample_index(k)
            assert np.allclose(rec.injected_values[k],
                               [s1[idx], s2[idx]], atol=0)
            rho = inject(rho, float(s1[idx]), float(s2[idx]))
            for _ in range(n_sub):
                rho = rk4_reference_step(rho, sys, cfg.delta_t / n_sub)

    def test_run_steps_hands_each_state_on(self):
        # Step k yields hermitianize(raw_next), and that is step k+1's state.
        model = random_model(0.8, seed=3)
        cfg = short_cfg(n_steps=6)
        s1 = make_input_sequence(2.0, 0, 12)
        s2 = make_input_sequence(2.0, 1, 12)
        steps = list(run_steps(interval_map(model, cfg), s1, s2, cfg))
        assert len(steps) == 6
        assert np.array_equal(steps[0][0], all_zero_state(4))
        for (_, _, raw, rho_next), (rho_k, _, _, _) in zip(steps, steps[1:]):
            assert np.array_equal(hermitianize(raw), rho_next)
            assert np.array_equal(rho_next, rho_k)
        rec = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
        assert np.array_equal([pair for _, pair, _, _ in steps], rec.injected_values)

    def test_observables_equal_the_per_state_references(self):
        # The stacked einsum and negativities reproduce the per-state
        # expectation and log_negativity of every run_steps state bit for bit.
        model = random_model(2.5, seed=4)
        cfg = short_cfg(n_steps=140)
        s1 = make_input_sequence(2.0, 0, 21)
        s2 = make_input_sequence(2.0, 1, 21)
        propagator = interval_map(model, cfg)
        rec = run_reservoir(propagator, s1, s2, cfg)
        z_ops = [embed_single_qubit(PAULI_Z, i, 4) for i in range(4)]
        for k, (rho, _, _, _) in enumerate(run_steps(propagator, s1, s2, cfg)):
            assert rec.features[k].tolist() == [expectation(rho, z) for z in z_ops] + [1.0]
            assert rec.entanglement_samples[k].tolist() == [
                log_negativity(rho, PARTITIONS[lbl]) for lbl in PARTITION_LABELS]
        assert rec.entanglement_samples.max() > 0.0

    def test_interval_map_is_the_4_qubit_interval_propagator(self):
        model = random_model(0.8, seed=3)
        cfg = short_cfg()
        sys = build_lindblad_system(model)
        n_sub = stable_step_count(sys, cfg.delta_t, cfg.dt)
        assert np.array_equal(interval_map(model, cfg),
                              sys.interval_propagator(cfg.delta_t / n_sub, n_sub))
        with pytest.raises(ValueError, match="n_qubits must be 4"):
            interval_map(SpinNetworkModel(coupling=np.zeros((3, 3)), n_qubits=3), cfg)

    def test_determinism(self):
        model = random_model(1.0, seed=1)
        cfg = short_cfg(n_steps=8)
        s1 = make_input_sequence(2.0, 0, 9)
        s2 = make_input_sequence(2.0, 1, 9)
        a = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
        b = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.entanglement_samples, b.entanglement_samples)

    def test_echo_state_convergence(self):
        # Runs started from all-|0> and from the maximally mixed state agree
        # after the washout.
        model = random_model(8.0, seed=2)
        cfg = RunConfig(t_final=80 * 7.5, delta_t=7.5, dt=0.025, washout_steps=50)
        s1 = make_input_sequence(2.0, 0, 4)
        s2 = make_input_sequence(2.0, 1, 4)
        propagator = interval_map(model, cfg)
        a = run_reservoir(propagator, s1, s2, cfg)
        b = run_reservoir(propagator, s1, s2, cfg, initial_state=np.eye(16, dtype=complex) / 16)
        diff = np.abs(a.features[cfg.washout_steps:] - b.features[cfg.washout_steps:]).max()
        assert diff < 1e-3

    def test_feature_bounds_and_shapes(self):
        model = random_model(2.0, seed=7)
        cfg = short_cfg(n_steps=15, washout=3)
        s1 = make_input_sequence(1.0, 0, 44)
        s2 = make_input_sequence(1.0, 1, 44)
        rec = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
        assert rec.features.shape == (15, 5)
        assert rec.entanglement_samples.shape == (15, 7)
        assert rec.injected_values.shape == (15, 2)
        assert rec.washout_steps == 3
        assert np.abs(rec.features[:, :4]).max() <= 1.0 + 1e-9
        assert rec.entanglement_samples.min() >= 0.0

    def test_sequence_too_short_rejected(self):
        model = random_model(1.0, seed=0)
        cfg = RunConfig(t_final=2750.0)
        short = constant_sequence(0.5, n=100)
        with pytest.raises(ValueError, match="samples"):
            run_reservoir(interval_map(model, cfg), short, short, cfg)

    def test_sample_consumption_rule(self):
        cfg = RunConfig()
        # With the default spacing 2.75, injection k reads the sample nearest
        # simulation time 7.5 k; a full run fits inside 1000 samples.
        assert cfg.sample_index(0) == 0
        assert cfg.sample_index(1) == 3
        assert cfg.sample_index(2) == 5
        assert cfg.sample_index(cfg.n_steps - 1) <= 999


class TestRunConfig:
    def test_default_step_count(self):
        assert RunConfig().n_steps == 366

    def test_rejects_washout_longer_than_run(self):
        with pytest.raises(ValueError):
            RunConfig(t_final=75.0, washout_steps=50)


def test_trajectory_csv_round_trip(tmp_path):
    model = random_model(0.5, seed=9)
    cfg = short_cfg(n_steps=6)
    s1 = make_input_sequence(2.0, 0, 3)
    s2 = make_input_sequence(2.0, 1, 3)
    rec = run_reservoir(interval_map(model, cfg), s1, s2, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path)
    header = ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4", *PARTITION_LABELS]
    assert path.read_text().splitlines()[0].split(",") == header
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], np.arange(rec.n_steps))
    assert np.array_equal(data[:, 1:3], rec.injected_values)
    assert np.array_equal(data[:, 3:7], rec.features[:, :4])
    assert np.array_equal(data[:, 7:], rec.entanglement_samples)
