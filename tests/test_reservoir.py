import tracemalloc

import numpy as np
import pytest

from spinqrc.dynamics import (
    SpinNetworkModel,
    build_hamiltonian,
    build_jump_operators,
    interval_propagator,
    liouvillian,
    random_model,
    stable_step_count,
)
from spinqrc.entanglement import PARTITION_LABELS, PARTITIONS, negativities
from spinqrc.experiments import ExperimentConfig
from spinqrc.linalg import PAULI_Z, embed_single_qubit, hermitianize, kron
from spinqrc.reservoir import (
    DELTA_T,
    DT,
    all_zero_state,
    interval_map,
    run_reservoir,
    sample_index,
    samples_needed,
)
from spinqrc.signals import make_input_sequence

from oracles import (
    encoded_state,
    inject_oracle,
    log_negativity_oracle,
    partial_trace_oracle,
    random_density_matrix,
    rk4_reference_step,
)


def constant_sequence(value, n=1000):
    return np.full(n, float(value))


class TestInject:
    """The run loop's input reset, as ``states[1]`` of ``reset_run``."""

    def test_reinjecting_same_state_is_identity(self, reset_run):
        rho = all_zero_state(4)
        assert np.allclose(reset_run(rho, 0.0, 0.0).states[1], rho, atol=1e-15)

    def test_input_marginal_is_exact_product(self, reset_run):
        rng = np.random.default_rng(1)
        out = reset_run(random_density_matrix(rng, 16), 0.3, 0.8).states[1]
        marginal = partial_trace_oracle(out, {2, 3}, 4)
        want = kron(encoded_state(0.3), encoded_state(0.8))
        assert np.allclose(marginal, want, atol=1e-12)

    def test_rest_marginal_preserved_exactly(self, reset_run):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng, 16)
        before = partial_trace_oracle(rho, {0, 1}, 4)
        after = partial_trace_oracle(reset_run(rho, 0.6, 0.1).states[1], {0, 1}, 4)
        assert np.allclose(before, after, atol=1e-13)

    def test_input_pair_unentangled_after_reset(self, reset_run):
        # Qubits 0 and 1 come out pure and in a product with the rest, so no
        # cut around either of them, or around the pair, is entangled.
        rng = np.random.default_rng(3)
        out = reset_run(random_density_matrix(rng, 16), 0.25, 0.75).states[1]
        negs = dict(zip(PARTITION_LABELS, negativities(out[None])[0]))
        for lbl in ("E1", "E2", "E12"):
            assert abs(negs[lbl]) <= 1e-10

    def test_z_readout_after_injection(self, reset_run):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 16)
        for s1, s2 in ((0.0, 1.0), (0.37, 0.62)):
            z = reset_run(rho, s1, s2).features[1]
            assert z[0] == pytest.approx(1 - 2 * s1, abs=1e-12)
            assert z[1] == pytest.approx(1 - 2 * s2, abs=1e-12)

    def test_state_stays_physical(self, reset_run):
        rng = np.random.default_rng(6)
        out = reset_run(random_density_matrix(rng, 16), 0.4, 0.5).states[1]
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-13
        assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestRunReservoir:
    def test_decoupled_undriven_network_stays_polarized(self):
        model = SpinNetworkModel(coupling=np.zeros((4, 4)), gamma=0.0)
        seq = constant_sequence(0.0)
        rec = run_reservoir(interval_map(model), [(seq, seq)], 12, 0)[0]
        assert np.allclose(rec.features[:, 0], 1.0, atol=1e-10)
        assert np.allclose(rec.features[:, 1], 1.0, atol=1e-10)
        assert np.allclose(rec.features[:, 4], 1.0)

    def test_zero_coupling_has_no_entanglement(self):
        model = SpinNetworkModel(coupling=np.zeros((4, 4)))
        s1 = make_input_sequence(2.0, 0, (5, 0))
        s2 = make_input_sequence(2.0, 1, (5, 0))
        rec = run_reservoir(interval_map(model), [(s1, s2)], 20, 0)[0]
        assert rec.entanglement_samples.max() <= 1e-8

    def test_matches_hand_driven_composition(self):
        # Compositional oracle: the run loop equals an explicit
        # measure / inject / evolve sequence built from per-state references,
        # each interval evolved by textbook four-stage RK4 steps.
        model = random_model(0.8, seed=(3, 0))
        s1 = make_input_sequence(2.0, 0, (12, 0))
        s2 = make_input_sequence(2.0, 1, (12, 0))
        rec = run_reservoir(interval_map(model), [(s1, s2)], 10, 0)[0]

        h, jump_ops = build_hamiltonian(model), build_jump_operators(model)
        n_sub = stable_step_count(h, jump_ops, DELTA_T, DT)
        z_ops = [embed_single_qubit(PAULI_Z, i, 4) for i in range(4)]
        rho = all_zero_state(4)
        for k in range(10):
            feats = [np.trace(rho @ z).real for z in z_ops] + [1.0]
            assert np.allclose(rec.features[k], feats, atol=1e-10)
            negs = [max(log_negativity_oracle(rho, PARTITIONS[lbl]), 0.0)
                    for lbl in PARTITION_LABELS]
            assert np.allclose(rec.entanglement_samples[k], negs, atol=1e-10)
            idx = sample_index(k)
            assert np.allclose(rec.injected_values[k],
                               [s1[idx], s2[idx]], atol=0)
            rho = inject_oracle(rho, float(s1[idx]), float(s2[idx]))
            for _ in range(n_sub):
                rho = rk4_reference_step(rho, h, jump_ops, DELTA_T / n_sub)

    def test_run_steps_hands_each_state_on(self):
        # states[k + 1] is hermitianize(raw[k]); without keep_raw the states,
        # injected values and features are the same and raw is None.
        model = random_model(0.8, seed=(3, 0))
        s1 = make_input_sequence(2.0, 0, (12, 0))
        s2 = make_input_sequence(2.0, 1, (12, 0))
        propagator = interval_map(model)
        (run,) = run_reservoir(propagator, [(s1, s2)], 6, 0, keep_raw=True)
        states, raw = run.states, run.raw
        assert states.shape == raw.shape == (6, 16, 16)
        assert np.array_equal(states[0], all_zero_state(4))
        assert np.array_equal(hermitianize(raw[:-1]), states[1:])
        (plain,) = run_reservoir(propagator, [(s1, s2)], 6, 0)
        assert plain.raw is None
        assert np.array_equal(plain.states, states)
        assert np.array_equal(plain.injected_values, run.injected_values)
        assert np.array_equal(plain.features, run.features)

    @pytest.mark.parametrize("js, mixed_start", [(0.0, False), (0.005, False), (0.325, False),
                                                 (75.0, False), (0.325, True)])
    def test_run_steps_equals_the_inject_loop_bit_for_bit(self, js, mixed_start):
        # Over a full-length run, every state and raw state equals the
        # per-step reference hermitianize(P @ inject_oracle(rho, s1, s2))
        # exactly.
        cfg = ExperimentConfig()
        propagator = interval_map(random_model(js, seed=(1, 3)))
        s1 = make_input_sequence(2.0, 0, (1, 3))
        s2 = make_input_sequence(2.0, 1, (1, 3))
        rho = np.eye(16, dtype=complex) / 16 if mixed_start else all_zero_state(4)
        (run,) = run_reservoir(propagator, [(s1, s2)], cfg.n_steps, cfg.washout_steps,
                               initial_state=rho, keep_raw=True)
        states, injected, raw = run.states, run.injected_values, run.raw
        assert states.shape == (366, 16, 16)
        for k in range(cfg.n_steps):
            assert np.array_equal(states[k], rho)
            idx = sample_index(k)
            assert injected[k].tolist() == [s1[idx], s2[idx]]
            raw_k = (propagator @ inject_oracle(rho, s1[idx], s2[idx]).reshape(-1)).reshape(16, 16)
            assert np.array_equal(raw[k], raw_k)
            rho = hermitianize(raw_k)

    @pytest.mark.parametrize("js", [0.005, 75.0])
    @pytest.mark.parametrize("mixed_start", [False, True])
    def test_runs_stepped_together_equal_runs_stepped_alone(self, js, mixed_start):
        # One call over three pairs, the shape of a holdout cell, gives each
        # run the states, raw states, injected values and features of a
        # one-pair call bit for bit, with raw states kept or not.
        cfg = ExperimentConfig()
        propagator = interval_map(random_model(js, seed=(1, 3)))
        seqs = [make_input_sequence(2.0, q, (1, 3)) for q in range(6)]
        pairs = [seqs[0:2], seqs[2:4], seqs[4:6]]
        rho = np.eye(16, dtype=complex) / 16 if mixed_start else None
        run = (cfg.n_steps, cfg.washout_steps)
        kept = run_reservoir(propagator, pairs, *run, initial_state=rho, keep_raw=True)
        records = run_reservoir(propagator, pairs, *run, initial_state=rho)
        assert len(kept) == len(records) == 3
        assert all(rec.states.shape == rec.raw.shape == (366, 16, 16) for rec in kept)
        for r, pair in enumerate(pairs):
            alone, = run_reservoir(propagator, [pair], *run, initial_state=rho, keep_raw=True)
            assert kept[r].states.tobytes() == alone.states.tobytes()
            assert kept[r].raw.tobytes() == alone.raw.tobytes()
            assert kept[r].injected_values.tobytes() == alone.injected_values.tobytes()
            assert kept[r].features.tobytes() == alone.features.tobytes()
            alone, = run_reservoir(propagator, [pair], *run, initial_state=rho)
            assert records[r].states.tobytes() == alone.states.tobytes()
            assert records[r].features.tobytes() == alone.features.tobytes()
            assert records[r].injected_values.tobytes() == alone.injected_values.tobytes()

    @pytest.mark.parametrize("js", [0.0, 0.005, 0.325, 6.0, 75.0])
    def test_diagonal_features_equal_the_z_einsum(self, js):
        # Over a full-length run, the <Z_i> read off the state diagonals
        # equal the real part of the stacked Tr(rho Z_i) einsum byte for
        # byte, and that trace has no imaginary part.
        cfg = ExperimentConfig()
        s1 = make_input_sequence(2.0, 0, (1, 3))
        s2 = make_input_sequence(2.0, 1, (1, 3))
        rec = run_reservoir(interval_map(random_model(js, seed=(1, 3))), [(s1, s2)],
                            cfg.n_steps, cfg.washout_steps)[0]
        z_ops = np.stack([embed_single_qubit(PAULI_Z, i, 4) for i in range(4)])
        z = np.einsum("kij,nji->kn", rec.states, z_ops)
        assert rec.features[:, :4].tobytes() == np.ascontiguousarray(z.real).tobytes()
        assert not z.imag.any()

    def test_observables_equal_the_per_state_references(self):
        # The diagonal features and stacked negativities reproduce the per-state
        # Tr(rho Z_i) and log negativity of every state of the run bit for bit.
        model = random_model(2.5, seed=(4, 0))
        s1 = make_input_sequence(2.0, 0, (21, 0))
        s2 = make_input_sequence(2.0, 1, (21, 0))
        propagator = interval_map(model)
        rec = run_reservoir(propagator, [(s1, s2)], 140, 0)[0]
        z_ops = [embed_single_qubit(PAULI_Z, i, 4) for i in range(4)]
        for k, rho in enumerate(rec.states):
            assert rec.features[k].tolist() == [
                np.einsum("ij,ji->", rho, z).real for z in z_ops] + [1.0]
            assert rec.entanglement_samples[k].tolist() == [
                max(log_negativity_oracle(rho, PARTITIONS[lbl]), 0.0) for lbl in PARTITION_LABELS]
        assert rec.entanglement_samples.max() > 0.0

    @pytest.mark.parametrize("washout", [0, 50, 139])
    def test_negativities_are_computed_once_on_first_read(self, washout, negativity_calls):
        # The record keeps its states; steady_entanglement eigensolves the
        # post-washout ones and entanglement_samples adds only the washout
        # head, with the numbers of one negativities call over every state.
        model = random_model(2.5, seed=(4, 0))
        s1 = make_input_sequence(2.0, 0, (21, 0))
        s2 = make_input_sequence(2.0, 1, (21, 0))
        rec = run_reservoir(interval_map(model), [(s1, s2)], 140, washout)[0]
        assert negativity_calls == []
        assert rec.states.shape == (140, 16, 16)
        steady = rec.steady_entanglement
        assert negativity_calls == [140 - washout]
        samples = rec.entanglement_samples
        assert rec.steady_entanglement is steady and rec.entanglement_samples is samples
        assert sum(negativity_calls) == 140
        want = np.maximum(negativities(rec.states), 0.0)
        assert samples.tobytes() == want.tobytes()
        assert steady.tobytes() == want[washout:].tobytes()

    def test_interval_map_is_the_4_qubit_interval_propagator(self):
        model = random_model(0.8, seed=(3, 0))
        h, jump_ops = build_hamiltonian(model), build_jump_operators(model)
        n_sub = stable_step_count(h, jump_ops, DELTA_T, DT)
        assert np.array_equal(interval_map(model),
                              interval_propagator(liouvillian(h, jump_ops),
                                                  DELTA_T / n_sub, n_sub))
        with pytest.raises(ValueError, match="n_qubits must be 4"):
            interval_map(SpinNetworkModel(coupling=np.zeros((3, 3))))

    def test_determinism(self):
        model = random_model(1.0, seed=(1, 0))
        s1 = make_input_sequence(2.0, 0, (9, 0))
        s2 = make_input_sequence(2.0, 1, (9, 0))
        a = run_reservoir(interval_map(model), [(s1, s2)], 8, 0)[0]
        b = run_reservoir(interval_map(model), [(s1, s2)], 8, 0)[0]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.entanglement_samples, b.entanglement_samples)

    def test_echo_state_convergence(self):
        # Runs started from all-|0> and from the maximally mixed state agree
        # after the washout.
        model = random_model(8.0, seed=(2, 0))
        s1 = make_input_sequence(2.0, 0, (4, 0))
        s2 = make_input_sequence(2.0, 1, (4, 0))
        propagator = interval_map(model)
        a = run_reservoir(propagator, [(s1, s2)], 80, 50)[0]
        b, = run_reservoir(propagator, [(s1, s2)], 80, 50,
                           initial_state=np.eye(16, dtype=complex) / 16)
        diff = np.abs(a.features[50:] - b.features[50:]).max()
        assert diff < 1e-3

    def test_feature_bounds_and_shapes(self):
        model = random_model(2.0, seed=(7, 0))
        s1 = make_input_sequence(1.0, 0, (44, 0))
        s2 = make_input_sequence(1.0, 1, (44, 0))
        rec = run_reservoir(interval_map(model), [(s1, s2)], 15, 3)[0]
        assert rec.features.shape == (15, 5)
        assert rec.entanglement_samples.shape == (15, 7)
        assert rec.injected_values.shape == (15, 2)
        assert rec.washout_steps == 3
        assert np.abs(rec.features[:, :4]).max() <= 1.0 + 1e-9
        assert rec.entanglement_samples.min() >= 0.0

    def test_sequence_too_short_rejected(self):
        model = random_model(1.0, seed=(0, 0))
        short = constant_sequence(0.5, n=100)
        with pytest.raises(ValueError, match="samples"):
            run_reservoir(interval_map(model), [(short, short)], 366, 50)

    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01])
    def test_input_outside_unit_interval_rejected(self, bad):
        model = random_model(1.0, seed=(0, 0))
        s1 = constant_sequence(0.5)
        s2 = constant_sequence(0.5)
        s2[sample_index(4)] = bad
        with pytest.raises(ValueError, match=r"input value .* outside \[0, 1\]"):
            run_reservoir(interval_map(model), [(s1, s2)], 6, 0)

    def test_bad_initial_state_rejected(self):
        model = random_model(1.0, seed=(0, 0))
        seq = constant_sequence(0.5)
        propagator = interval_map(model)
        with pytest.raises(ValueError, match="initial state has shape"):
            run_reservoir(propagator, [(seq, seq)], 6, 0, initial_state=np.eye(4) / 4)
        # A non-finite state fails the Hermiticity check, not later in LAPACK.
        with pytest.raises(ValueError, match="not Hermitian"):
            run_reservoir(propagator, [(seq, seq)], 6, 0, initial_state=np.full((16, 16), np.nan))

    def test_non_hermitian_initial_state_rejected(self):
        # A real diagonal gives real <Z_i>, so only the entry check catches
        # an off-diagonal entry without its conjugate partner.
        seq = constant_sequence(0.5)
        rho = all_zero_state(4)
        rho[0, 5] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            run_reservoir(interval_map(random_model(1.0, seed=(0, 0))), [(seq, seq)], 6, 0,
                          initial_state=rho)

    def test_sample_consumption_rule(self):
        cfg = ExperimentConfig()
        # With the default spacing 2.75, injection k reads the sample nearest
        # simulation time 7.5 k; a full run fits inside 1000 samples.
        assert sample_index(0) == 0
        assert sample_index(1) == 3
        assert sample_index(2) == 5
        assert sample_index(cfg.n_steps - 1) <= 999
        assert samples_needed(cfg.n_steps) == sample_index(cfg.n_steps - 1) + 1


def test_interval_map_holds_at_most_four_propagator_sized_matrices():
    # Each 256 x 256 complex matrix is 1 MiB. Building the RK4 step holds
    # the generator, the step, a term and the next term; the squarings hold
    # the step and three products. The parent build peaked at 5.02 MiB.
    model = random_model(0.325, seed=(1, 0))
    interval_map(model)  # the register's cached Pauli strings
    tracemalloc.start()
    try:
        interval_map(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


class TestRunLength:
    def test_default_step_count(self):
        assert ExperimentConfig().n_steps == 366

    def test_rejects_washout_longer_than_run(self):
        # A negative washout is refused, and at least one step must follow it.
        seq = constant_sequence(0.5)
        for n_steps, washout_steps in ((10, -1), (10, 10), (10, 50), (0, 0)):
            with pytest.raises(ValueError, match="0 <= washout_steps < n_steps"):
                run_reservoir(np.eye(256), [(seq, seq)], n_steps, washout_steps)
