import math

import numpy as np
import pytest

from spinqrc.dynamics import (
    DISSIPATOR_CONVENTIONS,
    SpinNetworkModel,
    build_hamiltonian,
    build_jump_operators,
    interval_propagator,
    liouvillian,
    random_model,
    sample_coupling_matrix,
    single_qubit_jump,
    stable_step_count,
)
from spinqrc.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    embed_single_qubit,
    hermitianize,
    kron_all,
)

from oracles import (
    kron_generator,
    lindblad_rhs,
    random_density_matrix,
    reference_interval_map,
    rk4_reference_step,
)

H_Z = 1.5


def zero_coupling_model(n_qubits=4, h_z=H_Z, gamma=0.01):
    return SpinNetworkModel(coupling=np.zeros((n_qubits, n_qubits)), h_z=h_z, gamma=gamma)


def operators(model, convention="paper"):
    """The Hamiltonian and jump operators of ``model``."""
    return build_hamiltonian(model), build_jump_operators(model, convention)


def generator(model):
    """The Liouvillian of ``model``."""
    return liouvillian(*operators(model))


def apply(m, rho):
    """The generator or propagator ``m`` acting on the matrix ``rho``."""
    d = rho.shape[0]
    return (m @ rho.reshape(-1)).reshape(d, d)


class TestSampleCouplingMatrix:
    def test_zero_width_gives_zero_matrix(self):
        assert not sample_coupling_matrix(0.0, 4, seed=3).any()

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="j_s must be nonnegative"):
            sample_coupling_matrix(-0.1, 4, seed=3)

    def test_bounds_and_symmetry(self):
        j = sample_coupling_matrix(1.0, 4, seed=5)
        assert np.array_equal(j, j.T)
        assert np.abs(np.diag(j)).max() == 0.0
        assert np.abs(j).max() <= 0.5

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(sample_coupling_matrix(2.0, 4, 11), sample_coupling_matrix(2.0, 4, 11))
        assert not np.array_equal(sample_coupling_matrix(2.0, 4, 11), sample_coupling_matrix(2.0, 4, 12))

    def test_same_seed_rescales_smoothly(self):
        a = sample_coupling_matrix(1.0, 4, 13)
        b = sample_coupling_matrix(2.0, 4, 13)
        assert np.allclose(2.0 * a, b, atol=1e-12)

    def test_empirical_mean_near_zero(self):
        # Monte Carlo check: 1e5 draws of the 6 off-diagonal entries.
        entries = []
        for seed in range(100):
            j = sample_coupling_matrix(1.0, 20, (99, seed))
            entries.append(j[np.triu_indices(20, 1)])
        entries = np.concatenate(entries)
        assert len(entries) >= 1e4
        stderr = entries.std() / math.sqrt(len(entries))
        assert abs(entries.mean()) <= 3 * stderr + 1e-12


class TestBuildHamiltonian:
    def test_decoupled_field_spectrum(self):
        h = build_hamiltonian(zero_coupling_model())
        eigs = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort([0.75 * (4 - 2 * bin(b).count("1")) for b in range(16)])
        assert np.allclose(eigs, expected, atol=1e-12)
        counts = {v: int(np.isclose(eigs, v).sum()) for v in (-3.0, -1.5, 0.0, 1.5, 3.0)}
        assert counts == {-3.0: 1, -1.5: 4, 0.0: 6, 1.5: 4, 3.0: 1}

    def test_two_qubit_xx(self):
        coupling = np.array([[0.0, 2.0], [2.0, 0.0]])
        model = SpinNetworkModel(coupling=coupling, h_z=0.0)
        h = build_hamiltonian(model)
        assert np.allclose(h, np.kron(PAULI_X, PAULI_X), atol=1e-14)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1, -1, 1, 1], atol=1e-12)

    def test_matches_term_embedding_oracle(self):
        # The same terms summed in the same order: equal entry for entry.
        model = random_model(3.0, seed=21)
        h = build_hamiltonian(model)
        oracle = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            oracle += (model.h_z / 2) * embed_single_qubit(PAULI_Z, i, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                term = kron_all(PAULI_X if q in (i, j) else PAULI_I for q in range(4))
                oracle += (model.coupling[i, j] / 2) * term
        assert np.array_equal(h, oracle)
        assert np.array_equal(build_hamiltonian(model), h)


class TestJumpOperators:
    def test_zero_rate_gives_zero_operators(self):
        ops = build_jump_operators(zero_coupling_model(gamma=0.0))
        assert all(not op.any() for op in ops)

    def test_single_qubit_block_literal_form(self):
        block = single_qubit_jump(0.01, "paper")
        assert np.allclose(block, np.array([[0.05, 0.05], [-0.05, -0.05]]), atol=1e-15)

    def test_sigma_minus_variant(self):
        block = single_qubit_jump(0.04, "sigma_minus")
        assert np.allclose(block, np.array([[0.0, 0.2], [0.0, 0.0]]), atol=1e-15)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            single_qubit_jump(0.01, "bogus")

    def test_embedding_matches_kron_oracle(self):
        model = zero_coupling_model()
        ops = build_jump_operators(model)
        block = single_qubit_jump(model.gamma, "paper")
        oracle = np.kron(np.eye(4), np.kron(block, np.eye(2)))
        assert np.allclose(ops[2], oracle, atol=1e-15)
        assert len(ops) == 4


class TestLindbladRhs:
    """The right-hand side as the Liouvillian acting on vec(rho)."""

    def test_zero_generator(self):
        m = liouvillian(np.zeros((4, 4), dtype=complex), [])
        rho = random_density_matrix(np.random.default_rng(1), 4)
        assert np.abs(apply(m, rho)).max() == 0.0

    def test_traceless_and_hermitian_for_random_systems(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            out = apply(generator(random_model(2.0, seed=seed)), random_density_matrix(rng, 16))
            assert abs(np.trace(out)) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_matches_the_commutator_form(self):
        rng = np.random.default_rng(5)
        for convention in DISSIPATOR_CONVENTIONS:
            for seed in range(5):
                h, jump_ops = operators(random_model(3.0, seed=seed), convention)
                rho = random_density_matrix(rng, 16)
                assert np.allclose(apply(liouvillian(h, jump_ops), rho),
                                   lindblad_rhs(rho, h, jump_ops), rtol=0, atol=1e-14)

    def test_closed_form_single_qubit_coherence(self):
        rho = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
        out = apply(generator(zero_coupling_model(n_qubits=1, gamma=0.0)), rho)
        # d rho01 / dt = -i h_z rho01 under H = (h_z/2) Z
        assert out[0, 1] == pytest.approx(-1j * H_Z * rho[0, 1], abs=1e-14)


def plus_state():
    return 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def propagate(rho, model, dt, n_steps):
    """rho after n_steps RK4 steps of length dt, as one interval propagator."""
    return apply(interval_propagator(generator(model), dt, n_steps), rho)


class TestRk4Step:
    """The RK4 step map that ``interval_propagator`` composes."""

    def test_zero_generator_is_identity(self):
        m = liouvillian(np.zeros((2, 2), dtype=complex), [])
        assert np.array_equal(interval_propagator(m, 0.025, 7), np.eye(4))

    def test_matches_textbook_four_stage_update(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            model = random_model(4.0, seed=seed)
            rho = random_density_matrix(rng, 16)
            assert np.allclose(hermitianize(propagate(rho, model, 0.025, 1)),
                               rk4_reference_step(rho, *operators(model), 0.025), atol=1e-13)

    @pytest.mark.parametrize("js", [0.0, 0.005, 0.325, 6.0, 75.0])
    def test_equals_the_identity_started_taylor_sum(self, js):
        # Reference: the Taylor terms built from the identity, term = I, then
        # term = (dt / order) (term @ M) for orders 1..4.
        m = generator(random_model(js, seed=(1, 0)))
        step = np.eye(len(m), dtype=complex)
        term = np.eye(len(m), dtype=complex)
        for order in range(1, 5):
            term = (0.025 / order) * (term @ m)
            step = step + term
        for n_steps in (1, 300):
            assert np.array_equal(interval_propagator(m, 0.025, n_steps),
                                  np.linalg.matrix_power(step, n_steps))

    def test_unitary_precession_returns_after_one_period(self):
        model = zero_coupling_model(n_qubits=1, gamma=0.0)
        period = 2 * math.pi / H_Z
        n = math.ceil(period / 0.01)
        rho = propagate(plus_state(), model, period / n, n)
        assert np.abs(rho - plus_state()).max() <= 1e-8

    def test_trace_drift_per_step(self):
        rho = random_density_matrix(np.random.default_rng(4), 16)
        out = propagate(rho, random_model(5.0, seed=9), 0.025, 1)
        assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-12

    def test_fourth_order_convergence(self):
        # Error vs the analytic solution drops ~16x when dt halves.
        model = zero_coupling_model(n_qubits=1, gamma=0.0)

        def end_error(n_steps):
            rho = propagate(plus_state(), model, 1.0 / n_steps, n_steps)
            expected = 0.5 * np.array([[1.0, np.exp(-1j * H_Z)],
                                       [np.exp(1j * H_Z), 1.0]])
            return np.abs(rho - expected).max()

        ratio = end_error(50) / end_error(100)
        assert 8.0 <= ratio <= 32.0


class TestEvolve:
    """Long evolutions as one interval propagator."""

    def test_dissipative_self_convergence(self):
        # The (Z + iY)/2 jump operator has no textbook closed form; compare
        # against a 10x finer integration of the same problem.
        model = SpinNetworkModel(coupling=np.zeros((1, 1)), h_z=0.0, gamma=0.01)
        rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        coarse = propagate(rho0, model, 0.025, 2000)
        fine = propagate(rho0, model, 0.0025, 20000)
        assert np.abs(coarse - fine).max() <= 1e-8

    def test_trace_and_hermiticity_over_long_run(self):
        rho = random_density_matrix(np.random.default_rng(7), 16)
        rho = propagate(rho, random_model(5.0, seed=17), 0.025, 3000)
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.abs(rho - rho.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(rho)[0] >= -1e-7


class TestStableStepCount:
    def test_default_grid_unchanged_at_moderate_coupling(self):
        assert stable_step_count(*operators(random_model(6.0, seed=0)), 7.5, 0.025) == 300

    def test_strong_coupling_gets_refined(self):
        h, jump_ops = operators(random_model(75.0, seed=0))
        n = stable_step_count(h, jump_ops, 7.5, 0.025)
        assert n > 300
        # Refined step keeps |lambda| * dt inside the stability margin.
        eigs = np.linalg.eigvalsh(h)
        assert (eigs[-1] - eigs[0]) * (7.5 / n) <= 0.9 + 1e-9

    def test_strong_coupling_long_run_stays_physical(self):
        model = random_model(75.0, seed=4)
        n = stable_step_count(*operators(model), 7.5, 0.025)
        propagator = interval_propagator(generator(model), 7.5 / n, n)
        rho = random_density_matrix(np.random.default_rng(8), 16)
        for _ in range(20):
            rho = hermitianize(apply(propagator, rho))
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(rho)[0] >= -1e-7


class TestReferenceConstruction:
    """The generator and interval propagator equal, byte for byte, the
    eight-``np.kron`` generator and the step-by-step reference assembly."""

    @pytest.mark.parametrize("convention", DISSIPATOR_CONVENTIONS)
    @pytest.mark.parametrize("js", [0.0, 0.005, 0.325, 6.0, 75.0])
    def test_generator_equals_the_kron_terms(self, js, convention):
        h, jump_ops = operators(random_model(js, seed=(1, 0)), convention)
        assert np.array_equal(hermitianize(h), h)
        assert np.array_equal(liouvillian(h, jump_ops), kron_generator(h, jump_ops))

    @pytest.mark.parametrize("convention", DISSIPATOR_CONVENTIONS)
    @pytest.mark.parametrize("js", [0.0, 0.005, 0.325, 6.0, 75.0])
    def test_propagator_bytes_equal_the_reference(self, js, convention):
        model = random_model(js, seed=(1, 0))
        h, jump_ops = operators(model, convention)
        n = stable_step_count(h, jump_ops, 7.5, 0.025)
        got = interval_propagator(liouvillian(h, jump_ops), 7.5 / n, n)
        assert got.tobytes() == reference_interval_map(model, 7.5, 0.025, convention).tobytes()


class TestDecoupledNetwork:
    def test_zero_coupling_expectations_factorize(self):
        # With J_s = 0 every multi-qubit expectation factorizes.
        model = zero_coupling_model()
        rng = np.random.default_rng(9)
        from oracles import random_pure_product_state

        rho = random_pure_product_state(rng, 4)
        rho = propagate(rho, model, 0.025, 1200)
        # <Z_i> and <Z_0 Z_2> read off the diagonal, as the run loop reads them.
        z0, z2 = (embed_single_qubit(PAULI_Z, i, 4).diagonal().real for i in (0, 2))
        p = rho.diagonal().real
        assert p @ (z0 * z2) == pytest.approx((p @ z0) * (p @ z2), abs=1e-8)


class TestModelValidation:
    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_non_square_coupling_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            SpinNetworkModel(coupling=np.zeros(shape))

    def test_asymmetric_coupling_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            SpinNetworkModel(coupling=bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SpinNetworkModel(coupling=bad)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            SpinNetworkModel(coupling=np.zeros((2, 2)), gamma=-0.1)
