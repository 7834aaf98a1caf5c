import numpy as np
import pytest

from spinqrc.entanglement import PARTITION_LABELS, PARTITIONS, PT_INDEX, negativities
from spinqrc.linalg import (
    PAULI_I,
    check_density_matrix,
    check_hermitian,
    embed_single_qubit,
    kron,
    kron_all,
)
from spinqrc.reservoir import all_zero_state, run_reservoir, samples_needed

from oracles import (
    encoded_state,
    kron_oracle,
    jacobi_eigenvalues,
    partial_trace_oracle,
    partial_transpose_oracle,
    random_density_matrix,
    random_hermitian,
    random_pure_product_state,
)

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


def partial_transposes(rho):
    """The seven partial transposes of a 4-qubit state, gathered through
    ``PT_INDEX`` in PARTITION_LABELS order."""
    return rho.reshape(256)[PT_INDEX].reshape(7, 16, 16)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(PAULI_I, PAULI_I), np.eye(4))

    def test_computational_basis_product(self):
        assert np.allclose(kron(KET0, KET1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)
            assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_equals_numpy_kron_for_mixed_shapes_and_dtypes(self):
        # Complex with a real identity, a real matrix or a transposed view, either side.
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        for b in (np.eye(4), rng.standard_normal((2, 5)), a.T):
            for x, y in ((a, b), (b, a)):
                got = kron(x, y)
                assert got.dtype == np.kron(x, y).dtype
                assert got.tobytes() == np.kron(x, y).tobytes()

    def test_associativity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                       for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.abs(left - right).max() <= 1e-14 * max(np.abs(left).max(), 1.0)

    @pytest.mark.parametrize("qubit", [-1, 4])
    def test_embedding_rejects_a_qubit_out_of_range(self, qubit):
        with pytest.raises(ValueError, match=f"qubit index {qubit} out of range for 4 qubits"):
            embed_single_qubit(PAULI_I, qubit, 4)


class TestPartialTrace:
    """The run loop's partial trace over input qubits 0 and 1: the reduced
    state of qubits 2 and 3 that its reset keeps."""

    def test_product_state_factorizes(self, reset_run):
        rng = np.random.default_rng(9)
        rho_a = random_density_matrix(rng, 4)
        rho_b = random_density_matrix(rng, 4)
        out = reset_run(kron(rho_a, rho_b), 0.3, 0.8).states[1]
        want = kron_all([encoded_state(0.3), encoded_state(0.8), rho_b])
        assert np.allclose(out, want, atol=1e-12)

    def test_bell_pair_reduces_to_maximally_mixed(self, reset_run):
        # A Bell pair on qubits 1 and 2: tracing qubit 1 leaves qubit 2 mixed.
        out = reset_run(kron_all([KET0, BELL, KET0]), 0.0, 0.0).states[1]
        assert np.allclose(out, kron_all([KET0, KET0, 0.5 * np.eye(2), KET0]), atol=1e-14)

    def test_matches_index_sum_oracle(self, reset_run):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = random_density_matrix(rng, 16)
            s1, s2 = rng.uniform(0.0, 1.0, 2)
            want = kron_oracle(kron_oracle(encoded_state(s1), encoded_state(s2)),
                               partial_trace_oracle(rho, {0, 1}, 4))
            assert np.allclose(reset_run(rho, s1, s2).states[1], want, atol=1e-13)

    def test_sequential_trace_preserves_total(self):
        # Twenty resets in a row, under the identity propagator, keep unit trace.
        rng = np.random.default_rng(11)
        s1, s2 = rng.uniform(0.0, 1.0, (2, samples_needed(20)))
        (run,) = run_reservoir(np.eye(256), [(s1, s2)], 20, 0,
                               initial_state=random_density_matrix(rng, 16))
        assert np.abs(np.trace(run.states, axis1=1, axis2=2) - 1.0).max() <= 1e-12


class TestPartialTranspose:
    """The partial transposes ``entanglement.PT_INDEX`` gathers."""

    def test_pure_product_state_trace_norm_one(self):
        rng = np.random.default_rng(12)
        rho = random_pure_product_state(rng, 4)
        for pt in partial_transposes(rho):
            assert abs(np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0) <= 1e-10

    def test_rows_equal_the_entry_by_entry_oracle(self):
        rng = np.random.default_rng(15)
        rho = random_density_matrix(rng, 16)
        for lbl, pt in zip(PARTITION_LABELS, partial_transposes(rho)):
            assert np.array_equal(pt, partial_transpose_oracle(rho, PARTITIONS[lbl]))

    def test_involution(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng, 16)
        for row, pt in zip(PT_INDEX, partial_transposes(rho)):
            assert np.array_equal(row[row], np.arange(256))
            assert np.array_equal(pt.reshape(256)[row].reshape(16, 16), rho)

    def test_bell_state_spectrum(self):
        # Column 0 is E1, the cut around qubit 0 of a Bell pair on qubits 0, 1.
        pt = partial_transposes(kron_all([BELL, KET0, KET0]))[0]
        eigs = np.linalg.eigvalsh(pt)
        assert np.allclose(eigs, [-0.5] + [0.0] * 12 + [0.5] * 3, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density_matrix(rng, 16)
            for pt in partial_transposes(rho):
                assert abs(np.trace(pt) - np.trace(rho)) <= 1e-14
                assert np.abs(pt - pt.conj().T).max() <= 1e-14


class TestHermitianEigenvalues:
    """The eigenvalues the package solves for, behind ``check_hermitian``: the
    smallest in ``check_density_matrix``, and the partial transposes' spectra."""

    def test_diagonal_case(self):
        m = np.diag([3.0, -1.0, 2.0]).astype(complex)
        assert check_density_matrix(m)["min_eigenvalue"] == pytest.approx(-1.0)

    def test_identity(self):
        assert check_density_matrix(np.eye(16, dtype=complex))["min_eigenvalue"] == 1.0

    def test_trace_moment_consistency(self):
        # A partial transpose keeps the trace and the purity of a state.
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_density_matrix(rng, 16)
            eigs = np.linalg.eigvalsh(partial_transposes(rho)[PARTITION_LABELS.index("E13")])
            assert abs(eigs.sum() - 1.0) <= 1e-10
            assert abs((eigs**2).sum() - np.trace(rho @ rho).real) <= 1e-10

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            got = check_density_matrix(m)["min_eigenvalue"]
            assert got == pytest.approx(jacobi_eigenvalues(m)[0], abs=1e-9)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            check_hermitian(m)

    def test_rejects_non_finite(self):
        # A NaN or infinite entry makes the residue NaN, which must fail the
        # check (not warn under the suite's RuntimeWarning filter) instead of
        # reaching LAPACK.
        for i, j, value in [(1, 2, np.nan), (1, 2, np.inf), (0, 0, np.inf)]:
            m = np.eye(4, dtype=complex)
            m[i, j] = value
            with pytest.raises(ValueError, match="not Hermitian"):
                check_hermitian(m)


class TestTraceNorm:
    """The trace norm of a partial transpose, 2 ** ``negativities``."""

    def test_diagonal_absolute_sum(self):
        # A diagonal matrix is its own partial transpose on every cut.
        d = np.zeros(16)
        d[[0, 5]] = [1.0, -2.0]
        assert np.allclose(2.0 ** negativities(np.diag(d).astype(complex)[None]), 3.0)

    def test_density_matrices_have_unit_trace_norm(self):
        # A mixture of basis states is its own partial transpose.
        rng = np.random.default_rng(20)
        weights = rng.dirichlet(np.ones(16), size=5)
        states = np.stack([np.diag(w).astype(complex) for w in weights])
        assert np.abs(2.0 ** negativities(states) - 1.0).max() <= 1e-12

    def test_bell_partial_transpose(self):
        # Column 0 is E1, the cut around qubit 0.
        rho = kron_all([BELL, KET0, KET0])
        assert 2.0 ** negativities(rho[None])[0, 0] == pytest.approx(2.0, abs=1e-12)


class TestExpectation:
    """The <Z_i> the run loop reads off each state's diagonal."""

    def test_ground_state(self, reset_run):
        assert reset_run(all_zero_state(4), 0.0, 0.0).features[0, :4].tolist() == [1.0] * 4

    def test_maximally_mixed(self, reset_run):
        z = reset_run(np.eye(16, dtype=complex) / 16, 0.0, 0.0).features[0, :4]
        assert np.allclose(z, 0.0, atol=1e-15)

    def test_encoded_input_value(self, reset_run):
        z = reset_run(all_zero_state(4), 0.3, 0.3).features[1, 0]
        assert z == pytest.approx(0.4, abs=1e-14)


def test_check_density_matrix_reports_clean_state():
    rng = np.random.default_rng(21)
    diag = check_density_matrix(random_density_matrix(rng, 16))
    assert diag["trace_error"] <= 1e-12
    assert diag["hermiticity_error"] <= 1e-12
    assert diag["min_eigenvalue"] >= -1e-12


def test_check_density_matrix_of_a_stack_reports_the_worst_state():
    rng = np.random.default_rng(22)
    states = [random_density_matrix(rng, 4) for _ in range(3)]
    bad = np.diag([0.7, 0.4, -0.05, 0.0]).astype(complex)   # trace 1.05, eigenvalue -0.05
    bad[0, 1] = 0.01                                        # residue 0.01 / max entry 0.7
    diags = [check_density_matrix(m) for m in states + [bad]]
    worst = check_density_matrix(np.stack(states + [bad]))
    assert worst["trace_error"] == max(d["trace_error"] for d in diags) == pytest.approx(0.05)
    assert worst["hermiticity_error"] == pytest.approx(0.01 / 0.7)
    assert worst["min_eigenvalue"] == min(d["min_eigenvalue"] for d in diags)
    assert worst["min_eigenvalue"] < -0.04
