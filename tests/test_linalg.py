import numpy as np
import pytest

from spinqrc.linalg import (
    PAULI_I,
    PAULI_Z,
    QubitPartition,
    check_density_matrix,
    check_hermitian,
    expectation,
    hermitian_eigenvalues,
    hermitianize,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm,
)

from oracles import (
    kron_oracle,
    jacobi_eigenvalues,
    partial_trace_oracle,
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
        # The Liouvillian's products: complex with a real identity, either side.
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


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(9)
        rho_a = random_density_matrix(rng, 4)
        rho_b = random_density_matrix(rng, 4)
        full = kron(rho_a, rho_b)
        assert np.allclose(partial_trace(full, {2, 3}, 4), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(full, {0, 1}, 4), rho_b, atol=1e-12)

    def test_bell_pair_reduces_to_maximally_mixed(self):
        assert np.allclose(partial_trace(BELL, {1}, 2), 0.5 * np.eye(2), atol=1e-14)

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = random_density_matrix(rng, 16)
            traced = {0, 1} if rng.random() < 0.5 else {int(rng.integers(0, 4))}
            got = partial_trace(rho, traced, 4)
            want = partial_trace_oracle(rho, traced, 4)
            assert np.allclose(got, want, atol=1e-13)

    def test_sequential_trace_preserves_total(self):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(rng, 16)
        reduced = partial_trace(rho, {0, 2}, 4)
        assert abs(np.trace(reduced) - 1.0) <= 1e-12
        final = partial_trace(reduced, {0}, 2)
        assert abs(np.trace(final) - 1.0) <= 1e-12

    def test_rejects_bad_inputs(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, {5}, 2)
        with pytest.raises(ValueError):
            partial_trace(rho, {0, 1}, 2)


class TestPartialTranspose:
    def test_pure_product_state_trace_norm_one(self):
        rng = np.random.default_rng(12)
        rho = random_pure_product_state(rng, 3)
        for a in ({0}, {1}, {0, 2}):
            pt = partial_transpose(rho, QubitPartition(frozenset(a), 3))
            assert abs(trace_norm(pt) - 1.0) <= 1e-10

    def test_involution(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng, 16)
        part = QubitPartition(frozenset({1, 3}), 4)
        assert np.array_equal(partial_transpose(partial_transpose(rho, part), part), rho)

    def test_bell_state_spectrum(self):
        pt = partial_transpose(BELL, QubitPartition(frozenset({0}), 2))
        eigs = hermitian_eigenvalues(pt)
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density_matrix(rng, 16)
            pt = partial_transpose(rho, QubitPartition(frozenset({0, 3}), 4))
            assert abs(np.trace(pt) - np.trace(rho)) <= 1e-14
            assert np.abs(pt - pt.conj().T).max() <= 1e-14

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            QubitPartition(frozenset(), 4)
        with pytest.raises(ValueError):
            QubitPartition(frozenset({0, 1, 2, 3}), 4)
        with pytest.raises(ValueError):
            QubitPartition(frozenset({4}), 4)


class TestHermitianEigenvalues:
    def test_diagonal_case(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex)),
                           [-1.0, 2.0, 3.0])

    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(16, dtype=complex)), np.ones(16))

    def test_trace_moment_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_hermitian(rng, 16)
            eigs = hermitian_eigenvalues(m)
            assert abs(eigs.sum() - np.trace(m).real) <= 1e-10 * max(1, abs(np.trace(m)))
            assert abs((eigs**2).sum() - np.trace(m @ m).real) <= 1e-10 * np.trace(m @ m).real

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            assert np.allclose(hermitian_eigenvalues(m), jacobi_eigenvalues(m), atol=1e-9)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)

    def test_rejects_non_finite(self):
        # A NaN or infinite entry makes the residue NaN, which must fail the
        # check (not warn under the suite's RuntimeWarning filter) instead of
        # reaching LAPACK.
        for i, j, value in [(1, 2, np.nan), (1, 2, np.inf), (0, 0, np.inf)]:
            m = np.eye(4, dtype=complex)
            m[i, j] = value
            with pytest.raises(ValueError, match="not Hermitian"):
                check_hermitian(m)
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eigenvalues(m)

    def test_eigenvalue_product_matches_determinant(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = random_hermitian(rng, 6)
            det = np.linalg.det(hermitianize(m)).real
            prod = np.prod(hermitian_eigenvalues(m))
            assert abs(prod - det) <= 1e-10 * max(1.0, abs(det))


class TestTraceNorm:
    def test_diagonal_absolute_sum(self):
        assert trace_norm(np.diag([1.0, -2.0]).astype(complex)) == pytest.approx(3.0)

    def test_density_matrices_have_unit_trace_norm(self):
        rng = np.random.default_rng(20)
        for dim in (2, 4, 8, 16):
            rho = random_density_matrix(rng, dim)
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_bell_partial_transpose(self):
        pt = partial_transpose(BELL, QubitPartition(frozenset({0}), 2))
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)


class TestExpectation:
    def test_ground_state(self):
        assert expectation(KET0, PAULI_Z) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert expectation(0.5 * np.eye(2, dtype=complex), PAULI_Z) == pytest.approx(0.0)

    def test_encoded_input_value(self):
        s = 0.3
        amp = np.array([np.sqrt(1 - s), np.sqrt(s)])
        rho = np.outer(amp, amp)
        assert expectation(rho.astype(complex), PAULI_Z) == pytest.approx(0.4, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(2, dtype=complex), np.eye(4, dtype=complex))

    def test_non_finite_state_rejected(self):
        rho = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="imaginary residue nan"):
            expectation(rho, PAULI_Z)


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
