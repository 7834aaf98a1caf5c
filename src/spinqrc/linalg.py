"""Dense complex linear algebra for small multi-qubit density matrices.

All operators are plain ``numpy`` arrays of ``complex128``. Qubit 0 is the
most significant bit of the basis index, i.e. the leftmost tensor factor;
an n-qubit operator has shape (2**n, 2**n).
"""

from __future__ import annotations

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HERMITICITY_RTOL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return m.conj().swapaxes(-1, -2)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 (of each matrix of a stack)."""
    return 0.5 * (m + dagger(m))


def hermiticity_error(m: np.ndarray) -> float:
    """Max |m - m†| entry, relative to max |m| (0 for the zero matrix).

    For a stack of matrices, the largest such residue over the stack (0 for
    an empty stack). NaN when an entry is NaN or infinite (inf - inf and
    inf / inf are NaN, and the NaN is the answer, not a warning).
    """
    with np.errstate(invalid="ignore"):
        scale = np.abs(m).max(axis=(-2, -1))
        resid = np.abs(m - dagger(m)).max(axis=(-2, -1))
        rel = np.divide(resid, scale, out=np.zeros_like(resid), where=scale != 0.0)
    return float(rel.max(initial=0.0))


def check_hermitian(m: np.ndarray) -> None:
    """Reject a ``hermiticity_error`` beyond ``HERMITICITY_RTOL``, or a
    non-finite one (a matrix with a NaN or infinite entry)."""
    err = hermiticity_error(m)
    if not err <= HERMITICITY_RTOL:
        raise ValueError(
            f"matrix is not Hermitian: relative residue {err:.3e} > {HERMITICITY_RTOL:.1e}")


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def embed_single_qubit(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a 2x2 operator on one qubit of an n-qubit register."""
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    return kron_all(
        op if i == qubit else PAULI_I for i in range(n_qubits)
    )


def check_density_matrix(rho: np.ndarray) -> dict:
    """Diagnostics for a would-be density matrix, or the worst over a stack.

    Returns trace error |Re Tr - 1| + |Im Tr|, Hermiticity residue (see
    ``hermiticity_error``) and the smallest eigenvalue of the Hermitian part;
    callers decide the tolerances.
    """
    tr = np.trace(rho, axis1=-2, axis2=-1)
    tr_err = float((np.abs(tr.real - 1.0) + np.abs(tr.imag)).max())
    min_eig = float(np.linalg.eigvalsh(hermitianize(rho)).min())
    return {"trace_error": tr_err, "hermiticity_error": hermiticity_error(rho),
            "min_eigenvalue": min_eig}
