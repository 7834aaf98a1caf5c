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
IMAG_TOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return m.conj().swapaxes(-1, -2)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 (of each matrix of a stack)."""
    return 0.5 * (m + dagger(m))


def hermiticity_error(m: np.ndarray) -> float:
    """Max |m - m†| entry, relative to max |m| (0 for the zero matrix).

    For a stack of matrices, the largest such residue over the stack. NaN
    when an entry is NaN or infinite (inf - inf and inf / inf are NaN, and
    the NaN is the answer, not a warning).
    """
    with np.errstate(invalid="ignore"):
        scale = np.abs(m).max(axis=(-2, -1))
        resid = np.abs(m - dagger(m)).max(axis=(-2, -1))
        rel = np.divide(resid, scale, out=np.zeros_like(resid), where=scale != 0.0)
    return float(rel.max())


def check_hermitian(m: np.ndarray) -> None:
    """Reject a ``hermiticity_error`` beyond ``HERMITICITY_RTOL``, or a
    non-finite one (a matrix with a NaN or infinite entry)."""
    err = hermiticity_error(m)
    if not err <= HERMITICITY_RTOL:
        raise ValueError(
            f"matrix is not Hermitian: relative residue {err:.3e} > {HERMITICITY_RTOL:.1e}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.

    The broadcast product ``np.kron`` performs, entry for entry, without its
    per-call shape handling.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = kron(out, f)
    return out


def embed_single_qubit(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a 2x2 operator on one qubit of an n-qubit register."""
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    return kron_all(
        op if i == qubit else PAULI_I for i in range(n_qubits)
    )


def partial_trace(rho: np.ndarray, traced, n_qubits: int) -> np.ndarray:
    """Trace out the given qubits, keeping the rest in ascending-index order.

    The input must be 2**n x 2**n; ``traced`` must be a proper subset of
    {0..n-1}. The trace of the result equals the trace of the input.
    """
    traced = sorted(set(int(q) for q in traced))
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise ValueError(f"rho has shape {rho.shape}, expected {(2**n_qubits,)*2}")
    if any(q < 0 or q >= n_qubits for q in traced):
        raise ValueError(f"traced qubits {traced} out of range for n={n_qubits}")
    if len(traced) >= n_qubits:
        raise ValueError("cannot trace out every qubit")

    t = rho.reshape([2] * (2 * n_qubits))
    # Trace highest indices first so remaining axis numbers stay valid.
    n_left = n_qubits
    for q in reversed(traced):
        t = np.trace(t, axis1=q, axis2=q + n_left)
        n_left -= 1
    d = 2**n_left
    return np.ascontiguousarray(t.reshape(d, d))


def partial_transpose(rho: np.ndarray, qubits) -> np.ndarray:
    """Transpose the indices of the given qubits only; trace is unchanged.

    The register size n is read from the 2**n x 2**n matrix; ``qubits`` must
    be a nonempty proper subset of {0..n-1}. Leading axes are a stack: each
    matrix of ``rho[..., :, :]`` is transposed.
    """
    n = rho.shape[-1].bit_length() - 1
    if rho.shape[-2:] != (2**n, 2**n):
        raise ValueError(f"rho has shape {rho.shape}, expected 2**n x 2**n")
    qubits = {int(q) for q in qubits}
    if not qubits:
        raise ValueError("the transposed qubits must be nonempty")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit indices {sorted(qubits)} out of range for n={n}")
    if len(qubits) == n:
        raise ValueError("the transposed qubits must be a proper subset")
    lead = rho.shape[:-2]
    axes = list(range(2 * n))
    for q in qubits:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    t = rho.reshape(lead + (2,) * (2 * n))
    t = t.transpose(list(range(len(lead))) + [a + len(lead) for a in axes])
    return np.ascontiguousarray(t.reshape(lead + (2**n, 2**n)))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    The input is symmetrized before solving; anti-Hermitian residue beyond
    ``HERMITICITY_RTOL`` (relative to max |entry|) is rejected.
    """
    check_hermitian(m)
    return np.linalg.eigvalsh(hermitianize(m))


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of |eigenvalues|."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Re Tr(rho @ obs) for a Hermitian observable.

    Raises if the imaginary residue of the trace exceeds ``IMAG_TOL`` or is
    not finite. The run loop reads its <Z_i> off the state diagonals; this
    per-state trace is the reference the feature tests compare them against.
    """
    if rho.shape != obs.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {obs.shape}")
    val = complex(np.einsum("ij,ji->", rho, obs))
    if not abs(val.imag) <= IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


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
