"""Brute-force reference implementations used only as test oracles.

Each oracle is deliberately written the slow, obvious way, independent of
the library's code paths; ``inject_oracle`` and ``log_negativity_oracle``
keep the run loop's floating-point operations, so tests compare bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from spinqrc.dynamics import RK4_STABILITY_MARGIN, build_hamiltonian, build_jump_operators
from spinqrc.linalg import hermitianize


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-nested-loop Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(rho: np.ndarray, traced, n_qubits: int) -> np.ndarray:
    """Explicit basis-index double sum. Qubit 0 is the most significant bit."""
    traced = sorted(set(traced))
    kept = [q for q in range(n_qubits) if q not in traced]

    def full_index(kept_bits, traced_bits):
        idx = 0
        for pos, q in enumerate(kept):
            idx |= ((kept_bits >> (len(kept) - 1 - pos)) & 1) << (n_qubits - 1 - q)
        for pos, q in enumerate(traced):
            idx |= ((traced_bits >> (len(traced) - 1 - pos)) & 1) << (n_qubits - 1 - q)
        return idx

    d_keep = 2 ** len(kept)
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for a in range(d_keep):
        for b in range(d_keep):
            acc = 0.0 + 0.0j
            for c in range(2 ** len(traced)):
                acc += rho[full_index(a, c), full_index(b, c)]
            out[a, b] = acc
    return out


def encoded_state(s: float) -> np.ndarray:
    """The input qubit state sqrt(1 - s)|0> + sqrt(s)|1> as a density matrix."""
    amp = np.array([np.sqrt(1.0 - s), np.sqrt(s)], dtype=complex)
    return np.outer(amp, amp.conj())


def inject_oracle(rho: np.ndarray, s1: float, s2: float) -> np.ndarray:
    """One state's input reset: qubits 0 and 1 become the encoded s1 and s2, and
    the reduced state of qubits 2 and 3, traced over qubit 1, then 0, is kept."""
    rest = np.trace(rho.reshape((2,) * 8), axis1=1, axis2=5)
    rest = np.trace(rest, axis1=0, axis2=3).reshape(4, 4)
    return np.kron(np.kron(encoded_state(s1), encoded_state(s2)), rest)


def partial_transpose_oracle(rho: np.ndarray, qubits) -> np.ndarray:
    """Entry-by-entry partial transpose of an n-qubit matrix on ``qubits``:
    entry (r, c) is rho's entry with the bits of those qubits exchanged
    between r and c. Qubit 0 is the most significant bit."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    out = np.empty_like(rho)
    for r in range(dim):
        for c in range(dim):
            rr, cc = r, c
            for q in qubits:
                shift = n - 1 - q
                row_bit, col_bit = (r >> shift) & 1, (c >> shift) & 1
                rr = (rr & ~(1 << shift)) | (col_bit << shift)
                cc = (cc & ~(1 << shift)) | (row_bit << shift)
            out[r, c] = rho[rr, cc]
    return out


def log_negativity_oracle(rho: np.ndarray, qubits) -> float:
    """Unclamped log2 trace norm of one state's partial transpose on ``qubits``."""
    pt = partial_transpose_oracle(rho, qubits)
    eigs = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    return float(np.log2(np.abs(eigs).sum()))


def jacobi_eigenvalues(m: np.ndarray, max_sweeps: int = 60, tol: float = 1e-13) -> np.ndarray:
    """Cyclic Jacobi rotations for a complex Hermitian matrix."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(max_sweeps):
        off = max(abs(a[p, q]) for p in range(n - 1) for q in range(p + 1, n)) if n > 1 else 0.0
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= tol * scale * 1e-2:
                    continue
                phi = np.angle(a[p, q])
                theta = 0.5 * math.atan2(2.0 * r, (a[p, p].real - a[q, q].real))
                c, s = math.cos(theta), math.sin(theta)
                u = np.eye(n, dtype=complex)
                u[p, p] = c
                u[p, q] = -s * np.exp(1j * phi)
                u[q, p] = s * np.exp(-1j * phi)
                u[q, q] = c
                a = u.conj().T @ a @ u
    return np.sort(a.diagonal().real)


def gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear solve by explicit Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-300:
            raise np.linalg.LinAlgError("singular matrix in oracle")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def bilinear_target_oracle(s1, s2, tau: int, n_steps: int, washout: int) -> np.ndarray:
    """s1(k-tau)*s2(k-tau), gathered by index, for rows k = washout+tau .. n_steps-1."""
    idx = np.arange(washout + tau, n_steps) - tau
    return np.asarray(s1, dtype=float)[idx] * np.asarray(s2, dtype=float)[idx]


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray, jump_ops) -> np.ndarray:
    """Textbook right-hand side -i[H, rho] + sum_L (L rho L† - 1/2 {L†L, rho})."""
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for l in jump_ops:
        ldl = l.conj().T @ l
        out = out + l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def rk4_reference_step(rho: np.ndarray, hamiltonian: np.ndarray, jump_ops,
                       dt: float) -> np.ndarray:
    """Textbook four-stage RK4 update built from lindblad_rhs calls."""
    k1 = lindblad_rhs(rho, hamiltonian, jump_ops)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, hamiltonian, jump_ops)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, hamiltonian, jump_ops)
    k4 = lindblad_rhs(rho + dt * k3, hamiltonian, jump_ops)
    return hermitianize(rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def kron_generator(hamiltonian: np.ndarray, jump_ops) -> np.ndarray:
    """The Lindblad generator on row-major vec(rho), as eight ``np.kron``
    terms for four jump operators: the two commutator terms, one L x L* term
    per jump operator, and the two anticommutator terms of their summed L†L."""
    d = hamiltonian.shape[0]
    eye = np.eye(d)
    m = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    acc = np.zeros((d, d), dtype=complex)
    for l in jump_ops:
        m += np.kron(l, l.conj())
        acc += l.conj().T @ l
    half = 0.5 * acc
    m -= np.kron(half, eye) + np.kron(eye, half.T)
    return m


def reference_interval_map(model, duration: float, dt_request: float,
                           convention: str = "paper") -> np.ndarray:
    """The RK4 propagator over ``duration``, assembled step by step the long
    way: the Hermitian part of the Hamiltonian, substeps from its eigenvalue
    spread plus 3 sum Tr(L†L), the step polynomial as Taylor terms started
    from the identity, and ``np.linalg.matrix_power`` of that step."""
    h = hermitianize(build_hamiltonian(model))
    jump_ops = build_jump_operators(model, convention)
    eigs = np.linalg.eigvalsh(h)
    pad = 3.0 * sum(float(np.trace(l.conj().T @ l).real) for l in jump_ops)
    n_requested = max(1, int(math.ceil(duration / dt_request - 1e-9)))
    n_stable = int(math.ceil(duration * (float(eigs[-1] - eigs[0]) + pad)
                             / RK4_STABILITY_MARGIN))
    n_sub = max(n_requested, n_stable, 1)
    dt = duration / n_sub
    m = kron_generator(h, jump_ops)
    step = np.eye(len(m), dtype=complex)
    term = np.eye(len(m), dtype=complex)
    for order in range(1, 5):
        term = (dt / order) * (term @ m)
        step = step + term
    return np.linalg.matrix_power(step, n_sub)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank mixed state (Wishart construction)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_pure_product_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Tensor product of random single-qubit pure states."""
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n_qubits):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        out = np.kron(out, np.outer(v, v.conj()))
    return out
