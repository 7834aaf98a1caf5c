"""Spin-network Hamiltonian, local dissipators, and master-equation integration.

The model is an n-qubit network with local Z fields and pairwise XX couplings,

    H = sum_i (h_z/2) Z_i + sum_{i<j} (J_ij/2) X_i X_j,

opened to local environments through one jump operator per qubit,

    L_i = sqrt(gamma) * (Z_i + i Y_i)/2        (convention "paper")
    L_i = sqrt(gamma) * (X_i + i Y_i)/2        (convention "sigma_minus")

and evolved with the Lindblad master equation

    drho/dt = -i[H, rho] + sum_i (L_i rho L_i† - 1/2 {L_i†L_i, rho}).

Integration is fixed-step classical RK4. Because the generator is linear and
time independent, one RK4 step is exactly the degree-4 Taylor polynomial of
the Liouvillian acting on vec(rho). Each stage is a function of plain
arrays: ``build_hamiltonian`` and ``build_jump_operators`` give the
operators, ``liouvillian`` their 4^n x 4^n generator, ``stable_step_count``
the number of substeps, and ``interval_propagator`` builds the step
polynomial and composes n steps of it into one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    embed_single_qubit,
    kron,
    kron_all,
)
from .streams import COUPLING_DOMAIN, as_key, stream

DISSIPATOR_CONVENTIONS = ("paper", "sigma_minus")

# Largest |lambda|*dt the RK4 stability polynomial is allowed to see. The
# imaginary-axis stability boundary is 2*sqrt(2); 0.9 keeps a wide margin and
# only forces extra substeps for strongly coupled networks (J_s above ~20).
RK4_STABILITY_MARGIN = 0.9


def sample_coupling_matrix(j_s: float, n_qubits: int, seed) -> np.ndarray:
    """Random symmetric coupling matrix with zero diagonal.

    Entries i<j are i.i.d. uniform on [-j_s/2, j_s/2], drawn in row-major pair
    order from the stream keyed by ``seed``; deterministic for a fixed seed.
    The underlying uniforms do not depend on j_s, so the same seed yields the
    same connectivity pattern rescaled as j_s varies.
    """
    if j_s < 0:
        raise ValueError("j_s must be nonnegative")
    rng = stream(COUPLING_DOMAIN, *as_key(seed))
    j = np.zeros((n_qubits, n_qubits))
    j[np.triu_indices(n_qubits, 1)] = rng.uniform(-j_s / 2.0, j_s / 2.0,
                                                  n_qubits * (n_qubits - 1) // 2)
    return j + j.T


@dataclass(frozen=True, eq=False)
class SpinNetworkModel:
    """Static description of one reservoir instance (n qubits for an n x n ``coupling``)."""

    coupling: np.ndarray
    h_z: float = 1.5
    gamma: float = 0.01

    def __post_init__(self):
        j = np.asarray(self.coupling, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"coupling has shape {j.shape}, expected a square matrix")
        if not np.allclose(j, j.T, atol=1e-12):
            raise ValueError("coupling matrix must be symmetric")
        if np.abs(np.diag(j)).max(initial=0.0) > 0:
            raise ValueError("coupling matrix must have zero diagonal")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        object.__setattr__(self, "coupling", j)


def random_model(j_s: float, seed) -> SpinNetworkModel:
    """4-qubit model with the default fields and damping, its couplings
    freshly sampled from the seed's stream."""
    return SpinNetworkModel(coupling=sample_coupling_matrix(j_s, 4, seed))


@cache
def _pauli_strings(n: int) -> tuple[tuple, tuple]:
    """The Z_i strings and the ((i, j), X_i X_j) pairs, i < j in row-major
    order, of an n-qubit register, read-only.

    Built once per register size; every Hamiltonian of that size reuses them.
    """
    z = tuple(embed_single_qubit(PAULI_Z, i, n) for i in range(n))
    xx = tuple(((i, j), kron_all(PAULI_X if q in (i, j) else PAULI_I for q in range(n)))
               for i in range(n) for j in range(i + 1, n))
    for op in (*z, *(term for _, term in xx)):
        op.flags.writeable = False
    return z, xx


def build_hamiltonian(model: SpinNetworkModel) -> np.ndarray:
    """Transverse-field Ising Hamiltonian: local Z fields plus pairwise XX."""
    n = len(model.coupling)
    z, xx = _pauli_strings(n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for z_i in z:
        h += (model.h_z / 2.0) * z_i
    for (i, j), term in xx:
        jij = model.coupling[i, j]
        if jij == 0.0:
            continue
        h += (jij / 2.0) * term
    return h


def single_qubit_jump(gamma: float, convention: str = "paper") -> np.ndarray:
    """One-qubit jump operator block sqrt(gamma) * (Z + iY)/2 (or (X + iY)/2)."""
    if convention == "paper":
        base = 0.5 * (PAULI_Z + 1j * PAULI_Y)
    elif convention == "sigma_minus":
        base = 0.5 * (PAULI_X + 1j * PAULI_Y)
    else:
        raise ValueError(f"unknown dissipator convention {convention!r}")
    return math.sqrt(gamma) * base


def build_jump_operators(model: SpinNetworkModel, convention: str = "paper") -> list[np.ndarray]:
    """One local jump operator per qubit, embedded in the full register."""
    block = single_qubit_jump(model.gamma, convention)
    n = len(model.coupling)
    return [embed_single_qubit(block, i, n) for i in range(n)]


def liouvillian(hamiltonian: np.ndarray, jump_ops) -> np.ndarray:
    """Matrix of the Lindblad generator acting on row-major vec(rho)."""
    d = hamiltonian.shape[0]
    eye = np.eye(d)
    m = -1j * (kron(hamiltonian, eye) - kron(eye, hamiltonian.T))
    if jump_ops:
        acc = np.zeros((d, d), dtype=complex)
        for l in jump_ops:
            m += kron(l, l.conj())
            acc += l.conj().T @ l
        half = 0.5 * acc
        m -= kron(half, eye) + kron(eye, half.T)
    return m


def stable_step_count(hamiltonian: np.ndarray, jump_ops, duration: float,
                      dt_request: float) -> int:
    """Number of equal RK4 substeps covering ``duration``.

    Honors the requested dt, then adds substeps whenever the generator's
    spectral extent would push |lambda|*dt past RK4's imaginary-axis
    stability margin. The coherent part dominates: commutator eigenvalues
    reach the Hamiltonian's eigenvalue spread; the weak local dissipators
    contribute at most a few gamma on top.
    """
    n_requested = max(1, int(math.ceil(duration / dt_request - 1e-9)))
    dissipator_pad = 3.0 * sum(float(np.trace(l.conj().T @ l).real) for l in jump_ops)
    eigs = np.linalg.eigvalsh(hamiltonian)
    reach = float(eigs[-1] - eigs[0]) + dissipator_pad
    n_stable = int(math.ceil(duration * reach / RK4_STABILITY_MARGIN))
    return max(n_requested, n_stable, 1)


def interval_propagator(generator: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """RK4 map of n_steps steps of length dt on vec(rho) under ``generator``.

    One step is I + dt M + ... + dt^4/24 M^4 for the Liouvillian M: the
    first term is dt M, each later one (dt / order) times the previous one
    times M.
    """
    term = dt * generator
    step = np.eye(generator.shape[0], dtype=complex) + term
    for order in range(2, 5):
        term = (dt / order) * (term @ generator)
        step = step + term
    del term  # one 4^n x 4^n matrix fewer alive during the squarings
    return np.linalg.matrix_power(step, n_steps)
