"""Spin-network Hamiltonian, local dissipators, and master-equation integration.

The model is a 4-qubit network with local Z fields and pairwise XX couplings,

    H = sum_i (h_z/2) Z_i + sum_{i<j} (J_ij/2) X_i X_j,

opened to local environments through one jump operator per qubit,

    L_i = sqrt(gamma) * (Z_i + i Y_i)/2,

and evolved with the Lindblad master equation

    drho/dt = -i[H, rho] + sum_i (L_i rho L_i† - 1/2 {L_i†L_i, rho}).

Integration is fixed-step classical RK4. Because the generator is linear and
time independent, one RK4 step is exactly the degree-4 Taylor polynomial of
the Liouvillian acting on vec(rho). ``SpinNetworkModel`` is 4 qubits by
construction: ``build_hamiltonian`` and ``build_jump_operators`` give its
16 x 16 operators as scalings of ``Z_STRINGS``, ``XX_STRINGS`` and
``JUMP_STRINGS``, read-only tables built once at import. The later stages
are functions of plain arrays of any size: ``liouvillian`` gives the
4^n x 4^n generator of an n-qubit Hamiltonian and jump set,
``stable_step_count`` the number of substeps, and ``interval_propagator``
builds the step polynomial and composes n steps of it into one matrix;
``sample_coupling_matrix`` draws a coupling of any size.

The generator is written entry by entry through index arrays, never as a
Kronecker product of two full matrices, and the step polynomial is summed in
place. The byte references are ``tests/oracles.kron_generator``, the
eight-``np.kron`` generator it equals by value, and
``tests/oracles.reference_interval_map``, whose bytes the propagator has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    embed_single_qubit,
    kron_all,
)
from .streams import COUPLING_DOMAIN, stream

# One-qubit jump block (Z + iY)/2 of every local dissipator, before sqrt(gamma).
JUMP_BLOCK = 0.5 * (PAULI_Z + 1j * PAULI_Y)
JUMP_BLOCK.flags.writeable = False

# The Z_i strings, the ((i, j), X_i X_j) pairs, i < j in row-major order, and
# the JUMP_BLOCK_i strings of the 4-qubit register, read-only: a model's
# Hamiltonian and jump operators are scalings of these.
Z_STRINGS = tuple(embed_single_qubit(PAULI_Z, i, 4) for i in range(4))
XX_STRINGS = tuple(((i, j), kron_all(PAULI_X if q in (i, j) else PAULI_I for q in range(4)))
                   for i in range(4) for j in range(i + 1, 4))
JUMP_STRINGS = tuple(embed_single_qubit(JUMP_BLOCK, i, 4) for i in range(4))
for _op in (*Z_STRINGS, *(term for _, term in XX_STRINGS), *JUMP_STRINGS):
    _op.flags.writeable = False

# Largest |lambda|*dt the RK4 stability polynomial is allowed to see. The
# imaginary-axis stability boundary is 2*sqrt(2); 0.9 keeps a wide margin and
# only forces extra substeps for strongly coupled networks (J_s above ~20).
RK4_STABILITY_MARGIN = 0.9


def sample_coupling_matrix(j_s: float, n_qubits: int, seed: tuple[int, int]) -> np.ndarray:
    """Random symmetric coupling matrix with zero diagonal.

    Entries i<j are i.i.d. uniform on [-j_s/2, j_s/2], drawn in row-major pair
    order from the stream of the (base_seed, index) pair ``seed``.
    The underlying uniforms do not depend on j_s, so the same seed yields the
    same connectivity pattern rescaled as j_s varies.
    """
    if not math.isfinite(j_s) or math.copysign(1.0, j_s) < 0:  # -0.0: uniform(0, -0.0) raises
        raise ValueError(f"j_s must be finite and nonnegative, got {j_s}")
    rng = stream(COUPLING_DOMAIN, seed)
    j = np.zeros((n_qubits, n_qubits))
    j[np.triu_indices(n_qubits, 1)] = rng.uniform(-j_s / 2.0, j_s / 2.0,
                                                  n_qubits * (n_qubits - 1) // 2)
    return j + j.T


@dataclass(frozen=True, eq=False)
class SpinNetworkModel:
    """Static description of one reservoir instance: the 4 x 4 ``coupling``
    of a 4-qubit network, its field ``h_z`` and its damping ``gamma``."""

    coupling: np.ndarray
    h_z: float = 1.5
    gamma: float = 0.01

    def __post_init__(self):
        j = np.asarray(self.coupling, dtype=float)
        if j.shape != (4, 4):
            raise ValueError(f"coupling has shape {j.shape}, expected (4, 4)")
        for name, value in (("coupling", j), ("h_z", self.h_z), ("gamma", self.gamma)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not np.allclose(j, j.T, atol=1e-12):
            raise ValueError("coupling matrix must be symmetric")
        if np.diag(j).any():
            raise ValueError("coupling matrix must have zero diagonal")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        object.__setattr__(self, "coupling", j)


def random_model(j_s: float, seed: tuple[int, int]) -> SpinNetworkModel:
    """The 4-qubit model with the default field and damping, its couplings
    freshly sampled from the stream of the (base_seed, index) pair ``seed``."""
    return SpinNetworkModel(coupling=sample_coupling_matrix(j_s, 4, seed))


def build_hamiltonian(model: SpinNetworkModel) -> np.ndarray:
    """Transverse-field Ising Hamiltonian: local Z fields plus pairwise XX."""
    h = np.zeros((16, 16), dtype=complex)
    for z_i in Z_STRINGS:
        h += (model.h_z / 2.0) * z_i
    for (i, j), term in XX_STRINGS:
        h += (model.coupling[i, j] / 2.0) * term
    return h


def build_jump_operators(model: SpinNetworkModel) -> list[np.ndarray]:
    """One local jump operator per qubit: sqrt(gamma) times its JUMP_STRINGS
    table, a fresh array the caller may write into."""
    return [math.sqrt(model.gamma) * s for s in JUMP_STRINGS]


def liouvillian(hamiltonian: np.ndarray, jump_ops) -> np.ndarray:
    """Matrix of the Lindblad generator acting on row-major vec(rho).

    Written straight into a (d, d, d, d) view of the d^2 x d^2 result, whose
    entry [a, b, c, e] is ((a, b), (c, e)): the commutator's H x I and
    I x H^T at [:, k, :, k] and [k, :, k, :], each L x L* at the nonzero
    entries of L only, jump by jump, then the anticommutator's two sides,
    with the diagonal [a, b, a, b] taking half[a, a] + half[b, b] as one sum.
    Each entry gets the products and sums, in order, of the
    eight-Kronecker-product form ``tests/oracles.kron_generator``, less
    those of a zero, so it equals that form by value (the sign of a zero
    entry may differ).
    """
    d = hamiltonian.shape[0]
    k = np.arange(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    m4 = m.reshape(d, d, d, d)
    m4[:, k, :, k] = hamiltonian
    m4[k, :, k, :] -= hamiltonian.T
    m *= -1j
    acc = np.zeros((d, d), dtype=complex)
    for l in jump_ops:
        rows, cols = np.nonzero(l)
        v = l[rows, cols]
        m4[rows[:, None], rows, cols[:, None], cols] += v[:, None] * v.conj()
        acc += l.conj().T @ l
    half = 0.5 * acc
    m4[k[:, None], k, k[:, None], k] -= half.diagonal()[:, None] + half.diagonal()
    np.fill_diagonal(half, 0.0)  # x - 0 is x: the diagonal is done
    m4[:, k, :, k] -= half
    m4[k, :, k, :] -= half.T
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
    first term is dt M, each later one the previous one times M, scaled in
    place by dt / order, and each is added into the step in place. With the
    generator and the last term released before the squarings, at most four
    4^n x 4^n matrices are alive at once when the caller passes the
    generator as a temporary, as ``reservoir.interval_map`` does. The bytes
    are those of ``tests/oracles.reference_interval_map``.
    """
    term = dt * generator
    step = np.eye(generator.shape[0], dtype=complex)
    step += term
    for order in range(2, 5):
        term = term @ generator
        term *= dt / order
        step += term
    del term, generator
    return np.linalg.matrix_power(step, n_steps)
