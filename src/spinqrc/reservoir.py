"""The reservoir run loop: measure, inject two inputs, evolve one interval.

Each cycle begins at an injection instant t_k = k * delta_t. The four <Z_i>
readouts (plus a constant bias feature) and the seven logarithmic
negativities are recorded first, from the state produced by the previous
interval's evolution; then the two input qubits are reset to fresh pure
states encoding the step's input values (the remaining qubits keep their
joint reduced state exactly) and the full density matrix evolves for
delta_t. Row k therefore reflects inputs up to step k-1, and the value pair
stored in ``injected_values[k]`` is the one entering the reservoir at the
very instant row k is measured; recalling it is the zero-delay task.

Input sequences are sampled on their own uniform time grid
(``sample_spacing`` time units apart, default 2.75 so that 1000 samples
span the default t_final = 2750); injection k consumes the sample nearest
simulation time k * delta_t.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SpinNetworkModel, build_lindblad_system, stable_step_count
from .entanglement import PARTITION_LABELS, negativities
from .linalg import (
    IMAG_TOL,
    PAULI_Z,
    embed_single_qubit,
    hermitianize,
    kron,
    n_qubits_of,
    partial_trace,
    permute_qubits,
)
from .signals import InputSequence, encode_input_state

# <Z_i> observables of the four qubits, stacked for one einsum per run.
Z_OPS = np.stack([embed_single_qubit(PAULI_Z, i, 4) for i in range(4)])


@dataclass(frozen=True)
class RunConfig:
    """Timing and layout of one reservoir run."""

    t_final: float = 2750.0
    delta_t: float = 7.5
    dt: float = 0.025
    washout_steps: int = 50
    input_qubits: tuple[int, int] = (0, 1)
    sample_spacing: float = 2.75

    def __post_init__(self):
        if self.t_final <= 0 or self.delta_t <= 0 or self.dt <= 0:
            raise ValueError("t_final, delta_t and dt must be positive")
        if self.sample_spacing <= 0:
            raise ValueError("sample_spacing must be positive")
        if self.washout_steps < 0:
            raise ValueError("washout_steps must be nonnegative")
        q1, q2 = self.input_qubits
        if q1 == q2:
            raise ValueError("input qubits must be distinct")
        if self.n_steps <= self.washout_steps:
            raise ValueError("run too short: no post-washout steps")

    @property
    def n_steps(self) -> int:
        """Number of injection steps K = floor(t_final / delta_t)."""
        return int(math.floor(self.t_final / self.delta_t + 1e-9))

    def sample_index(self, k: int) -> int:
        """Input-sequence sample consumed at injection step k."""
        return int(round(k * self.delta_t / self.sample_spacing))


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-injection-step observables of one reservoir run.

    features: K x 5 matrix [<Z1>, <Z2>, <Z3>, <Z4>, 1], sampled at the
    injection instants (before the step's values enter).
    entanglement_samples: K x 7 matrix in PARTITION_LABELS order, same
    instants as the features.
    injected_values: K x 2 matrix of the (s1, s2) pairs injected at each step.
    """

    features: np.ndarray
    entanglement_samples: np.ndarray
    injected_values: np.ndarray
    washout_steps: int

    @property
    def n_steps(self) -> int:
        return self.features.shape[0]


def all_zero_state(n_qubits: int) -> np.ndarray:
    """|0...0><0...0| as a dense density matrix."""
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def inject(rho: np.ndarray, s1: float, s2: float,
           input_qubits: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Replace the input qubits with fresh encoded pure states.

    The joint reduced state of the non-input qubits is preserved exactly;
    the result is unit trace, Hermitian and positive semidefinite whenever
    the input state is.
    """
    n = n_qubits_of(rho)
    q1, q2 = int(input_qubits[0]), int(input_qubits[1])
    if q1 == q2:
        raise ValueError("input qubits must be distinct")
    if not (0 <= q1 < n and 0 <= q2 < n):
        raise ValueError(f"input qubits {(q1, q2)} out of range for n={n}")
    state1 = encode_input_state(s1)
    state2 = encode_input_state(s2)
    rest = [q for q in range(n) if q not in (q1, q2)]
    if rest:
        rho_rest = partial_trace(rho, traced={q1, q2}, n_qubits=n)
        out = kron(kron(state1, state2), rho_rest)
    else:
        out = kron(state1, state2)
    order = [q1, q2] + rest
    if order == list(range(n)):
        return out
    # The kron above placed qubits in (q1, q2, rest) order; put the factor
    # holding label j back at position j.
    perm = [order.index(j) for j in range(n)]
    return permute_qubits(out, perm)


def interval_map(model: SpinNetworkModel, cfg: RunConfig,
                 convention: str = "paper") -> np.ndarray:
    """The 256 x 256 propagator of one injection interval, vec(rho) -> vec(rho).

    Built once per model: every run of a cell shares it.
    """
    if model.n_qubits != 4:
        raise ValueError("the run loop records 4-qubit observables; n_qubits must be 4")
    sys = build_lindblad_system(model, convention)
    n_sub = stable_step_count(sys, cfg.delta_t, cfg.dt)
    return sys.interval_propagator(cfg.delta_t / n_sub, n_sub)


def run_steps(propagator: np.ndarray, seq1: InputSequence, seq2: InputSequence,
              cfg: RunConfig, initial_state: np.ndarray | None = None):
    """The run loop: yield ``(rho_k, (s1, s2), raw_next, rho_next)`` per step.

    ``propagator`` is the ``interval_map`` of the model. ``rho_k`` is the
    state at t_k, before the step's pair (s1, s2) enters; ``raw_next`` is the
    state at t_{k+1} as the propagator returns it, and ``rho_next`` its
    ``hermitianize``-d form, the next step's ``rho_k``. Starts from the
    all-|0> state unless ``initial_state`` is given.
    """
    needed = cfg.sample_index(cfg.n_steps - 1) + 1
    if len(seq1) < needed or len(seq2) < needed:
        raise ValueError(f"need at least {needed} samples per input sequence")

    rho = all_zero_state(4) if initial_state is None else np.asarray(initial_state, dtype=complex)
    for k in range(cfg.n_steps):
        idx = cfg.sample_index(k)
        pair = (float(seq1.samples[idx]), float(seq2.samples[idx]))
        raw = (propagator @ inject(rho, *pair, cfg.input_qubits).reshape(-1)).reshape(16, 16)
        rho_next = hermitianize(raw)
        yield rho, pair, raw, rho_next
        rho = rho_next


def run_reservoir(propagator: np.ndarray, seq1: InputSequence, seq2: InputSequence,
                  cfg: RunConfig, initial_state: np.ndarray | None = None) -> TrajectoryRecord:
    """Drive the reservoir with two input sequences and record observables.

    Records every ``run_steps`` state at its injection instant (the washout
    discard makes the initial state immaterial), then computes the features
    and negativities of all of them at once. Deterministic for fixed inputs.
    """
    states = np.empty((cfg.n_steps, 16, 16), dtype=complex)
    injected = np.empty((cfg.n_steps, 2))
    for k, (rho, pair, _, _) in enumerate(run_steps(propagator, seq1, seq2, cfg,
                                                    initial_state)):
        states[k] = rho
        injected[k] = pair

    z = np.einsum("kij,nji->kn", states, Z_OPS)
    residue = float(np.abs(z.imag).max())
    if residue > IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    features = np.column_stack([z.real, np.ones(cfg.n_steps)])
    ent = np.maximum(negativities(states), 0.0)
    return TrajectoryRecord(features=features, entanglement_samples=ent,
                            injected_values=injected, washout_steps=cfg.washout_steps)


TRAJECTORY_COLUMNS = ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4"] + list(PARTITION_LABELS)


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per injection step: k, s1, s2, Z1..Z4, E1..E14."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for k in range(record.n_steps):
            row = [k]
            row += [repr(float(v)) for v in record.injected_values[k]]
            row += [repr(float(v)) for v in record.features[k, :4]]
            row += [repr(float(v)) for v in record.entanglement_samples[k]]
            writer.writerow(row)


def read_trajectory_csv(path, washout_steps: int = 0) -> TrajectoryRecord:
    """Inverse of ``write_trajectory_csv`` (bias column reconstructed)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRAJECTORY_COLUMNS:
            raise ValueError(f"unexpected header {header!r} in {path}")
        for row in reader:
            rows.append([float(x) for x in row[1:]])
    data = np.array(rows)
    features = np.column_stack([data[:, 2:6], np.ones(len(rows))])
    return TrajectoryRecord(features=features, entanglement_samples=data[:, 6:],
                            injected_values=data[:, :2], washout_steps=washout_steps)
