"""The reservoir run loop: measure, inject two inputs, evolve one interval.

Each cycle begins at an injection instant t_k = k * DELTA_T. The state
produced by the previous interval's evolution is recorded first, with its
four <Z_i> readouts (plus a constant bias feature; its seven logarithmic
negativities are computed from it when first read); then the input qubits
0 and 1 are reset to fresh pure states encoding the step's input values
(the remaining qubits keep their joint reduced state exactly) and the full
density matrix evolves for DELTA_T. Row k therefore reflects inputs up to
step k-1, and the value pair stored in ``injected_values[k]`` is the one
entering the reservoir at the very instant row k is measured; recalling it
is the zero-delay task.

Input sequences are sampled on their own uniform time grid
(``SAMPLE_SPACING`` = 2.75 time units apart, so that 1000 samples span the
default t_final = 2750); injection k consumes the sample nearest simulation
time k * DELTA_T, ``sample_index(k)``, so an n-step run reads
``samples_needed(n)`` samples of each sequence.

One function, ``run_reservoir(propagator, [(seq1, seq2), ...], n_steps,
washout_steps)``, runs the loop for every input pair it is given and returns
one record per pair, in order: a cell's train and test runs step
together, and a single run is a one-pair list. Every state a record holds
is exactly Hermitian: the start state, the all-|0> default or a given
``initial_state`` alike, passes ``check_hermitian`` and is recorded as its
Hermitian part, and every later one is ``hermitianize`` of the evolved
state. So a record reads its negativities from
``entanglement.hermitian_negativities``, with no Hermiticity pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    Z_STRINGS,
    SpinNetworkModel,
    build_hamiltonian,
    build_jump_operators,
    interval_propagator,
    liouvillian,
    stable_step_count,
)
from .entanglement import hermitian_negativities
from .linalg import check_hermitian, hermitianize

# Z_SIGNS[i] is the real diagonal of the table Z_STRINGS[i]. Z_i is diagonal,
# so <Z_i> of a state is its diagonal times row i.
Z_SIGNS = np.stack([z.diagonal().real for z in Z_STRINGS])

# The run protocol: injection interval, RK4 step request and input sample spacing.
DELTA_T = 7.5
DT = 0.025
SAMPLE_SPACING = 2.75


def sample_index(k: int) -> int:
    """Input-sequence sample consumed at injection step k."""
    return int(round(k * DELTA_T / SAMPLE_SPACING))


def samples_needed(n_steps: int) -> int:
    """Samples an input sequence must hold for an ``n_steps`` run: through
    ``sample_index(n_steps - 1)``."""
    return sample_index(n_steps - 1) + 1


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-injection-step observables of one reservoir run.

    features: K x 5 matrix [<Z1>, <Z2>, <Z3>, <Z4>, 1], sampled at the
    injection instants (before the step's values enter).
    states: K x 16 x 16 density matrices at the same instants, or None for a
    record that holds no states (its entanglement cannot be read).
    injected_values: K x 2 matrix of the (s1, s2) pairs injected at each step.
    raw: K x 16 x 16 post-evolve states as the propagator returns them
    (``states[k + 1]`` is ``hermitianize(raw[k])``), or None unless kept.

    Every state is exactly Hermitian (``states`` equals
    ``hermitianize(states)`` byte for byte), so the negativities come from
    ``entanglement.hermitian_negativities``, with no Hermiticity pass. They
    are computed from ``states`` on first read and cached:
    ``steady_entanglement`` for the steps from ``washout_steps`` on, and
    ``entanglement_samples`` for all K steps, which adds only the washout
    head, so every state's negativities are computed at most once.
    """

    features: np.ndarray
    states: np.ndarray | None
    injected_values: np.ndarray
    washout_steps: int
    raw: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.features.shape[0]

    @cached_property
    def steady_entanglement(self) -> np.ndarray:
        """(K - washout_steps) x 7 clamped negativities of the post-washout
        states, in PARTITION_LABELS order."""
        return np.maximum(hermitian_negativities(self.states[self.washout_steps:]), 0.0)

    @cached_property
    def entanglement_samples(self) -> np.ndarray:
        """K x 7 clamped negativities of every state, in PARTITION_LABELS
        order, at the same instants as the features."""
        head = np.maximum(hermitian_negativities(self.states[:self.washout_steps]), 0.0)
        return np.vstack([head, self.steady_entanglement])


def all_zero_state(n_qubits: int) -> np.ndarray:
    """|0...0><0...0| as a dense density matrix."""
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def interval_map(model: SpinNetworkModel) -> np.ndarray:
    """The 256 x 256 propagator of one injection interval DELTA_T, vec(rho) -> vec(rho),
    of the 4-qubit ``model`` (a ``SpinNetworkModel`` is 4 qubits by construction).

    Built once per model: every run of a cell shares it.
    """
    h = build_hamiltonian(model)
    jump_ops = build_jump_operators(model)
    n_sub = stable_step_count(h, jump_ops, DELTA_T, DT)
    return interval_propagator(liouvillian(h, jump_ops), DELTA_T / n_sub, n_sub)


def run_reservoir(propagator: np.ndarray, pairs, n_steps: int, washout_steps: int,
                  initial_state: np.ndarray | None = None,
                  keep_raw: bool = False) -> list[TrajectoryRecord]:
    """Drive the reservoir for ``n_steps`` injections with each ``(seq1,
    seq2)`` input pair of ``pairs`` (the 1-D sample arrays of the two
    inputs) and return one record per pair, in order; ``propagator`` is the
    ``interval_map`` of the model. Each record discards the first
    ``washout_steps`` steps from its steady entanglement, and at least one
    step must remain.

    All runs step together, and each record keeps its ``raw`` states only
    with ``keep_raw``. Every run starts from ``initial_state``, the all-|0>
    state by default (the washout discard makes it immaterial). Either way
    the start must be 16 x 16 and pass ``check_hermitian``, and it is
    recorded as its Hermitian part, ``hermitianize`` of it, so that, like
    every later state, it is exactly Hermitian.

    Each step resets qubits 0 and 1 to sqrt(1 - s)|0> + sqrt(s)|1> for its
    pair, applies the propagator and takes ``hermitianize``: the
    sigma(s1) x sigma(s2) blocks of all steps are built up front, and each
    step traces qubit 1, then qubit 0, out of the states by block sums, as
    the per-step reference in ``tests/oracles.py`` does. Every run's record
    equals that of a run stepped alone bit for bit.
    """
    if not 0 <= washout_steps < n_steps:
        raise ValueError(f"need 0 <= washout_steps < n_steps, got {washout_steps} and {n_steps}")
    n_runs, needed = len(pairs), samples_needed(n_steps)
    idx = [sample_index(k) for k in range(n_steps)]
    injected = np.empty((n_runs, n_steps, 2))
    for r, (seq1, seq2) in enumerate(pairs):
        if len(seq1) < needed or len(seq2) < needed:
            raise ValueError(f"need at least {needed} samples per input sequence")
        injected[r] = np.column_stack([np.asarray(seq1, dtype=float)[idx],
                                       np.asarray(seq2, dtype=float)[idx]])
    in_range = (0.0 <= injected) & (injected <= 1.0)
    if not in_range.all():
        raise ValueError(f"input value {injected[~in_range][0]} outside [0, 1]")

    # amp[r, k, i] = [sqrt(1 - s), sqrt(s)] of input i; sig[r, k, i] is its outer product.
    amp = np.stack([np.sqrt(1.0 - injected), np.sqrt(injected)], axis=-1).astype(complex)
    sig = amp[..., :, None] * amp.conj()[..., None, :]
    blocks = (sig[..., 0, :, None, :, None]
              * sig[..., 1, None, :, None, :]).reshape(n_runs, n_steps, 4, 4)

    states = np.empty((n_runs, n_steps, 16, 16), dtype=complex)
    rho0 = all_zero_state(4) if initial_state is None else np.asarray(initial_state)
    if rho0.shape != (16, 16):
        raise ValueError(f"initial state has shape {rho0.shape}, expected (16, 16)")
    check_hermitian(rho0)
    states[:, 0] = hermitianize(rho0)
    raw = np.empty_like(states) if keep_raw else None
    # diag[r, k, :, :, i] is the 4 x 4 block of states[r, k] where qubits 0
    # and 1 are in basis state i on both sides.
    diag = states.reshape(n_runs, n_steps, 4, 4, 4, 4).diagonal(axis1=2, axis2=4)
    even, odd = diag[..., 0::2], diag[..., 1::2]
    for k in range(n_steps):
        halves = even[:, k] + odd[:, k]
        rho_rest = halves[..., 0] + halves[..., 1]
        x = blocks[:, k, :, None, :, None] * rho_rest[:, None, :, None, :]
        # One matrix-vector product per run: a single 256 x R matrix product
        # would round differently from a run stepped alone.
        rho_next = np.matmul(propagator, x.reshape(n_runs, 256, 1)).reshape(n_runs, 16, 16)
        if keep_raw:
            raw[:, k] = rho_next
        if k + 1 < n_steps:
            states[:, k + 1] = hermitianize(rho_next)
    records = []
    for r in range(n_runs):
        # One product per run: a product over all runs at once may round differently.
        z = states[r].diagonal(axis1=1, axis2=2).real @ Z_SIGNS.T
        records.append(TrajectoryRecord(features=np.column_stack([z, np.ones(n_steps)]),
                                        states=states[r], injected_values=injected[r],
                                        washout_steps=washout_steps,
                                        raw=None if raw is None else raw[r]))
    return records
