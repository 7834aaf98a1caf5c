"""The reservoir run loop: measure, inject two inputs, evolve one interval.

Each cycle begins at an injection instant t_k = k * delta_t. The state
produced by the previous interval's evolution is recorded first, with its
four <Z_i> readouts (plus a constant bias feature; its seven logarithmic
negativities are computed from it when first read); then the input qubits
0 and 1 are reset to fresh pure states encoding the step's input values
(the remaining qubits keep their joint reduced state exactly) and the full
density matrix evolves for delta_t. Row k therefore reflects inputs up to
step k-1, and the value pair stored in ``injected_values[k]`` is the one
entering the reservoir at the very instant row k is measured; recalling it
is the zero-delay task.

Input sequences are sampled on their own uniform time grid
(``sample_spacing`` time units apart, default 2.75 so that 1000 samples
span the default t_final = 2750); injection k consumes the sample nearest
simulation time k * delta_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import SpinNetworkModel, build_lindblad_system, stable_step_count
from .entanglement import negativities
from .linalg import IMAG_TOL, PAULI_Z, embed_single_qubit, hermitianize, kron, partial_trace
from .signals import encode_input_state

# <Z_i> observables of the four qubits, stacked for one einsum per run.
Z_OPS = np.stack([embed_single_qubit(PAULI_Z, i, 4) for i in range(4)])


@dataclass(frozen=True)
class RunConfig:
    """Timing and layout of one reservoir run."""

    t_final: float = 2750.0
    delta_t: float = 7.5
    dt: float = 0.025
    washout_steps: int = 50
    sample_spacing: float = 2.75

    def __post_init__(self):
        for name in ("t_final", "delta_t", "dt", "sample_spacing"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_final <= 0 or self.delta_t <= 0 or self.dt <= 0:
            raise ValueError("t_final, delta_t and dt must be positive")
        if self.sample_spacing <= 0:
            raise ValueError("sample_spacing must be positive")
        if self.washout_steps < 0:
            raise ValueError("washout_steps must be nonnegative")
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
    states: K x 16 x 16 density matrices at the same instants, or None for a
    record that holds no states (its entanglement cannot be read).
    injected_values: K x 2 matrix of the (s1, s2) pairs injected at each step.

    The negativities are computed from ``states`` on first read and cached:
    ``steady_entanglement`` for the steps from ``washout_steps`` on, and
    ``entanglement_samples`` for all K steps, which adds only the washout
    head, so every state's negativities are computed at most once.
    """

    features: np.ndarray
    states: np.ndarray | None
    injected_values: np.ndarray
    washout_steps: int

    @property
    def n_steps(self) -> int:
        return self.features.shape[0]

    @cached_property
    def steady_entanglement(self) -> np.ndarray:
        """(K - washout_steps) x 7 clamped negativities of the post-washout
        states, in PARTITION_LABELS order."""
        return np.maximum(negativities(self.states[self.washout_steps:]), 0.0)

    @cached_property
    def entanglement_samples(self) -> np.ndarray:
        """K x 7 clamped negativities of every state, in PARTITION_LABELS
        order, at the same instants as the features."""
        head = np.maximum(negativities(self.states[:self.washout_steps]), 0.0)
        return np.vstack([head, self.steady_entanglement])


def all_zero_state(n_qubits: int) -> np.ndarray:
    """|0...0><0...0| as a dense density matrix."""
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def inject(rho: np.ndarray, s1: float, s2: float) -> np.ndarray:
    """Reset input qubits 0 and 1 of a 4-qubit state to the encoded s1, s2.

    The joint reduced state of qubits 2 and 3 is preserved exactly; the
    result is unit trace, Hermitian and positive semidefinite whenever the
    input state is.
    """
    rho_rest = partial_trace(rho, traced={0, 1}, n_qubits=4)
    return kron(kron(encode_input_state(s1), encode_input_state(s2)), rho_rest)


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


def run_steps(propagator: np.ndarray, seq1: np.ndarray, seq2: np.ndarray, cfg: RunConfig,
              initial_state: np.ndarray | None = None, keep_raw: bool = False):
    """The run loop: return ``(states, injected, raw)`` as arrays over the K steps.

    ``propagator`` is the ``interval_map`` of the model; ``seq1`` and ``seq2``
    are the 1-D sample arrays of the two inputs. ``states[k]`` is the state at
    t_k, before the pair ``injected[k]`` enters. With ``keep_raw``,
    ``raw[k]`` is the state at t_{k+1} as the propagator returns it, and
    ``states[k + 1]`` its ``hermitianize``-d form; otherwise ``raw`` is None.
    Starts from the all-|0> state unless ``initial_state`` is given.

    Each step is ``propagator @ inject(rho, s1, s2)`` followed by
    ``hermitianize``, with the same floating-point operations in the same
    order: the sigma(s1) x sigma(s2) blocks of all steps are built up front
    with the products ``encode_input_state`` and ``kron`` perform, and each
    step takes the block sums of ``partial_trace`` (over qubit 1, then
    qubit 0) and the broadcast product of ``kron``.
    """
    k_steps = cfg.n_steps
    needed = cfg.sample_index(k_steps - 1) + 1
    if len(seq1) < needed or len(seq2) < needed:
        raise ValueError(f"need at least {needed} samples per input sequence")
    idx = [cfg.sample_index(k) for k in range(k_steps)]
    injected = np.column_stack([np.asarray(seq1, dtype=float)[idx],
                                np.asarray(seq2, dtype=float)[idx]])
    in_range = (0.0 <= injected) & (injected <= 1.0)
    if not in_range.all():
        raise ValueError(f"input value {injected[~in_range][0]} outside [0, 1]")

    # amp[k, i] = [sqrt(1 - s), sqrt(s)] of input i; sig[k, i] is its outer product.
    amp = np.stack([np.sqrt(1.0 - injected), np.sqrt(injected)], axis=-1).astype(complex)
    sig = amp[..., :, None] * amp.conj()[..., None, :]
    pairs = (sig[:, 0, :, None, :, None] * sig[:, 1, None, :, None, :]).reshape(k_steps, 4, 4)

    states = np.empty((k_steps, 16, 16), dtype=complex)
    if initial_state is None:
        states[0] = all_zero_state(4)
    elif np.shape(initial_state) == (16, 16):
        states[0] = initial_state
    else:
        raise ValueError(f"initial state has shape {np.shape(initial_state)}, expected (16, 16)")
    raw = np.empty_like(states) if keep_raw else None
    # diag[k, :, :, i] is the 4 x 4 block of states[k] where qubits 0 and 1
    # are in basis state i on both sides.
    diag = states.reshape(k_steps, 4, 4, 4, 4).diagonal(axis1=1, axis2=3)
    even, odd = diag[..., 0::2], diag[..., 1::2]
    for k in range(k_steps):
        halves = even[k] + odd[k]
        rho_rest = halves[..., 0] + halves[..., 1]
        x = pairs[k][:, None, :, None] * rho_rest[None, :, None, :]
        rho_next = (propagator @ x.reshape(-1)).reshape(16, 16)
        if keep_raw:
            raw[k] = rho_next
        if k + 1 < k_steps:
            states[k + 1] = hermitianize(rho_next)
    return states, injected, raw


def run_reservoir(propagator: np.ndarray, seq1: np.ndarray, seq2: np.ndarray, cfg: RunConfig,
                  initial_state: np.ndarray | None = None) -> TrajectoryRecord:
    """Drive the reservoir with two input sequences and record observables.

    Records every ``run_steps`` state at its injection instant (the washout
    discard makes the initial state immaterial) and computes the features of
    all of them at once; the record computes negativities only when they are
    read. Deterministic for fixed inputs.
    """
    states, injected, _ = run_steps(propagator, seq1, seq2, cfg, initial_state)
    z = np.einsum("kij,nji->kn", states, Z_OPS)
    residue = float(np.abs(z.imag).max())
    if not residue <= IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    features = np.column_stack([z.real, np.ones(cfg.n_steps)])
    return TrajectoryRecord(features=features, states=states,
                            injected_values=injected, washout_steps=cfg.washout_steps)
