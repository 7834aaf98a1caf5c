"""Logarithmic negativity over the seven canonical 4-qubit bipartitions.

Partition labels follow the 1-based qubit naming used for reporting (E1 is
qubit 1 against the rest; E13 is the pair {1,3} against {2,4}); internally
qubit i maps to index i-1. Negativity is log2 of the trace norm of the
partial transpose. ``PT_INDEX`` writes all seven partial transposes as one
fixed gather of a state's 256 entries, so ``hermitian_negativities`` takes a
block of states to its (n, 7, 16, 16) stack of partial transposes in one
indexing step and solves that stack in one eigensolve.

``negativities`` is the checked entry point: it checks and symmetrises the
whole stack once, rejecting a stack that is not Hermitian, then calls that
kernel, whose block loop is the module's only loop. A run's records call
the kernel directly, because every state a record holds is exactly
Hermitian (``reservoir.run_reservoir`` stores each as ``hermitianize`` of
what it computed), and symmetrising such a state returns the same bytes.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_hermitian, hermitianize

# The qubit indices each partition's partial transpose acts on.
PARTITIONS = {
    "E1": (0,),
    "E2": (1,),
    "E3": (2,),
    "E4": (3,),
    "E12": (0, 1),
    "E13": (0, 2),
    "E14": (0, 3),
}

PARTITION_LABELS = tuple(PARTITIONS)


def _pt_index(qubits) -> np.ndarray:
    """Flat state index of each entry (r, c) of the partial transpose on
    ``qubits``: the bits of those qubits (qubit 0 the most significant) that
    differ between r and c are flipped in both."""
    r, c = np.divmod(np.arange(256), 16)
    flip = (r ^ c) & sum(8 >> q for q in qubits)
    return (r ^ flip) * 16 + (c ^ flip)


# Row j gathers the partial transpose on partition j, in PARTITION_LABELS
# order, from a state flattened to 256 entries.
PT_INDEX = np.stack([_pt_index(PARTITIONS[lbl]) for lbl in PARTITION_LABELS])

# Keys of a cell's entanglement summary (``summarize``), in output order.
SUMMARY_FIELDS = PARTITION_LABELS + ("diff_single", "diff_pair", "ratio_single", "ratio_pair")

RATIO_DENOMINATOR_FLOOR = 1e-9

# States per block in ``hermitian_negativities``: it bounds the temporaries.
# A block's 7 * 18 = 126 partial transposes stay within the 128 matrices per
# stacked eigensolve that measured fastest. For one 316-state run, blocks of 8
# to 64 states took the same time, and blocks of 18 peaked at 1.08 MiB allocated.
NEGATIVITY_BLOCK = 18


def hermitian_negativities(states: np.ndarray) -> np.ndarray:
    """Raw (unclamped) log negativities of a (K, 16, 16) stack of exactly
    Hermitian states (``np.array_equal(states, hermitianize(states))``), as
    a K x 7 array in PARTITION_LABELS order. Nothing is checked, since the
    eigensolve reads one triangle of each partial transpose: any other stack
    belongs to ``negativities``.
    """
    out = np.empty((len(states), len(PARTITION_LABELS)))
    for start in range(0, len(states), NEGATIVITY_BLOCK):
        block = states[start:start + NEGATIVITY_BLOCK]
        pts = block.reshape(-1, 256)[:, PT_INDEX].reshape(-1, 7, 16, 16)
        out[start:start + len(block)] = np.log2(np.abs(np.linalg.eigvalsh(pts)).sum(axis=-1))
    return out


def negativities(states: np.ndarray) -> np.ndarray:
    """Raw (unclamped) log negativities of a (K, 16, 16) stack of states.

    Returns K x 7 in PARTITION_LABELS order, equal bit for bit to the
    per-state reference in ``tests/oracles.py``. ``check_hermitian`` and the
    symmetrisation run once on the whole stack of states, before
    ``hermitian_negativities``: a partial transpose permutes the entries of
    rho - rho†, so the relative residue is the same number, and
    PT(hermitianize(rho)) equals hermitianize(PT(rho)) entry for entry.
    """
    states = np.asarray(states)
    check_hermitian(states)
    return hermitian_negativities(hermitianize(states))


def summarize(means) -> dict:
    """Time- or seed-averaged negativities plus the input-locality aggregates.

    ``means`` holds the seven per-partition means in PARTITION_LABELS order.
    The result is keyed by SUMMARY_FIELDS, in that order; ``ratio_single``
    and ``ratio_pair`` are None (undefined) when their denominator does not
    exceed RATIO_DENOMINATOR_FLOOR.
    """
    out = {lbl: float(v) for lbl, v in zip(PARTITION_LABELS, means, strict=True)}
    single_in = out["E1"] + out["E2"]
    single_out = out["E3"] + out["E4"]
    pair_cross = out["E13"] + out["E14"]
    pair_in = 2.0 * out["E12"]
    out["diff_single"] = single_in - single_out
    out["diff_pair"] = pair_cross - pair_in
    out["ratio_single"] = single_in / single_out if single_out > RATIO_DENOMINATOR_FLOOR else None
    out["ratio_pair"] = pair_cross / pair_in if pair_in > RATIO_DENOMINATOR_FLOOR else None
    return out
