"""Logarithmic negativity over the seven canonical 4-qubit bipartitions.

Partition labels follow the 1-based qubit naming used for reporting (E1 is
qubit 1 against the rest; E13 is the pair {1,3} against {2,4}); internally
qubit i maps to index i-1. Negativity is log2 of the trace norm of the
partial transpose, computed from the full 4-qubit states of a run by
``negativities`` in stacked eigensolves.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_hermitian, hermitianize, partial_transpose

PARTITION_LABELS = ("E1", "E2", "E3", "E4", "E12", "E13", "E14")

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

# Keys of a cell's entanglement summary (``summarize``), in output order.
SUMMARY_FIELDS = PARTITION_LABELS + ("diff_single", "diff_pair", "ratio_single", "ratio_pair")

RATIO_DENOMINATOR_FLOOR = 1e-9

# States per stacked eigensolve in ``negativities``; it bounds the
# temporaries. For one 366-state run, peak allocation was 1.7 MiB in blocks of
# 128, 4.5 MiB for the whole run at once and 30 MiB for one (K, 7, 16, 16)
# stack of all partial transposes; blocks of 128 were also the fastest.
NEGATIVITY_BLOCK = 128


def negativities(states: np.ndarray) -> np.ndarray:
    """Raw (unclamped) log negativities of a (K, 16, 16) stack of states.

    Returns K x 7 in PARTITION_LABELS order, equal bit for bit to the
    per-state reference in ``tests/oracles.py``. ``check_hermitian`` and the
    symmetrisation run once per block on the states themselves: a partial
    transpose permutes the entries of rho - rho†, so the relative residue is
    the same number, and PT(hermitianize(rho)) equals hermitianize(PT(rho))
    entry for entry.
    """
    states = np.asarray(states)
    out = np.empty((len(states), len(PARTITION_LABELS)))
    for start in range(0, len(states), NEGATIVITY_BLOCK):
        block = states[start:start + NEGATIVITY_BLOCK]
        check_hermitian(block)
        block = hermitianize(block)
        for j, lbl in enumerate(PARTITION_LABELS):
            eigs = np.linalg.eigvalsh(partial_transpose(block, PARTITIONS[lbl]))
            out[start:start + len(block), j] = np.log2(np.abs(eigs).sum(axis=-1))
    return out


def summarize(means) -> dict:
    """Time-averaged negativities plus the input-locality aggregates.

    ``means`` maps each partition label to its averaged value. The result is
    keyed by SUMMARY_FIELDS, in that order; ``ratio_single`` and
    ``ratio_pair`` are None (undefined) when their denominator does not
    exceed RATIO_DENOMINATOR_FLOOR.
    """
    out = {lbl: float(means[lbl]) for lbl in PARTITION_LABELS}
    single_in = out["E1"] + out["E2"]
    single_out = out["E3"] + out["E4"]
    pair_cross = out["E13"] + out["E14"]
    pair_in = 2.0 * out["E12"]
    out["diff_single"] = single_in - single_out
    out["diff_pair"] = pair_cross - pair_in
    out["ratio_single"] = single_in / single_out if single_out > RATIO_DENOMINATOR_FLOOR else None
    out["ratio_pair"] = pair_cross / pair_in if pair_in > RATIO_DENOMINATOR_FLOOR else None
    return out


def steady_state_average(samples: np.ndarray) -> dict:
    """Summary of the mean of each partition column of a K x 7 sample block."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(PARTITION_LABELS):
        raise ValueError(f"samples must be K x {len(PARTITION_LABELS)}, got {samples.shape}")
    if samples.shape[0] == 0:
        raise ValueError("empty averaging window")
    return summarize(dict(zip(PARTITION_LABELS, samples.mean(axis=0))))


def seed_average(summaries) -> dict:
    """Elementwise mean over coupling seeds; aggregates recomputed from the
    seed-averaged per-partition values."""
    summaries = list(summaries)
    if not summaries:
        raise ValueError("need at least one summary")
    stacked = np.array([[s[lbl] for lbl in PARTITION_LABELS] for s in summaries])
    return summarize(dict(zip(PARTITION_LABELS, stacked.mean(axis=0))))
