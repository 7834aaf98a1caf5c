"""Seed-stream derivation for reproducible, collision-free randomness.

Every random draw in the package comes from a PCG64 generator keyed by a
structured integer tuple (domain tag first), so sweeps are bit-reproducible
across platforms and independent draws never share a stream:

* input-signal phases:   (SIGNAL_DOMAIN, seed, sequence_index)
* coupling matrices:     (COUPLING_DOMAIN, *coupling_seed)
* invariant-suite J_s:   (VALIDATE_DOMAIN, base_seed, run_index)

where ``coupling_seed`` is the experiment's (base_seed, seed_index) pair.

``SeedSequence`` zero-pads keys shorter than four words, so (d, b) and
(d, b, 0) give the same stream: within one domain every key must have one
length, or a short key silently aliases a longer one.
"""

from __future__ import annotations

import numpy as np

SIGNAL_DOMAIN = 0x5347    # "SG"
COUPLING_DOMAIN = 0x4A53  # "JS"
VALIDATE_DOMAIN = 0x56    # "V"


def stream(*key: int) -> np.random.Generator:
    """Independent portable PCG64 generator for a structured integer key."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def as_key(seed) -> tuple[int, ...]:
    """Normalize an int or tuple seed into a key tuple."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)
