"""Seed-stream derivation for reproducible, collision-free randomness.

Every random draw in the package comes from a PCG64 generator keyed by a
structured integer tuple (domain tag first), so sweeps are bit-reproducible
across platforms and independent draws never share a stream. A seed is the
(base_seed, index) pair a sweep passes, and each domain has one key length:

* coupling matrices:     (COUPLING_DOMAIN, base_seed, seed_index)
* input-signal phases:   (SIGNAL_DOMAIN, base_seed, seed_index, sequence_id)
* invariant-suite J_s:   (VALIDATE_DOMAIN, base_seed, run_index)

``SeedSequence`` zero-pads keys shorter than four words, so a shorter key
would alias a longer one: ``stream`` refuses any other seed or key form.
"""

from __future__ import annotations

import numpy as np

SIGNAL_DOMAIN = 0x5347    # "SG"
COUPLING_DOMAIN = 0x4A53  # "JS"
VALIDATE_DOMAIN = 0x56    # "V"
KEY_WORDS = {COUPLING_DOMAIN: 3, SIGNAL_DOMAIN: 4, VALIDATE_DOMAIN: 3}


def stream(domain: int, seed, *tail: int) -> np.random.Generator:
    """PCG64 generator for the key (domain, *seed, *tail): ``seed`` is a
    (base_seed, index) pair, ``tail`` the domain's further words."""
    if not (type(seed) is tuple and len(seed) == 2
            and all(type(s) is int and s >= 0 for s in seed)):
        raise ValueError(f"seed must be a (base_seed, index) pair of integers >= 0, got {seed!r}")
    if len(key := (domain, *seed, *tail)) != KEY_WORDS.get(domain):
        raise ValueError(f"key {key} has {len(key)} words, not {KEY_WORDS.get(domain)}")
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))
