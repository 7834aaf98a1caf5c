#!/usr/bin/env python3
"""Entanglement structure across the seven bipartitions: time averages,
input-pair dominance, and the difference/ratio aggregates.

Run:  python demos/05_entanglement_structure.py   (about a minute)
"""

import numpy as np

from spinqrc.dynamics import random_model
from spinqrc.entanglement import PARTITION_LABELS, summarize
from spinqrc.reservoir import RunConfig, interval_map, run_reservoir
from spinqrc.signals import make_input_sequence

cfg = RunConfig()
SEEDS = 3


def summary(js):
    """The summary of the seed mean of each seed's post-washout means."""
    per_seed = []
    for seed in range(SEEDS):
        propagator = interval_map(random_model(js, seed=(2024, seed)))
        s1 = make_input_sequence(2.0, 0, (2024, seed))
        s2 = make_input_sequence(2.0, 1, (2024, seed))
        rec = run_reservoir(propagator, [(s1, s2)], cfg)[0]
        per_seed.append(rec.steady_entanglement.mean(axis=0))
    return summarize(np.mean(per_seed, axis=0))


print(f"post-washout, seed-averaged logarithmic negativities ({SEEDS} seeds, f = 2)\n")
print("J_s      " + "  ".join(f"{l:>6s}" for l in PARTITION_LABELS)
      + "   diff_single  diff_pair")
for js in (0.05, 0.3, 1.0, 6.0, 75.0):
    s = summary(js)
    print(f"{js:7.2f}  " + "  ".join(f"{s[l]:6.4f}" for l in PARTITION_LABELS)
          + f"   {s['diff_single']:+.4f}      {s['diff_pair']:+.4f}")

print("""
Reading the columns:
  * E1, E2 (input qubits vs rest) exceed E3, E4 at weak coupling: the
    network's entanglement hangs off the driven qubits.
  * E13 + E14 exceeds 2 E12 there as well: the cuts separating the two
    input qubits carry more entanglement than the cut keeping them
    together, i.e. entanglement concentrates within the input pair.
  * Both contrasts fade at strong coupling where entanglement spreads
    uniformly before collapsing in the fast-scrambling regime.""")

s = summary(0.3)
if s["ratio_single"] is not None and s["ratio_pair"] is not None:
    print(f"balance ratios at J_s = 0.3: (E1+E2)/(E3+E4) = {s['ratio_single']:.2f}, "
          f"(E13+E14)/(2E12) = {s['ratio_pair']:.2f}")
