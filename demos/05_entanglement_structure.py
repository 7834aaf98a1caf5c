#!/usr/bin/env python3
"""Entanglement structure across the seven bipartitions: time averages,
input-pair dominance, and the difference/ratio aggregates.

Each row is what a sweep reports for fig2d: every cell's ``entanglement``
(the post-washout negativities of its train and test runs, time-averaged),
averaged over coupling seeds per partition and passed through ``summarize``.

Run:  python demos/05_entanglement_structure.py   (about 2 s on a 2-vCPU AVX-512 Xeon)
"""

import numpy as np

from spinqrc.entanglement import PARTITION_LABELS, summarize
from spinqrc.experiments import ExperimentConfig, run_cell

cfg = ExperimentConfig()
SEEDS = 3


def summary(js):
    """``summarize`` of the seed mean of each cell's time-averaged partitions."""
    cells = [run_cell(cfg, js, 2.0, seed) for seed in range(SEEDS)]
    return summarize(np.mean([[c.entanglement[l] for l in PARTITION_LABELS] for c in cells],
                             axis=0))


print(f"train+test post-washout logarithmic negativities, seed-averaged ({SEEDS} seeds, f = 2)\n")
print("J_s      " + "  ".join(f"{l:>6s}" for l in PARTITION_LABELS)
      + "   diff_single  diff_pair")
summaries = {js: summary(js) for js in (0.05, 0.3, 1.0, 6.0, 75.0)}
for js, s in summaries.items():
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

s = summaries[0.3]
if s["ratio_single"] is not None and s["ratio_pair"] is not None:
    print(f"balance ratios at J_s = 0.3: (E1+E2)/(E3+E4) = {s['ratio_single']:.2f}, "
          f"(E13+E14)/(2E12) = {s['ratio_pair']:.2f}")
