#!/usr/bin/env python3
"""Short-term memory capacity: ridge readout on the delayed bilinear task,
per-delay profiles in contrasting coupling regimes, and the zero-delay dip.

Run:  python demos/04_memory_capacity.py   (about 3 s on a 2-vCPU AVX-512 Xeon)
"""

import numpy as np

from spinqrc.experiments import ExperimentConfig, run_cell

cfg = ExperimentConfig()
SEEDS = 3


def profile(js, f):
    """The seed mean of the sweep cells' capacity per delay."""
    return np.mean([run_cell(cfg, js, f, seed).capacity.per_tau for seed in range(SEEDS)],
                   axis=0)


def show(label, p):
    bars = "".join("#" if v > 0.5 else "+" if v > 0.15 else "." if v > 0.05 else " "
                   for v in p)
    print(f"{label:14s} total {p.sum():5.2f} |{bars}|")


print(f"capacity vs delay, averaged over {SEEDS} coupling seeds")
print("legend: '#' > 0.5, '+' > 0.15, '.' > 0.05, delays tau = 0..24\n")

print("--- coupling regimes at f = 2 ---")
for js in (0.005, 0.325, 6.0, 75.0):
    show(f"J_s = {js:g}", profile(js, 2.0))
print("\nthe weak-coupling regime (J_s ~ 0.3) holds its memory for the most")
print("delays; decoupled and strongly coupled reservoirs forget fast.")

print("\n--- input frequencies at J_s = 1.5 ---")
profiles = {f: profile(1.5, f) for f in (1.0, 2.0, 3.0)}
for f, p in profiles.items():
    show(f"f = {f:g}", p)
print("\nzero-delay dip: C(0) < C(1) at every frequency, and the dip deepens")
print("as the inputs vary faster:")
for f, p in profiles.items():
    print(f"  f = {f:g}: C(0) = {p[0]:.3f}  C(1) = {p[1]:.3f}  C(10) = {p[10]:.3f}")
print("\nrecalling the value being injected at the measurement instant is the")
print("hardest task: its information has not yet propagated into the network.")
