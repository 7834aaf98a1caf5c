#!/usr/bin/env python3
"""Input signals: nine multi-sinusoid sequences per frequency, min-max
normalized, plus the single-qubit encoding of scalar values.

Run:  python demos/01_input_signals.py
"""

import os

import numpy as np

from spinqrc.experiments import write_csv
from spinqrc.signals import N_SEQUENCES, component_frequencies, make_input_sequence

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# The (base_seed, index) pair of coupling seed 0 of a sweep with base seed 2024:
# its train and test runs read four of these nine sequences.
SEED = (2024, 0)

print("=== component frequency bands ===")
for f0 in (1.0, 2.0, 3.0):
    freqs = component_frequencies(f0)
    print(f"f = {f0:g}: 20 components, f_k in [{freqs[0]:.6f}, {freqs[-1]:.6f}] "
          f"cycles per sample (periods {1 / freqs[-1]:.0f} .. {1 / freqs[0]:.0f} samples)")

print("\n=== the nine sequences at f = 2 ===")
family = [make_input_sequence(2.0, q, SEED) for q in range(N_SEQUENCES)]
for q, s in enumerate(family):
    role = {0: "train s1", 1: "train s2", 2: "test s1", 3: "test s2"}.get(q, "reserved")
    print(f"  seq {q} ({role:10s}): mean {s.mean():.3f}  std {s.std():.3f}  "
          f"range [{s.min():.0f}, {s.max():.0f}]")

# Pairwise distinctness comes from independent phase draws per sequence id.
a, b = family[:2]
print(f"\nmax |seq0 - seq1| = {np.abs(a - b).max():.3f} (phases are independent)")

path = os.path.join(OUT, "signal_f2_seq0.csv")
write_csv(path, ["index", "value"], ([k, repr(float(v))] for k, v in enumerate(family[0])))
print(f"exported {path}")

# The run loop resets an input qubit to sqrt(1-s)|0> + sqrt(s)|1> and reads
# <Z> off the state's diagonal.
print("\n=== encoding scalar values as qubit states ===")
print("s      <Z> = 1 - 2s   purity")
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    amp = np.array([np.sqrt(1.0 - s), np.sqrt(s)])
    rho = np.outer(amp, amp)
    z = rho.diagonal() @ [1.0, -1.0]
    purity = np.trace(rho @ rho)
    print(f"{s:.2f}   {z:+.3f}          {purity:.6f}")

print("\nAutocorrelation of the product s1*s2 at injection lags (spacing 2.75,")
print("injections every 7.5 time units, so lag L reads samples ~2.73 L apart):")
prod = family[0] * family[1]
idx = np.round(np.arange(360) * 7.5 / 2.75).astype(int)
p = prod[idx] - prod[idx].mean()
for lag in (1, 2, 4, 8, 12):
    r = float(np.corrcoef(p[:-lag], p[lag:])[0, 1])
    print(f"  lag {lag:2d}: {r:+.3f}")
