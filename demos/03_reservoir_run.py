#!/usr/bin/env python3
"""One reservoir run: the measure / inject / evolve cycle, the recorded
feature and entanglement trajectories, and the echo-state property.

Run:  python demos/03_reservoir_run.py
"""

import os

import numpy as np

from spinqrc.dynamics import random_model
from spinqrc.experiments import ExperimentConfig, write_trajectory_csv
from spinqrc.reservoir import interval_map, run_reservoir
from spinqrc.signals import make_input_sequence

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

cfg = ExperimentConfig()  # t_final 2750, DELTA_T 7.5 -> K = 366 injection steps
propagator = interval_map(random_model(0.3, seed=(2024, 0)))
s1 = make_input_sequence(2.0, 0, (2024, 0))
s2 = make_input_sequence(2.0, 1, (2024, 0))

print(f"running K = {cfg.n_steps} injection cycles at J_s = 0.3, f = 2 ...")
record = run_reservoir(propagator, [(s1, s2)], cfg.n_steps, cfg.washout_steps)[0]

print("\nstep   s1     s2     <Z1>    <Z2>    <Z3>    <Z4>    E12     E13")
for k in list(range(3)) + list(range(60, 66)):
    print(f"{k:4d}  {record.injected_values[k, 0]:.3f}  {record.injected_values[k, 1]:.3f}  "
          + "  ".join(f"{v:+.3f}" for v in record.features[k, :4])
          + f"  {record.entanglement_samples[k, 4]:.4f}  {record.entanglement_samples[k, 5]:.4f}")

ent_means = record.steady_entanglement.mean(axis=0)
print("\npost-washout entanglement means (E1 E2 E3 E4 E12 E13 E14):")
print("  " + "  ".join(f"{v:.4f}" for v in ent_means))
print("note: the input qubits (E1, E2) and cross pairs (E13, E14) dominate;")
print("the input-pair cut E12 is small, so entanglement concentrates on the")
print("input pair's links into the rest of the network.")

path = os.path.join(OUT, "trajectory_js0.3.csv")
write_trajectory_csv(record, path)
print(f"\nfull trajectory exported to {path}")

print("\n=== echo-state check ===")
mixed = np.eye(16, dtype=complex) / 16
alt = run_reservoir(propagator, [(s1, s2)], cfg.n_steps, cfg.washout_steps,
                    initial_state=mixed)[0]
diff = np.abs(record.features - alt.features).max(axis=1)
print("max feature difference between all-|0> and maximally mixed starts:")
for k in (0, 10, 25, 50, 100):
    print(f"  step {k:3d}: {diff[k]:.2e}")
print("the initial state is forgotten well before the washout ends")
