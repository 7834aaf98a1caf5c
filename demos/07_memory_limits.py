#!/usr/bin/env python3
"""Memory-ceiling control: how much the reservoir itself can recall, with
input smoothness removed.

Driving the network with white (i.i.d. uniform) inputs strips the delayed
targets of any autocorrelation, so capacity at delay tau measures genuine
information retention. Two things emerge: recall is capped by the injection
protocol (each reset erases the input-qubit marginals and all correlations
between the input pair and the rest, and the coupling keeps draining stored
information back into qubits that are about to be erased), and the cap is
insensitive to the dissipation rate.

Run:  python demos/07_memory_limits.py   (about 2 s on a 2-vCPU AVX-512 Xeon)
"""

import numpy as np

from spinqrc.dynamics import SpinNetworkModel, sample_coupling_matrix
from spinqrc.experiments import ExperimentConfig
from spinqrc.learning import evaluate_capacity_profile
from spinqrc.reservoir import interval_map, run_reservoir

cfg = ExperimentConfig()
SEEDS = 3


def white_sequence(q, seed, n=1000):
    rng = np.random.default_rng((seed, q))
    return rng.uniform(0.0, 1.0, n)


def genuine_profile(js, gamma=0.01):
    acc = []
    for seed in range(SEEDS):
        coupling = sample_coupling_matrix(js, 4, (2024, seed))
        propagator = interval_map(SpinNetworkModel(coupling=coupling, gamma=gamma))
        seqs = [white_sequence(q, 99 + seed) for q in range(4)]
        train, test = run_reservoir(propagator, [seqs[0:2], seqs[2:4]],
                                    cfg.n_steps, cfg.washout_steps)
        acc.append(evaluate_capacity_profile(train, test).per_tau)
    return np.mean(acc, axis=0)


print("genuine (white-input) capacity per delay, averaged over %d seeds" % SEEDS)
print("\nJ_s        C(0)  C(1)  C(2)  C(3)  C(4)  C(5)  C(6)  C(8)  C(10) total")
for js in (0.005, 0.1, 0.325, 0.75, 1.5, 6.0, 75.0):
    p = genuine_profile(js)
    cells = [p[t] for t in (0, 1, 2, 3, 4, 5, 6, 8, 10)]
    print(f"{js:8.3f}  " + "  ".join(f"{v:.2f}" for v in cells) + f"   {p.sum():.2f}")

print("""
C(0) is ~0 by construction (the delay-0 value enters only after the
measurement instant); C(1) ~ 0.85 is the linear-readout ceiling for the
product task; genuine multi-step recall peaks near J_s ~ 0.3-0.8 and is
gone by tau ~ 6-8 at every coupling. The total stays below the number of
readout features, as linear memory-capacity theory requires.""")

print("same check at J_s = 0.75 with dissipation 4x weaker:")
for gamma in (0.01, 0.0025):
    p = genuine_profile(0.75, gamma)
    print(f"  gamma = {gamma:<7g}: C(2) = {p[2]:.2f}  C(4) = {p[4]:.2f}  "
          f"C(6) = {p[6]:.2f}  total = {p.sum():.2f}")
print("""
The profile barely moves: the horizon is set by the injections, not by the
dissipation. Longer recall in this architecture therefore has to ride on
input autocorrelation, which is what the frequency parameter controls.""")
