#!/usr/bin/env python3
"""Open-system dynamics: Hamiltonian spectrum, local dissipators, the RK4
interval propagator and its invariants, and the stability-driven substep
refinement.

Run:  python demos/02_open_system_dynamics.py
"""

import math

import numpy as np

from spinqrc.dynamics import (
    JUMP_BLOCK,
    build_hamiltonian,
    build_jump_operators,
    interval_propagator,
    liouvillian,
    random_model,
    stable_step_count,
)
from spinqrc.linalg import check_density_matrix
from spinqrc.reservoir import DELTA_T, DT, all_zero_state

print("=== one reservoir instance at J_s = 0.5 ===")
model = random_model(0.5, seed=(2024, 0))
print("coupling matrix J_ij:")
print(np.round(model.coupling, 4))

h = build_hamiltonian(model)
jump_ops = build_jump_operators(model)
eigs = np.linalg.eigvalsh(h)
print(f"\nHamiltonian spectrum: [{eigs[0]:.4f} .. {eigs[-1]:.4f}], "
      f"spread {eigs[-1] - eigs[0]:.4f}")

print("\nsingle-qubit jump operator sqrt(gamma) * (Z + iY)/2 at gamma = 0.01:")
print(math.sqrt(model.gamma) * JUMP_BLOCK)

print("\n=== integration invariants over t = 0 .. 300 ===")
# One 256 x 256 propagator: 3000 RK4 steps of DT = 0.025, i.e. 75 time units.
p75 = interval_propagator(liouvillian(h, jump_ops), DT, 3000)
states = [all_zero_state(4)]
for _ in range(4):
    states.append((p75 @ states[-1].reshape(-1)).reshape(16, 16))
for k, rho in enumerate(states[1:], start=1):
    diag = check_density_matrix(rho)
    print(f"t = {75 * k:5.0f}: trace error {diag['trace_error']:.2e}, "
          f"hermiticity {diag['hermiticity_error']:.2e}, "
          f"min eigenvalue {diag['min_eigenvalue']:+.2e}")
worst = check_density_matrix(np.stack(states[1:]))
print(f"worst of the four, as one stack: trace error {worst['trace_error']:.2e}, "
      f"hermiticity {worst['hermiticity_error']:.2e}, "
      f"min eigenvalue {worst['min_eigenvalue']:+.2e}")

print("\n=== substep refinement at strong coupling ===")
print("J_s      spectral spread   substeps per delta_t = 7.5 (dt = 0.025)")
for js in (0.5, 6.0, 30.0, 75.0):
    strong = random_model(js, seed=(2024, 0))
    h_js = build_hamiltonian(strong)
    eigs = np.linalg.eigvalsh(h_js)
    n = stable_step_count(h_js, build_jump_operators(strong), DELTA_T, DT)
    print(f"{js:6.1f}   {eigs[-1] - eigs[0]:10.2f}       {n}")
print("\nThe default 300 substeps hold until the Hamiltonian's eigenvalue")
print("spread would push RK4 past its imaginary-axis stability limit; the")
print("strongest couplings then take proportionally finer fixed steps.")
