#!/usr/bin/env python3
"""A miniature coupling-strength sweep through the experiments layer:
deterministic cells, incremental outputs, and plot-ready figure files.

Run:  python demos/06_coupling_sweep.py   (5-10 s with 2 workers on a 2-vCPU AVX-512 Xeon)

The full-size protocol (20-point grid, 10 seeds) is what the acceptance
suite and the `spinqrc sweep` CLI run; this demo shrinks the grid and seed
count to stay quick.
"""

import os

import numpy as np

from spinqrc.experiments import (
    ExperimentConfig,
    emit_figure_data,
    run_sweep,
    seed_averaged_metric,
)

OUT = os.path.join(os.path.dirname(__file__), "output", "mini_sweep")

cfg = ExperimentConfig(
    experiment_name="sweep_js",
    js_values=tuple(float(v) for v in np.geomspace(0.01, 40.0, 8)),
    f_values=(2.0,),
    n_coupling_seeds=3,
    base_seed=2024,
    output_dir=OUT,
)
print(f"sweep fingerprint: {cfg.fingerprint()[:16]}")
print(f"running {len(cfg.js_values)} x {cfg.n_coupling_seeds} cells ...")

done = []
rows = run_sweep(cfg, threads=2, out_dir=OUT,
                 progress=lambda r: done.append(r) or print(
                     f"  cell J_s={r.js:g} seed={r.seed_index}: {r.status} "
                     f"({r.wall_time_s:.2f} s)"))

caps = seed_averaged_metric(rows, 2.0, lambda c: c.capacity.total)
ents = seed_averaged_metric(
    rows, 2.0,
    lambda c: sum(c.entanglement[l] for l in ("E1", "E2", "E3", "E4")) / 4)

print("\nJ_s        total capacity   mean single-vs-rest entanglement")
for js in sorted(caps):
    cap_bar = "#" * int(round(4 * caps[js]))
    ent_bar = "*" * int(round(40 * ents[js]))
    print(f"{js:8.3f}   {caps[js]:6.3f} {cap_bar:28s} {ents[js]:.4f} {ent_bar}")

print("\ncapacity peaks at weak coupling; entanglement peaks roughly a decade")
print("later, so the best-performing reservoirs are only moderately entangled.")

for figure in ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3"):
    for path in emit_figure_data(rows, figure, OUT):
        print(f"wrote {path}")
print(f"\nsweep outputs (manifest, cells.jsonl, sweep_results.csv) in {OUT}")
