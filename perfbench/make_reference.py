#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the outputs every benchmark pass is
checked against (capacities and negativities, rel 1e-10).

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs the benchmark's sweep and single-cell commands once for each base
seed the benchmark can select, at both sizes, under the default thread
environment. The full size takes a few minutes on two cores.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys

from run import N_BASE_SEEDS, REFERENCE_PATH, SIZES, Bench

CHECKED_COLUMN = re.compile(r"total_capacity|cap_tau_\d+|E\d+")


def sweep_reference(csv_text: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    columns = [c for c in rows[0] if CHECKED_COLUMN.fullmatch(c)]
    return {"columns": columns,
            "cells": {f"{r['J_s']}|{r['f']}|{r['seed']}": [float(r[c]) for c in columns]
                      for r in rows}}


def run_ok(bench: Bench, argv) -> None:
    run = bench.launch(argv)
    if run["code"] != 0:
        sys.exit(f"command failed: {argv}\n" + "\n".join(run["lines"]))


def main() -> int:
    reference = {}
    for size in SIZES:
        reference[size] = {}
        for base_seed in range(N_BASE_SEEDS):
            entry = {"sweeps": {}}
            bench = Bench("sweep-serial", base_seed, size, REFERENCE_PATH)
            for label, argv, out_dir, _ in bench.commands("ref", 1):
                run_ok(bench, argv)
                with open(os.path.join(out_dir, "sweep_results.csv")) as fh:
                    entry["sweeps"][label] = sweep_reference(fh.read())
            bench = Bench("cli-run", base_seed, size, REFERENCE_PATH)
            (_, argv, out_dir, _), = bench.commands("ref", 1)
            run_ok(bench, argv)
            with open(os.path.join(out_dir, "capacity.json")) as fh:
                cap = json.load(fh)
            entry["cell"] = {k: cap[k] for k in ("per_tau", "lambda_per_tau", "total")}
            reference[size][str(base_seed)] = entry
            print(f"{size} base_seed {base_seed}: done", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
