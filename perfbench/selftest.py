#!/usr/bin/env python3
"""Self-test of the benchmark at minimum size.

Run from the repository root (about a minute on two cores):

    python3 perfbench/selftest.py

For every workload, at the tiny size (the tests/data/tiny_sweep.cfg shape)
and with and without tracing, it checks that

* the last line of stdout is the JSON result with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, correct and with
  no failure;
* every metric BENCHMARK.json names for that mode (``end_to_end`` untraced,
  ``per_layer`` traced) is printed as ``metric NAME = VALUE UNIT (n=COUNT)``
  with its unit and a sample count, and the JSON holds the same names and
  units;
* the names users know each workload's figures by, and the times as
  measured beside the normalised ones, are printed as well.

Then it checks that a corrupted reference makes the output check fail, and
that a directory holding only BENCHMARK.json and the benchmark's files makes
the benchmark exit non-zero without a result. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

from run import BENCH_DIR, REFERENCE_PATH, WORK_DIR, WORKLOADS

ROOT = os.path.dirname(BENCH_DIR)
METRIC_RE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")
RAW_NAMES = ("setup_s_raw", "item_s_p50", "command_s", "error_rate")
USER_NAMES = {
    "sweep-serial": ("cells_per_s", "cell_s_p50", *RAW_NAMES),
    "validate-short": ("runs_per_s", *RAW_NAMES),
    "cli-run": ("cells_per_s", *RAW_NAMES),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    printed = {}
    for line in lines:
        m = METRIC_RE.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), int(m.group(4)))
    return proc, result, printed


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc, result, printed = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code 0")
            expect(result is not None
                   and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{tag}: last line is a correct JSON result")
            if result is None:
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            expect({k: v["unit"] for k, v in result["metrics"].items()} == want,
                   f"{tag}: JSON holds every {group} metric with its unit")
            missing = [name for name, unit in want.items()
                       if printed.get(name, (None,))[0] != unit]
            expect(not missing, f"{tag}: every {group} metric printed with unit and count"
                   + (f" (missing {missing})" if missing else ""))
            if trace == 0:
                missing = [n for n in USER_NAMES[workload] if n not in printed]
                expect(not missing, f"{tag}: {', '.join(USER_NAMES[workload])} printed"
                       + (f" (missing {missing})" if missing else ""))

    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    entry = reference["tiny"]["0"]
    sweep = entry["sweeps"]["tiny"]
    first = next(iter(sweep["cells"]))
    sweep["cells"][first][0] *= 1.0 + 1e-6
    entry["cell"]["total"] *= 1.0 + 1e-6
    corrupt = os.path.abspath(os.path.join(ROOT, WORK_DIR, "corrupt_reference.json"))
    os.makedirs(os.path.dirname(corrupt), exist_ok=True)
    with open(corrupt, "w") as fh:
        json.dump(reference, fh)
    for workload in ("sweep-serial", "cli-run"):
        proc, result, _ = bench(workload, 0, "--reference", corrupt)
        expect(result is not None and result["correct"] is False and result["failed"] >= 1,
               f"{workload}: a corrupted reference fails the output check")

    bare = os.path.join(ROOT, WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result, _ = bench("cli-run", 0, cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without the program: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
