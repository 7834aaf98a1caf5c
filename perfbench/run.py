#!/usr/bin/env python3
"""Benchmark of the spinqrc command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each one is there):

* ``sweep-serial``   ``spinqrc sweep --threads 1`` over one coupling seed per
                     (J_s, f) setting of the 270-cell acceptance protocol
* ``validate-short`` ``spinqrc validate`` with 100 runs x 50 injections
* ``cli-run``        ``spinqrc run`` on one full-length cell (J_s=0.325, f=2)

The same sweep with ``--threads $(nproc)`` runs once in the traced run of
``sweep-serial`` and gives the ``experiments.pool.*`` metrics. It is not a
workload of its own: under the default BLAS threads its wall time varied
from 32 to 85 s between runs on a 2-core machine, too widely for a bound.

The seed selects the config's ``base_seed`` (seed mod 10, the base seeds the
stored reference covers); the program receives only the generated config.
A run repeats passes over the workload's commands for at most ``--seconds``
(at least one pass). With ``--trace 0`` the result holds the end-to-end
metrics: the median set-up time (launch of ``spinqrc`` to its first line),
the trimmed mean time per work item (a sweep cell, a validate run, a
``spinqrc run`` command; the mean of the middle 80%) and the peak resident
memory. The commands run under
``perfbench/tracer.py``, which calls the command line in-process and times
each cell or randomized run; the set-up probes run ``python -m spinqrc`` as a
user does. The bounded times are normalised by machine speed: every item
is timed between two runs of the fixed kernel in ``perfbench/calib.py``
inside the command's process, every set-up probe between two runs in this
process, and each is reported as ``seconds * REFERENCE_S / kernel
seconds``, because on a shared host the same cell takes 0.46-0.86 s in
phases long enough to move a whole run's median by a third. The times as
measured are printed beside them, unbounded. With ``--trace 1`` every pass
runs once untraced and once with layer spans, and the result holds the
per-layer metrics plus the tracing overhead. Every pass checks its outputs
against ``perfbench/reference.json`` (rel 1e-10); a failed cell or check
counts in ``failed``. The thread variables of BLAS are neither set nor
cleared: the pool figures are what a user gets.

Human-readable lines come first (``metric NAME = VALUE UNIT (n=SAMPLES)``);
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from calib import REFERENCE_S, kernel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_run"
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
N_BASE_SEEDS = 10
SETUP_PROBES = 10
REL_TOL = 1e-10
ABS_TOL = 1e-12   # floor for values that are zero up to rounding (clamped negativities)
DEADLINE_S = 165.0  # no new pass starts after this; the run must end within 180 s

# One coupling seed per (J_s, f) setting of the acceptance protocol: the
# 20-point grid at f=2, the memory-tail quartet and the delay-dip triple.
SIZES = {
    "full": {
        "sweeps": (("grid", "sweep_js", "default", "2"),
                   ("tail", "memory_tail", "0.005, 0.325, 6, 75", "2"),
                   ("dip", "delay_dip", "1.5", "1, 2, 3")),
        "seeds_per_setting": 1,
        "cell": ("0.325", "2"),
        "validate": (100, 50),
        "run_keys": {},
    },
    # The tests/data/tiny_sweep.cfg shape, for the self-test.
    "tiny": {
        "sweeps": (("tiny", "sweep_js", "0.1, 1.0", "2"),),
        "seeds_per_setting": 2,
        "cell": ("0.325", "2"),
        "validate": (4, 10),
        "run_keys": {"t_final": "750", "washout_steps": "30", "tau_max": "10"},
    },
}
WORKLOADS = ("sweep-serial", "validate-short", "cli-run")

# Layers timed per call: (layer name, time unit, seconds -> unit factor).
TIMED_LAYERS = (
    ("entanglement.sample_all_partitions", "us", 1e6),
    ("entanglement.log_negativity", "us", 1e6),
    ("linalg.trace_norm", "us", 1e6),
    ("linalg.partial_transpose", "us", 1e6),
    ("reservoir.inject", "us", 1e6),
    ("linalg.partial_trace", "us", 1e6),
    ("linalg.expectation", "us", 1e6),
    ("reservoir.run_reservoir", "ms", 1e3),
    ("dynamics.build_lindblad_system", "ms", 1e3),
    ("dynamics.interval_propagator", "ms", 1e3),
    ("learning.evaluate_capacity_profile", "ms", 1e3),
    ("learning.ridge_fit", "us", 1e6),
    ("experiments.run_cell", "ms", 1e3),
    ("experiments.write_sweep_outputs", "ms", 1e3),
    ("signals.make_input_sequence", "ms", 1e3),
)

# Scratch figures of ROADMAP.md ("Open items"), measured with 1 BLAS thread.
ROADMAP_SHARES = {"negativities": 0.55, "inject": 0.15, "matvec": 0.04}
ROADMAP_BUILD_MS = (46.0, 62.0)


# ---------------------------------------------------------------- helpers

def say(line: str) -> None:
    print(line, flush=True)


def metric_line(name, value, unit, n) -> None:
    say(f"metric {name} = {value!r} {unit} (n={n})")


def trimmed_mean(values, cut=0.1) -> float:
    """Mean of the middle values, without the lowest and highest ``cut``."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def close(a: float, b: float) -> bool:
    if a != a or b != b:  # nan only matches nan
        return a != a and b != b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def tree_rss_kb(pid: int) -> int:
    """Resident set of a process and all its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended while it was being read
    return total


def environment() -> dict:
    """What the figures depend on besides the code."""
    env = {"python": platform.python_version(), "numpy": None, "blas": None,
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": None, "git_commit": None}
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    if os.path.isdir(".git"):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


# ---------------------------------------------------------------- commands

class Bench:
    """One benchmark run: its workload, inputs, work directory and tallies."""

    def __init__(self, workload, seed, size, reference_path):
        self.workload = workload
        self.size = SIZES[size]
        self.base_seed = seed % N_BASE_SEEDS
        self.dir = os.path.join(WORK_DIR, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        try:
            with open(reference_path) as fh:
                self.reference = json.load(fh).get(size, {}).get(str(self.base_seed), {})
        except (OSError, ValueError):
            self.reference = {}  # every reference check fails
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.start = time.perf_counter()
        self.n_passes = 0
        self.attempted = 0
        self.failed = 0
        self.first_bytes: dict[str, bytes] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            say(f"check FAILED: {what}")

    def write_config(self, path, out_dir, experiment, js, f) -> str:
        keys = {"experiment": experiment, "js_values": js, "f_values": f,
                "n_coupling_seeds": str(self.size["seeds_per_setting"]),
                "base_seed": str(self.base_seed), "output_dir": out_dir}
        keys.update(self.size["run_keys"])
        with open(path, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
        return path

    def commands(self, tag: str, threads: int):
        """The (label, argv, output dir, work items) of one pass."""
        root = os.path.join(self.dir, tag)
        os.makedirs(root, exist_ok=True)
        if self.workload == "sweep-serial":
            out = []
            for label, experiment, js, f in self.size["sweeps"]:
                out_dir = os.path.join(root, label)
                cfg = self.write_config(os.path.join(root, f"{label}.cfg"), out_dir,
                                        experiment, js, f)
                n_js = 20 if js == "default" else len(js.split(","))
                n_cells = n_js * len(f.split(",")) * self.size["seeds_per_setting"]
                out.append((label, ["sweep", cfg, "--threads", str(threads)], out_dir, n_cells))
            return out
        if self.workload == "validate-short":
            runs, steps = self.size["validate"]
            return [("validate", ["validate", "--runs", str(runs), "--steps", str(steps),
                                  "--seed", str(self.base_seed)], None, runs)]
        out_dir = os.path.join(root, "cell")
        js, f = self.size["cell"]
        cfg = self.write_config(os.path.join(root, "cell.cfg"), out_dir, "single_run", js, f)
        return [("cell", ["run", cfg], out_dir, 1)]

    def launch(self, argv, inproc_out=None, layers=False, setup_only=False) -> dict:
        """Run one command; time its setup (launch to first line) and its lines.
        With ``inproc_out`` it runs under tracer.py, which writes its work items
        (and with ``layers`` its layer spans) there; otherwise as a user runs it."""
        if inproc_out is None:
            cmd = [sys.executable, "-u", "-m", "spinqrc", *argv]
        else:
            cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "tracer.py"),
                   *(["--layers"] if layers else []), inproc_out, *argv]
        start = time.perf_counter()
        # A session of its own, so that pool workers are stopped with it.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=self.env, text=True,
                                start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass  # the group has already ended

        watchdog = threading.Timer(max(5.0, 170.0 - self.elapsed()), kill_group)
        watchdog.start()
        peak = [0]

        def sample():
            while proc.poll() is None:
                peak[0] = max(peak[0], tree_rss_kb(proc.pid))
                time.sleep(0.05)

        sampler = threading.Thread(target=sample)
        sampler.start()
        lines, first = [], None
        try:
            for line in proc.stdout:
                if first is None:
                    first = time.perf_counter() - start
                lines.append(line.rstrip("\n"))
                if setup_only:
                    kill_group()
                    break
            code = proc.wait()
            wall = time.perf_counter() - start
        finally:
            kill_group()
            proc.wait()
            proc.stdout.close()
            watchdog.cancel()
            sampler.join()
        return {"code": code, "wall": wall, "setup": wall if first is None else first,
                "lines": lines, "peak_kb": peak[0]}

    # ------------------------------------------------------------ checks

    def check_sweep(self, label, out_dir, n_cells, run) -> None:
        """Checks one sweep command's outputs. A pass compares its bytes with
        the run's first pass, so the pool pass is compared with --threads 1."""
        self.check(run["code"] == 0, f"{label}: exit code {run['code']}")
        try:
            with open(os.path.join(out_dir, "sweep_results.csv"), "rb") as fh:
                data = fh.read()
        except OSError:
            self.failed += n_cells
            self.check(False, f"{label}: no sweep_results.csv")
            return
        key = f"sweep/{label}"
        if key in self.first_bytes:
            self.check(data == self.first_bytes[key],
                       f"{label}: sweep_results.csv differs from the run's first pass")
        else:
            self.first_bytes[key] = data
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        self.failed += n_cells - sum(1 for r in rows if r.get("status") == "ok")
        ref = self.reference.get("sweeps", {}).get(label)
        if ref is None:
            self.check(False, f"{label}: no reference for base_seed {self.base_seed}")
            return
        self.check(len(rows) == len(ref["cells"]), f"{label}: {len(rows)} rows, "
                   f"reference has {len(ref['cells'])}")
        for r in rows:
            cell = f"{r.get('J_s')}|{r.get('f')}|{r.get('seed')}"
            want = ref["cells"].get(cell)
            try:
                got = [float(r.get(c) or "nan") for c in ref["columns"]]
            except ValueError:
                got = []
            self.check(want is not None and len(got) == len(want)
                       and all(map(close, got, want)),
                       f"{label}: cell {cell} differs from the reference")

    def check_capacity(self, out_dir, run) -> None:
        self.check(run["code"] == 0, f"run: exit code {run['code']}")
        try:
            with open(os.path.join(out_dir, "capacity.json"), "rb") as fh:
                data = fh.read()
            got = json.loads(data)
        except (OSError, ValueError):
            self.check(False, "run: capacity.json missing or unreadable")
            return
        if "run" in self.first_bytes:
            self.check(data == self.first_bytes["run"], "run: capacity.json differs between passes")
        else:
            self.first_bytes["run"] = data
        want = self.reference.get("cell")
        try:
            same = want is not None and close(got["total"], want["total"]) and all(
                len(got[k]) == len(want[k]) and all(map(close, got[k], want[k]))
                for k in ("per_tau", "lambda_per_tau"))
        except (KeyError, TypeError):
            same = False
        self.check(same, "run: capacity.json differs from the reference")

    def check_run_cell(self, out_dir) -> None:
        """capacity.json of ``spinqrc run`` equals an in-process run_cell."""
        sys.path.insert(0, os.path.abspath("src"))
        from spinqrc.experiments import parse_config_file, run_cell

        cfg = parse_config_file(os.path.join(os.path.dirname(out_dir), "cell.cfg"))
        res = run_cell(cfg, cfg.js_values[0], cfg.f_values[0], 0)
        try:
            with open(os.path.join(out_dir, "capacity.json")) as fh:
                got = json.load(fh)
            same = (res.status == "ok"
                    and got["per_tau"] == [float(c) for c in res.capacity.per_tau]
                    and got["lambda_per_tau"] == [float(x) for x in res.capacity.lambda_per_tau]
                    and got["total"] == res.capacity.total)
        except (OSError, ValueError, KeyError):
            same = False
        self.check(same, "run: capacity.json differs from an in-process run_cell")

    # ------------------------------------------------------------ passes

    def run_pass(self, threads=1, traced=False) -> dict:
        """Every command of the workload once; returns timings and work.

        Commands run under tracer.py, which times each cell of a sweep or
        randomized run of validate between two kernel runs; a ``spinqrc run``
        command is one item, from launch to exit less its two kernel runs.
        Each item also gets a normalised time, ``item_s * REFERENCE_S /
        kernel_s`` with the mean kernel time around it. A pool pass
        (``threads`` > 1) runs as a user runs it and gives cell times from
        its manifest instead.
        """
        tag = f"p{self.n_passes}"
        self.n_passes += 1
        res = {"wall": 0.0, "busy": 0.0, "calib": 0.0, "items": 0, "setups": [], "item_s": [],
               "item_norm_s": [], "traces": [], "cell_walls": [], "peak_kb": 0}
        inproc = threads == 1
        for label, argv, out_dir, n_items in self.commands(tag, threads):
            out = None
            if inproc:
                out = os.path.abspath(os.path.join(self.dir, tag, f"{label}.inproc.json"))
                if traced:
                    res["traces"].append(out)
            run = self.launch(argv, inproc_out=out, layers=traced)
            self.attempted += n_items
            try:
                with open(out) as fh:
                    payload = json.load(fh)
            except (OSError, TypeError, ValueError):
                payload = {}
            item_s, calib_s = payload.get("item_s", []), payload.get("calib_s", [])
            if inproc:
                self.check(len(item_s) == n_items and len(calib_s) == n_items + 1,
                           f"{label}: {len(item_s)} of {n_items} work items timed")
            in_run_calib = sum(calib_s)
            if self.workload == "cli-run" and item_s:
                # The command is the item from launch to exit, start-up included.
                item_s = [run["wall"] - in_run_calib]
            res["item_s"] += item_s
            res["item_norm_s"] += [t * REFERENCE_S / ((c0 + c1) / 2) for t, c0, c1
                                   in zip(item_s, calib_s, calib_s[1:])]
            res["calib"] += in_run_calib
            res["wall"] += run["wall"]
            res["busy"] += run["wall"] - run["setup"] - in_run_calib
            res["setups"].append(run["setup"])
            res["items"] += n_items
            res["peak_kb"] = max(res["peak_kb"], run["peak_kb"])
            if self.workload == "sweep-serial":
                self.check_sweep(label, out_dir, n_items, run)
                try:
                    with open(os.path.join(out_dir, "manifest.json")) as fh:
                        res["cell_walls"] += [c["wall_time_s"] for c in json.load(fh)["cells"]]
                except (OSError, ValueError, KeyError):
                    self.check(False, f"{label}: manifest.json missing or unreadable")
            elif self.workload == "validate-short":
                ok = run["code"] == 0 and "all invariants hold" in run["lines"]
                if not ok:
                    self.failed += n_items
                self.check(ok, f"validate: exit code {run['code']}")
            else:
                self.check_capacity(out_dir, run)
                res["out_dir"] = out_dir
        return res

    def probe_setup(self) -> tuple:
        """Set-up times of launches stopped at their first line, as measured
        and normalised by the kernel runs before and after each launch."""
        label, argv, _, _ = self.commands("probe", 1)[0]
        raw, norm = [], []
        for _ in range(SETUP_PROBES):
            before = kernel()
            raw.append(self.launch(argv, setup_only=True)["setup"])
            norm.append(raw[-1] * REFERENCE_S / ((before + kernel()) / 2))
        return raw, norm

    def passes_until(self, seconds, make_pass) -> list:
        """Repeat passes while another one fits in ``seconds`` (at least one)."""
        out, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(make_pass())
            last = time.perf_counter() - t0
            if (time.perf_counter() - start + last > seconds
                    or self.elapsed() + last > DEADLINE_S):
                return out


# ---------------------------------------------------------------- reports

def end_to_end(bench: Bench, seconds: float) -> dict:
    setups, setups_norm = bench.probe_setup()
    passes = bench.passes_until(seconds, bench.run_pass)
    if bench.workload == "cli-run":
        bench.check_run_cell(passes[0]["out_dir"])
    items = sum(p["items"] for p in passes)
    # No timed item (the program failed, which the checks count): nan.
    item_s = [s for p in passes for s in p["item_s"]] or [float("nan")]
    item_norm_s = [s for p in passes for s in p["item_norm_s"]] or [float("nan")]
    walls = [p["wall"] for p in passes]
    # Only normalised times are bounded: on a shared 2-core machine the same
    # cell runs up to 1.8 times slower in some phases, which last long enough
    # to move the raw median of a whole run by 20-35%. Per item the kernel is
    # a noisy 25 ms sample, and the 27 cells of a sweep differ in cost, so
    # the trimmed mean of the items spreads less between runs than their
    # median (IQR/median 0.023 against 0.044 over 8 sweep-serial runs).
    metrics = {
        "setup_s": (statistics.median(setups_norm), "s", len(setups_norm)),
        "item_norm_s_tmean": (trimmed_mean(item_norm_s), "s", len(item_norm_s)),
        "peak_rss_mb": (max(p["peak_kb"] for p in passes) / 1024.0, "MB", len(passes)),
    }
    for name, (value, unit, n) in metrics.items():
        metric_line(name, value, unit, n)
    # Unbounded figures as measured, under the names users know them by.
    metric_line("setup_s_raw", statistics.median(setups), "s", len(setups))
    metric_line("item_s_p50", statistics.median(item_s), "s", len(item_s))
    metric_line("item_norm_s_p50", statistics.median(item_norm_s), "s", len(item_norm_s))
    metric_line("command_s", statistics.median(walls), "s", len(walls))
    metric_line("runs_per_s" if bench.workload == "validate-short" else "cells_per_s",
                items / sum(p["busy"] for p in passes), "1/s", items)
    if bench.workload == "sweep-serial" and len(item_s) > 1:
        metric_line("cell_s_p50", statistics.median(item_s), "s", len(item_s))
        p90 = statistics.quantiles(item_s, n=10, method="inclusive")[8]
        say(f"metric cell_s_p90 = {p90!r} s (n={len(item_s)}; fewer than 10 samples lie "
            f"beyond it, so it is not bounded)")
    say("samples item_s " + json.dumps(item_s))
    say("samples item_norm_s " + json.dumps(item_norm_s))
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def merge_traces(paths) -> dict:
    """Sum the aggregates of every traced command."""
    merged = {"stats": {}, "top_s": 0.0, "substeps": [], "propagators": [],
              "commands": len(paths)}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for name, (calls, incl, self_s) in data["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        merged["top_s"] += data["top_s"]
        merged["substeps"] += data["substeps"]
        merged["propagators"] += data["propagators"]
    return merged


def matvec_us(dim: int) -> float:
    """Median time of the per-step propagator matvec kernel alone."""
    import numpy as np

    rng = np.random.default_rng(0)
    p = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    samples = []
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(100):
            p @ v
        samples.append((time.perf_counter() - t0) / 100)
    return statistics.median(samples) * 1e6


def per_layer(bench: Bench, seconds: float) -> dict:
    pairs = bench.passes_until(
        seconds, lambda: (bench.run_pass(), bench.run_pass(traced=True)))
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    if bench.workload == "cli-run":
        bench.check_run_cell(untraced[0]["out_dir"])
    pool = None
    workers = len(os.sched_getaffinity(0))
    # The pool pass took 1.5-3.5 times a serial pass under BLAS oversubscription.
    if (bench.workload == "sweep-serial"
            and bench.elapsed() + 3 * untraced[-1]["wall"] < DEADLINE_S):
        pool = bench.run_pass(threads=workers)
    paths = [path for p in traced for path in p["traces"]]
    found = [path for path in paths if os.path.isfile(path)]
    bench.check(len(found) == len(paths), f"{len(paths) - len(found)} traced command(s) "
                "wrote no trace")
    tr = merge_traces(found)
    stats = tr["stats"]
    # The kernel runs between work items are not part of the traced work.
    denom = sum(p["wall"] - p["calib"] for p in traced)
    metrics = {}

    def put(name, value, unit, n):
        metrics[name] = (float(value), unit, n)

    def get(name):
        return stats.get(name, [0, 0.0, 0.0])

    for name, unit, scale in TIMED_LAYERS:
        calls, incl, _ = get(name)
        put(f"{name}.{unit}", incl / calls * scale if calls else 0.0, unit, calls)
        put(f"{name}.calls", calls, "count", len(traced))
        put(f"{name}.share", incl / denom, "ratio", calls)
    rr_calls, rr_incl, rr_self = get("reservoir.run_reservoir")
    put("reservoir.run_reservoir.self_s", rr_self / rr_calls if rr_calls else 0.0, "s", rr_calls)

    cells = get("experiments.run_cell")[0]
    steps = max(get("reservoir.inject")[0], get("entanglement.sample_all_partitions")[0])
    put("reservoir.run_reservoir.calls_per_cell", rr_calls / cells if cells else 0.0,
        "count", cells)
    put("learning.ridge_fit.calls_per_cell",
        get("learning.ridge_fit")[0] / cells if cells else 0.0, "count", cells)
    put("linalg.trace_norm.calls_per_step",
        get("linalg.trace_norm")[0] / steps if steps else 0.0, "count", steps)

    substeps = tr["substeps"]
    put("dynamics.substeps.mean", statistics.mean(substeps) if substeps else 0.0,
        "count", len(substeps))
    put("dynamics.substeps.max", max(substeps, default=0), "count", len(substeps))
    builds = tr["propagators"]
    # Computed, not measured: 4 products for the degree-4 RK4 polynomial,
    # then matrix_power's squarings and products, each d^3 complex MACs.
    macs = [(4 + (n.bit_length() - 1) + (bin(n).count("1") - 1)) * d**3 for d, n in builds]
    put("dynamics.interval_propagator.computed_cmac",
        statistics.mean(macs) if macs else 0.0, "count", len(macs))
    put("reservoir.step.computed_cmac", builds[0][0] ** 2 if builds else 0, "count", len(builds))

    run_cmds = tr["commands"] if bench.workload == "cli-run" else 0
    put("cli.run.run_reservoir_calls", rr_calls / run_cmds if run_cmds else 0.0,
        "count", run_cmds)
    put("cli.run.write_outputs.ms",
        get("cli.run.write_outputs")[1] / run_cmds * 1e3 if run_cmds else 0.0, "ms", run_cmds)

    if pool is not None:
        serial_rate = sum(p["items"] for p in untraced) / sum(p["busy"] for p in untraced)
        pool_rate = pool["items"] / pool["busy"]
        cell_walls = {"serial": [w for p in untraced for w in p["cell_walls"]],
                      "pool": pool["cell_walls"]}
        for mode, walls in cell_walls.items():
            say(f"cell wall_time_s from manifest.json, {mode}: p50 "
                f"{statistics.median(walls)!r} s, max {max(walls)!r} s (n={len(walls)})")
        say(f"pool: {pool_rate!r} cells/s on {workers} workers, serial {serial_rate!r} cells/s")
        put("experiments.pool.cells_per_s", pool_rate, "1/s", pool["items"])
        put("experiments.pool.efficiency", pool_rate / (workers * serial_rate), "ratio", 1)
        put("experiments.pool.cell_wall_s_p50", statistics.median(cell_walls["pool"]), "s",
            len(cell_walls["pool"]))
        put("experiments.pool.peak_rss_mb", pool["peak_kb"] / 1024.0, "MB", 1)
    else:
        for name, unit in (("cells_per_s", "1/s"), ("efficiency", "ratio"),
                           ("cell_wall_s_p50", "s"), ("peak_rss_mb", "MB")):
            put(f"experiments.pool.{name}", 0.0, unit, 0)

    u_wall = statistics.median(p["wall"] - p["calib"] for p in untraced)
    t_wall = statistics.median(p["wall"] - p["calib"] for p in traced)
    u_item = trimmed_mean(s for p in untraced for s in p["item_norm_s"])
    t_item = trimmed_mean(s for p in traced for s in p["item_norm_s"])
    say(f"tracing overhead per pass, as measured: {t_wall - u_wall!r} s = "
        f"{(t_wall - u_wall) / u_wall:.2%}; per work item, normalised trimmed mean: "
        f"{t_item - u_item!r} s = {(t_item - u_item) / u_item:.2%}")
    put("trace.overhead_s", t_wall - u_wall, "s", len(pairs))
    put("trace.overhead_share", (t_item - u_item) / u_item, "ratio", len(pairs))
    unattributed = denom - tr["top_s"]
    put("trace.unattributed_share", unattributed / denom, "ratio", len(traced))

    for name, (value, unit, n) in metrics.items():
        metric_line(name, value, unit, n)

    say(f"self time over {denom!r} s of traced wall:")
    for name, (calls, _, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        if calls:
            say(f"  {name:40s} {self_s:10.4f} s  {self_s / denom:7.2%}  calls={calls}")
    setup_t = sum(s for p in traced for s in p["setups"])
    say(f"  {'(unattributed)':40s} {unattributed:10.4f} s  {unattributed / denom:7.2%}  "
        f"of which set-up {setup_t:.4f} s")
    hist = {n: substeps.count(n) for n in sorted(set(substeps))}
    say(f"dynamics.substeps histogram (RK4 substeps per propagator: builds): {hist}")
    say("computed per propagator build: 4 polynomial products + matrix_power "
        "squarings/products on d x d complex (d = 4^n); per step: one d^2 matvec")

    if bench.workload == "sweep-serial" and rr_incl > 0:
        compare_roadmap(stats, steps, builds)
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def compare_roadmap(stats, steps, builds) -> None:
    """Measured layer shares against the scratch figures in ROADMAP.md."""
    rr = stats["reservoir.run_reservoir"][1]
    dim = builds[0][0] if builds else 256
    shares = {
        "negativities": stats.get("entanglement.sample_all_partitions", [0, 0.0])[1] / rr,
        "inject": stats.get("reservoir.inject", [0, 0.0])[1] / rr,
        "matvec": matvec_us(dim) * 1e-6 * steps / rr,
    }
    for name, measured in shares.items():
        want = ROADMAP_SHARES[name]
        verdict = "confirmed" if abs(measured - want) <= 0.10 else "not confirmed"
        say(f"roadmap {name} share of run_reservoir: measured {measured:.3f}, "
            f"ROADMAP ~{want:.2f} (tolerance 0.10): {verdict}")
    n_builds = max(1, stats.get("dynamics.interval_propagator", [1])[0])
    build_ms = 1e3 * (stats.get("dynamics.build_lindblad_system", [0, 0.0])[1]
                      + stats.get("dynamics.interval_propagator", [0, 0.0])[1]) / n_builds
    lo, hi = ROADMAP_BUILD_MS
    verdict = "confirmed" if 0.75 * lo <= build_ms <= 1.25 * hi else "not confirmed"
    say(f"roadmap propagator build: measured {build_ms:.1f} ms per cell-run "
        f"(system + interval propagator), ROADMAP {lo:g}-{hi:g} ms (+-25%): {verdict}")
    say("note: the ROADMAP figures were taken with 1 BLAS thread; this run uses the "
        "default thread environment recorded above")


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="'tiny' is the self-test's minimum size")
    parser.add_argument("--reference", default=REFERENCE_PATH,
                        help="reference outputs to check against")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "spinqrc", "cli.py")):
        print("perfbench: run from the root of a spinqrc checkout (src/spinqrc not found)",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.size, args.reference)
    say("env " + json.dumps(environment(), sort_keys=True))
    say(f"workload {args.workload} seed {args.seed} base_seed {bench.base_seed} "
        f"size {args.size} trace {args.trace}")
    if args.trace:
        metrics = per_layer(bench, args.seconds)
    else:
        metrics = end_to_end(bench, args.seconds)
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    metric_line("error_rate", error_rate, "ratio", bench.attempted)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
