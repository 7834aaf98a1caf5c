"""Sweep orchestration, reproducibility metadata, and file output.

A sweep runs one cell per (J_s, f, coupling-seed) triple: sample a coupling
matrix, drive a training and a test reservoir with independent input
sequences, evaluate the capacity profile, and time-average the entanglement
samples. Cells are independent; failures are recorded per cell and never
abort the sweep. Given the same config and base seed, every numeric output
is identical no matter how many worker processes are used.

Seed streams (see ``streams``): both the coupling matrix and the input
sequences of seed index j derive from the key (base_seed, j), with the
sequence id mixed in by the signals module, so every coupling seed drives
the reservoir with freshly drawn input phases. Coupling patterns are shared
across J_s values (rescaled), giving smooth curves along the sweep axis.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .dynamics import random_model
from .entanglement import (
    PARTITION_LABELS,
    PARTITIONS,
    EntanglementSummary,
    log_negativity,
    seed_average,
    steady_state_average,
    summary_from_means,
)
from .learning import (
    DEFAULT_LAMBDA_GRID,
    TAU_MAX_DEFAULT,
    CapacityProfile,
    evaluate_capacity_profile,
)
from .reservoir import RunConfig, TrajectoryRecord, run_reservoir, run_steps
from .signals import (
    HOLDOUT_SEQUENCE_IDS,
    TEST_SEQUENCE_IDS,
    TIME_AXES,
    TRAIN_SEQUENCE_IDS,
    make_input_sequence,
)
from .streams import stream

EXPERIMENT_NAMES = ("sweep_js", "memory_tail", "delay_dip", "single_run")

# 20 points covering both the capacity peak (~0.3) and entanglement peak (~6)
# regions, with the extremes of the studied coupling range as endpoints.
DEFAULT_JS_GRID = tuple(float(v) for v in np.geomspace(0.005, 75.0, 20))

FIGURE_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3", "fig4")


class ConfigError(Exception):
    """Invalid experiment configuration, with file/line diagnostics."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Resolved configuration of one experiment."""

    experiment_name: str = "sweep_js"
    js_values: tuple = DEFAULT_JS_GRID
    f_values: tuple = (2.0,)
    n_coupling_seeds: int = 10
    base_seed: int = 2024
    run: RunConfig = field(default_factory=RunConfig)
    tau_max: int = TAU_MAX_DEFAULT
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    lambda_selection: str = "test"
    dissipator_convention: str = "paper"
    time_axis: str = "index"
    output_dir: str = "results"

    def __post_init__(self):
        if self.experiment_name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment_name!r}")
        if not self.js_values:
            raise ValueError("js_values must be nonempty")
        if any(js < 0 for js in self.js_values):
            raise ValueError("all J_s values must be nonnegative")
        if not self.f_values or any(f <= 0 for f in self.f_values):
            raise ValueError("f_values must be positive")
        if self.n_coupling_seeds < 1:
            raise ValueError("n_coupling_seeds must be at least 1")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")
        if self.lambda_selection not in ("test", "holdout"):
            raise ValueError(f"unknown lambda_selection {self.lambda_selection!r}")
        if self.dissipator_convention not in ("paper", "sigma_minus"):
            raise ValueError(f"unknown dissipator_convention {self.dissipator_convention!r}")
        if self.time_axis not in TIME_AXES:
            raise ValueError(f"time_axis must be one of {TIME_AXES}")
        # Train/test segments must stay non-degenerate at the largest delay.
        if self.run.n_steps < self.run.washout_steps + 2 * (self.tau_max + 10):
            raise ValueError(
                f"run too short: K={self.run.n_steps} < washout + 2*(tau_max+10) "
                f"= {self.run.washout_steps + 2 * (self.tau_max + 10)}")

    def semantic_dict(self) -> dict:
        """Everything that affects numeric results (not output locations)."""
        return {
            "experiment_name": self.experiment_name,
            "js_values": [float(v) for v in self.js_values],
            "f_values": [float(v) for v in self.f_values],
            "n_coupling_seeds": self.n_coupling_seeds,
            "base_seed": self.base_seed,
            "t_final": self.run.t_final,
            "delta_t": self.run.delta_t,
            "dt": self.run.dt,
            "washout_steps": self.run.washout_steps,
            "input_qubits": list(self.run.input_qubits),
            "sample_spacing": self.run.sample_spacing,
            "tau_max": self.tau_max,
            "lambda_grid": [float(v) for v in self.lambda_grid],
            "lambda_selection": self.lambda_selection,
            "dissipator_convention": self.dissipator_convention,
            "time_axis": self.time_axis,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


_CONFIG_KEYS = {
    "experiment", "js_values", "f_values", "n_coupling_seeds", "base_seed",
    "t_final", "delta_t", "dt", "washout_steps", "input_qubits",
    "sample_spacing", "tau_max", "lambda_grid", "lambda_selection",
    "dissipator_convention", "time_axis", "output_dir",
}


def _parse_float_list(text: str):
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def parse_config_file(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored. List values are
    comma separated; ``js_values = default`` selects the 20-point grid and
    ``lambda_grid = default`` the 21-point grid.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc), path=path) from exc

    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value', got {text!r}", path, lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        raw[key] = (lineno, value)

    kwargs: dict = {}
    run_kwargs: dict = {}

    def take(key, parse, into, name=None):
        if key in raw:
            lineno, value = raw.pop(key)
            try:
                into[name or key] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno) from exc

    take("experiment", str, kwargs, "experiment_name")
    take("js_values", lambda v: DEFAULT_JS_GRID if v == "default" else _parse_float_list(v), kwargs)
    take("f_values", _parse_float_list, kwargs)
    take("n_coupling_seeds", int, kwargs)
    take("base_seed", int, kwargs)
    take("tau_max", int, kwargs)
    take("lambda_grid", lambda v: DEFAULT_LAMBDA_GRID if v == "default" else _parse_float_list(v),
         kwargs)
    take("lambda_selection", str, kwargs)
    take("dissipator_convention", str, kwargs)
    take("time_axis", str, kwargs)
    take("output_dir", str, kwargs)
    take("t_final", float, run_kwargs)
    take("delta_t", float, run_kwargs)
    take("dt", float, run_kwargs)
    take("washout_steps", int, run_kwargs)
    take("input_qubits", lambda v: tuple(int(t.strip()) for t in v.split(",")), run_kwargs)
    take("sample_spacing", float, run_kwargs)

    try:
        run_cfg = RunConfig(**run_kwargs)
        return ExperimentConfig(run=run_cfg, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), path=path) from exc


@dataclass(frozen=True, eq=False)
class CellResult:
    """Outcome of one (J_s, f, seed) sweep cell.

    ``train`` and ``test`` are the records the capacity was scored on; a
    sweep drops them and keeps only the summaries.
    """

    js: float
    f: float
    seed_index: int
    status: str
    capacity: CapacityProfile | None
    entanglement: EntanglementSummary | None
    wall_time_s: float
    error: str = ""
    train: TrajectoryRecord | None = None
    test: TrajectoryRecord | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All cell results in config order, plus provenance."""

    config: ExperimentConfig
    rows: tuple
    fingerprint: str

    def ok_rows(self):
        return [r for r in self.rows if r.status == "ok"]


def run_cell(cfg: ExperimentConfig, js: float, f: float, seed_index: int) -> CellResult:
    """Run the train and test reservoirs for one cell and evaluate them.

    The result carries both records, so a caller can export or rescore them
    without running the reservoirs again.
    """
    start = time.perf_counter()
    try:
        model = random_model(js, seed=(cfg.base_seed, seed_index))
        seqs = {
            q: make_input_sequence(f, q, (cfg.base_seed, seed_index), time_axis=cfg.time_axis)
            for q in TRAIN_SEQUENCE_IDS + TEST_SEQUENCE_IDS + (
                HOLDOUT_SEQUENCE_IDS if cfg.lambda_selection == "holdout" else ())
        }
        train = run_reservoir(model, seqs[TRAIN_SEQUENCE_IDS[0]], seqs[TRAIN_SEQUENCE_IDS[1]],
                              cfg.run, cfg.dissipator_convention)
        test = run_reservoir(model, seqs[TEST_SEQUENCE_IDS[0]], seqs[TEST_SEQUENCE_IDS[1]],
                             cfg.run, cfg.dissipator_convention)
        selection = None
        if cfg.lambda_selection == "holdout":
            selection = run_reservoir(model, seqs[HOLDOUT_SEQUENCE_IDS[0]],
                                      seqs[HOLDOUT_SEQUENCE_IDS[1]],
                                      cfg.run, cfg.dissipator_convention)
        profile = evaluate_capacity_profile(train, test, cfg.tau_max, cfg.lambda_grid,
                                            selection=selection)
        # Entanglement statistics use the post-washout samples of both runs.
        washout = cfg.run.washout_steps
        samples = np.vstack([train.entanglement_samples[washout:],
                             test.entanglement_samples[washout:]])
        summary = steady_state_average(samples, washout=0)
        return CellResult(js=float(js), f=float(f), seed_index=int(seed_index), status="ok",
                          capacity=profile, entanglement=summary,
                          wall_time_s=time.perf_counter() - start, train=train, test=test)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return CellResult(js=float(js), f=float(f), seed_index=int(seed_index), status="error",
                          capacity=None, entanglement=None,
                          wall_time_s=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")


def _cell_worker(args):
    """One sweep cell without its records, which a sweep does not keep."""
    return replace(run_cell(*args), train=None, test=None)


def sweep_cells(cfg: ExperimentConfig):
    """Cell keys in deterministic config order."""
    return [(js, f, j)
            for js in cfg.js_values
            for f in cfg.f_values
            for j in range(cfg.n_coupling_seeds)]


def run_sweep(cfg: ExperimentConfig, threads: int = 1, out_dir=None,
              progress=None) -> SweepResult:
    """Run every cell of the sweep; optionally write outputs incrementally.

    With ``out_dir`` set, each finished cell is appended to ``cells.jsonl``
    (completion order, crash resilience) and the sorted ``sweep_results.csv``
    plus ``manifest.json`` are written at the end. Results are identical for
    any thread count.
    """
    cells = sweep_cells(cfg)
    jsonl_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        jsonl_path = os.path.join(out_dir, "cells.jsonl")
        with open(jsonl_path, "w"):
            pass

    def record(result: CellResult):
        if jsonl_path is not None:
            with open(jsonl_path, "a") as fh:
                fh.write(json.dumps({
                    "J_s": result.js, "f": result.f, "seed": result.seed_index,
                    "status": result.status, "error": result.error,
                    "wall_time_s": result.wall_time_s,
                }) + "\n")
        if progress is not None:
            progress(result)

    results: dict[tuple, CellResult] = {}
    if threads <= 1:
        for cell in cells:
            res = _cell_worker((cfg, *cell))
            record(res)
            results[cell] = res
    else:
        args = [(cfg, js, f, j) for (js, f, j) in cells]
        with multiprocessing.Pool(processes=threads) as pool:
            for res in pool.imap_unordered(_cell_worker, args):
                record(res)
                results[(res.js, res.f, res.seed_index)] = res

    ordered = tuple(results[cell] for cell in cells)
    sweep = SweepResult(config=cfg, rows=ordered, fingerprint=cfg.fingerprint())
    if out_dir is not None:
        write_sweep_outputs(sweep, out_dir)
    return sweep


def _ratio_repr(value) -> str:
    return "nan" if value is None else repr(float(value))


def sweep_csv_header(tau_max: int) -> list[str]:
    return (["J_s", "f", "seed", "status", "total_capacity"]
            + [f"cap_tau_{t}" for t in range(tau_max + 1)]
            + list(PARTITION_LABELS)
            + ["diff_single", "diff_pair", "ratio_single", "ratio_pair"])


def write_sweep_outputs(result: SweepResult, out_dir) -> None:
    """Write sweep_results.csv (no wall times, byte-reproducible) and the
    manifest (config, fingerprint, code version, per-cell status and timing)."""
    os.makedirs(out_dir, exist_ok=True)
    tau_max = result.config.tau_max
    with open(os.path.join(out_dir, "sweep_results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sweep_csv_header(tau_max))
        for row in result.rows:
            out = [repr(row.js), repr(row.f), row.seed_index, row.status]
            if row.status == "ok":
                out.append(repr(row.capacity.total))
                out += [repr(float(c)) for c in row.capacity.per_tau]
                out += [repr(row.entanglement.means[lbl]) for lbl in PARTITION_LABELS]
                out += [repr(row.entanglement.diff_single), repr(row.entanglement.diff_pair),
                        _ratio_repr(row.entanglement.ratio_single),
                        _ratio_repr(row.entanglement.ratio_pair)]
            else:
                out += ["nan"] * (1 + (tau_max + 1) + len(PARTITION_LABELS) + 4)
            writer.writerow(out)

    manifest = {
        "config": result.config.semantic_dict(),
        "output_dir": result.config.output_dir,
        "fingerprint": result.fingerprint,
        "code_version": __version__,
        "cells": [
            {"J_s": r.js, "f": r.f, "seed": r.seed_index, "status": r.status,
             "error": r.error, "wall_time_s": r.wall_time_s}
            for r in result.rows
        ],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sweep_results(out_dir) -> SweepResult:
    """Rebuild a SweepResult from sweep_results.csv + manifest.json."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    c = manifest["config"]
    cfg = ExperimentConfig(
        experiment_name=c["experiment_name"], js_values=tuple(c["js_values"]),
        f_values=tuple(c["f_values"]), n_coupling_seeds=c["n_coupling_seeds"],
        base_seed=c["base_seed"],
        run=RunConfig(t_final=c["t_final"], delta_t=c["delta_t"], dt=c["dt"],
                      washout_steps=c["washout_steps"],
                      input_qubits=tuple(c["input_qubits"]),
                      sample_spacing=c["sample_spacing"]),
        tau_max=c["tau_max"], lambda_grid=tuple(c["lambda_grid"]),
        lambda_selection=c["lambda_selection"],
        dissipator_convention=c["dissipator_convention"], time_axis=c["time_axis"],
        output_dir=manifest.get("output_dir", "results"),
    )
    tau_max = cfg.tau_max
    rows = []
    with open(os.path.join(out_dir, "sweep_results.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != sweep_csv_header(tau_max):
            raise ValueError(f"unexpected sweep_results.csv header in {out_dir}")
        for rec in reader:
            js, f, seed, status = float(rec[0]), float(rec[1]), int(rec[2]), rec[3]
            if status != "ok":
                rows.append(CellResult(js, f, seed, status, None, None, 0.0))
                continue
            total = float(rec[4])
            per_tau = np.array([float(x) for x in rec[5:5 + tau_max + 1]])
            off = 5 + tau_max + 1
            means = {lbl: float(rec[off + i]) for i, lbl in enumerate(PARTITION_LABELS)}
            profile = CapacityProfile(per_tau=per_tau,
                                      lambda_per_tau=np.full(tau_max + 1, np.nan), total=total)
            rows.append(CellResult(js, f, seed, "ok", profile, summary_from_means(means), 0.0))
    return SweepResult(config=cfg, rows=tuple(rows), fingerprint=manifest["fingerprint"])


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _group_ok(result: SweepResult):
    """ok rows grouped by (f, J_s), preserving config order of keys."""
    grouped: dict[tuple[float, float], list[CellResult]] = {}
    for f in result.config.f_values:
        for js in result.config.js_values:
            rows = [r for r in result.ok_rows() if r.f == f and r.js == js]
            if rows:
                grouped[(float(f), float(js))] = rows
    return grouped


def _f_tag(f: float) -> str:
    return f"{f:g}"


def emit_figure_data(result: SweepResult, figure: str, out_dir) -> list[str]:
    """Write plot-ready CSVs for one figure panel; returns the paths written.

    Seed-averaged values come with their standard error across coupling
    seeds. Aggregate differences and ratios are computed from the
    seed-averaged per-partition values; their stderr columns summarize the
    per-seed spread.
    """
    if figure not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURE_NAMES}")
    os.makedirs(out_dir, exist_ok=True)
    grouped = _group_ok(result)
    if not grouped:
        raise ValueError("sweep contains no successful cells")
    paths = []

    def write_rows(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)

    f_values = sorted({f for (f, _js) in grouped})

    if figure == "fig2a":
        for f in f_values:
            rows = []
            for (ff, js), cells in grouped.items():
                if ff != f:
                    continue
                mean, err = _mean_stderr([c.capacity.total for c in cells])
                rows.append((repr(js), repr(mean), repr(err)))
            rows.sort(key=lambda r: float(r[0]))
            write_rows(f"fig2a_f{_f_tag(f)}.csv",
                       ["J_s", "capacity_mean", "capacity_stderr"], rows)

    elif figure in ("fig2b", "fig2c"):
        labels = ("E1", "E2", "E3", "E4") if figure == "fig2b" else ("E12", "E13", "E14")
        for f in f_values:
            rows = []
            for (ff, js), cells in grouped.items():
                if ff != f:
                    continue
                row = [repr(js)]
                for lbl in labels:
                    mean, err = _mean_stderr([c.entanglement.means[lbl] for c in cells])
                    row += [repr(mean), repr(err)]
                rows.append(tuple(row))
            rows.sort(key=lambda r: float(r[0]))
            header = ["J_s"]
            for lbl in labels:
                header += [f"{lbl}_mean", f"{lbl}_stderr"]
            write_rows(f"{figure}_f{_f_tag(f)}.csv", header, rows)

    elif figure == "fig2d":
        for f in f_values:
            rows = []
            for (ff, js), cells in grouped.items():
                if ff != f:
                    continue
                seed_means = seed_average(c.entanglement for c in cells)
                _, err_s = _mean_stderr([c.entanglement.diff_single for c in cells])
                _, err_p = _mean_stderr([c.entanglement.diff_pair for c in cells])
                rows.append((repr(js), repr(seed_means.diff_single), repr(err_s),
                             repr(seed_means.diff_pair), repr(err_p)))
            rows.sort(key=lambda r: float(r[0]))
            write_rows(f"fig2d_f{_f_tag(f)}.csv",
                       ["J_s", "diff_single_mean", "diff_single_stderr",
                        "diff_pair_mean", "diff_pair_stderr"], rows)

    elif figure == "fig2e":
        for f in f_values:
            rows = []
            for (ff, js), cells in grouped.items():
                if ff != f:
                    continue
                seed_means = seed_average(c.entanglement for c in cells)
                per_seed_rs = [c.entanglement.ratio_single for c in cells]
                per_seed_rp = [c.entanglement.ratio_pair for c in cells]
                err_rs = (_mean_stderr([v for v in per_seed_rs if v is not None])[1]
                          if all(v is not None for v in per_seed_rs) else float("nan"))
                err_rp = (_mean_stderr([v for v in per_seed_rp if v is not None])[1]
                          if all(v is not None for v in per_seed_rp) else float("nan"))
                rows.append((repr(js), _ratio_repr(seed_means.ratio_single), repr(err_rs),
                             _ratio_repr(seed_means.ratio_pair), repr(err_rp)))
            rows.sort(key=lambda r: float(r[0]))
            write_rows(f"fig2e_f{_f_tag(f)}.csv",
                       ["J_s", "ratio_single", "ratio_single_stderr",
                        "ratio_pair", "ratio_pair_stderr"], rows)

    elif figure == "fig3":
        tau_max = result.config.tau_max
        for f in f_values:
            path = os.path.join(out_dir, f"fig3_f{_f_tag(f)}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["tau", "capacity_mean", "capacity_stderr"])
                for js in sorted({js for (ff, js) in grouped if ff == f}):
                    cells = grouped[(f, js)]
                    fh.write(f"# J_s={js:g}\n")
                    stacked = np.stack([c.capacity.per_tau for c in cells])
                    for tau in range(tau_max + 1):
                        mean, err = _mean_stderr(stacked[:, tau])
                        writer.writerow([tau, repr(mean), repr(err)])
            paths.append(path)

    elif figure == "fig4":
        js_set = sorted({js for (_f, js) in grouped})
        if len(js_set) != 1:
            raise ValueError(f"fig4 expects a single J_s in the sweep, found {js_set}")
        tau_max = result.config.tau_max
        path = os.path.join(out_dir, "fig4.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau", "capacity"])
            for f in f_values:
                cells = grouped[(f, js_set[0])]
                fh.write(f"# f={_f_tag(f)}\n")
                stacked = np.stack([c.capacity.per_tau for c in cells])
                for tau in range(tau_max + 1):
                    writer.writerow([tau, repr(float(stacked[:, tau].mean()))])
        paths.append(path)

    return paths


def seed_averaged_metric(result: SweepResult, f: float, metric) -> dict[float, float]:
    """Seed-averaged value of ``metric(cell)`` per J_s at one input frequency."""
    out = {}
    for (ff, js), cells in _group_ok(result).items():
        if ff == f:
            out[js] = float(np.mean([metric(c) for c in cells]))
    return out


def run_invariant_suite(n_runs: int = 100, n_injections: int = 50, base_seed: int = 7) -> dict:
    """Randomized short runs checking the physics invariants.

    Run i draws J_s uniformly from [0, 10) (J_s = 0 on every 10th run, so
    the uncoupled-network entanglement check is exercised) and drives the
    ``run_steps`` loop at f = 2; every post-evolve state is checked.
    Returns worst-case diagnostics across all runs and steps; callers assert
    the tolerances.
    """
    report = {
        "n_runs": n_runs,
        "max_trace_error": 0.0,
        "max_hermiticity_error": 0.0,
        "min_eigenvalue": 0.0,
        "min_raw_negativity": 0.0,
        "max_negativity": 0.0,
        "max_zero_coupling_negativity": 0.0,
    }
    run_cfg = RunConfig(t_final=n_injections * 7.5, delta_t=7.5, dt=0.025, washout_steps=0)
    for i in range(n_runs):
        rng = stream(0x56, base_seed, i)
        js = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 10.0))
        model = random_model(js, seed=(base_seed, i))
        seqs = [make_input_sequence(2.0, q, (base_seed, i)) for q in TRAIN_SEQUENCE_IDS]
        for _, _, raw, rho in run_steps(model, *seqs, run_cfg):
            report["max_hermiticity_error"] = max(
                report["max_hermiticity_error"], float(np.abs(raw - raw.conj().T).max()))
            report["max_trace_error"] = max(
                report["max_trace_error"],
                abs(float(np.trace(rho).real) - 1.0) + abs(float(np.trace(rho).imag)))
            report["min_eigenvalue"] = min(
                report["min_eigenvalue"], float(np.linalg.eigvalsh(rho)[0]))
            raw_negs = [log_negativity(rho, PARTITIONS[lbl], clamp=False)
                        for lbl in PARTITION_LABELS]
            report["min_raw_negativity"] = min(report["min_raw_negativity"], min(raw_negs))
            report["max_negativity"] = max(report["max_negativity"], max(raw_negs))
            if js == 0.0:
                report["max_zero_coupling_negativity"] = max(
                    report["max_zero_coupling_negativity"], max(raw_negs))
    return report


def invariant_suite_ok(report: dict) -> bool:
    """Default tolerances for the invariant suite."""
    return (report["max_trace_error"] <= 1e-9
            and report["max_hermiticity_error"] <= 1e-9
            and report["min_eigenvalue"] >= -1e-7
            and report["min_raw_negativity"] >= -1e-8
            and report["max_negativity"] <= 2.0
            and report["max_zero_coupling_negativity"] <= 1e-8)
