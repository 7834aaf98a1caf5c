"""Sweep orchestration, reproducibility metadata, and file output.

Every file the package writes goes through this module: ``write_csv`` and
``write_json`` fix the two formats, and the physics modules do no I/O.

``ExperimentConfig`` is the one config object: each config-file key is one
of its fields, and a run's length is its ``t_final`` (``n_steps`` injections)
and ``washout_steps``, which every run of a cell passes to ``run_reservoir``.

A sweep runs one cell per (J_s, f, coupling-seed) triple: sample a coupling
matrix, drive a training and a test reservoir with independent input
sequences, evaluate the capacity profile, and time-average the entanglement
samples. Cells are independent; failures are recorded per cell and never
abort the sweep. Given the same config and base seed, every numeric output
is identical no matter how many worker processes are used, on OpenBLAS's
SkylakeX and Sandybridge kernels; its Haswell/Zen kernels round the
propagator's ``zgemm`` differently at 1 and 2 BLAS threads.

Seed streams (see ``streams``): the coupling matrix and the input sequences
of seed index j all draw from the pair (base_seed, j), so every coupling seed
drives the reservoir with fresh input phases and shares its coupling pattern
(rescaled) across J_s values, giving smooth curves along the sweep axis.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .dynamics import random_model
from .entanglement import (
    PARTITION_LABELS,
    SUMMARY_FIELDS,
    hermitian_negativities,
    summarize,
)
from .learning import (
    DEFAULT_LAMBDA_GRID,
    TAU_MAX_DEFAULT,
    CapacityProfile,
    evaluate_capacity_profile,
)
from .linalg import check_density_matrix, hermitianize
from .reservoir import (
    DELTA_T,
    DT,
    SAMPLE_SPACING,
    TrajectoryRecord,
    interval_map,
    run_reservoir,
    samples_needed,
)
from .signals import (
    HOLDOUT_SEQUENCE_IDS,
    N_SAMPLES,
    N_SEQUENCES,
    TEST_SEQUENCE_IDS,
    TRAIN_SEQUENCE_IDS,
    make_input_sequence,
)
from .streams import VALIDATE_DOMAIN, WORD_LIMIT, stream

EXPERIMENT_NAMES = ("sweep_js", "memory_tail", "delay_dip", "single_run")

# 20 points covering both the capacity peak (~0.3) and entanglement peak (~6)
# regions, with the extremes of the studied coupling range as endpoints.
DEFAULT_JS_GRID = tuple(float(v) for v in np.geomspace(0.005, 75.0, 20))

FIGURE_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3", "fig4")


def _check_tags(name: str, values) -> None:
    """Raise a ValueError at the first of ``values`` that prints as an earlier
    one, as f in file names (``fig2a_f2.csv``) or as J_s in fig3's labels
    (``# J_s=0.1``); a repeat would run its cells twice, averaged as seeds."""
    seen, form = {}, "f{:g}" if name == "f_values" else "J_s={:g}"
    for value in values:
        if (tag := form.format(value)) in seen:
            raise ValueError(f"{name} {seen[tag]!r} and {value!r} both print as {tag}")
        seen[tag] = value


class ConfigError(Exception):
    """Invalid experiment configuration, with file/line diagnostics."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


# A config file's key for each field is the field's name, but for this one.
FILE_KEYS = {"experiment_name": "experiment"}

# The type of a field by its annotation; a tuple field holds floats.
_SCALAR_TYPES = {"int": int, "float": float, "str": str}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Resolved configuration of one experiment, checked once, here.

    Its fields are the config schema: each is one config-file key, its name
    (``experiment`` for ``experiment_name``, see ``FILE_KEYS``), read as its
    annotation says (a ``tuple`` as a list of floats). Every field but
    ``output_dir`` enters ``semantic_dict``.
    """

    experiment_name: str = "sweep_js"
    js_values: tuple = DEFAULT_JS_GRID
    f_values: tuple = (2.0,)
    n_coupling_seeds: int = 10
    base_seed: int = 2024
    t_final: float = 2750.0
    washout_steps: int = 50
    tau_max: int = TAU_MAX_DEFAULT
    lambda_selection: str = "test"
    output_dir: str = "results"

    def __post_init__(self):
        for fld in fields(self):  # a bool is an int, so it is refused by name
            kind = {"int": "an integer", "float": "a number"}.get(fld.type)
            value = getattr(self, fld.name)
            if kind and (isinstance(value, bool) or fld.type == "int" and not isinstance(value, int)):
                raise ValueError(f"{fld.name} must be {kind}, got {value!r}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and positive, got {self.t_final}")
        if self.washout_steps < 0:
            raise ValueError("washout_steps must be nonnegative")
        if self.experiment_name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.experiment_name!r}")
        for name in ("js_values", "f_values"):
            values = getattr(self, name)
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {values}")
            _check_tags(name, values)
        if not self.js_values:
            raise ValueError("js_values must be nonempty")
        # -0.0 too: it would share a results key with 0.0.
        if any(math.copysign(1.0, js) < 0 for js in self.js_values):
            raise ValueError("js_values must be nonnegative")
        if not self.f_values or any(f <= 0 for f in self.f_values):
            raise ValueError("f_values must be positive")
        if self.n_coupling_seeds < 1:
            raise ValueError("n_coupling_seeds must be at least 1")
        if not 0 <= self.base_seed < WORD_LIMIT:
            raise ValueError(f"base_seed must be at least 0 and below 2**32, "
                             f"got {self.base_seed}")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")
        if self.lambda_selection not in ("test", "holdout"):
            raise ValueError(f"unknown lambda_selection {self.lambda_selection!r}")
        if not self.output_dir:
            raise ValueError("output_dir must be nonempty")
        # Train/test segments must stay non-degenerate at the largest delay.
        if self.n_steps < self.washout_steps + 2 * (self.tau_max + 10):
            raise ValueError(
                f"run too short: K={self.n_steps} < washout_steps + 2*(tau_max+10) "
                f"= {self.washout_steps + 2 * (self.tau_max + 10)}")
        if (needed := samples_needed(self.n_steps)) > N_SAMPLES:
            raise ValueError(
                f"run too long: K={self.n_steps} steps read {needed} "
                f"samples per input sequence, more than the {N_SAMPLES} it holds")

    @property
    def n_steps(self) -> int:
        """Number of injection steps K = floor(t_final / DELTA_T)."""
        return int(math.floor(self.t_final / DELTA_T + 1e-9))

    def semantic_dict(self) -> dict:
        """Everything that affects numeric results: every field but
        ``output_dir`` as its annotation's type, a tuple as a list of floats."""
        # Retired settings keep their one value, so fingerprints stay put.
        return {"input_qubits": [0, 1], "time_axis": "index", "dissipator_convention": "paper",
                "delta_t": DELTA_T, "dt": DT, "sample_spacing": SAMPLE_SPACING,
                "lambda_grid": [float(lam) for lam in DEFAULT_LAMBDA_GRID],
                **{fld.name: ([float(v) for v in getattr(self, fld.name)] if fld.type == "tuple"
                              else _SCALAR_TYPES[fld.type](getattr(self, fld.name)))
                   for fld in fields(self) if fld.name != "output_dir"}}

    def fingerprint(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _parse(fld, text: str):
    """A config-file value as its field's annotation reads it: ``int``,
    ``float``, ``str``, or a comma-separated list of floats for a ``tuple``;
    ``js_values = default`` gives the 20-point grid."""
    if fld.type != "tuple":
        return _SCALAR_TYPES[fld.type](text)
    if fld.name == "js_values" and text == "default":
        return DEFAULT_JS_GRID
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def parse_config_file(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored. List values are
    comma separated; ``js_values = default`` selects the 20-point grid. A
    value check that names exactly one key reports that key's line.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc), path=path) from exc

    by_key = {FILE_KEYS.get(fld.name, fld.name): fld for fld in fields(ExperimentConfig)}
    values: dict = {}
    key_lines: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value', got {text!r}", path, lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        fld = by_key.get(key)
        if fld is None:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if fld.name in values:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        try:
            values[fld.name] = _parse(fld, value.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno) from exc
        key_lines[key] = lineno

    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        named = [key for key in by_key if re.search(rf"\b{key}\b", str(exc))]
        line = key_lines.get(named[0]) if len(named) == 1 else None
        raise ConfigError(str(exc), path, line) from exc


def check_output_dir(path) -> None:
    """Raise a ConfigError naming ``path`` unless it is a directory or its
    nearest existing ancestor is one, so that a command fails before its work."""
    if not path:
        raise ConfigError(f"output directory must be nonempty, got {path!r}")
    found = os.path.abspath(path)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"output directory {path!r} cannot be made: {found!r} is not a directory")


@dataclass(frozen=True, eq=False)
class CellResult:
    """Outcome of one (J_s, f, seed) sweep cell.

    ``train`` and ``test`` are the records the capacity was scored on; a
    sweep drops them and keeps only the summaries. ``stage_s`` holds the
    seconds an ok cell spent in each stage: ``propagator`` (the interval
    map), ``reservoirs`` (the one loop that steps every run of the cell
    together), ``negativities`` (the post-washout entanglement of the train
    and test runs) and ``readout`` (capacity and entanglement summary); it
    is empty for a failed cell.
    """

    js: float
    f: float
    seed_index: int
    status: str
    capacity: CapacityProfile | None
    entanglement: dict | None
    wall_time_s: float
    error: str = ""
    train: TrajectoryRecord | None = None
    test: TrajectoryRecord | None = None
    stage_s: dict = field(default_factory=dict)


def run_cell(cfg: ExperimentConfig, js: float, f: float, seed_index: int) -> CellResult:
    """Run the train and test reservoirs for one cell and evaluate them.

    Every run of the cell shares one interval map, and the runs (train,
    test and, with ``lambda_selection = holdout``, the holdout run) step
    together in one ``run_reservoir`` loop. The summary reads the
    negativities of the post-washout steps of the train and test runs only,
    so no other state's are computed. The result carries both records, so a
    caller can export or rescore them without running the reservoirs again.
    """
    start = time.perf_counter()
    try:
        model = random_model(js, seed=(cfg.base_seed, seed_index))
        runs = (TRAIN_SEQUENCE_IDS, TEST_SEQUENCE_IDS) + (
            (HOLDOUT_SEQUENCE_IDS,) if cfg.lambda_selection == "holdout" else ())
        pairs = [tuple(make_input_sequence(f, q, (cfg.base_seed, seed_index)) for q in ids)
                 for ids in runs]
        t_build = time.perf_counter()
        propagator = interval_map(model)
        t_runs = time.perf_counter()
        train, test, *holdout = run_reservoir(propagator, pairs, cfg.n_steps, cfg.washout_steps)
        del propagator  # 1 MiB the readout, where the cell peaks, need not hold
        selection = holdout[0] if holdout else None
        t_negs = time.perf_counter()
        # Entanglement statistics use the post-washout samples of both runs.
        samples = np.vstack([train.steady_entanglement, test.steady_entanglement])
        t_readout = time.perf_counter()
        profile = evaluate_capacity_profile(train, test, cfg.tau_max, selection=selection)
        summary = summarize(samples.mean(axis=0))
        end = time.perf_counter()
        stage_s = {"propagator": t_runs - t_build, "reservoirs": t_negs - t_runs,
                   "negativities": t_readout - t_negs, "readout": end - t_readout}
        return CellResult(js=float(js), f=float(f), seed_index=int(seed_index), status="ok",
                          capacity=profile, entanglement=summary, wall_time_s=end - start,
                          train=train, test=test, stage_s=stage_s)
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
              progress=None) -> tuple[CellResult, ...]:
    """Run every cell of the sweep and return the results in config order;
    optionally write outputs incrementally.

    With ``out_dir`` set, each finished cell's status and timing are appended
    to ``cells.jsonl`` (completion order; no results, so a killed sweep is
    run again), and the sorted ``sweep_results.csv`` plus ``manifest.json``
    are written at the end. An earlier sweep's two are removed at the start,
    so a sweep that stops leaves no results that are not its own. Results
    are identical for any ``threads`` on OpenBLAS's SkylakeX and Sandybridge
    kernels; on Haswell/Zen the propagator's ``zgemm`` rounds differently at
    1 and 2 BLAS threads.
    ``threads`` > 1 runs the cells on a pool of at most that many worker
    processes. A dying worker breaks the pool; each cell it left unfinished
    is rerun on a one-worker pool of its own, and only a cell whose own
    worker dies is recorded as an error.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    cells = sweep_cells(cfg)
    jsonl_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        jsonl_path = os.path.join(out_dir, "cells.jsonl")
        with open(jsonl_path, "w"):
            pass
        for name in ("sweep_results.csv", "manifest.json"):
            if os.path.exists(path := os.path.join(out_dir, name)):
                os.remove(path)

    results: dict[tuple, CellResult] = {}

    def record(cell, result: CellResult):
        results[cell] = result
        if jsonl_path is not None:
            with open(jsonl_path, "a") as fh:
                fh.write(json.dumps(_cell_log(result)) + "\n")
        if progress is not None:
            progress(result)

    if threads == 1:
        for cell in cells:
            record(cell, _cell_worker((cfg, *cell)))
    else:
        # Imported here: a serial run and every other command skip their start-up cost.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        def on_pool(batch, workers):
            """Record each cell of ``batch`` that the pool finishes."""
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(_cell_worker, (cfg, *cell)): cell for cell in batch}
                for future in as_completed(futures):
                    try:
                        record(futures[future], future.result())
                    except BrokenProcessPool:
                        pass  # rerun below

        on_pool(cells, min(threads, len(cells)))
        for cell in [c for c in cells if c not in results]:
            on_pool([cell], 1)
            if cell not in results:
                js, f, j = cell
                record(cell, CellResult(float(js), float(f), int(j), "error", None, None, 0.0,
                                        error="worker process died"))

    rows = tuple(results[cell] for cell in cells)
    if out_dir is not None:
        write_sweep_outputs(cfg, rows, out_dir)
    return rows


def write_csv(path, header, rows) -> None:
    """A header row, then ``rows``. Callers format floats themselves, as
    ``repr(float(v))``, so a numpy scalar never reaches the file as its str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """``payload`` with indent 2, sorted keys and a final newline (None as null)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_signal_files(cfg: ExperimentConfig, out_dir) -> list[str]:
    """The N_SEQUENCES input sequences of coupling seed 0 for each f, one
    ``signal_f<f>_seq<id>.csv`` of index and value each; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for f in cfg.f_values:
        for q in range(N_SEQUENCES):
            paths.append(os.path.join(out_dir, f"signal_f{f:g}_seq{q}.csv"))
            samples = make_input_sequence(f, q, (cfg.base_seed, 0))
            write_csv(paths[-1], ["index", "value"],
                      ([k, repr(float(v))] for k, v in enumerate(samples)))
    return paths


TRAJECTORY_COLUMNS = ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4"] + list(PARTITION_LABELS)


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per injection step: k, s1, s2, Z1..Z4, E1..E14.

    ``tolist`` turns the whole table into Python floats at once, whose repr
    is that of ``float(v)`` for each numpy value."""
    table = np.column_stack([record.injected_values, record.features[:, :4],
                             record.entanglement_samples]).tolist()
    write_csv(path, TRAJECTORY_COLUMNS,
              ([k, *map(repr, row)] for k, row in enumerate(table)))


def write_run_outputs(cfg: ExperimentConfig, result: CellResult, out_dir) -> None:
    """The files of one ok cell: both trajectories, the capacity profile as
    CSV and as JSON (with the config fingerprint), and the entanglement
    summary keyed by the cell's J_s, f and seed."""
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(result.train, os.path.join(out_dir, "trajectory_train.csv"))
    write_trajectory_csv(result.test, os.path.join(out_dir, "trajectory_test.csv"))
    profile = result.capacity
    write_csv(os.path.join(out_dir, "capacity.csv"), ["tau", "capacity", "lambda_chosen"],
              ([tau, repr(float(c)), repr(float(lam))]
               for tau, (c, lam) in enumerate(zip(profile.per_tau, profile.lambda_per_tau))))
    write_json(os.path.join(out_dir, "capacity.json"), {
        "per_tau": [float(c) for c in profile.per_tau],
        "lambda_per_tau": [float(lam) for lam in profile.lambda_per_tau],
        "total": profile.total,
        "config_fingerprint": cfg.fingerprint(),
    })
    write_json(os.path.join(out_dir, "entanglement.json"),
               {"J_s": result.js, "f": result.f, "seed": result.seed_index,
                **result.entanglement})


CELL_LOG_KEYS = ("J_s", "f", "seed", "status", "error", "wall_time_s", "stage_s")


def _cell_log(r: CellResult) -> dict:
    """A cell's status and timing, as cells.jsonl and the manifest list it."""
    return dict(zip(CELL_LOG_KEYS, (r.js, r.f, r.seed_index, r.status, r.error,
                                    r.wall_time_s, r.stage_s)))


def _repr_or_nan(value) -> str:
    """A number as its repr; None (an undefined ratio) as nan."""
    return "nan" if value is None else repr(float(value))


def sweep_csv_header(tau_max: int) -> list[str]:
    return (["J_s", "f", "seed", "status", "total_capacity"]
            + [f"cap_tau_{t}" for t in range(tau_max + 1)]
            + list(SUMMARY_FIELDS))


def blas_info() -> dict:
    """The core name and thread count of the OpenBLAS that numpy loaded, each
    None where numpy bundles no ``libscipy_openblas64_`` library exporting it.

    The goldens hold the rounding of one OpenBLAS kernel family, so a sweep
    records which one it ran on.
    """
    import ctypes
    import glob

    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                         "libscipy_openblas64_*.so")))
    core = threads = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        if get_core := getattr(lib, "scipy_openblas_get_corename64_", None):
            get_core.argtypes, get_core.restype = [], ctypes.c_char_p
            core = get_core().decode()
        if get_threads := getattr(lib, "scipy_openblas_get_num_threads64_", None):
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = get_threads()
    return {"core": core, "threads": threads}


def write_sweep_outputs(cfg: ExperimentConfig, rows, out_dir) -> None:
    """Write sweep_results.csv (no wall times, byte-reproducible) and the
    manifest (config, fingerprint, code version, OpenBLAS kernel, per-cell
    status, wall time and stage times) for the cell results ``rows`` of ``cfg``."""
    os.makedirs(out_dir, exist_ok=True)
    header = sweep_csv_header(cfg.tau_max)
    table = []
    for row in rows:
        out = [repr(row.js), repr(row.f), row.seed_index, row.status]
        if row.status == "ok":
            out += [_repr_or_nan(v) for v in (row.capacity.total, *row.capacity.per_tau)]
            out += [_repr_or_nan(row.entanglement[name]) for name in SUMMARY_FIELDS]
        table.append(out + ["nan"] * (len(header) - len(out)))
    write_csv(os.path.join(out_dir, "sweep_results.csv"), header, table)
    write_json(os.path.join(out_dir, "manifest.json"), {
        "config": cfg.semantic_dict(),
        "output_dir": cfg.output_dir,
        "fingerprint": cfg.fingerprint(),
        "code_version": __version__,
        "blas": blas_info(),
        "cells": [_cell_log(r) for r in rows],
    })


def _number(rec, i, header, where, kind=float):
    """Field ``i`` of the sweep_results.csv row ``where``, or a ValueError naming its column."""
    try:
        return kind(rec[i])
    except ValueError:
        raise ValueError(f"{where} column {header[i]} is {rec[i]!r}, not a number") from None


def read_sweep_results(out_dir) -> tuple[CellResult, ...]:
    """The cell results of a finished sweep, in config order, from
    sweep_results.csv and manifest.json. Each row's error and timings come
    from its cell's entry in the manifest; ``lambda_per_tau``, which the CSV
    does not hold, is NaN. A malformed file raises a ValueError naming it."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: not JSON: {exc}") from None
    try:
        tau_max, cells = manifest["config"]["tau_max"], manifest["cells"]
    except (KeyError, TypeError):
        raise ValueError(f"{manifest_path}: lacks config.tau_max or cells") from None
    if type(tau_max) is not int or tau_max < 0:
        raise ValueError(f"{manifest_path}: config.tau_max is {tau_max!r}, not an integer >= 0")
    if not isinstance(cells, list):
        raise ValueError(f"{manifest_path}: cells is {cells!r}, not a list")
    csv_path = os.path.join(out_dir, "sweep_results.csv")
    header = sweep_csv_header(tau_max)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != header:
            raise ValueError(f"unexpected sweep_results.csv header in {out_dir}")
        records = list(reader)
    if len(records) != len(cells):
        raise ValueError(f"{out_dir}: sweep_results.csv has {len(records)} rows, "
                         f"manifest.json lists {len(cells)} cells")
    rows = []
    for number, (rec, log) in enumerate(zip(records, cells), start=1):
        if missing := [key for key in CELL_LOG_KEYS
                       if not isinstance(log, dict) or key not in log]:
            raise ValueError(f"{manifest_path}: cell {number} lacks {', '.join(missing)}")
        where = f"{csv_path}: row {number}"
        if len(rec) != len(header):
            raise ValueError(f"{where} has {len(rec)} fields, the header {len(header)}")
        js, f, seed = (_number(rec, i, header, where, kind)
                       for i, kind in enumerate((float, float, int)))
        status = rec[3]
        if status not in ("ok", "error"):
            raise ValueError(f"{where} column status is {status!r}, not ok or error")
        if (log["J_s"], log["f"], log["seed"]) != (js, f, seed):
            raise ValueError(f"{out_dir}: sweep_results.csv row {number} is (J_s, f, seed) = "
                             f"{(js, f, seed)}, its manifest entry "
                             f"{(log['J_s'], log['f'], log['seed'])}")
        profile = summary = None
        if status == "ok":
            nums = [_number(rec, i, header, where) for i in range(4, len(header))]
            profile = CapacityProfile(per_tau=np.array(nums[1:tau_max + 2]),
                                      lambda_per_tau=np.full(tau_max + 1, np.nan))
            summary = summarize(nums[tau_max + 2:tau_max + 2 + len(PARTITION_LABELS)])
        rows.append(CellResult(js, f, seed, status, profile, summary, log["wall_time_s"],
                               error=log["error"], stage_s=log["stage_s"]))
    try:
        for name, values in (("js_values", {r.js for r in rows}), ("f_values", {r.f for r in rows})):
            _check_tags(name, sorted(values))
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    return tuple(rows)


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _group_ok(rows):
    """The ok rows grouped by (f, J_s), keys and rows in row order."""
    grouped = {}
    for r in rows:
        if r.status == "ok":
            grouped.setdefault((r.f, r.js), []).append(r)
    return grouped


# The per-J_s panels, one row per J_s and one file per f: (statistic,
# suffix of the value headers, value names). A "seed" value is the mean over
# coupling seeds of the per-cell value; an "aggregate" value is ``summarize``
# of the seed-averaged partitions, which sums in another order, so the two
# stay apart. Each value has a ``<name>_stderr`` column, the per-seed spread,
# nan when any seed's value is undefined.
_JS_PANELS = {
    "fig2a": ("seed", "_mean", ("capacity",)),
    "fig2b": ("seed", "_mean", ("E1", "E2", "E3", "E4")),
    "fig2c": ("seed", "_mean", ("E12", "E13", "E14")),
    "fig2d": ("aggregate", "_mean", ("diff_single", "diff_pair")),
    "fig2e": ("aggregate", "", ("ratio_single", "ratio_pair")),
}


def _js_row(js, cells, statistic, names) -> list[str]:
    row = [repr(js)]
    for name in names:
        per_seed = ([c.capacity.total for c in cells] if name == "capacity"
                    else [c.entanglement[name] for c in cells])
        if statistic == "aggregate":
            value = summarize(np.mean([[c.entanglement[lbl] for lbl in PARTITION_LABELS]
                                       for c in cells], axis=0))[name]
        else:
            value = _mean_stderr(per_seed)[0]
        err = float("nan") if None in per_seed else _mean_stderr(per_seed)[1]
        row += [_repr_or_nan(value), repr(err)]
    return row


def _delay_rows(blocks, stderr: bool):
    """Capacity against delay: per (label, cells) block, a one-field
    ``# label`` row, then one row per tau of the seed mean and, with
    ``stderr``, its standard error."""
    for label, cells in blocks:
        yield [f"# {label}"]
        stacked = np.stack([c.capacity.per_tau for c in cells])
        for tau in range(stacked.shape[1]):
            mean, err = _mean_stderr(stacked[:, tau])
            yield [tau, repr(mean), repr(err)] if stderr else [tau, repr(mean)]


def emit_figure_data(rows, figure: str, out_dir) -> list[str]:
    """Write plot-ready CSVs for one figure panel from the cell results
    ``rows`` of a sweep; returns the paths written.

    Seed-averaged values come with their standard error across coupling
    seeds. Aggregate differences and ratios are computed from the
    seed-averaged per-partition values; their stderr columns summarize the
    per-seed spread.
    """
    if figure not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURE_NAMES}")
    os.makedirs(out_dir, exist_ok=True)
    grouped = _group_ok(rows)
    if not grouped:
        raise ValueError("sweep contains no successful cells")
    f_values = sorted({f for (f, _js) in grouped})

    if figure == "fig4":
        js_set = sorted({js for (_f, js) in grouped})
        if len(js_set) != 1:
            raise ValueError(f"fig4 expects a single J_s in the sweep, found {js_set}")
        path = os.path.join(out_dir, "fig4.csv")
        write_csv(path, ["tau", "capacity"],
                  _delay_rows([(f"f={f:g}", grouped[(f, js_set[0])]) for f in f_values],
                             stderr=False))
        return [path]

    paths = []
    for f in f_values:
        js_sorted = sorted(js for (ff, js) in grouped if ff == f)
        path = os.path.join(out_dir, f"{figure}_f{f:g}.csv")
        paths.append(path)
        if figure == "fig3":
            write_csv(path, ["tau", "capacity_mean", "capacity_stderr"],
                      _delay_rows([(f"J_s={js:g}", grouped[(f, js)]) for js in js_sorted],
                                 stderr=True))
            continue
        statistic, suffix, names = _JS_PANELS[figure]
        write_csv(path, ["J_s"] + [h for n in names for h in (n + suffix, f"{n}_stderr")],
                  (_js_row(js, grouped[(f, js)], statistic, names) for js in js_sorted))
    return paths


def seed_averaged_metric(rows, f: float, metric) -> dict[float, float]:
    """Seed-averaged value of ``metric(cell)`` per J_s at one input frequency,
    over the cell results ``rows`` of a sweep."""
    out = {}
    for (ff, js), cells in _group_ok(rows).items():
        if ff == f:
            out[js] = float(np.mean([metric(c) for c in cells]))
    return out


def run_invariant_suite(n_runs: int = 100, n_injections: int = 50, base_seed: int = 7) -> dict:
    """Randomized short runs checking the physics invariants.

    Run i draws J_s uniformly from [0, 10) (J_s = 0 on every 10th run, so
    the uncoupled-network entanglement check is exercised) and drives the
    run loop at f = 2. Each run's post-evolve states, as the propagator
    returns them (the record's ``raw``), go through ``check_density_matrix``
    as one stack, and the negativities of their Hermitian parts (the states
    the run hands on, exactly Hermitian, so ``hermitian_negativities`` takes
    them unchecked) are taken once.
    Returns worst-case diagnostics across all runs and steps; callers assert
    the tolerances.
    """
    runs = []
    for i in range(n_runs):
        rng = stream(VALIDATE_DOMAIN, (base_seed, i))
        js = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 10.0))
        model = random_model(js, seed=(base_seed, i))
        seqs = [make_input_sequence(2.0, q, (base_seed, i)) for q in TRAIN_SEQUENCE_IDS]
        (run,) = run_reservoir(interval_map(model), [seqs], n_injections, 0, keep_raw=True)
        negs = hermitian_negativities(hermitianize(run.raw))
        runs.append({**check_density_matrix(run.raw), "js": js,
                     "min_neg": float(negs.min()), "max_neg": float(negs.max())})
    return {
        "n_runs": n_runs,
        "max_trace_error": max(r["trace_error"] for r in runs),
        "max_hermiticity_error": max(r["hermiticity_error"] for r in runs),
        "min_eigenvalue": min(r["min_eigenvalue"] for r in runs),
        "min_raw_negativity": min(r["min_neg"] for r in runs),
        "max_negativity": max(r["max_neg"] for r in runs),
        "max_zero_coupling_negativity": max(r["max_neg"] for r in runs if r["js"] == 0.0),
    }


def invariant_suite_ok(report: dict) -> bool:
    """Default tolerances for the invariant suite."""
    return (report["max_trace_error"] <= 1e-9
            and report["max_hermiticity_error"] <= 1e-9
            and report["min_eigenvalue"] >= -1e-7
            and report["min_raw_negativity"] >= -1e-8
            and report["max_negativity"] <= 2.0
            and report["max_zero_coupling_negativity"] <= 1e-8)
