"""Command-line interface.

Subcommands:

* ``run CONFIG``         the one (J_s, f) cell of a config at coupling-seed
                         index 0; writes trajectories, capacity profile and
                         entanglement summary
* ``sweep CONFIG``       the full (J_s, f, seed) grid with incremental output
* ``emit --results DIR`` plot-ready per-figure CSVs from a finished sweep
* ``validate``           randomized physics-invariant suite
* ``gen-signals CONFIG`` export the nine input sequences of seed 0 per frequency

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .experiments import (
    FIGURE_NAMES,
    ConfigError,
    ExperimentConfig,
    blas_info,
    check_output_dir,
    emit_figure_data,
    invariant_suite_ok,
    parse_config_file,
    read_sweep_results,
    run_cell,
    run_invariant_suite,
    run_sweep,
    sweep_cells,
    write_run_outputs,
    write_signal_files,
)
from .reservoir import samples_needed
from .signals import N_SAMPLES


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config_file(args.config)
    try:
        cfg = replace(cfg, base_seed=cfg.base_seed if args.seed is None else args.seed,
                      output_dir=cfg.output_dir if args.out is None else args.out)
    except ValueError as exc:  # an override the config's checks refuse, e.g. --out ''
        raise ConfigError(str(exc)) from exc
    check_output_dir(cfg.output_dir)
    return cfg


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    for key, values in (("js_values", cfg.js_values), ("f_values", cfg.f_values)):
        if len(values) != 1:
            raise ConfigError(f"run takes one value of {key}, got {values}", args.config)
    js, f = cfg.js_values[0], cfg.f_values[0]
    print(f"running single cell: J_s={js:g} f={f:g} seed=0 "
          f"(fingerprint {cfg.fingerprint()[:12]})")
    result = run_cell(cfg, js, f, seed_index=0)
    if result.status != "ok":
        print(f"run failed: {result.error}", file=sys.stderr)
        return 1
    write_run_outputs(cfg, result, cfg.output_dir)
    print(f"total capacity: {result.capacity.total:.4f}")
    print(f"outputs written to {cfg.output_dir}")
    print(f"OpenBLAS {blas_info()}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    n_cells = len(sweep_cells(cfg))
    # Flushed, so that a reader of piped stdout sees the sweep advance.
    print(f"sweep {cfg.experiment_name}: {n_cells} cells, {args.threads} worker(s), "
          f"fingerprint {cfg.fingerprint()[:12]}", flush=True)

    done = [0]

    def progress(res):
        done[0] += 1
        tag = "ok" if res.status == "ok" else f"ERROR ({res.error})"
        print(f"  [{done[0]}/{n_cells}] J_s={res.js:g} f={res.f:g} seed={res.seed_index}: {tag}",
              flush=True)

    rows = run_sweep(cfg, threads=args.threads, out_dir=cfg.output_dir, progress=progress)
    failed = [r for r in rows if r.status != "ok"]
    print(f"sweep finished: {len(rows) - len(failed)} ok, {len(failed)} failed; "
          f"outputs in {cfg.output_dir}")
    if len(failed) == len(rows):
        print("every cell failed", file=sys.stderr)
        return 1
    return 0


def _cmd_emit(args) -> int:
    if not os.path.isdir(args.results):
        raise ConfigError(f"results directory {args.results!r} is not a directory")
    out = args.results if args.out is None else args.out
    check_output_dir(out)
    rows = read_sweep_results(args.results)
    written = 0
    for figure in FIGURE_NAMES if args.figure == "all" else (args.figure,):
        try:
            paths = emit_figure_data(rows, figure, out)
        except ValueError as exc:
            if args.figure != "all":
                raise
            # Emit every panel the sweep's axes can support; report the rest.
            print(f"skipping {figure}: {exc}")
            continue
        for path in paths:
            print(f"wrote {path}")
        written += len(paths)
    if not written:
        print(f"no figure data written from {args.results}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    try:
        needed = samples_needed(args.steps)
    except OverflowError:  # the run's last injection time is past float range
        needed = math.inf
    if needed > N_SAMPLES:
        print(f"usage error: --steps {args.steps} reads {needed} samples per input sequence, "
              f"more than the {N_SAMPLES} it holds", file=sys.stderr)
        return 2
    print(f"invariant suite: {args.runs} randomized runs x {args.steps} injections")
    report = run_invariant_suite(n_runs=args.runs, n_injections=args.steps,
                                 base_seed=args.seed if args.seed is not None else 7)
    for key, value in report.items():
        if key != "n_runs":
            print(f"  {key}: {value:.3e}")
    if invariant_suite_ok(report):
        print("all invariants hold")
        return 0
    print("invariant violation detected", file=sys.stderr)
    return 1


def _cmd_gen_signals(args) -> int:
    cfg = _load_config(args)
    for path in write_signal_files(cfg, cfg.output_dir):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqrc",
        description="spin-network quantum reservoir computing simulator")
    parser.add_argument("--version", action="version", version=f"spinqrc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--seed", type=nonnegative_int, default=None, help="override base_seed")
        p.add_argument("--out", default=None, help="override output directory")

    p_run = sub.add_parser("run", help="run a single (J_s, f, seed) cell")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the configured sweep grid")
    common(p_sweep)
    p_sweep.add_argument("--threads", type=positive_int, default=1,
                         help="worker processes (at most one per cell)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_emit = sub.add_parser("emit", help="emit plot-ready figure CSVs from a sweep")
    p_emit.add_argument("--results", required=True, help="directory with sweep outputs")
    p_emit.add_argument("--figure", default="all", choices=("all",) + FIGURE_NAMES)
    p_emit.add_argument("--out", default=None, help="output directory (default: results dir)")
    p_emit.set_defaults(func=_cmd_emit)

    p_val = sub.add_parser("validate", help="run the physics invariant suite")
    p_val.add_argument("--runs", type=positive_int, default=25)
    p_val.add_argument("--steps", type=positive_int, default=50)
    p_val.add_argument("--seed", type=nonnegative_int, default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("gen-signals", help="export the nine input sequences")
    common(p_gen)
    p_gen.set_defaults(func=_cmd_gen_signals)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    On every way out, usage errors and ``--version`` included, the heap is
    frozen: the objects numpy and the package leave alive move to the
    permanent generation, which the collections at interpreter shutdown skip.
    Freezing on return, not at start-up, leaves the command's own collections
    and its peak memory as they were.
    """
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
