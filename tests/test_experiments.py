import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from spinqrc.dynamics import random_model
from spinqrc.entanglement import PARTITION_LABELS, SUMMARY_FIELDS
from spinqrc.experiments import (
    CELL_LOG_KEYS,
    DEFAULT_JS_GRID,
    FIGURE_NAMES,
    FILE_KEYS,
    ConfigError,
    ExperimentConfig,
    blas_info,
    emit_figure_data,
    invariant_suite_ok,
    parse_config_file,
    read_sweep_results,
    run_cell,
    run_invariant_suite,
    run_sweep,
    seed_averaged_metric,
    sweep_cells,
    write_run_outputs,
    write_trajectory_csv,
)
from spinqrc.learning import evaluate_capacity_profile
from spinqrc.linalg import hermitianize
from spinqrc.reservoir import interval_map, run_reservoir
from spinqrc.signals import TRAIN_SEQUENCE_IDS, make_input_sequence


def tiny_config(**overrides):
    base = dict(experiment_name="sweep_js", js_values=(0.1, 1.0), f_values=(2.0,),
                n_coupling_seeds=2, base_seed=777, t_final=750.0, washout_steps=30,
                tau_max=10, output_dir="unused")
    base.update(overrides)
    return ExperimentConfig(**base)


TINY_CONFIG_TEXT = """\
# pinned tiny sweep used by the determinism and golden-file tests
experiment = sweep_js
js_values = 0.1, 1.0
f_values = 2
n_coupling_seeds = 2
base_seed = 777
t_final = 750
washout_steps = 30
tau_max = 10
output_dir = results/tiny
"""


# Every key, with the list and non-default forms.
ALL_KEYS_CONFIG_TEXT = """\
experiment = sweep_js
js_values = 0.2, 0.7
f_values = 1.5
n_coupling_seeds = 1
base_seed = 5
t_final = 600
washout_steps = 20
tau_max = 8
output_dir = results/all_keys
"""

# A fingerprint names the results of a sweep: a change of either value means
# old and new sweeps of the same file no longer match.
TINY_SWEEP_FINGERPRINT = "108f217369d0a64ce36a9096da1628327bb529386007f1fc5f4e01c284a7459f"
ALL_KEYS_FINGERPRINT = "bcc15460d17d8717df78035ff1b6d7ec66a3d5188a5d1f045121cb45257ea070"


class TestConfigParsing:
    @pytest.mark.parametrize("fld", dataclasses.fields(ExperimentConfig), ids=lambda fld: fld.name)
    def test_each_field_round_trips_through_a_config_file(self, tmp_path, fld):
        # Each field is read back as its annotation says; a field whose
        # annotation the parser cannot read fails here.
        cfg = tiny_config(experiment_name="memory_tail", f_values=(1.5, 3.0), t_final=750.5)
        assert getattr(cfg, fld.name) != getattr(ExperimentConfig(), fld.name)
        settings = {FILE_KEYS.get(f.name, f.name): getattr(cfg, f.name)
                    for f in dataclasses.fields(cfg)}
        path = tmp_path / "exp.cfg"
        path.write_text("".join(
            f"{key} = {', '.join(map(repr, v)) if isinstance(v, tuple) else v}\n"
            for key, v in settings.items()))
        parsed, value = getattr(parse_config_file(path), fld.name), getattr(cfg, fld.name)
        assert parsed == value and type(parsed) is type(value)

    def test_file_keys_are_the_field_names(self, tmp_path):
        # Every key, in field order, with experiment for experiment_name.
        assert ([FILE_KEYS.get(fld.name, fld.name) for fld in dataclasses.fields(ExperimentConfig)]
                == [line.split(" = ")[0] for line in ALL_KEYS_CONFIG_TEXT.splitlines()])
        path = tmp_path / "exp.cfg"
        path.write_text("experiment_name = sweep_js\n")
        with pytest.raises(ConfigError, match="unknown key 'experiment_name'"):
            parse_config_file(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG_TEXT)
        cfg = parse_config_file(path)
        assert cfg.js_values == (0.1, 1.0)
        assert cfg.f_values == (2.0,)
        assert cfg.n_coupling_seeds == 2
        assert cfg.base_seed == 777
        assert cfg.t_final == 750.0
        assert cfg.washout_steps == 30
        assert cfg.tau_max == 10
        assert cfg.output_dir == "results/tiny"

    def test_default_grids(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = sweep_js\njs_values = default\n")
        assert parse_config_file(path).js_values == DEFAULT_JS_GRID

    def test_unknown_key_reports_line(self, tmp_path):
        # The retired settings are unknown keys too, at their one value.
        path = tmp_path / "exp.cfg"
        for line in ("bogus_key = 3", "input_qubits = 0, 5", "input_qubits = 0, 1, 2",
                     "time_axis = index", "dissipator_convention = paper", "delta_t = 7.5",
                     "dt = 0.025", "sample_spacing = 2.75", "lambda_grid = default"):
            path.write_text(f"experiment = sweep_js\n{line}\n")
            with pytest.raises(ConfigError, match="unknown key") as err:
                parse_config_file(path)
            assert err.value.line == 2
            assert line.split(" = ")[0] in str(err.value)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nn_coupling_seeds = many\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", [("experiment", "sweep_js"),
                                            ("output_dir", "elsewhere"),
                                            ("t_final", "750")])
    def test_duplicate_key_reports_line(self, tmp_path, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG_TEXT + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match="duplicate key") as err:
            parse_config_file(path)
        assert err.value.line == TINY_CONFIG_TEXT.count("\n") + 1
        assert repr(key) in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_semantic_validation(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("js_values = -1\n")
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config_file(path)

    def test_value_check_naming_several_keys_reports_no_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        for text in ("tau_max = 30\nt_final = 750\n", "t_final = 750\nwashout_steps = 90\n"):
            path.write_text(text)
            with pytest.raises(ConfigError) as err:
                parse_config_file(path)
            assert err.value.line is None
            assert str(err.value).startswith(f"{path}: ")


class TestFingerprint:
    def test_changes_with_semantic_fields(self):
        base = tiny_config()
        assert base.fingerprint() != tiny_config(base_seed=778).fingerprint()
        assert base.fingerprint() != tiny_config(js_values=(0.1, 2.0)).fingerprint()
        assert base.fingerprint() != tiny_config(washout_steps=31).fingerprint()

    def test_tiny_sweep_fingerprint_pinned(self):
        cfg = parse_config_file(os.path.join(os.path.dirname(__file__), "data", "tiny_sweep.cfg"))
        assert cfg.fingerprint() == TINY_SWEEP_FINGERPRINT

    def test_config_saved_with_a_byte_order_mark_parses(self, tmp_path):
        # Read as plain utf-8, the mark became part of the first key:
        # "unknown key '\ufeffexperiment'".
        source = Path(__file__).parent / "data" / "tiny_sweep.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        assert parse_config_file(bom).fingerprint() == TINY_SWEEP_FINGERPRINT

    def test_all_keys_config_pinned_and_round_trips(self, tmp_path):
        path = tmp_path / "all_keys.cfg"
        path.write_text(ALL_KEYS_CONFIG_TEXT)
        cfg = parse_config_file(path)
        assert cfg.output_dir == "results/all_keys"
        assert cfg.fingerprint() == ALL_KEYS_FINGERPRINT
        rows = run_sweep(cfg, out_dir=tmp_path / "out")
        assert [r.status for r in rows] == ["ok", "ok"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"] == cfg.semantic_dict()
        assert manifest["fingerprint"] == ALL_KEYS_FINGERPRINT
        assert manifest["output_dir"] == cfg.output_dir

    def test_a_whole_t_final_fingerprints_as_its_float(self):
        # A config file reads t_final = 750 as 750.0; the library's int 750
        # ran the same cells under another fingerprint (JSON 750).
        assert tiny_config(t_final=750).fingerprint() == tiny_config().fingerprint()

    def test_ignores_output_location(self):
        assert tiny_config().fingerprint() == tiny_config(output_dir="elsewhere").fingerprint()

    def test_default_grid_spans_named_extremes(self):
        assert DEFAULT_JS_GRID[0] == pytest.approx(0.005)
        assert DEFAULT_JS_GRID[-1] == pytest.approx(75.0)
        assert len(DEFAULT_JS_GRID) == 20

    @pytest.mark.parametrize("name, value", [("base_seed", True), ("n_coupling_seeds", 2.0),
                                             ("washout_steps", 30.0), ("tau_max", True),
                                             ("t_final", True)])
    def test_integer_settings_refuse_bools_and_floats(self, name, value):
        # base_seed=True and washout_steps=30.0 built, then failed every cell;
        # n_coupling_seeds=2.0 raised a TypeError outside cell isolation; and
        # tau_max=True ran as 1 under another fingerprint (JSON true).
        with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|number), got "):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("name, value", [("t_final", "750"), ("t_final", None),
                                             ("f_values", (2.0, "3")), ("js_values", "0.3"),
                                             ("js_values", 0.3), ("f_values", (True,)),
                                             ("js_values", (0.1, True))],
                             ids=["t_final-str", "t_final-None", "f_values-str-entry",
                                  "js_values-str", "js_values-number", "f_values-bool-entry",
                                  "js_values-bool-entry"])
    def test_number_settings_refuse_strings_and_bools(self, name, value):
        # t_final="750" and f_values=(2.0, "3") raised a TypeError from a
        # later check; js_values="0.3" was stored as ('0', '.', '3'); and a
        # bool entry fingerprinted as 1.0.
        kind = "a number" if name == "t_final" else "a list of numbers"
        with pytest.raises(ValueError, match=rf"^{name} must be {kind}, got "):
            tiny_config(**{name: value})

    def test_a_path_output_dir_is_refused_by_name(self, tmp_path):
        # A Path ran every cell, then json.dump failed partway through
        # manifest.json, which read_sweep_results then called "not JSON".
        with pytest.raises(ValueError, match=r"^output_dir must be a string, got PosixPath"):
            tiny_config(output_dir=tmp_path / "out")

    def test_list_values_are_kept_as_their_tuple(self):
        # A generator passed every check by being consumed by it, and its
        # sweep had no cells.
        want = tiny_config()
        for js_values in ((v for v in (0.1, 1.0)), [0.1, 1.0]):
            cfg = tiny_config(js_values=js_values)
            assert cfg.js_values == (0.1, 1.0)
            assert sweep_cells(cfg) == sweep_cells(want)
            assert cfg.fingerprint() == want.fingerprint()

    def test_run_length_invariant_enforced(self):
        # K = 100 cannot host washout 50 plus 2*(tau_max + 10) = 68 steps.
        with pytest.raises(ValueError, match="run too short"):
            tiny_config(tau_max=24, washout_steps=50)


@pytest.fixture
def seed_one_fails(monkeypatch):
    """Every cell of coupling seed 1 fails before its model is built."""
    import spinqrc.experiments as exp

    original = exp.random_model

    def exploding(js, seed):
        if seed[-1] == 1:
            raise RuntimeError("synthetic cell failure")
        return original(js, seed)

    monkeypatch.setattr(exp, "random_model", exploding)


class TestSweep:
    def test_degenerate_sweep_reproduces_single_cell(self):
        cfg = tiny_config(js_values=(0.3,), n_coupling_seeds=1)
        (row,) = run_sweep(cfg)
        single = run_cell(cfg, 0.3, 2.0, 0)
        assert row.status == single.status == "ok"
        assert np.array_equal(row.capacity.per_tau, single.capacity.per_tau)
        assert row.entanglement == single.entanglement
        # A cell returns the records it scored; a sweep does not keep them.
        assert row.train is None and row.test is None
        rescored = evaluate_capacity_profile(single.train, single.test, cfg.tau_max)
        assert np.array_equal(rescored.per_tau, single.capacity.per_tau)

    def test_cells_enumerated_in_config_order(self):
        cfg = tiny_config()
        assert sweep_cells(cfg) == [(0.1, 2.0, 0), (0.1, 2.0, 1), (1.0, 2.0, 0), (1.0, 2.0, 1)]

    def test_outputs_deterministic_across_runs_and_threads(self, tmp_path):
        cfg = tiny_config()
        texts = {}
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / name
            run_sweep(cfg, threads=threads, out_dir=out)
            texts[name] = (out / "sweep_results.csv").read_bytes()
        assert texts["a"] == texts["b"]
        assert texts["a"] == texts["c"]

    def test_a_stopped_sweep_leaves_no_earlier_results(self, tmp_path):
        from spinqrc.cli import main

        # A sweep that stopped after one cell left the previous sweep's CSV
        # and manifest beside its own cells.jsonl, and emit read them.
        run_sweep(tiny_config(js_values=(0.1,), n_coupling_seeds=1), out_dir=tmp_path)

        def stop(result):
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError, match="stopped"):
            run_sweep(tiny_config(js_values=(5.0, 9.0), n_coupling_seeds=1), out_dir=tmp_path,
                      progress=stop)
        assert not (tmp_path / "sweep_results.csv").exists()
        assert not (tmp_path / "manifest.json").exists()
        assert len((tmp_path / "cells.jsonl").read_text().splitlines()) == 1
        assert main(["emit", "--results", str(tmp_path)]) == 1

    def test_failed_cells_are_isolated(self, tmp_path, seed_one_fails):
        cfg = tiny_config(js_values=(0.2,))
        rows = run_sweep(cfg, out_dir=tmp_path)
        statuses = [r.status for r in rows]
        assert statuses == ["ok", "error"]
        assert "synthetic cell failure" in rows[1].error
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [c["status"] for c in manifest["cells"]] == ["ok", "error"]

    def test_failed_cell_round_trips_through_files(self, tmp_path, seed_one_fails):
        from spinqrc.cli import main

        # At J_s = 0 no pair ever interacts, so that cell's ratios are undefined.
        rows = run_sweep(tiny_config(js_values=(0.0, 0.3)), out_dir=tmp_path)
        assert [r.status for r in rows] == ["ok", "error", "ok", "error"]
        assert rows[0].entanglement["ratio_single"] is None
        with open(tmp_path / "sweep_results.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header[-len(SUMMARY_FIELDS):]) == SUMMARY_FIELDS
        back = read_sweep_results(tmp_path)
        assert [r.status for r in back] == ["ok", "error", "ok", "error"]
        assert back[1].error == "RuntimeError: synthetic cell failure"
        for a, b in zip(back, rows):
            assert a.entanglement == b.entanglement
            assert (a.error, a.wall_time_s, a.stage_s) == (b.error, b.wall_time_s, b.stage_s)
        assert main(["emit", "--results", str(tmp_path), "--figure", "all"]) == 0
        with open(tmp_path / "fig2e_f2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0.0", "0.3"]
        assert rows[1][1] == "nan" and rows[2][1] != "nan"

    def test_dead_worker_fails_its_cells_not_the_sweep(self, tmp_path, monkeypatch):
        # A worker that dies mid-cell breaks the pool; the sweep records
        # its cell as an error and still writes its outputs.
        import threading

        import spinqrc.experiments as exp

        original = exp.run_cell

        def dying(cfg, js, f, seed_index):
            if seed_index == 1:
                os._exit(1)
            return original(cfg, js, f, seed_index)

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(exp, "run_cell", dying)
        cfg = tiny_config(js_values=(0.2,))
        done = []
        runner = threading.Thread(
            target=lambda: done.append(run_sweep(cfg, threads=2, out_dir=tmp_path)), daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert done, "run_sweep did not return after a worker died"
        died = done[0][1]
        assert died.status == "error" and died.error == "worker process died"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cells"][1]["error"] == "worker process died"
        assert (tmp_path / "cells.jsonl").read_text().count("\n") == 2
        assert (tmp_path / "sweep_results.csv").read_text().count("\n") == 3

    def test_dead_worker_fails_only_its_own_cell(self, monkeypatch):
        # Cell 2's worker dies and breaks the pool. Each cell the pool left
        # unfinished is rerun on a pool of its own; only cell 2 is an error.
        import threading
        import time

        import spinqrc.experiments as exp

        parent = os.getpid()

        def stub(cfg, js, f, seed_index):
            if seed_index == 2 and os.getpid() != parent:
                os._exit(1)
            time.sleep(0.2)
            return exp.CellResult(js, f, seed_index, "ok", None, None, 0.0,
                                  error=f"stub {seed_index}")

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(exp, "run_cell", stub)
        cfg = tiny_config(js_values=(0.2,), n_coupling_seeds=8)
        done = []
        runner = threading.Thread(
            target=lambda: done.append(run_sweep(cfg, threads=2)), daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert done, "run_sweep did not return after a worker died"
        rows = done[0]
        assert [r.status for r in rows].count("error") == 1
        assert rows[2].status == "error" and rows[2].error == "worker process died"

        def key(r):
            return (r.js, r.f, r.seed_index, r.status, r.error)

        serial = run_sweep(cfg)
        assert [key(r) for i, r in enumerate(rows) if i != 2] == [
            key(r) for i, r in enumerate(serial) if i != 2]

    def test_pooled_sweep_that_stops_runs_no_queued_cell(self, tmp_path, monkeypatch):
        # The first result's progress callback raises. The sweep raises
        # without running the cells still queued on the pool.
        import threading
        import time

        import spinqrc.experiments as exp

        ran = tmp_path / "ran.log"

        def stub(cfg, js, f, seed_index):
            with open(ran, "a") as fh:
                fh.write(f"{seed_index}\n")
            time.sleep(0.2)
            return exp.CellResult(js, f, seed_index, "ok", None, None, 0.0)

        def stop(result):
            raise RuntimeError("stop the sweep")

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(exp, "run_cell", stub)
        cfg = tiny_config(js_values=(0.2,), n_coupling_seeds=20)
        raised = []

        def sweep():
            try:
                run_sweep(cfg, threads=2, out_dir=tmp_path / "out", progress=stop)
            except RuntimeError as exc:
                raised.append(exc)

        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert raised, "run_sweep did not raise the progress callback's exception"
        assert len(ran.read_text().splitlines()) <= 10
        assert (tmp_path / "out" / "cells.jsonl").read_text().count("\n") == 1

    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        import concurrent.futures
        from concurrent.futures import Future

        import spinqrc.experiments as exp

        sizes = []

        class Recording:
            """Runs each cell in this process; records the pool size asked for."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        def stub(cfg, js, f, seed_index):
            return exp.CellResult(js, f, seed_index, "error", None, None, 0.0, error="stub")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(exp, "run_cell", stub)
        cfg = tiny_config()
        for threads in (2, 4, 64):
            rows = run_sweep(cfg, threads=threads)
            assert [r.error for r in rows] == ["stub"] * 4
        assert sizes == [2, 4, 4]
        with pytest.raises(ValueError, match="threads"):
            run_sweep(cfg, threads=0)

    def test_pool_workers_ignore_sigint(self, monkeypatch):
        # A terminal's Ctrl-C signals the whole process group: a worker that
        # took it printed a KeyboardInterrupt traceback. Only the parent
        # handles it.
        import signal
        import threading

        import spinqrc.experiments as exp

        def stub(cfg, js, f, seed_index):
            return exp.CellResult(js, f, seed_index, "ok", None, None, 0.0,
                                  error=repr(signal.getsignal(signal.SIGINT)))

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(exp, "run_cell", stub)
        done = []
        runner = threading.Thread(
            target=lambda: done.append(run_sweep(tiny_config(), threads=2)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert done, "run_sweep did not return"
        assert [r.error for r in done[0]] == [repr(signal.SIG_IGN)] * 4

    def test_stage_timings_recorded(self, tmp_path):
        cfg = tiny_config(js_values=(0.5,), n_coupling_seeds=1)
        (row,) = run_sweep(cfg, out_dir=tmp_path)
        logged = [json.loads((tmp_path / "cells.jsonl").read_text()),
                  json.loads((tmp_path / "manifest.json").read_text())["cells"][0]]
        for cell in logged:
            assert cell["stage_s"] == row.stage_s
            assert cell["wall_time_s"] == row.wall_time_s
        assert set(row.stage_s) == {"propagator", "reservoirs", "negativities", "readout"}
        assert all(v >= 0.0 for v in row.stage_s.values())
        assert sum(row.stage_s.values()) <= row.wall_time_s
        assert "stage" not in (tmp_path / "sweep_results.csv").read_text()

    def test_cell_builds_one_propagator(self, monkeypatch):
        # Train and test runs share one interval map.
        import spinqrc.reservoir

        calls = []
        original = spinqrc.reservoir.interval_propagator

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spinqrc.reservoir, "interval_propagator", counted)
        cfg = tiny_config(js_values=(0.3,), n_coupling_seeds=1)
        assert run_cell(cfg, 0.3, 2.0, 0).status == "ok"
        assert len(calls) == 1

    def test_cell_computes_only_the_negativities_it_reads(self, negativity_calls):
        # The summary reads the post-washout states of the train and test
        # runs; the washout states are never eigensolved.
        cfg = tiny_config(js_values=(0.3,), n_coupling_seeds=1)
        assert run_sweep(cfg)[0].status == "ok"
        assert sum(negativity_calls) == 2 * (cfg.n_steps - cfg.washout_steps)

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config(js_values=(0.5,), n_coupling_seeds=1)
        run_sweep(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fingerprint"] == cfg.fingerprint()
        assert manifest["code_version"]
        assert manifest["config"]["base_seed"] == 777
        assert (tmp_path / "cells.jsonl").read_text().count("\n") == 1

    def test_manifest_names_the_blas_kernel(self, tmp_path, monkeypatch):
        # The CSV stays free of it, and the sweep still reads back.
        cfg = tiny_config(js_values=(0.5,), n_coupling_seeds=1)
        run_sweep(cfg, out_dir=tmp_path)
        blas = json.loads((tmp_path / "manifest.json").read_text())["blas"]
        assert blas == blas_info() and set(blas) == {"core", "threads"}
        assert "blas" not in (tmp_path / "sweep_results.csv").read_text().lower()
        assert read_sweep_results(tmp_path)[0].status == "ok"
        # Without numpy's bundled OpenBLAS, both are null.
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert blas_info() == {"core": None, "threads": None}

    def test_round_trip_through_files(self, tmp_path):
        cfg = tiny_config()
        rows = run_sweep(cfg, out_dir=tmp_path)
        back = read_sweep_results(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == cfg.semantic_dict()
        assert manifest["fingerprint"] == TINY_SWEEP_FINGERPRINT
        assert manifest["output_dir"] == cfg.output_dir
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert a.status == b.status
            assert np.array_equal(a.capacity.per_tau, b.capacity.per_tau)
            assert a.capacity.total == b.capacity.total
            assert a.entanglement == b.entanglement

    def test_manifest_entry_must_match_its_row(self, tmp_path):
        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["cells"].reverse()
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="row 1 is"):
            read_sweep_results(tmp_path)

    @pytest.mark.parametrize("cut, counts", [
        ("manifest.json", "2 rows, manifest.json lists 1"),
        ("sweep_results.csv", "1 rows, manifest.json lists 2"),
    ], ids=["manifest.json", "sweep_results.csv"])
    def test_row_count_mismatch_names_both_files(self, tmp_path, capsys, cut, counts):
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        if cut == "manifest.json":
            manifest = json.loads((tmp_path / cut).read_text())
            del manifest["cells"][-1]
            (tmp_path / cut).write_text(json.dumps(manifest))
        else:
            lines = (tmp_path / cut).read_bytes().splitlines(keepends=True)
            (tmp_path / cut).write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ValueError, match=f"sweep_results.csv has {counts} cells"):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert f"sweep_results.csv has {counts} cells" in capsys.readouterr().err

    @pytest.mark.parametrize("torn", ["short", "long", "abc", "okay"])
    def test_torn_row_names_the_file_and_row(self, tmp_path, capsys, torn):
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        path = tmp_path / "sweep_results.csv"
        header, first, last = path.read_bytes().splitlines()
        n = header.count(b",") + 1
        fields = last.split(b",")
        if torn == "short":
            last, message = b",".join(fields[:-1]), f"row 2 has {n - 1} fields, the header {n}"
        elif torn == "long":
            last, message = last + b",0", f"row 2 has {n + 1} fields, the header {n}"
        elif torn == "abc":
            fields[header.split(b",").index(b"E13")] = b"abc"
            last, message = b",".join(fields), "row 2 column E13 is 'abc', not a number"
        else:
            fields[3] = b"okay"
            last, message = b",".join(fields), "row 2 column status is 'okay', not ok or error"
        path.write_bytes(b"\r\n".join([header, first, last, b""]))
        message = f"{path}: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_f_values_that_share_a_file_tag_are_refused(self, tmp_path, capsys):
        # A results directory whose two f values both print as f2 would make
        # emit write each fig*_f2.csv twice, keeping only the second f's data.
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        path = tmp_path / "sweep_results.csv"
        header, first, last = path.read_bytes().splitlines()
        path.write_bytes(b"\r\n".join([header, first, last.replace(b",2.0,", b",2.0000001,", 1),
                                         b""]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["cells"][1]["f"] = 2.0000001
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        message = f"{path}: f_values 2.0 and 2.0000001 both print as f2"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not [name for name in os.listdir(tmp_path) if name.startswith("fig")]

    def test_js_values_that_share_a_fig3_label_are_refused(self, tmp_path, capsys):
        # Two J_s values that both print as 0.1 would head two fig3 blocks alike.
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.1, 0.2), n_coupling_seeds=1), out_dir=tmp_path)
        path = tmp_path / "sweep_results.csv"
        header, first, last = path.read_bytes().splitlines()
        assert last.startswith(b"0.2,")
        path.write_bytes(b"\r\n".join([header, first, b"0.1000001" + last[3:], b""]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["cells"][1]["J_s"] = 0.1000001
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        message = f"{path}: js_values 0.1 and 0.1000001 both print as J_s=0.1"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not [name for name in os.listdir(tmp_path) if name.startswith("fig")]

    @pytest.mark.parametrize("broken", ["not-json", "config", "cells", "cell-7", *CELL_LOG_KEYS,
                                        "tau_max-str", "tau_max-float", "tau_max-bool",
                                        "tau_max-negative", "cells-int"])
    def test_malformed_manifest_names_the_file(self, tmp_path, capsys, broken):
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        text = path.read_text()
        manifest = json.loads(text)
        wrong_tau_max = {"tau_max-str": "3", "tau_max-float": 2.5, "tau_max-bool": True,
                         "tau_max-negative": -1}
        if broken == "not-json":
            text, message = "{\n" + text, "not JSON: Expecting property name"
        elif broken in ("config", "cells"):
            del manifest[broken]
            message = "lacks config.tau_max or cells"
        elif broken in wrong_tau_max:
            manifest["config"]["tau_max"] = wrong_tau_max[broken]
            message = f"config.tau_max is {wrong_tau_max[broken]!r}, not an integer >= 0"
        elif broken == "cells-int":
            manifest["cells"] = 5
            message = "cells is 5, not a list"
        elif broken == "cell-7":
            manifest["cells"][1] = 7
            message = f"cell 2 lacks {', '.join(CELL_LOG_KEYS)}"
        else:
            del manifest["cells"][1][broken]
            message = f"cell 2 lacks {broken}"
        path.write_text(text if broken == "not-json" else json.dumps(manifest))
        message = f"{path}: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_header_must_match_the_manifest_tau_max(self, tmp_path):
        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["tau_max"] = 9
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unexpected sweep_results.csv header"):
            read_sweep_results(tmp_path)

    def test_empty_results_file_is_named(self, tmp_path, capsys):
        # An empty sweep_results.csv made emit print "error: StopIteration: ".
        from spinqrc.cli import main

        run_sweep(tiny_config(js_values=(0.5,)), out_dir=tmp_path)
        (tmp_path / "sweep_results.csv").write_bytes(b"")
        message = f"unexpected sweep_results.csv header in {tmp_path}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sweep_results(tmp_path)
        assert main(["emit", "--results", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_desk_scale_capacity_ordering(self):
        # Miniature of the coupling sweep: capacity peaks between the
        # extremes (three seeds keep it fast; the acceptance suite runs the
        # full-size version).
        cfg = ExperimentConfig(js_values=(0.005, 0.325, 6.0), f_values=(2.0,),
                               n_coupling_seeds=3, base_seed=2024,
                               t_final=1500.0, tau_max=24,
                               output_dir="unused")
        rows = run_sweep(cfg, threads=2)
        caps = seed_averaged_metric(rows, 2.0, lambda c: c.capacity.total)
        assert caps[0.325] > caps[0.005]
        assert caps[0.325] > caps[6.0]


def test_trajectory_csv_round_trip(tmp_path):
    s1 = make_input_sequence(2.0, 0, (3, 0))
    s2 = make_input_sequence(2.0, 1, (3, 0))
    rec = run_reservoir(interval_map(random_model(0.5, seed=(9, 0))), [(s1, s2)], 6, 0)[0]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path)
    header = ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4", *PARTITION_LABELS]
    assert path.read_text().splitlines()[0].split(",") == header
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], np.arange(rec.n_steps))
    assert np.array_equal(data[:, 1:3], rec.injected_values)
    assert np.array_equal(data[:, 3:7], rec.features[:, :4])
    assert np.array_equal(data[:, 7:], rec.entanglement_samples)


def test_write_run_outputs(tmp_path):
    # At J_s = 0 no pair ever interacts, so both ratios are undefined.
    cfg = tiny_config(js_values=(0.0,), n_coupling_seeds=1)
    result = run_cell(cfg, 0.0, 2.0, 0)
    assert result.entanglement["ratio_single"] is None
    out = tmp_path / "run"
    write_run_outputs(cfg, result, out)
    assert sorted(os.listdir(out)) == ["capacity.csv", "capacity.json", "entanglement.json",
                                       "trajectory_test.csv", "trajectory_train.csv"]
    profile = result.capacity
    with open(out / "capacity.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["tau", "capacity", "lambda_chosen"]] + [
            [str(tau), repr(float(c)), repr(float(lam))]
            for tau, (c, lam) in enumerate(zip(profile.per_tau, profile.lambda_per_tau))]
    capacity = json.loads((out / "capacity.json").read_text())
    assert capacity == {"per_tau": list(profile.per_tau),
                        "lambda_per_tau": list(profile.lambda_per_tau),
                        "total": profile.total, "config_fingerprint": cfg.fingerprint()}
    text = (out / "entanglement.json").read_text()
    summary = json.loads(text)
    assert list(summary) == sorted(["J_s", "f", "seed", *SUMMARY_FIELDS])
    assert summary == {"J_s": 0.0, "f": 2.0, "seed": 0, **result.entanglement}
    assert '"ratio_single": null' in text
    # write_json: indent 2, sorted keys, one final newline.
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    for run in ("train", "test"):
        with open(out / f"trajectory_{run}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4", *PARTITION_LABELS]
        assert len(rows) == 1 + cfg.n_steps


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(tiny_config(), threads=2)


class TestEmitFigureData:
    def test_fig2a_schema(self, sweep, tmp_path):
        paths = emit_figure_data(sweep, "fig2a", tmp_path)
        assert [os.path.basename(p) for p in paths] == ["fig2a_f2.csv"]
        lines = Path(paths[0]).read_text().strip().splitlines()
        assert lines[0] == "J_s,capacity_mean,capacity_stderr"
        js_col = [float(l.split(",")[0]) for l in lines[1:]]
        assert js_col == sorted(js_col) == [0.1, 1.0]

    def test_fig2b_fig2c_schema(self, sweep, tmp_path):
        (p2b,) = emit_figure_data(sweep, "fig2b", tmp_path)
        (p2c,) = emit_figure_data(sweep, "fig2c", tmp_path)
        assert Path(p2b).read_text().splitlines()[0] == (
            "J_s,E1_mean,E1_stderr,E2_mean,E2_stderr,E3_mean,E3_stderr,E4_mean,E4_stderr")
        assert Path(p2c).read_text().splitlines()[0] == (
            "J_s,E12_mean,E12_stderr,E13_mean,E13_stderr,E14_mean,E14_stderr")

    def test_fig2d_consistent_with_fig2b_fig2c(self, sweep, tmp_path):
        # Cross-file oracle: the difference aggregates must equal what one
        # recomputes from the per-partition files.
        (p2b,) = emit_figure_data(sweep, "fig2b", tmp_path)
        (p2c,) = emit_figure_data(sweep, "fig2c", tmp_path)
        (p2d,) = emit_figure_data(sweep, "fig2d", tmp_path)

        def rows(path):
            lines = Path(path).read_text().strip().splitlines()[1:]
            return {float(l.split(",")[0]): [float(x) for x in l.split(",")[1:]] for l in lines}

        b, c, d = rows(p2b), rows(p2c), rows(p2d)
        for js in b:
            diff_single = (b[js][0] + b[js][2]) - (b[js][4] + b[js][6])
            diff_pair = (c[js][2] + c[js][4]) - 2 * c[js][0]
            assert d[js][0] == pytest.approx(diff_single, abs=1e-12)
            assert d[js][2] == pytest.approx(diff_pair, abs=1e-12)

    def test_fig2e_schema(self, sweep, tmp_path):
        (p,) = emit_figure_data(sweep, "fig2e", tmp_path)
        header = Path(p).read_text().splitlines()[0]
        assert header == "J_s,ratio_single,ratio_single_stderr,ratio_pair,ratio_pair_stderr"

    def test_fig3_blocks(self, sweep, tmp_path):
        (p,) = emit_figure_data(sweep, "fig3", tmp_path)
        text = Path(p).read_text()
        assert text.startswith("tau,capacity_mean,capacity_stderr")
        assert "# J_s=0.1\n" in text
        assert "# J_s=1\n" in text

    def test_fig4_single_js_blocks(self, tmp_path):
        cfg = tiny_config(js_values=(1.5,), f_values=(1.0, 2.0))
        rows = run_sweep(cfg, threads=2)
        (p,) = emit_figure_data(rows, "fig4", tmp_path)
        lines = Path(p).read_text().strip().splitlines()
        assert lines[0] == "tau,capacity"
        assert "# f=1" in lines and "# f=2" in lines
        data_lines = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_lines) == 2 * 11
        assert all(len(l.split(",")) == 2 for l in data_lines)

    def test_fig4_rejects_multiple_js(self, sweep, tmp_path):
        with pytest.raises(ValueError, match="single J_s"):
            emit_figure_data(sweep, "fig4", tmp_path)

    def test_unknown_figure_rejected(self, sweep, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            emit_figure_data(sweep, "fig9", tmp_path)

    @pytest.mark.parametrize("cfg_name", ["tiny_sweep.cfg", "tiny_fig4.cfg"])
    def test_read_back_sweep_emits_the_same_bytes(self, tmp_path, cfg_name):
        # A sweep read back from its files is the sweep run in memory, for
        # every figure: lambda_per_tau, the one field the files drop, is
        # read by none.
        cfg = parse_config_file(os.path.join(os.path.dirname(__file__), "data", cfg_name))
        forms = {"memory": run_sweep(cfg, out_dir=tmp_path / "sweep")}
        forms["files"] = read_sweep_results(tmp_path / "sweep")
        skipped = {name: [] for name in forms}
        for name, rows in forms.items():
            for figure in FIGURE_NAMES:
                try:
                    emit_figure_data(rows, figure, tmp_path / name)
                except ValueError as exc:
                    skipped[name].append(str(exc))
        assert skipped["memory"] == skipped["files"]
        emitted = sorted(os.listdir(tmp_path / "memory"))
        assert emitted == sorted(os.listdir(tmp_path / "files"))
        assert "fig3_f2.csv" in emitted
        for name in emitted:
            assert ((tmp_path / "memory" / name).read_bytes()
                    == (tmp_path / "files" / name).read_bytes()), name


def test_invariant_suite_small():
    report = run_invariant_suite(n_runs=6, n_injections=20, base_seed=3)
    assert invariant_suite_ok(report)
    assert report["max_trace_error"] <= 1e-9
    assert report["min_eigenvalue"] >= -1e-7


def test_invariant_suite_reports_the_true_minimum_eigenvalue():
    # One run: J_s = 0 (every 10th run is uncoupled) under the key (3, 0).
    report = run_invariant_suite(n_runs=1, n_injections=20, base_seed=3)
    seqs = [make_input_sequence(2.0, q, (3, 0)) for q in TRAIN_SEQUENCE_IDS]
    (run,) = run_reservoir(interval_map(random_model(0.0, seed=(3, 0))), [seqs], 20, 0,
                           keep_raw=True)
    smallest = min(np.linalg.eigvalsh(hermitianize(rho))[0] for rho in run.raw)
    assert smallest > 0.0
    assert report["min_eigenvalue"] == pytest.approx(smallest, rel=1e-9)
