import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinqrc.cli import main
from spinqrc.experiments import blas_info

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
TINY_CFG = os.path.join(DATA_DIR, "tiny_sweep.cfg")
GOLDEN_DIR = os.path.join(DATA_DIR, "golden")


def read_csv_numeric(path):
    """(header, rows) with every parseable field as float, else the string."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for field in row:
                try:
                    parsed.append(float(field))
                except ValueError:
                    parsed.append(field)
            rows.append(parsed)
    return header, rows


def read_trajectory(path, washout_steps=0):
    """The record an exported trajectory CSV holds (bias column rebuilt), for
    rescoring: the CSV has no states, so the record's entanglement is not
    readable."""
    from spinqrc.entanglement import PARTITION_LABELS
    from spinqrc.reservoir import TrajectoryRecord

    header = ["k", "s1", "s2", "Z1", "Z2", "Z3", "Z4", *PARTITION_LABELS]
    with open(path) as fh:
        assert fh.readline().rstrip("\n").split(",") == header
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return TrajectoryRecord(features=np.column_stack([data[:, 3:7], np.ones(len(data))]),
                            states=None, injected_values=data[:, 1:3],
                            washout_steps=washout_steps)


def assert_csv_close(got_path, want_path, atol=1e-12):
    got_header, got_rows = read_csv_numeric(got_path)
    want_header, want_rows = read_csv_numeric(want_path)
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        for gv, wv in zip(g, w):
            if isinstance(gv, float) and isinstance(wv, float):
                if np.isnan(wv):
                    assert np.isnan(gv)
                else:
                    assert gv == pytest.approx(wv, abs=atol, rel=1e-10)
            else:
                assert gv == wv


def test_validate_clean_build_exits_zero(capsys):
    assert main(["validate", "--runs", "5", "--steps", "15"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_validate_reports_a_violated_invariant(monkeypatch, capsys):
    import spinqrc.cli
    from spinqrc.experiments import run_invariant_suite

    def with_trace_drift(**kwargs):
        return {**run_invariant_suite(**kwargs), "max_trace_error": 1e-3}

    monkeypatch.setattr(spinqrc.cli, "run_invariant_suite", with_trace_drift)
    assert main(["validate", "--runs", "1", "--steps", "15"]) == 1
    captured = capsys.readouterr()
    assert "max_trace_error: 1.000e-03" in captured.out
    assert "all invariants hold" not in captured.out
    assert "invariant violation detected" in captured.err


def test_run_with_missing_config_exits_two(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    # A UnicodeDecodeError is no OSError: it left the reader and exited 1.
    bad = tmp_path / "latin.cfg"
    bad.write_bytes(b"experiment = sweep_js\n\xff\xfe bad = 1\n")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and "utf-8" in err
    assert not (tmp_path / "never").exists()


def test_empty_out_exits_two(capsys):
    # An empty output directory failed each command at its first write (exit
    # 1), after run had computed its whole cell.
    for command in ("run", "sweep", "gen-signals"):
        assert main([command, TINY_CFG, "--out", ""]) == 2
        assert "output_dir must be nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "gen-signals", "emit"])
@pytest.mark.parametrize("below", [False, True, None], ids=["file", "below-file", "empty"])
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, monkeypatch, capsys, command, below):
    # run computed its whole cell, sweep set up its sweep and emit read the
    # whole sweep before their first write failed with exit 1
    # (FileExistsError or NotADirectoryError). emit took an empty --out for
    # its results directory and wrote there with exit 0.
    import spinqrc.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_cell", "run_sweep", "write_signal_files", "read_sweep_results"):
        monkeypatch.setattr(spinqrc.cli, name, no_work)
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = "" if below is None else str(blocker / "sub" if below else blocker)
    source = ["--results", str(tmp_path)] if command == "emit" else [str(cfg)]
    assert main([command, *source, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "must be nonempty" in err if below is None else repr(out) in err
    assert blocker.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == ["afile", "single.cfg"]


@pytest.mark.parametrize("missing", ["absent", "afile"])
def test_emit_from_a_missing_results_directory_exits_two(tmp_path, capsys, missing):
    # A bare FileNotFoundError for its manifest.json exited 1.
    (tmp_path / "afile").write_text("")
    results = tmp_path / missing
    assert main(["emit", "--results", str(results)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(str(results)) in err


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = sweep_js\nnot_a_key = 1\n")
    assert main(["sweep", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not_a_key" in err and ":2:" in err
    # Bad values are config errors before any cell runs, reported at the
    # line of the one key their check names.
    for line in ("base_seed = -1", "js_values = 1, -1", "washout_steps = -5"):
        bad.write_text(f"experiment = sweep_js\nf_values = 2\n{line}\n")
        assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert line.split(" =")[0] in err and "bad.cfg:3:" in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("line", ["js_values = nan", "js_values = inf", "f_values = nan",
                                  "t_final = inf",
                                  "js_values = 0.3, 0.3", "f_values = 2, 1, 2",
                                  "js_values = 0.1, 0.1000001"])
def test_non_finite_or_repeated_value_exits_two(tmp_path, capsys, line):
    # A NaN passes every sign check: it failed every cell (exit 1), and an
    # infinite t_final overflowed the step count. A repeated J_s or f ran its
    # cells twice, and emit averaged the copies as if they were seeds; two J_s
    # that print alike headed two fig3 blocks `# J_s=0.1`.
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"experiment = sweep_js\nn_coupling_seeds = 1\n{line}\n")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err or "both print as" in err
    assert line.split(" =")[0] in err and "bad.cfg:3:" in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("line", ["experiment = sweep", "js_values =", "f_values = 0",
                                  "n_coupling_seeds = 0", "tau_max = -1",
                                  "lambda_selection = best", "dissipator_convention = lindblad",
                                  "tau_max 3", "js_values = -0", "js_values = 0, -0",
                                  "t_final = -750", "output_dir =", "lambda_grid = 1e-3, nan",
                                  "sample_spacing = nan", "dt = nan", "delta_t = nan"])
def test_each_config_rule_exits_two_at_its_line(tmp_path, capsys, line):
    # Retired settings (dissipator_convention, delta_t, ...) are unknown keys.
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"# one bad line\nbase_seed = 3\n{line}\n")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:3:" in err
    assert ("expected 'key = value'" if "=" not in line else line.split(" =")[0]) in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command", ["sweep", "gen-signals"])
def test_f_values_that_share_a_file_tag_exit_two(tmp_path, capsys, command):
    # 2 and 2.0000001 both print as f2: emit wrote fig2a_f2.csv twice and
    # gen-signals overwrote signal_f2_seq*.csv, keeping the second f's data.
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = sweep_js\nn_coupling_seeds = 1\nf_values = 2, 2.0000001\n")
    assert main([command, str(bad), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:3:" in err and "2.0 and 2.0000001" in err and "f2" in err
    assert not (tmp_path / "never").exists()


SINGLE_CFG = ("experiment = single_run\njs_values = 0.3\nf_values = 2\n"
              "n_coupling_seeds = 1\nbase_seed = 42\nt_final = 750\n"
              "washout_steps = 30\ntau_max = 10\n")


def test_gen_signals_writes_nine_sequences_per_frequency(tmp_path):
    cfg = tmp_path / "sig.cfg"
    cfg.write_text("experiment = single_run\njs_values = 0.1\nf_values = 1, 2\n"
                   "n_coupling_seeds = 1\nbase_seed = 5\nt_final = 750\n"
                   "washout_steps = 30\ntau_max = 10\n")
    out = tmp_path / "signals"
    assert main(["gen-signals", str(cfg), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert len(names) == 18
    assert "signal_f1_seq0.csv" in names and "signal_f2_seq8.csv" in names
    header, rows = read_csv_numeric(out / "signal_f2_seq0.csv")
    assert header == ["index", "value"]
    assert len(rows) == 1000
    values = np.array([r[1] for r in rows])
    assert values.min() == 0.0 and values.max() == 1.0


def test_gen_signals_csv_round_trip(tmp_path):
    from spinqrc.signals import N_SEQUENCES, make_input_sequence

    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["gen-signals", str(cfg), "--out", str(tmp_path / "sig")]) == 0
    for q in range(N_SEQUENCES):
        path = tmp_path / "sig" / f"signal_f2_seq{q}.csv"
        assert path.read_text().splitlines()[0] == "index,value"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        seq = make_input_sequence(2.0, q, (42, 0))
        assert np.array_equal(data[:, 0], np.arange(len(seq)))
        assert np.array_equal(data[:, 1], seq)


def test_single_run_outputs(tmp_path, capsys):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    out = tmp_path / "run_out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    # The first line ends the set-up a user waits for; the kernel the
    # numbers were computed on comes last, after the outputs are written.
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("running single cell")
    assert lines[-2:] == [f"outputs written to {out}", f"OpenBLAS {blas_info()}"]
    produced = sorted(os.listdir(out))
    assert produced == ["capacity.csv", "capacity.json", "entanglement.json",
                        "trajectory_test.csv", "trajectory_train.csv"]
    header, rows = read_csv_numeric(out / "capacity.csv")
    assert header == ["tau", "capacity", "lambda_chosen"]
    assert len(rows) == 11

    # The exported trajectories and the reported capacity must describe the
    # same runs: recompute the profile from the CSVs and compare.
    from spinqrc.learning import evaluate_capacity_profile

    train, test = (read_trajectory(out / f"trajectory_{run}.csv", washout_steps=30)
                   for run in ("train", "test"))
    recomputed = evaluate_capacity_profile(train, test, tau_max=10)
    reported = json.loads((out / "capacity.json").read_text())
    assert np.allclose(recomputed.per_tau, reported["per_tau"], atol=1e-12)

    # Every value of a trajectory is written as the repr of its float.
    for run in ("train", "test"):
        with open(out / f"trajectory_{run}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == [str(k) for k in range(len(rows))]
        assert all(field == repr(float(field)) for row in rows for field in row[1:])


def test_failed_run_exits_one_and_writes_nothing(tmp_path, monkeypatch, capsys):
    import spinqrc.experiments

    def failing(*args, **kwargs):
        raise RuntimeError("synthetic propagator failure")

    monkeypatch.setattr(spinqrc.experiments, "interval_map", failing)
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "never")]) == 1
    captured = capsys.readouterr()
    assert "run failed: RuntimeError: synthetic propagator failure" in captured.err
    assert "outputs written" not in captured.out
    assert not (tmp_path / "never").exists()


def test_single_run_reproduces_golden_files(tmp_path):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    out = tmp_path / "run_out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    golden = os.path.join(GOLDEN_DIR, "single_run")
    for name in ("trajectory_train.csv", "trajectory_test.csv", "capacity.csv"):
        assert_csv_close(out / name, os.path.join(golden, name))
    for name in ("capacity.json", "entanglement.json"):
        got = json.loads((out / name).read_text())
        with open(os.path.join(golden, name)) as fh:
            want = json.load(fh)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == (value if isinstance(value, str)
                                else pytest.approx(value, abs=1e-12, rel=1e-10)), key


@pytest.mark.parametrize("one, several", [("js_values = 0.3", "js_values = 0.1, 1.0"),
                                          ("f_values = 2", "f_values = 1, 2")],
                         ids=["two-js", "two-f"])
def test_run_with_several_js_or_f_exits_two(tmp_path, capsys, one, several):
    # run used the first J_s and f of a config and silently dropped the rest.
    cfg = tmp_path / "several.cfg"
    cfg.write_text(SINGLE_CFG.replace(one, several))
    assert main(["run", str(cfg), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and several.split(" =")[0] in err
    assert not (tmp_path / "never").exists()


def test_gen_signals_exports_the_run_cells_inputs(tmp_path):
    from spinqrc.reservoir import sample_index

    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["gen-signals", str(cfg), "--out", str(tmp_path / "sig")]) == 0
    train = read_trajectory(tmp_path / "run" / "trajectory_train.csv")
    steps = [sample_index(k) for k in range(train.n_steps)]
    for q in (0, 1):
        path = tmp_path / "sig" / f"signal_f2_seq{q}.csv"
        assert path.read_text().splitlines()[0] == "index,value"
        seq = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(seq[steps], train.injected_values[:, q])


def test_run_runs_each_reservoir_once(tmp_path, monkeypatch):
    # Counts runs, not calls: one run_reservoir call steps the train and
    # test runs together, and each must be run exactly once.
    import spinqrc.cli
    import spinqrc.experiments
    from spinqrc.signals import TEST_SEQUENCE_IDS, TRAIN_SEQUENCE_IDS, make_input_sequence

    runs = []
    for module in (spinqrc.cli, spinqrc.experiments):
        original = getattr(module, "run_reservoir", None)
        if original is not None:
            def counted(propagator, pairs, *args, _original=original, **kwargs):
                runs.extend(pairs)
                return _original(propagator, pairs, *args, **kwargs)
            monkeypatch.setattr(module, "run_reservoir", counted)
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    want = [[make_input_sequence(2.0, q, (42, 0)) for q in ids]
            for ids in (TRAIN_SEQUENCE_IDS, TEST_SEQUENCE_IDS)]
    assert len(runs) == len(want)
    for pair, expected in zip(runs, want):
        assert [seq.tolist() for seq in pair] == [seq.tolist() for seq in expected]


def test_run_computes_each_negativity_once(tmp_path, negativity_calls):
    # The cell's summary eigensolves the post-washout states of both runs
    # and the trajectory export adds the washout heads: 2 K states in all.
    from spinqrc.experiments import parse_config_file

    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert sum(negativity_calls) == 2 * parse_config_file(cfg).n_steps


def test_threads_is_a_sweep_option_only(tmp_path):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    for command in ("run", "gen-signals"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(cfg), "--threads", "2"])
        assert exc.value.code == 2


def test_sweep_threads_below_one_rejected(tmp_path, capsys):
    for threads in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", TINY_CFG, "--out", str(tmp_path / "never"), "--threads", threads])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("argv", [["validate", "--runs", "0"], ["validate", "--runs", "-3"],
                                  ["validate", "--steps", "0"], ["validate", "--seed", "-1"],
                                  ["run", TINY_CFG, "--seed", "-2"],
                                  ["sweep", TINY_CFG, "--seed", "-2"],
                                  ["gen-signals", TINY_CFG, "--seed", "-1"]],
                         ids=["runs=0", "runs=-3", "steps=0", "validate-seed=-1", "run-seed=-2",
                              "sweep-seed=-2", "gen-signals-seed=-1"])
def test_vacuous_counts_and_negative_seeds_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ([] if argv[0] == "validate" else ["--out", str(tmp_path / "never")]))
    assert exc.value.code == 2
    assert "at least" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "gen-signals"])
def test_seed_of_more_than_one_word_exits_two(tmp_path, capsys, command):
    # SeedSequence splits a seed of 2**32 or more into two words, so base
    # seed 5 * 2**32 + 7 drew the coupling stream of base seed 7 at index 5.
    out = [] if command == "validate" else [TINY_CFG, "--out", str(tmp_path / "never")]
    with pytest.raises(SystemExit) as exc:
        main([command, *out, "--seed", str(2**32)])
    assert exc.value.code == 2
    assert "base_seed must be at least 0 and below 2**32" in capsys.readouterr().err
    if command != "validate":
        big = tmp_path / "big.cfg"
        big.write_text(Path(TINY_CFG).read_text().replace("base_seed = 777",
                                                          f"base_seed = {5 * 2**32 + 7}"))
        assert main([command, str(big), "--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {big}:6: base_seed must be")
    assert not (tmp_path / "never").exists()


def test_run_longer_than_the_input_sequences_exits_two(tmp_path, capsys):
    # K = 367 steps read samples 0..998 of the 1000; K = 368 reads 1001.
    cfg = tmp_path / "long.cfg"
    for command, t_final, code in (("run", "2752.5", 0), ("run", "2760", 2), ("sweep", "2760", 2)):
        cfg.write_text(SINGLE_CFG.replace("t_final = 750", f"t_final = {t_final}"))
        out = tmp_path / f"{command}_{t_final}"
        assert main([command, str(cfg), "--out", str(out)]) == code
        assert ("K=368 steps read 1002 samples" in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)


# 1e308 injections last an infinite t_final; 1e400 is past float range.
@pytest.mark.parametrize("steps, needed", [("368", "1002"), (str(10 ** 308), "inf"),
                                           (str(10 ** 400), "inf")], ids=["368", "1e308", "1e400"])
def test_validate_longer_than_the_input_sequences_is_a_usage_error(capsys, steps, needed):
    assert main(["validate", "--runs", "1", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert f"--steps {steps} reads {needed} samples" in captured.err and not captured.out
    assert main(["validate", "--runs", "1", "--steps", "367"]) == 0


def test_sweep_then_emit_reproduces_golden_files(tmp_path):
    out = tmp_path / "tiny"
    assert main(["sweep", TINY_CFG, "--out", str(out), "--threads", "2"]) == 0
    assert main(["emit", "--results", str(out), "--figure", "fig2a"]) == 0
    assert main(["emit", "--results", str(out), "--figure", "fig2d"]) == 0
    assert_csv_close(out / "sweep_results.csv", os.path.join(GOLDEN_DIR, "sweep_results.csv"))
    assert_csv_close(out / "fig2a_f2.csv", os.path.join(GOLDEN_DIR, "fig2a_f2.csv"))
    assert_csv_close(out / "fig2d_f2.csv", os.path.join(GOLDEN_DIR, "fig2d_f2.csv"))
    assert main(["emit", "--results", str(out), "--figure", "all"]) == 0
    for name in ("fig2b_f2.csv", "fig2c_f2.csv", "fig2e_f2.csv", "fig3_f2.csv"):
        assert_csv_close(out / name, os.path.join(GOLDEN_DIR, name))


def test_single_js_sweep_then_emit_reproduces_golden_files(tmp_path):
    # J_s = 0 at f = 1 and 2: the `# f=` blocks of fig4 and the undefined
    # ratios (nan) of fig2e.
    out = tmp_path / "fig4"
    assert main(["sweep", os.path.join(DATA_DIR, "tiny_fig4.cfg"), "--out", str(out),
                 "--threads", "2"]) == 0
    assert main(["emit", "--results", str(out), "--figure", "all"]) == 0
    for name in ("fig4.csv", "fig2e_f1.csv", "fig2e_f2.csv"):
        assert_csv_close(out / name, os.path.join(GOLDEN_DIR, "tiny_fig4", name))


@pytest.mark.parametrize("cfg_name", ["tiny_sweep.cfg", "tiny_fig4.cfg"])
def test_emitted_files_use_one_line_terminator(tmp_path, cfg_name):
    # Every row, the `# label` lines of fig3 and fig4 included, ends in CRLF.
    out = tmp_path / "out"
    assert main(["sweep", os.path.join(DATA_DIR, cfg_name), "--out", str(out)]) == 0
    assert main(["emit", "--results", str(out), "--figure", "all"]) == 0
    names = sorted(name for name in os.listdir(out) if name.startswith("fig"))
    assert "fig3_f2.csv" in names
    for name in names:
        data = (out / name).read_bytes()
        assert data.count(b"\n") == data.count(b"\r") == data.count(b"\r\n") > 1, name


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # One BLAS thread (a pinned pool worker) writes the same sweep_results.csv
    # as the default thread count.
    import spinqrc

    assert main(["sweep", TINY_CFG, "--out", str(tmp_path / "default")]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinqrc.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "spinqrc", "sweep", TINY_CFG,
                    "--out", str(tmp_path / "one")], env=env, check=True, capture_output=True)
    assert ((tmp_path / "one" / "sweep_results.csv").read_bytes()
            == (tmp_path / "default" / "sweep_results.csv").read_bytes())


# Runs the command line with each sweep cell held until a file named by the
# first argument and the cell's number exists.
GATED_CELLS = """
import os, sys, time
import spinqrc.experiments as experiments

run_cell, started = experiments.run_cell, []

def gated(*args):
    go = sys.argv[1] + str(len(started))
    started.append(go)
    deadline = time.monotonic() + 20
    while not os.path.exists(go) and time.monotonic() < deadline:
        time.sleep(0.01)
    return run_cell(*args)

experiments.run_cell = gated
from spinqrc.cli import main
from spinqrc.experiments import blas_info
raise SystemExit(main(sys.argv[2:]))
"""


def test_sweep_flushes_each_line_to_a_pipe(tmp_path):
    # Piped stdout is block-buffered: every line of a sweep arrived at exit.
    # Each cell waits until the line before it has been read, so the header
    # and each progress line must come while the sweep still runs.
    import spinqrc

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinqrc.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out, go = tmp_path / "out", str(tmp_path / "go")
    proc = subprocess.Popen([sys.executable, "-c", GATED_CELLS, go, "sweep", TINY_CFG,
                             "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True)
    try:
        lines = [proc.stdout.readline()]
        for n in range(4):
            jsonl = out / "cells.jsonl"
            assert (len(jsonl.read_text().splitlines()) if jsonl.exists() else 0) == n, lines
            open(go + str(n), "w").close()
            lines.append(proc.stdout.readline())
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert lines[0].startswith("sweep sweep_js: 4 cells")
    assert [line.split("]")[0] for line in lines[1:]] == [f"  [{n}/4" for n in range(1, 5)]


def test_seed_override_changes_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", TINY_CFG, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["sweep", TINY_CFG, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "sweep_results.csv").read_bytes() != (out_b / "sweep_results.csv").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spinqrc" in capsys.readouterr().out


def test_emit_without_any_figure_exits_one(tmp_path, monkeypatch, capsys):
    import spinqrc.experiments

    def failing(js, seed):
        raise RuntimeError("synthetic cell failure")

    monkeypatch.setattr(spinqrc.experiments, "random_model", failing)
    out = tmp_path / "failed"
    assert main(["sweep", TINY_CFG, "--out", str(out)]) == 1
    capsys.readouterr()
    for figure in ("all", "fig2a"):
        assert main(["emit", "--results", str(out), "--figure", figure]) == 1
        assert capsys.readouterr().err
    assert not [name for name in os.listdir(out) if name.startswith("fig")]


@pytest.mark.parametrize("argv, code", [(["validate", "--runs", "1", "--steps", "15"], 0),
                                        (["run", "/nonexistent/path.cfg"], 2),
                                        (["--version"], SystemExit),
                                        (["validate", "--runs", "0"], SystemExit)],
                         ids=["ok", "config-error", "version", "usage-error"])
def test_main_freezes_the_heap_on_every_way_out(capsys, argv, code):
    # Frozen objects are skipped by the collections at interpreter shutdown.
    gc.unfreeze()
    if code is SystemExit:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    assert gc.isenabled() and gc.get_freeze_count() > 0
