import csv
import os

import numpy as np
import pytest

from spinqrc.cli import main

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


def test_run_with_missing_config_exits_two(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = sweep_js\nnot_a_key = 1\n")
    assert main(["sweep", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not_a_key" in err and ":2:" in err
    # Bad values are config errors before any cell runs, reported at the
    # line of the one key their check names.
    for line in ("lambda_grid = -1, 1", "lambda_grid =", "base_seed = -1", "js_values = 1, -1",
                 "washout_steps = -5"):
        bad.write_text(f"experiment = sweep_js\nf_values = 2\n{line}\n")
        assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert line.split(" =")[0] in err and "bad.cfg:3:" in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("line", ["js_values = nan", "js_values = inf", "f_values = nan",
                                  "lambda_grid = 1e-3, nan", "sample_spacing = nan",
                                  "dt = nan", "delta_t = nan", "t_final = inf",
                                  "js_values = 0.3, 0.3", "f_values = 2, 1, 2"])
def test_non_finite_or_repeated_value_exits_two(tmp_path, capsys, line):
    # A NaN passes every sign check: it failed every cell (exit 1), and an
    # infinite t_final overflowed the step count. A repeated J_s or f ran its
    # cells twice, and emit averaged the copies as if they were seeds.
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"experiment = sweep_js\nn_coupling_seeds = 1\n{line}\n")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err or "must not repeat" in err
    assert line.split(" =")[0] in err and "bad.cfg:3:" in err
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
    produced = sorted(os.listdir(out))
    assert produced == ["capacity.csv", "capacity.json", "entanglement.json",
                        "trajectory_test.csv", "trajectory_train.csv"]
    header, rows = read_csv_numeric(out / "capacity.csv")
    assert header == ["tau", "capacity", "lambda_chosen"]
    assert len(rows) == 11

    # The exported trajectories and the reported capacity must describe the
    # same runs: recompute the profile from the CSVs and compare.
    import json

    from spinqrc.learning import evaluate_capacity_profile

    train, test = (read_trajectory(out / f"trajectory_{run}.csv", washout_steps=30)
                   for run in ("train", "test"))
    recomputed = evaluate_capacity_profile(train, test, tau_max=10)
    reported = json.loads((out / "capacity.json").read_text())
    assert np.allclose(recomputed.per_tau, reported["per_tau"], atol=1e-12)


def test_gen_signals_exports_the_run_cells_inputs(tmp_path):
    from spinqrc.reservoir import RunConfig

    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["gen-signals", str(cfg), "--out", str(tmp_path / "sig")]) == 0
    train = read_trajectory(tmp_path / "run" / "trajectory_train.csv")
    steps = [RunConfig(t_final=750).sample_index(k) for k in range(train.n_steps)]
    for q in (0, 1):
        path = tmp_path / "sig" / f"signal_f2_seq{q}.csv"
        assert path.read_text().splitlines()[0] == "index,value"
        seq = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(seq[steps], train.injected_values[:, q])


def test_run_runs_each_reservoir_once(tmp_path, monkeypatch):
    import spinqrc.cli
    import spinqrc.experiments

    calls = []
    for module in (spinqrc.cli, spinqrc.experiments):
        original = getattr(module, "run_reservoir", None)
        if original is not None:
            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "run_reservoir", counted)
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 2


def test_run_computes_each_negativity_once(tmp_path, negativity_calls):
    # The cell's summary eigensolves the post-washout states of both runs
    # and the trajectory export adds the washout heads: 2 K states in all.
    from spinqrc.experiments import parse_config_file

    cfg = tmp_path / "single.cfg"
    cfg.write_text(SINGLE_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert sum(negativity_calls) == 2 * parse_config_file(cfg).run.n_steps


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
