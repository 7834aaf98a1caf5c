import json

import numpy as np
import pytest

from spinqrc.experiments import CellResult, ExperimentConfig, write_run_outputs
from spinqrc.learning import (
    DEFAULT_LAMBDA_GRID,
    CapacityProfile,
    evaluate_capacity_profile,
    ridge_weights,
    stm_capacity,
)
from spinqrc.reservoir import TrajectoryRecord, all_zero_state

from oracles import bilinear_target_oracle, gaussian_solve


def make_record(features, s1, s2, washout=0):
    return TrajectoryRecord(features=np.asarray(features, dtype=float), states=None,
                            injected_values=np.column_stack([s1, s2]),
                            washout_steps=washout)


def noise_record(k, washout, seed):
    """A run of k steps whose inputs and five features are uniform noise."""
    rng = np.random.default_rng(seed)
    return make_record(rng.uniform(0, 1, (k, 5)), *rng.uniform(0, 1, (2, k)), washout=washout)


def target_record(k, tau, washout, seed):
    """A noise run whose first feature is the oracle's delay-tau product from
    row washout + tau on."""
    rec = noise_record(k, washout, seed)
    rec.features[washout + tau:, 0] = bilinear_target_oracle(*rec.injected_values.T,
                                                             tau, k, washout)
    return rec


def recall(rec, tau):
    """The delay-tau capacity of a run read out on itself."""
    return evaluate_capacity_profile(rec, rec, tau_max=tau).per_tau[tau]


class TestBilinearTarget:
    def test_constant_inputs(self):
        # A constant product has no variance to recover: every delay scores 0.
        s = np.full(20, 0.5)
        rec = make_record(np.random.default_rng(0).uniform(0, 1, (20, 5)), s, s)
        assert evaluate_capacity_profile(rec, rec, tau_max=3).per_tau.tolist() == [0.0] * 4

    def test_degenerate_second_channel(self):
        # With s2 = 1 the target is s1 alone: a feature s1(k - 4) recalls tau 4.
        rng = np.random.default_rng(0)
        s1 = rng.uniform(0, 1, 30)
        rec = make_record(np.column_stack([np.roll(s1, 4), rng.uniform(0, 1, (30, 4))]),
                          s1, np.ones(30), washout=5)
        assert recall(rec, 4) == pytest.approx(1.0, abs=1e-9)

    def test_matches_shifted_product_oracle(self):
        for tau in (0, 3, 7):
            assert recall(target_record(40, tau, 6, seed=tau), tau) == pytest.approx(
                1.0, abs=1e-9)

    def test_window_alignment_with_features(self):
        # The delay-3 window is rows washout + 3 .. K - 1: noise before it
        # leaves the recall whole, a spike at either end of it does not.
        rec = target_record(40, 3, 6, seed=3)
        assert recall(rec, 3) == pytest.approx(1.0, abs=1e-9)
        for row in (9, 39):
            feats = rec.features.copy()
            feats[row, 0] += 0.5
            assert recall(make_record(feats, *rec.injected_values.T, washout=6), 3) < 1.0 - 1e-6

    def test_empty_window_rejected(self):
        rec = make_record(np.ones((10, 5)), np.ones(10), np.ones(10), washout=5)
        with pytest.raises(ValueError, match=r"^empty target window: washout 5 \+ tau 5 >= K 10$"):
            evaluate_capacity_profile(rec, rec, tau_max=5)


class TestRidgeFit:
    def test_recovers_true_weights_on_noiseless_system(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((60, 5))
        w_true = np.array([1.5, -2.0, 0.3, 0.0, 4.0])
        w = ridge_weights(r, r @ w_true, [1e-12])[0]
        assert np.allclose(w, w_true, atol=1e-6)

    def test_weights_shrink_monotonically_in_lambda(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((50, 5))
        g = rng.standard_normal(50)
        norms = [np.linalg.norm(ridge_weights(r, g, [lam])[0])
                 for lam in (1e-6, 1e-2, 1.0, 1e2, 1e6)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal((50, 5))
            g = rng.standard_normal(50)
            lam = float(rng.uniform(1e-8, 10.0))
            w = ridge_weights(r, g, [lam])[0]
            oracle = gaussian_solve(r.T @ r + lam * np.eye(5), r.T @ g)
            assert np.allclose(w, oracle, atol=1e-10)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((80, 5))
        g = rng.standard_normal(80)
        lam = 1e-3
        w = ridge_weights(r, g, [lam])[0]
        gram = r.T @ r + lam * np.eye(5)
        rhs = r.T @ g
        assert np.linalg.norm(gram @ w - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_training_error_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((60, 5))
        g = rng.standard_normal(60)
        errs = []
        for lam in np.geomspace(1e-8, 1e4, 13):
            w = ridge_weights(r, g, [lam])[0]
            errs.append(float(np.mean((r @ w - g) ** 2)))
        assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_stacked_solve_equals_per_lambda_solves(self):
        # One Gram per delay, all lambdas in one stacked solve: the weights
        # are those of a solve of each system alone, bit for bit.
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = np.column_stack([rng.uniform(-1, 1, (300, 4)), np.ones(300)])
            g = rng.uniform(0, 1, 300)
            stacked = ridge_weights(r, g, DEFAULT_LAMBDA_GRID)
            for lam, w in zip(DEFAULT_LAMBDA_GRID, stacked):
                alone = np.linalg.solve(r.T @ r + lam * np.eye(5), r.T @ g)
                assert w.tolist() == alone.tolist()
                assert ridge_weights(r, g, [lam])[0].tolist() == alone.tolist()

    def test_singular_system_names_lambda(self):
        with pytest.raises(np.linalg.LinAlgError, match="lambda=1e-300"):
            ridge_weights(np.ones((9, 5)), np.ones(9), [1e-300])
        with pytest.raises(ValueError, match="positive"):
            ridge_weights(np.ones((9, 5)), np.ones(9), [1.0, -1.0])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            ridge_weights(np.ones((3, 5)), np.ones(3), [0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree in length"):
            ridge_weights(np.ones((9, 5)), np.ones(8), [0.1])

    def test_overflowing_solution_names_lambda(self):
        # A tiny, well-conditioned system with a huge target: the solve
        # overflows to inf without a singular pivot.
        features = 1e-150 * np.vstack([np.eye(5), np.eye(5)])
        with pytest.raises(np.linalg.LinAlgError, match="non-finite ridge solution at lambda=1e-300"):
            ridge_weights(features, np.full(10, 1e300), [1e-300])

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_weights(np.ones((9, 5)), np.ones(9), [0.0])


class TestStmCapacity:
    def test_perfect_correlation(self):
        y = np.array([0.1, 0.5, 0.2, 0.9, 0.3])
        assert stm_capacity(y, y) == pytest.approx(1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        g = rng.uniform(0, 1, 100)
        assert stm_capacity(3.0 * g - 1.7, g) == pytest.approx(1.0, abs=1e-12)

    def test_null_distribution_small(self):
        rng = np.random.default_rng(8)
        vals = [stm_capacity(rng.standard_normal(300), rng.standard_normal(300))
                for _ in range(50)]
        assert np.mean(vals) < 0.05

    def test_constant_inputs_give_zero(self):
        g = np.random.default_rng(9).uniform(0, 1, 50)
        assert stm_capacity(np.full(50, 2.0), g) == 0.0
        assert stm_capacity(g, np.full(50, 0.3)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stm_capacity(np.ones(5), np.ones(6))
        with pytest.raises(ValueError):
            stm_capacity(np.ones((3, 5)), np.ones(6))
        with pytest.raises(ValueError):
            stm_capacity(np.ones(5), np.ones((1, 5)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least two samples"):
            stm_capacity(np.ones(1), np.ones(1))

    def test_stacked_rows_equal_the_vector_call(self):
        # Row i of a stacked call equals scoring row i alone, bit for bit,
        # constant rows (score 0, no division by zero) included.
        rng = np.random.default_rng(16)
        for n in (2, 7, 300):
            g = rng.uniform(0, 1, n)
            y = 0.4 * g + rng.standard_normal((21, n)) * np.geomspace(1e-6, 10.0, 21)[:, None]
            y[3] = 2.0
            y[8] = -0.25
            stacked = stm_capacity(y, g)
            assert stacked.shape == (21,)
            assert stacked.tolist() == [stm_capacity(row, g) for row in y]
            assert stacked[3] == stacked[8] == 0.0
            assert stm_capacity(y, np.full(n, 0.3)).tolist() == [0.0] * 21

    def test_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            y = rng.standard_normal(40)
            g = 0.5 * y + 0.1 * rng.standard_normal(40)
            c = stm_capacity(y, g)
            assert 0.0 <= c <= 1.0


class TestEvaluateCapacityProfile:
    def test_memoryless_perfect_linear_relationship(self):
        # Feature = target at tau 0; identical train and test records.
        rec = target_record(60, 0, 5, seed=11)
        profile = evaluate_capacity_profile(rec, rec, tau_max=3)
        assert profile.per_tau[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_tau_max_total(self):
        rec = noise_record(40, 4, seed=12)
        profile = evaluate_capacity_profile(rec, rec, tau_max=0)
        assert profile.total == pytest.approx(profile.per_tau[0])

    def test_total_is_sum_of_per_tau(self):
        train, test = noise_record(80, 6, seed=13), noise_record(80, 6, seed=14)
        profile = evaluate_capacity_profile(train, test, tau_max=5)
        assert profile.total == pytest.approx(profile.per_tau.sum(), abs=1e-12)
        assert np.all(profile.per_tau >= 0.0) and np.all(profile.per_tau <= 1.0)
        assert all(lam in DEFAULT_LAMBDA_GRID for lam in profile.lambda_per_tau)

    def test_feature_rescaling_leaves_capacity_unchanged(self):
        # Scaling every feature by c and every lambda by c^2 rescales the
        # ridge predictions by an affine map, so Pearson^2 is untouched:
        # each lambda's test-window score, at every delay.
        rng = np.random.default_rng(14)
        s1 = rng.uniform(0, 1, 70)
        s2 = rng.uniform(0, 1, 70)
        feats = np.column_stack([s1 + 0.1 * rng.standard_normal(70),
                                 s2 + 0.1 * rng.standard_normal(70),
                                 rng.uniform(0, 1, 70), rng.uniform(0, 1, 70),
                                 np.ones(70)])
        feats_test = np.roll(feats, 2, axis=0)
        g, g_test = s1 * s2, np.roll(s1 * s2, 2)
        scale = 7.3
        grid = np.geomspace(1e-8, 1e2, 11)
        for tau in range(5):
            rows, targets = slice(5 + tau, None), slice(5, 70 - tau)
            scores = []
            for c in (1.0, scale):
                weights = ridge_weights(c * feats[rows], g[targets], c**2 * grid)
                scores.append(stm_capacity(weights @ (c * feats_test[rows]).T, g_test[targets]))
            assert np.allclose(scores[0], scores[1], atol=1e-8)

    def test_equals_a_per_lambda_loop(self):
        # Reference: one ridge solve per delay, then each lambda's prediction
        # scored alone; the first best lambda wins.
        rng = np.random.default_rng(17)
        records = []
        for shift in range(2):
            s1 = rng.uniform(0, 1, 90)
            s2 = rng.uniform(0, 1, 90)
            feats = np.column_stack([np.roll(s1 * s2, 1) + 0.3 * rng.standard_normal(90),
                                     rng.uniform(0, 1, (90, 3)), np.ones(90)])
            records.append(make_record(feats, s1, s2, washout=6))
        train, test = records
        profile = evaluate_capacity_profile(train, test, tau_max=4)
        for tau in range(5):
            targets = [bilinear_target_oracle(r.injected_values[:, 0], r.injected_values[:, 1],
                                              tau, 90, 6) for r in records]
            windows = [r.features[6 + tau:] for r in records]
            weights = ridge_weights(windows[0], targets[0], DEFAULT_LAMBDA_GRID)
            best_score, best = -1.0, 0
            for i, w in enumerate(weights):
                score = stm_capacity(windows[1] @ w, targets[1])
                if score > best_score:
                    best_score, best = score, i
            assert profile.per_tau[tau] == best_score
            assert profile.lambda_per_tau[tau] == DEFAULT_LAMBDA_GRID[best]
        assert profile.total == float(profile.per_tau.sum())

    def test_mismatched_records_rejected(self):
        with pytest.raises(ValueError):
            evaluate_capacity_profile(noise_record(30, 2, seed=15), noise_record(20, 2, seed=16),
                                      tau_max=2)


def test_weak_coupling_prediction_quality():
    # End-to-end check: at J_s = 0.1, f = 2 the test prediction at the best
    # delay overlays the target, i.e. C at the optimal tau exceeds 0.9.
    from spinqrc.dynamics import random_model
    from spinqrc.experiments import ExperimentConfig
    from spinqrc.reservoir import interval_map, run_reservoir
    from spinqrc.signals import make_input_sequence

    cfg = ExperimentConfig()
    model = random_model(0.1, seed=(2024, 0))
    seqs = [make_input_sequence(2.0, q, (2024, 0)) for q in range(4)]
    propagator = interval_map(model)
    train, test = run_reservoir(propagator, [seqs[0:2], seqs[2:4]],
                                cfg.n_steps, cfg.washout_steps)
    profile = evaluate_capacity_profile(train, test)
    assert profile.per_tau.max() > 0.9
    assert int(np.argmax(profile.per_tau)) >= 1


@pytest.mark.parametrize("js", [0.005, 0.325])
def test_test_selection_reuses_the_score_a_fresh_one_equals(js):
    # Each delay reports the stacked score of the test run at the chosen
    # lambda; fitting that lambda alone and scoring its test predictions
    # alone gives the same value bit for bit, on full-length runs.
    from spinqrc.dynamics import random_model
    from spinqrc.experiments import ExperimentConfig
    from spinqrc.reservoir import interval_map, run_reservoir
    from spinqrc.signals import make_input_sequence

    cfg = ExperimentConfig()
    seqs = [make_input_sequence(2.0, q, (2024, 1)) for q in range(4)]
    propagator = interval_map(random_model(js, seed=(2024, 1)))
    train, test = run_reservoir(propagator, [seqs[0:2], seqs[2:4]],
                                cfg.n_steps, cfg.washout_steps)
    profile = evaluate_capacity_profile(train, test)
    washout, k_steps = cfg.washout_steps, cfg.n_steps
    g_train, g_test = (r.injected_values[:, 0] * r.injected_values[:, 1] for r in (train, test))
    for tau, (reported, lam) in enumerate(zip(profile.per_tau, profile.lambda_per_tau)):
        rows, targets = slice(washout + tau, None), slice(washout, k_steps - tau)
        (weights,) = ridge_weights(train.features[rows], g_train[targets], [lam])
        fresh = stm_capacity(test.features[rows] @ weights, g_test[targets])
        assert np.float64(fresh).tobytes() == reported.tobytes(), tau


def test_capacity_serialization(tmp_path):
    profile = CapacityProfile(per_tau=np.array([0.9, 0.5, 0.1]),
                              lambda_per_tau=np.array([1e-3, 1e-2, 1e-1]))
    record = TrajectoryRecord(features=np.zeros((2, 5)),
                              states=np.stack([all_zero_state(4)] * 2),
                              injected_values=np.zeros((2, 2)), washout_steps=0)
    cfg = ExperimentConfig(output_dir="unused")
    cell = CellResult(js=0.5, f=2.0, seed_index=3, status="ok", capacity=profile,
                      entanglement={}, wall_time_s=0.0, train=record, test=record)
    write_run_outputs(cfg, cell, tmp_path)
    lines = (tmp_path / "capacity.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,capacity,lambda_chosen"
    assert len(lines) == 4
    payload = json.loads((tmp_path / "capacity.json").read_text())
    assert payload["total"] == 1.5
    assert payload["config_fingerprint"] == cfg.fingerprint()
    assert payload["per_tau"] == [0.9, 0.5, 0.1]
