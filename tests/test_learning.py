import json

import numpy as np
import pytest

from spinqrc.learning import (
    DEFAULT_LAMBDA_GRID,
    CapacityProfile,
    bilinear_target,
    evaluate_capacity_profile,
    feature_window,
    ridge_fit,
    ridge_weights,
    stm_capacity,
    write_capacity_csv,
    write_capacity_json,
)
from spinqrc.reservoir import TrajectoryRecord

from oracles import gaussian_solve


def make_record(features, s1, s2, washout=0):
    k = len(features)
    return TrajectoryRecord(features=np.asarray(features, dtype=float),
                            entanglement_samples=np.zeros((k, 7)),
                            injected_values=np.column_stack([s1, s2]),
                            washout_steps=washout)


class TestBilinearTarget:
    def test_constant_inputs(self):
        s = np.full(20, 0.5)
        assert np.allclose(bilinear_target(s, s, 0, 20, 0), 0.25)

    def test_degenerate_second_channel(self):
        rng = np.random.default_rng(0)
        s1 = rng.uniform(0, 1, 30)
        ones = np.ones(30)
        got = bilinear_target(s1, ones, 4, 30, 5)
        assert np.allclose(got, s1[5:26])

    def test_matches_shifted_product_oracle(self):
        rng = np.random.default_rng(1)
        s1 = rng.uniform(0, 1, 40)
        s2 = rng.uniform(0, 1, 40)
        tau, washout, k = 3, 6, 40
        got = bilinear_target(s1, s2, tau, k, washout)
        want = [s1[j - tau] * s2[j - tau] for j in range(washout + tau, k)]
        assert np.allclose(got, want)
        assert len(got) == k - washout - tau

    def test_window_alignment_with_features(self):
        feats = np.arange(50).reshape(10, 5).astype(float)
        assert len(feature_window(feats, 2, 3)) == 5
        assert feature_window(feats, 2, 3)[0, 0] == feats[5, 0]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bilinear_target(np.ones(10), np.ones(10), 6, 10, 5)


class TestRidgeFit:
    def test_recovers_true_weights_on_noiseless_system(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((60, 5))
        w_true = np.array([1.5, -2.0, 0.3, 0.0, 4.0])
        model = ridge_fit(r, r @ w_true, lam=1e-12)
        assert np.allclose(model.weights, w_true, atol=1e-6)

    def test_weights_shrink_monotonically_in_lambda(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((50, 5))
        g = rng.standard_normal(50)
        norms = [np.linalg.norm(ridge_fit(r, g, lam).weights)
                 for lam in (1e-6, 1e-2, 1.0, 1e2, 1e6)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal((50, 5))
            g = rng.standard_normal(50)
            lam = float(rng.uniform(1e-8, 10.0))
            model = ridge_fit(r, g, lam)
            oracle = gaussian_solve(r.T @ r + lam * np.eye(5), r.T @ g)
            assert np.allclose(model.weights, oracle, atol=1e-10)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((80, 5))
        g = rng.standard_normal(80)
        lam = 1e-3
        model = ridge_fit(r, g, lam)
        gram = r.T @ r + lam * np.eye(5)
        rhs = r.T @ g
        assert np.linalg.norm(gram @ model.weights - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_training_error_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((60, 5))
        g = rng.standard_normal(60)
        errs = []
        for lam in np.geomspace(1e-8, 1e4, 13):
            model = ridge_fit(r, g, float(lam))
            errs.append(float(np.mean((model.predict(r) - g) ** 2)))
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
                assert ridge_fit(r, g, lam).weights.tolist() == alone.tolist()

    def test_singular_system_names_lambda(self):
        with pytest.raises(np.linalg.LinAlgError, match="lambda=1e-300"):
            ridge_fit(np.ones((9, 5)), np.ones(9), 1e-300)
        with pytest.raises(ValueError, match="positive"):
            ridge_weights(np.ones((9, 5)), np.ones(9), [1.0, -1.0])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            ridge_fit(np.ones((3, 5)), np.ones(3), 0.1)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_fit(np.ones((9, 5)), np.ones(9), 0.0)


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
        rng = np.random.default_rng(11)
        s1 = rng.uniform(0.1, 0.9, 60)
        s2 = rng.uniform(0.1, 0.9, 60)
        feats = np.column_stack([s1 * s2, rng.uniform(0, 1, 60),
                                 rng.uniform(0, 1, 60), rng.uniform(0, 1, 60),
                                 np.ones(60)])
        rec = make_record(feats, s1, s2, washout=5)
        profile = evaluate_capacity_profile(rec, rec, tau_max=3)
        assert profile.per_tau[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_tau_max_total(self):
        rng = np.random.default_rng(12)
        s1 = rng.uniform(0, 1, 40)
        s2 = rng.uniform(0, 1, 40)
        feats = np.column_stack([rng.uniform(0, 1, (40, 4)), np.ones(40)])
        rec = make_record(feats, s1, s2, washout=4)
        profile = evaluate_capacity_profile(rec, rec, tau_max=0)
        assert profile.total == pytest.approx(profile.per_tau[0])

    def test_total_is_sum_of_per_tau(self):
        rng = np.random.default_rng(13)
        s1 = rng.uniform(0, 1, 80)
        s2 = rng.uniform(0, 1, 80)
        feats = np.column_stack([rng.uniform(0, 1, (80, 4)), np.ones(80)])
        train = make_record(feats, s1, s2, washout=6)
        test = make_record(np.roll(feats, 1, axis=0), np.roll(s1, 1), np.roll(s2, 1), washout=6)
        profile = evaluate_capacity_profile(train, test, tau_max=5)
        assert profile.total == pytest.approx(profile.per_tau.sum(), abs=1e-12)
        assert np.all(profile.per_tau >= 0.0) and np.all(profile.per_tau <= 1.0)
        assert all(lam in DEFAULT_LAMBDA_GRID for lam in profile.lambda_per_tau)

    def test_feature_rescaling_leaves_capacity_unchanged(self):
        # Scaling every feature by c and every lambda by c^2 rescales the
        # ridge predictions by an affine map, so Pearson^2 is untouched.
        rng = np.random.default_rng(14)
        s1 = rng.uniform(0, 1, 70)
        s2 = rng.uniform(0, 1, 70)
        feats = np.column_stack([s1 + 0.1 * rng.standard_normal(70),
                                 s2 + 0.1 * rng.standard_normal(70),
                                 rng.uniform(0, 1, 70), rng.uniform(0, 1, 70),
                                 np.ones(70)])
        feats_test = np.roll(feats, 2, axis=0)
        scale = 7.3
        grid = tuple(np.geomspace(1e-8, 1e2, 11))
        grid_scaled = tuple(scale**2 * g for g in grid)
        train = make_record(feats, s1, s2, washout=5)
        test = make_record(feats_test, np.roll(s1, 2), np.roll(s2, 2), washout=5)
        train_s = make_record(scale * feats, s1, s2, washout=5)
        test_s = make_record(scale * feats_test, np.roll(s1, 2), np.roll(s2, 2), washout=5)
        a = evaluate_capacity_profile(train, test, tau_max=4, lambda_grid=grid)
        b = evaluate_capacity_profile(train_s, test_s, tau_max=4, lambda_grid=grid_scaled)
        assert np.allclose(a.per_tau, b.per_tau, atol=1e-8)

    def test_mismatched_records_rejected(self):
        rng = np.random.default_rng(15)
        feats = np.column_stack([rng.uniform(0, 1, (30, 4)), np.ones(30)])
        a = make_record(feats, rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), washout=2)
        b = make_record(feats[:20], rng.uniform(0, 1, 20), rng.uniform(0, 1, 20), washout=2)
        with pytest.raises(ValueError):
            evaluate_capacity_profile(a, b, tau_max=2)


def test_weak_coupling_prediction_quality():
    # End-to-end check: at J_s = 0.1, f = 2 the test prediction at the best
    # delay overlays the target, i.e. C at the optimal tau exceeds 0.9.
    from spinqrc.dynamics import random_model
    from spinqrc.reservoir import RunConfig, interval_map, run_reservoir
    from spinqrc.signals import make_input_sequence

    cfg = RunConfig()
    model = random_model(0.1, seed=(2024, 0))
    seqs = [make_input_sequence(2.0, q, (2024, 0)) for q in range(4)]
    propagator = interval_map(model, cfg)
    train = run_reservoir(propagator, seqs[0], seqs[1], cfg)
    test = run_reservoir(propagator, seqs[2], seqs[3], cfg)
    profile = evaluate_capacity_profile(train, test)
    assert profile.per_tau.max() > 0.9
    assert int(np.argmax(profile.per_tau)) >= 1


def test_capacity_serialization(tmp_path):
    profile = CapacityProfile(per_tau=np.array([0.9, 0.5, 0.1]),
                              lambda_per_tau=np.array([1e-3, 1e-2, 1e-1]),
                              total=1.5)
    csv_path = tmp_path / "capacity.csv"
    json_path = tmp_path / "capacity.json"
    write_capacity_csv(profile, csv_path)
    write_capacity_json(profile, json_path, fingerprint="abc123")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "tau,capacity,lambda_chosen"
    assert len(lines) == 4
    payload = json.loads(json_path.read_text())
    assert payload["total"] == 1.5
    assert payload["config_fingerprint"] == "abc123"
    assert payload["per_tau"] == [0.9, 0.5, 0.1]
