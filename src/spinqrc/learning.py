"""Linear readout training and short-term-memory capacity evaluation.

The readout is ridge regression from the 5-dimensional feature rows onto the
delayed bilinear target g(k) = s1(k - tau) * s2(k - tau). Capacity at each
delay is the squared Pearson correlation between prediction and target on the
test run, maximized over a logarithmic grid of regularization strengths; the
total capacity sums the per-delay values up to tau_max.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .reservoir import TrajectoryRecord

TAU_MAX_DEFAULT = 24
# Spans machine-precision fitting to heavy shrinkage; endpoints are reported
# so saturation at an edge is visible in the outputs.
DEFAULT_LAMBDA_GRID = tuple(np.geomspace(1e-10, 1e2, 21))
VARIANCE_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Trained linear readout for one (tau, lambda) cell."""

    weights: np.ndarray
    lam: float
    tau: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights


def bilinear_target(s1, s2, tau: int, n_steps: int, washout: int) -> np.ndarray:
    """Delayed product targets for feature rows k = washout+tau .. n_steps-1.

    Row k is paired with s1(k-tau)*s2(k-tau); rows whose target index would
    fall inside the washout are dropped, so train and test windows share the
    same per-tau semantics.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    start = washout + tau
    if start >= n_steps:
        raise ValueError(f"empty target window: washout {washout} + tau {tau} >= K {n_steps}")
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    idx = np.arange(start, n_steps) - tau
    return s1[idx] * s2[idx]


def feature_window(features: np.ndarray, tau: int, washout: int) -> np.ndarray:
    """Feature rows aligned with ``bilinear_target`` for the same tau."""
    return features[washout + tau:]


def ridge_weights(features: np.ndarray, targets: np.ndarray, lams) -> np.ndarray:
    """Ridge weights for every lambda: row i solves (R'R + lams[i] I) w = R'g.

    R'R and R'g are formed once; the systems go through one stacked solve,
    which runs the same LAPACK routine on each as a solve of that system alone.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if np.any(lams <= 0):
        raise ValueError("lambda must be positive")
    r = np.asarray(features, dtype=float)
    g = np.asarray(targets, dtype=float)
    if r.ndim != 2 or r.shape[0] < r.shape[1]:
        raise ValueError(f"need at least {r.shape[1]} feature rows, got {r.shape[0]}")
    if r.shape[0] != g.shape[0]:
        raise ValueError("features and targets disagree in length")
    grams = r.T @ r + lams[:, None, None] * np.eye(r.shape[1])
    rhs = r.T @ g
    try:
        weights = np.linalg.solve(grams, np.broadcast_to(rhs[:, None], grams.shape[:-1] + (1,)))
    except np.linalg.LinAlgError as exc:
        # R'R + lam I is worst conditioned at the smallest lambda.
        raise np.linalg.LinAlgError(
            f"ridge system singular at lambda={lams.min():g}; increase lambda") from exc
    weights = weights[..., 0]
    finite = np.all(np.isfinite(weights), axis=1)
    if not finite.all():
        raise np.linalg.LinAlgError(
            f"non-finite ridge solution at lambda={lams[~finite][0]:g}")
    return weights


def ridge_fit(features: np.ndarray, targets: np.ndarray, lam: float, tau: int = 0) -> ReadoutModel:
    """Solve the regularized normal equations (R'R + lam I) w = R'g exactly."""
    return ReadoutModel(weights=ridge_weights(features, targets, [lam])[0],
                        lam=float(lam), tau=int(tau))


def stm_capacity(predicted, target) -> float:
    """Squared Pearson correlation, defined as 0 for (near-)constant inputs."""
    y = np.asarray(predicted, dtype=float)
    g = np.asarray(target, dtype=float)
    if y.shape != g.shape or y.ndim != 1:
        raise ValueError("predicted and target must be equal-length vectors")
    if len(y) < 2:
        raise ValueError("need at least two samples")
    var_y = float(np.var(y))
    var_g = float(np.var(g))
    if var_y < VARIANCE_FLOOR or var_g < VARIANCE_FLOOR:
        return 0.0
    cov = float(np.mean((y - y.mean()) * (g - g.mean())))
    return min(cov * cov / (var_y * var_g), 1.0)


@dataclass(frozen=True, eq=False)
class CapacityProfile:
    """C_STM(tau) for tau = 0..tau_max plus the summed total."""

    per_tau: np.ndarray
    lambda_per_tau: np.ndarray
    total: float

    @property
    def tau_max(self) -> int:
        return len(self.per_tau) - 1


def evaluate_capacity_profile(train: TrajectoryRecord, test: TrajectoryRecord,
                              tau_max: int = TAU_MAX_DEFAULT,
                              lambda_grid=DEFAULT_LAMBDA_GRID,
                              selection: TrajectoryRecord | None = None) -> CapacityProfile:
    """Fit per-tau readouts on the train run and score them on the test run.

    For each tau the regularization strength is chosen to maximize test
    capacity, the default protocol. Passing ``selection`` switches to
    the clean variant: lambda is chosen on that held-out run instead and the
    test run is scored once with the winner.
    """
    if train.n_steps != test.n_steps or train.washout_steps != test.washout_steps:
        raise ValueError("train and test records must share K and washout conventions")
    if selection is not None and (selection.n_steps != train.n_steps
                                  or selection.washout_steps != train.washout_steps):
        raise ValueError("selection record must share K and washout conventions")

    washout = train.washout_steps
    k_steps = train.n_steps
    per_tau = np.zeros(tau_max + 1)
    lambdas = np.zeros(tau_max + 1)
    for tau in range(tau_max + 1):
        r_train = feature_window(train.features, tau, washout)
        g_train = bilinear_target(train.injected_values[:, 0], train.injected_values[:, 1],
                                  tau, k_steps, washout)
        r_test = feature_window(test.features, tau, washout)
        g_test = bilinear_target(test.injected_values[:, 0], test.injected_values[:, 1],
                                 tau, k_steps, washout)
        if selection is not None:
            r_sel = feature_window(selection.features, tau, washout)
            g_sel = bilinear_target(selection.injected_values[:, 0],
                                    selection.injected_values[:, 1], tau, k_steps, washout)
        weights = ridge_weights(r_train, g_train, lambda_grid)
        r_score, g_score = (r_test, g_test) if selection is None else (r_sel, g_sel)
        best_score = -1.0
        best = 0
        for i, w in enumerate(weights):
            # One gemv per lambda: a stacked product need not round the same.
            score = stm_capacity(r_score @ w, g_score)
            if score > best_score:
                best_score = score
                best = i
        if selection is not None:
            best_score = stm_capacity(r_test @ weights[best], g_test)
        per_tau[tau] = best_score
        lambdas[tau] = float(lambda_grid[best])
    return CapacityProfile(per_tau=per_tau, lambda_per_tau=lambdas, total=float(per_tau.sum()))


def write_capacity_csv(profile: CapacityProfile, path) -> None:
    """Columns: tau, capacity, lambda_chosen."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "capacity", "lambda_chosen"])
        for tau, (c, lam) in enumerate(zip(profile.per_tau, profile.lambda_per_tau)):
            writer.writerow([tau, repr(float(c)), repr(float(lam))])


def capacity_to_dict(profile: CapacityProfile) -> dict:
    return {
        "per_tau": [float(c) for c in profile.per_tau],
        "lambda_per_tau": [float(l) for l in profile.lambda_per_tau],
        "total": profile.total,
    }


def write_capacity_json(profile: CapacityProfile, path, fingerprint: str | None = None) -> None:
    payload = capacity_to_dict(profile)
    if fingerprint is not None:
        payload["config_fingerprint"] = fingerprint
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
