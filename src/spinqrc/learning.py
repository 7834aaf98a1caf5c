"""Linear readout training and short-term-memory capacity evaluation.

The readout is ridge regression from the 5-dimensional feature rows onto the
delayed bilinear target g(k) = s1(k - tau) * s2(k - tau): feature row k, from
washout + tau on, is scored against the input product at k - tau, so every
delay reads a shifted slice of one product sequence per run. Capacity at each
delay is the squared Pearson correlation between prediction and target on the
test run, maximized over a logarithmic grid of regularization strengths; the
total capacity sums the per-delay values up to tau_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reservoir import TrajectoryRecord

TAU_MAX_DEFAULT = 24
# Spans machine-precision fitting to heavy shrinkage; endpoints are reported
# so saturation at an edge is visible in the outputs.
DEFAULT_LAMBDA_GRID = tuple(np.geomspace(1e-10, 1e2, 21))
VARIANCE_FLOOR = 1e-14


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


def stm_capacity(predicted, target):
    """Squared Pearson correlation, defined as 0 for (near-)constant inputs.

    ``predicted`` is one vector, which gives a float, or a stack of them (one
    per row), which gives one capacity per row, each equal bit for bit to
    scoring that row alone; the target is centred once for the whole stack.
    """
    y = np.asarray(predicted, dtype=float)
    g = np.asarray(target, dtype=float)
    if g.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != g.shape[0]:
        raise ValueError("predicted and target must be equal-length vectors")
    if len(g) < 2:
        raise ValueError("need at least two samples")
    var_y = np.var(y, axis=-1)
    var_g = np.var(g)
    cov = np.mean((y - y.mean(axis=-1, keepdims=True)) * (g - g.mean()), axis=-1)
    scored = (var_y >= VARIANCE_FLOOR) & (var_g >= VARIANCE_FLOOR)
    ratio = np.divide(cov * cov, var_y * var_g, out=np.zeros_like(var_y), where=scored)
    capacity = np.minimum(ratio, 1.0)
    return float(capacity) if y.ndim == 1 else capacity


@dataclass(frozen=True, eq=False)
class CapacityProfile:
    """C_STM(tau) for tau = 0..tau_max and the lambda chosen at each."""

    per_tau: np.ndarray
    lambda_per_tau: np.ndarray

    @property
    def total(self) -> float:
        """The summed capacity, recomputed from ``per_tau``."""
        return float(self.per_tau.sum())


def evaluate_capacity_profile(train: TrajectoryRecord, test: TrajectoryRecord,
                              tau_max: int = TAU_MAX_DEFAULT) -> CapacityProfile:
    """Fit per-tau readouts on the train run and score them on the test run.

    For each tau every lambda of ``DEFAULT_LAMBDA_GRID`` is scored on the
    test run in one stack, and the delay reports the best score with its
    lambda (the first, on a tie): a row of the stacked score equals that
    row's prediction scored alone, bit for bit.
    """
    if test.n_steps != train.n_steps or test.washout_steps != train.washout_steps:
        raise ValueError("train and test records must share K and washout")

    washout = train.washout_steps
    k_steps = train.n_steps
    if washout + tau_max >= k_steps:
        raise ValueError(f"empty target window: washout {washout} + tau {tau_max} >= K {k_steps}")
    r_train, r_test = train.features, test.features
    g_train, g_test = (r.injected_values[:, 0] * r.injected_values[:, 1] for r in (train, test))
    per_tau = np.zeros(tau_max + 1)
    lambdas = np.zeros(tau_max + 1)
    for tau in range(tau_max + 1):
        rows, targets = slice(washout + tau, None), slice(washout, k_steps - tau)
        weights = ridge_weights(r_train[rows], g_train[targets], DEFAULT_LAMBDA_GRID)
        scores = stm_capacity(np.matmul(r_test[rows], weights[..., None])[..., 0],
                              g_test[targets])
        best = int(np.argmax(scores))
        per_tau[tau] = scores[best]
        lambdas[tau] = float(DEFAULT_LAMBDA_GRID[best])
    return CapacityProfile(per_tau=per_tau, lambda_per_tau=lambdas)
