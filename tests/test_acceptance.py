"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failures) before asserting every clause at its stated
tolerance. The sweep fixtures run the full-size default protocol: 20-point
coupling grid, 10 coupling seeds, full-length runs.

AC-1, AC-4 and AC-5 state their capacity bounds at a level the finite-sample
estimator resolves (Dambre et al. 2012, Sci. Rep. 2, 514): against the seed
spread, or against a null control that scores the cells' own features
against input products that never drove the reservoir. Each such clause is a
helper below with a fast test of the input it must reject.
"""

import dataclasses
import math

import numpy as np
import pytest

from spinqrc.dynamics import JUMP_BLOCK, interval_propagator, liouvillian
from spinqrc.entanglement import negativities
from spinqrc.experiments import (
    DEFAULT_JS_GRID,
    ExperimentConfig,
    invariant_suite_ok,
    run_cell,
    run_invariant_suite,
    run_sweep,
    seed_averaged_metric,
)
from spinqrc.learning import DEFAULT_LAMBDA_GRID, evaluate_capacity_profile, ridge_weights
from spinqrc.linalg import PAULI_Z, kron_all
from spinqrc.reservoir import sample_index
from spinqrc.signals import (
    N_COMPONENTS,
    N_SAMPLES,
    TEST_SEQUENCE_IDS,
    TRAIN_SEQUENCE_IDS,
    component_frequencies,
    normalize_minmax,
)
from spinqrc.streams import SIGNAL_DOMAIN

from oracles import (
    encoded_state,
    gaussian_solve,
    kron_oracle,
    partial_trace_oracle,
    random_density_matrix,
)

THREADS = 2
N_SEEDS = 10
BASE_SEED = 2024
# Null input sequences draw their phases from the five-word signal key
# (SIGNAL_DOMAIN, base_seed, seed_index, NULL_TAG, sequence_id); the
# program's signal keys have four words, so none of them draws these.
NULL_TAG = 1


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")


GRID_CFG = ExperimentConfig(experiment_name="sweep_js", js_values=DEFAULT_JS_GRID,
                            f_values=(2.0,), n_coupling_seeds=N_SEEDS,
                            base_seed=BASE_SEED, output_dir="unused")
TAIL_CFG = ExperimentConfig(experiment_name="memory_tail",
                            js_values=(0.005, 0.325, 6.0, 75.0),
                            f_values=(2.0,), n_coupling_seeds=N_SEEDS,
                            base_seed=BASE_SEED, output_dir="unused")
DIP_CFG = ExperimentConfig(experiment_name="delay_dip", js_values=(1.5,),
                           f_values=(1.0, 2.0, 3.0), n_coupling_seeds=N_SEEDS,
                           base_seed=BASE_SEED, output_dir="unused")


@pytest.fixture(scope="module")
def grid_sweep():
    return run_sweep(GRID_CFG, threads=THREADS)


@pytest.fixture(scope="module")
def tail_sweep():
    return run_sweep(TAIL_CFG, threads=THREADS)


@pytest.fixture(scope="module")
def dip_sweep():
    return run_sweep(DIP_CFG, threads=THREADS)


def null_sequence(f, q, key):
    """Sequence ``q`` at ``f``, built as ``make_input_sequence`` builds it,
    with its phases drawn from the null key of the (base_seed, seed_index)
    pair ``key``."""
    seed = np.random.SeedSequence([SIGNAL_DOMAIN, *key, NULL_TAG, q])
    phases = np.random.default_rng(seed).uniform(0.0, 1.0, size=N_COMPONENTS)
    t = np.arange(N_SAMPLES, dtype=float)
    arg = 2.0 * np.pi * (np.outer(t, component_frequencies(f)) + phases[np.newaxis, :])
    return normalize_minmax(np.sin(arg).sum(axis=1))


def null_control(cfg, sweep):
    """Null capacity profiles of the cells ``sweep`` of ``cfg``, per (J_s, f)
    in seed order.

    Each cell runs again through ``run_cell``, which returns its train and
    test records. The null scores those same features, with the same
    ``evaluate_capacity_profile`` call, against s1'(k-tau)*s2'(k-tau): the
    products of four sequences drawn at the cell's f under the null key,
    sampled at the run's injection steps, that never drove the reservoir.
    Also returns whether every rerun cell's real profile equals the sweep's.
    """
    ids = TRAIN_SEQUENCE_IDS + TEST_SEQUENCE_IDS
    steps = [sample_index(k) for k in range(cfg.n_steps)]
    null, reproduced = {}, True
    for row in (r for r in sweep if r.status == "ok"):
        key = (cfg.base_seed, row.seed_index)
        null_seqs = [null_sequence(row.f, q, key)[steps] for q in ids]
        cell = run_cell(cfg, row.js, row.f, row.seed_index)
        reproduced &= bool(np.array_equal(cell.capacity.per_tau, row.capacity.per_tau))
        profile = evaluate_capacity_profile(
            dataclasses.replace(cell.train, injected_values=np.column_stack(null_seqs[:2])),
            dataclasses.replace(cell.test, injected_values=np.column_stack(null_seqs[2:])),
            cfg.tau_max)
        null.setdefault((row.js, row.f), []).append(profile.per_tau)
    return {k: np.array(v) for k, v in null.items()}, reproduced


@pytest.fixture(scope="module")
def tail_null(tail_sweep):
    return null_control(TAIL_CFG, tail_sweep)


@pytest.fixture(scope="module")
def dip_null(dip_sweep):
    return null_control(DIP_CFG, dip_sweep)


def seed_rows(sweep, js, f=2.0):
    """The (J_s, f) cells of a sweep, one per coupling seed in seed order."""
    rows = [r for r in sweep if r.status == "ok" and r.js == js and r.f == f]
    assert len(rows) == N_SEEDS
    return rows


def paired_drop(peak_totals, end_totals) -> tuple[float, float]:
    """Mean and standard error of the per-seed drop from the peak to an end.

    Coupling seed j shares one coupling pattern across J_s, so the seeds pair.
    """
    drop = np.asarray(peak_totals) - np.asarray(end_totals)
    return float(drop.mean()), float(drop.std(ddof=1) / math.sqrt(len(drop)))


def end_drop_ok(peak_totals, end_totals, n_se: float = 3.0) -> bool:
    """AC-1 end clause: the end's capacity sits below the peak's by more than
    n_se paired standard errors."""
    drop, se = paired_drop(peak_totals, end_totals)
    return drop > n_se * se


def half_height_horizon(profile) -> int:
    """Last delay up to which C(tau) stays at or above C(1)/2."""
    profile = np.asarray(profile)
    below = np.flatnonzero(profile[1:] < profile[1] / 2)
    return len(profile) - 1 if below.size == 0 else int(below[0])


def tail_contrast_ok(profiles: dict, peak_js: float) -> bool:
    """AC-4 clause: the peak coupling's profile stays high longer than every
    other coupling's."""
    peak = half_height_horizon(profiles[peak_js])
    return all(peak > half_height_horizon(p) for js, p in profiles.items() if js != peak_js)


def null_band(null_profiles, n_se: float = 2.0) -> np.ndarray:
    """Per-delay null mean + n_se standard errors over the coupling seeds."""
    runs = np.asarray(null_profiles)
    return runs.mean(axis=0) + n_se * runs.std(axis=0, ddof=1) / math.sqrt(len(runs))


def null_horizon(profile, null_profiles, n_se: float = 2.0) -> int:
    """Last delay before the profile first falls to or below the null band."""
    below = np.flatnonzero(np.asarray(profile) <= null_band(null_profiles, n_se))
    return len(profile) - 1 if below.size == 0 else int(below[0]) - 1


def recall_order_ok(horizons: dict) -> bool:
    """AC-5 clause on the null horizons H: H(f=1) >= 10 > H(f=3) and
    H(f=1) > H(f=2) > H(f=3)."""
    h1, h2, h3 = horizons[1.0], horizons[2.0], horizons[3.0]
    return h1 >= 10 > h3 and h1 > h2 > h3


def test_ac1_capacity_peak_location(grid_sweep):
    caps = seed_averaged_metric(grid_sweep, 2.0, lambda c: c.capacity.total)
    js = np.array(sorted(caps))
    totals = np.array([caps[v] for v in js])
    peak_js = float(js[np.argmax(totals)])
    peak = totals.max()
    low_ratio = caps[js[0]] / peak
    high_ratio = caps[js[-1]] / peak
    peak_rows, low_rows = seed_rows(grid_sweep, peak_js), seed_rows(grid_sweep, js[0])
    peak_totals = np.array([r.capacity.total for r in peak_rows])
    low_totals = np.array([r.capacity.total for r in low_rows])
    drop, drop_se = paired_drop(peak_totals, low_totals)
    low_ok = end_drop_ok(peak_totals, low_totals)
    # The readout's regularisation at the decoupled end, beside the peak's.
    floor = min(DEFAULT_LAMBDA_GRID)
    low_lams = np.array([r.capacity.lambda_per_tau for r in low_rows])
    peak_lam = np.median([r.capacity.lambda_per_tau for r in peak_rows])
    ok = (0.1 <= peak_js <= 1.0) and low_ok and (high_ratio < 0.6)
    report("AC-1", ok,
           f"peak at J_s={peak_js:g} (total {peak:.3f}, require within [0.1, 1.0]); "
           f"cap(75)/peak={100 * high_ratio:.1f}% (require < 60%); "
           f"J_s=0.005: paired drop from peak {drop:.3f} +/- {drop_se:.3f} se "
           f"(require > 3 se; lower on {np.sum(low_totals < peak_totals)}/{N_SEEDS} "
           f"seeds), cap/peak={100 * low_ratio:.1f}%, median lambda "
           f"{np.median(low_lams):.1e} vs {peak_lam:.1e} at the peak, "
           f"{100 * np.mean(low_lams == floor):.0f}% of its fits at the grid floor {floor:g}")
    assert 0.1 <= peak_js <= 1.0
    assert low_ok
    assert high_ratio < 0.6


def test_ac1_end_clause_rejects_flat_curve():
    totals = np.linspace(5.0, 8.0, N_SEEDS)
    assert end_drop_ok(totals, totals - 2.0)
    assert not end_drop_ok(totals, totals)
    # Flat on average, with seed-to-seed scatter.
    assert not end_drop_ok(totals, totals + 0.3 * (-1.0) ** np.arange(N_SEEDS))


def test_ac2_entanglement_peak_lags_capacity_peak(grid_sweep):
    caps = seed_averaged_metric(grid_sweep, 2.0, lambda c: c.capacity.total)
    mean_single = seed_averaged_metric(
        grid_sweep, 2.0,
        lambda c: sum(c.entanglement[l] for l in ("E1", "E2", "E3", "E4")) / 4)
    js = np.array(sorted(caps))
    cap_peak_js = float(js[np.argmax([caps[v] for v in js])])
    ent_peak_js = float(js[np.argmax([mean_single[v] for v in js])])
    ok = (2.0 <= ent_peak_js <= 20.0) and (ent_peak_js > cap_peak_js)
    report("AC-2", ok,
           f"mean single-vs-rest entanglement peaks at J_s={ent_peak_js:g} "
           f"(require within [2, 20] and > capacity peak {cap_peak_js:g})")
    assert 2.0 <= ent_peak_js <= 20.0
    assert ent_peak_js > cap_peak_js


def test_ac3_input_pair_entanglement_dominance(grid_sweep):
    caps = seed_averaged_metric(grid_sweep, 2.0, lambda c: c.capacity.total)
    js = np.array(sorted(caps))
    cap_peak_js = float(js[np.argmax([caps[v] for v in js])])
    single_in = seed_averaged_metric(
        grid_sweep, 2.0, lambda c: c.entanglement["E1"] + c.entanglement["E2"])
    single_out = seed_averaged_metric(
        grid_sweep, 2.0, lambda c: c.entanglement["E3"] + c.entanglement["E4"])
    diff_pair = seed_averaged_metric(
        grid_sweep, 2.0,
        lambda c: (c.entanglement["E13"] + c.entanglement["E14"]
                   - 2 * c.entanglement["E12"]))
    diff_peak_js = float(js[np.argmax([diff_pair[v] for v in js])])
    dominance = single_in[cap_peak_js] > single_out[cap_peak_js]
    positive = diff_pair[cap_peak_js] > 0
    located = 0.1 <= diff_peak_js <= 2.0
    ok = dominance and positive and located
    report("AC-3", ok,
           f"at capacity peak J_s={cap_peak_js:g}: E1+E2={single_in[cap_peak_js]:.4f} vs "
           f"E3+E4={single_out[cap_peak_js]:.4f}; (E13+E14)-2E12={diff_pair[cap_peak_js]:.4f}; "
           f"pair-difference max at J_s={diff_peak_js:g} (require within [0.1, 2.0])")
    assert dominance
    assert positive
    assert located


def test_ac4_memory_tail_contrast(tail_sweep, tail_null):
    null, reproduced = tail_null
    tail_js = (0.005, 0.325, 6.0, 75.0)
    per_js = {js: np.mean([r.capacity.per_tau for r in seed_rows(tail_sweep, js)], axis=0)
              for js in tail_js}
    half = {js: half_height_horizon(per_js[js]) for js in tail_js}
    band_h = {js: null_horizon(per_js[js], null[(js, 2.0)]) for js in tail_js}
    excess = per_js[0.005] - null[(0.005, 2.0)].mean(axis=0)
    contrast_ok = tail_contrast_ok(per_js, 0.325)
    ok = contrast_ok and reproduced
    report("AC-4", ok,
           "last delay with C(tau) >= C(1)/2: " +
           ", ".join(f"J_s={js:g} -> {half[js]}" for js in tail_js) +
           " (require J_s=0.325 above every end); null-band horizon (2 se): " +
           ", ".join(f"J_s={js:g} -> {band_h[js]}" for js in tail_js) +
           "; J_s=0.005 excess over null mean at tau 10..{}: ".format(band_h[0.005]) +
           ", ".join(f"{v:+.3f}" for v in excess[10:band_h[0.005] + 1]) +
           f"; real profiles reproduced: {reproduced}")
    assert reproduced
    assert contrast_ok


def test_ac4_tail_clause_rejects_swapped_profiles():
    tau = np.arange(25)
    slow, fast = 0.94 * 0.9 ** (tau - 1.0), 0.94 * 0.6 ** (tau - 1.0)
    profiles = {0.005: fast, 0.325: slow, 6.0: fast, 75.0: fast}
    assert tail_contrast_ok(profiles, 0.325)
    assert not tail_contrast_ok({**profiles, 0.325: fast, 6.0: slow}, 0.325)


def test_ac5_zero_delay_dip(dip_sweep, dip_null):
    null, reproduced = dip_null
    per_f = {f: np.mean([r.capacity.per_tau for r in seed_rows(dip_sweep, 1.5, f)], axis=0)
             for f in (1.0, 2.0, 3.0)}
    dips = {f: (per_f[f][0], per_f[f][1]) for f in per_f}
    dip_ok = all(c0 < c1 and c1 >= 0.8 for c0, c1 in dips.values())
    c10 = {f: float(per_f[f][10]) for f in per_f}
    f3_ok = c10[3.0] < 0.1
    band10 = {f: float(null_band(null[(1.5, f)])[10]) for f in per_f}
    horizons = {f: null_horizon(per_f[f], null[(1.5, f)]) for f in per_f}
    horizons3 = {f: null_horizon(per_f[f], null[(1.5, f)], n_se=3.0) for f in per_f}
    order_ok = recall_order_ok(horizons)
    ok = dip_ok and f3_ok and order_ok and reproduced
    report("AC-5", ok,
           "dip C(0)<C(1) and C(1)>=0.8: " +
           ", ".join(f"f={f:g}: ({c0:.3f}, {c1:.3f})" for f, (c0, c1) in dips.items()) +
           "; C(10) vs null band (mean + 2 se): " +
           ", ".join(f"f{f:g}={c10[f]:.3f} vs {band10[f]:.3f}" for f in per_f) +
           " (f3 required < 0.1); null horizons H (2 se): " +
           ", ".join(f"f{f:g} -> {horizons[f]}" for f in per_f) +
           " (require H1 >= 10 > H3, H1 > H2 > H3); with 3 se: " +
           ", ".join(f"f{f:g} -> {horizons3[f]}" for f in per_f) +
           f"; real profiles reproduced: {reproduced}")
    assert reproduced
    assert dip_ok
    assert f3_ok
    assert order_ok


def test_ac5_recall_clause_rejects_null_and_reversed_order():
    rng = np.random.default_rng(BASE_SEED)
    null = 0.04 + 0.01 * rng.standard_normal((N_SEEDS, 25))
    tau = np.arange(25)
    decay = {1.0: 0.85, 2.0: 0.7, 3.0: 0.5}
    profiles = {f: np.maximum(0.94 * r ** tau, 0.02) for f, r in decay.items()}
    assert recall_order_ok({f: null_horizon(p, null) for f, p in profiles.items()})
    null_as_real = {f: null_horizon(null.mean(axis=0), null) for f in profiles}
    assert not recall_order_ok(null_as_real)
    reversed_order = {f: null_horizon(profiles[4.0 - f], null) for f in profiles}
    assert not recall_order_ok(reversed_order)


def test_ac6_physics_invariant_suite():
    reportd = run_invariant_suite(n_runs=100, n_injections=50, base_seed=BASE_SEED)
    ok = invariant_suite_ok(reportd)
    report("AC-6", ok,
           f"trace error {reportd['max_trace_error']:.2e} (<=1e-9); "
           f"hermiticity {reportd['max_hermiticity_error']:.2e} (<=1e-9); "
           f"min eigenvalue {reportd['min_eigenvalue']:.2e} (>=-1e-7); "
           f"negativity range [{reportd['min_raw_negativity']:.2e}, "
           f"{reportd['max_negativity']:.3f}] (within [-1e-8, 2]); "
           f"J_s=0 max E {reportd['max_zero_coupling_negativity']:.2e} (<=1e-8)")
    assert reportd["max_trace_error"] <= 1e-9
    assert reportd["max_hermiticity_error"] <= 1e-9
    assert reportd["min_eigenvalue"] >= -1e-7
    assert reportd["min_raw_negativity"] >= -1e-8
    assert reportd["max_negativity"] <= 2.0
    assert reportd["max_zero_coupling_negativity"] <= 1e-8


def test_ac7_numerical_oracles(reset_run):
    # RK4 order-4 convergence of the interval propagator every run uses, on
    # the single-qubit unitary problem over one precession period, its
    # operators built as plain arrays the way the model builds its own.
    h = np.zeros((2, 2), dtype=complex)
    h += (1.5 / 2.0) * PAULI_Z
    generator = liouvillian(h, [math.sqrt(0.0) * JUMP_BLOCK])
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    t_end = 2 * math.pi / 1.5

    def end_error(dt):
        n_steps = math.ceil(t_end / dt)
        got = interval_propagator(generator, t_end / n_steps, n_steps) @ plus.reshape(-1)
        return float(np.abs(got.reshape(2, 2) - plus).max())

    ratio = end_error(0.05) / end_error(0.025)
    order_ok = 12.0 <= ratio <= 20.0

    # Ridge regression vs the Gaussian-elimination oracle, 100 instances.
    rng = np.random.default_rng(BASE_SEED)
    ridge_ok = True
    for _ in range(100):
        r = rng.standard_normal((50, 5))
        g = rng.standard_normal(50)
        lam = float(rng.uniform(1e-8, 10.0))
        got = ridge_weights(r, g, [lam])[0]
        want = gaussian_solve(r.T @ r + lam * np.eye(5), r.T @ g)
        ridge_ok &= bool(np.abs(got - want).max() <= 1e-10)

    # Embedded Bell state negativity, column 0 (E1) of the stacked negativities.
    bell = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]],
                          dtype=complex)
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    rho_bell = kron_all([bell, ket0, ket0])
    bell_neg = float(negativities(rho_bell[None])[0, 0])
    bell_ok = abs(bell_neg - 1.0) <= 1e-10

    # Kronecker and partial-trace oracles, 100 instances each; the second
    # rebuilds the run loop's input reset from the oracles.
    kron_ok = True
    ptrace_ok = True
    for _ in range(100):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kron_ok &= bool(np.abs(np.kron(a, b) - kron_oracle(a, b)).max() <= 1e-13)
        rho = random_density_matrix(rng, 16)
        s1, s2 = rng.uniform(0.0, 1.0, 2)
        pair = kron_oracle(encoded_state(s1), encoded_state(s2))
        want = kron_oracle(pair, partial_trace_oracle(rho, {0, 1}, 4))
        ptrace_ok &= bool(np.abs(reset_run(rho, s1, s2).states[1] - want).max() <= 1e-13)

    ok = order_ok and ridge_ok and bell_ok and kron_ok and ptrace_ok
    report("AC-7", ok,
           f"RK4 error ratio dt/2 = {ratio:.2f} (within [12, 20]); "
           f"ridge oracle 100/100: {ridge_ok}; Bell negativity {bell_neg:.12f} (1 +/- 1e-10); "
           f"kron oracle: {kron_ok}; partial-trace oracle: {ptrace_ok}")
    assert order_ok
    assert ridge_ok
    assert bell_ok
    assert kron_ok
    assert ptrace_ok


def test_ac8_determinism(tmp_path):
    cfg = ExperimentConfig(experiment_name="sweep_js", js_values=(0.1, 1.0), f_values=(2.0,),
                           n_coupling_seeds=2, base_seed=777,
                           t_final=750.0, washout_steps=30, tau_max=10,
                           output_dir="unused")
    blobs = {}
    for name, threads in (("first", 1), ("second", 1), ("threaded", 8)):
        out = tmp_path / name
        run_sweep(cfg, threads=threads, out_dir=out)
        blobs[name] = (out / "sweep_results.csv").read_bytes()
    same_rerun = blobs["first"] == blobs["second"]
    same_threads = blobs["first"] == blobs["threaded"]
    ok = same_rerun and same_threads
    report("AC-8", ok,
           f"byte-identical across executions: {same_rerun}; "
           f"across thread counts 1 and 8: {same_threads}")
    assert same_rerun
    assert same_threads
