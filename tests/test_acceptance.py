"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities (run with -s to see them on success).  The
default protocol sizes are the CI-scale ones; pass --full to rerun the
randomized protocols at publication scale.
"""

import math
import time

import numpy as np

from hn4walk.engine import (
    EdgeMode,
    WalkConfig,
    WalkEngine,
    amplified_cost,
    apply_coin,
    apply_oracle,
    apply_shift,
    coin_weights,
    directions,
    initial_state,
    shift_permutation,
    step,
    target_indices,
)
from hn4walk.experiments import (
    ScalingRecord,
    SweepResult,
    density_jobs,
    run_jobs,
    run_to_first_peak,
    sweep_jobs,
    trial_jobs,
)
from hn4walk.fitting import RuntimeModel, fit_scaling
from hn4walk.topology import TopologyParams, compose, decompose

from dense_reference import dense_step

SEED = 20260808

# total self-loop weights tuned per target count (with / without long-range edges)
TUNED_NA_HN4 = {1: 8.5, 2: 17.0, 3: 25.0, 4: 32.0, 5: 44.5, 6: 53.0}
REFERENCE_SQRT_COEFFICIENTS = {2: 1.81, 3: 1.90, 4: 1.96, 5: 1.93, 6: 2.03}


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _records(jobs):
    """The records of a job list, as the CLI reads them from ``run_jobs``."""
    return [result.record for result in run_jobs(jobs, 1)]


def _peak_records(sides, na, targets, mode):
    records = []
    for side in sides:
        topology = TopologyParams.from_side(side)
        config = WalkConfig.with_na(topology, na, targets, mode)
        peak, _ = run_to_first_peak(config)
        records.append(
            ScalingRecord(
                side=side,
                n_elements=topology.n_vertices,
                m=len(targets),
                na=na,
                mode=EdgeMode(mode).value,
                seed=0,
                trial=0,
                peak_step=peak.peak_step,
                peak_probability=peak.peak_probability,
                amplified_cost=amplified_cost(peak.peak_step, peak.peak_probability),
            )
        )
    return records


def test_criterion_1_dense_step_equivalence():
    started = time.perf_counter()
    config = WalkConfig.with_na(TopologyParams.from_side(4), 8.5, ((1, 2),))
    matrix = dense_step(config)
    assert matrix.shape == (144, 144)

    unitarity = np.max(np.abs(matrix.conj().T @ matrix - np.eye(144)))

    engine = WalkEngine(config)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        psi = rng.normal(size=(9, 16)) + 1j * rng.normal(size=(9, 16))
        psi /= np.linalg.norm(psi)
        expected = (matrix @ psi.reshape(-1)).reshape(9, 16)
        engine.set_amplitudes(psi)
        engine.advance()
        worst = max(worst, float(np.max(np.abs(engine.amplitudes - expected))))
    elapsed = time.perf_counter() - started

    ok = unitarity < 1e-12 and worst < 1e-10 and elapsed < 5.0
    assert _report(
        1, ok,
        f"max |U*U - I| = {unitarity:.2e}, max engine/dense deviation = {worst:.2e} "
        f"over 100 random steps, {elapsed:.1f}s",
    )


def test_criterion_2_property_suite():
    started = time.perf_counter()

    # unitarity drift over 1e4 steps on 64x64
    engine = WalkEngine(
        WalkConfig.with_na(TopologyParams.from_side(64), 8.5, ((1, 6),))
    )
    engine.advance(10_000)
    drift = abs(float(np.sum(np.abs(engine.amplitudes) ** 2)) - 1.0)

    # involutions on a random unit vector
    rng = np.random.default_rng(SEED + 1)
    topology = TopologyParams.from_side(64)
    config = WalkConfig.with_na(topology, 8.5, ((1, 6), (40, 3)))
    psi = rng.normal(size=(9, 4096)) + 1j * rng.normal(size=(9, 4096))
    psi /= np.linalg.norm(psi)
    reference = psi.copy()
    idx = target_indices(config)
    apply_oracle(psi, idx)
    apply_oracle(psi, idx)
    dev_oracle = float(np.max(np.abs(psi - reference)))
    weights = coin_weights(config.loop_weight, config.edge_mode)
    apply_coin(psi, weights)
    apply_coin(psi, weights)
    dev_coin = float(np.max(np.abs(psi - reference)))
    perm = shift_permutation(topology, EdgeMode.HN4)
    buf1, buf2 = np.empty_like(psi), np.empty_like(psi)
    apply_shift(psi, perm, buf1)
    apply_shift(buf1, perm, buf2)
    dev_shift = float(np.max(np.abs(buf2 - psi)))

    # stationarity with no targets
    stationarity = 0.0
    for mode in EdgeMode:
        cfg = WalkConfig.with_na(topology, 8.5, (), mode)
        uniform = initial_state(cfg)
        moved = step(uniform.copy(), cfg)
        stationarity = max(stationarity, float(np.linalg.norm(moved - uniform)))

    # shift table bijections
    bijective = all(
        np.array_equal(
            np.sort(shift_permutation(TopologyParams(n), mode)),
            np.arange(len(directions(mode)) * 4**n),
        )
        for n in range(2, 7)
        for mode in EdgeMode
    )

    # hierarchy round trip
    round_trip = all(
        compose(decompose(x, n), n) == x
        for n in range(2, 11)
        for x in range(1, (1 << n) + 1)
    )

    elapsed = time.perf_counter() - started
    ok = (
        drift < 1e-9
        and max(dev_oracle, dev_coin, dev_shift) < 1e-13
        and stationarity < 1e-12
        and bijective
        and round_trip
        and elapsed < 60.0
    )
    assert _report(
        2, ok,
        f"drift(1e4 steps) = {drift:.2e}, involution deviations "
        f"({dev_oracle:.1e}, {dev_coin:.1e}, {dev_shift:.1e}), "
        f"stationarity = {stationarity:.2e}, bijections = {bijective}, "
        f"round-trip = {round_trip}, {elapsed:.1f}s",
    )


def test_criterion_3_single_target_sqrt_scaling_with_edges():
    records = _peak_records((64, 128, 256, 512), 8.5, ((1, 6),), EdgeMode.HN4)
    fit = fit_scaling(records, RuntimeModel.SQRT)
    ok = 1.43 <= fit.coefficient <= 2.15 and fit.rms_relative_residual < 0.15
    assert _report(
        3, ok,
        f"sqrt coefficient = {fit.coefficient:.3f} (band [1.43, 2.15]), "
        f"rms relative residual = {fit.rms_relative_residual:.4f} (< 0.15), "
        f"peaks = {[r.peak_step for r in records]}",
    )


def test_criterion_4_single_target_sqrt_log_scaling_without_edges():
    records = _peak_records((64, 128, 256, 512), 7.0, ((1, 6),), EdgeMode.GRID)
    fit = fit_scaling(records, RuntimeModel.SQRT_LOG)
    base10_equivalent = fit.coefficient * math.sqrt(math.log(10.0))
    ok = 0.87 <= fit.coefficient <= 1.45
    assert _report(
        4, ok,
        f"sqrt_log (natural log) coefficient = {fit.coefficient:.3f} "
        f"(band [0.87, 1.45]), residual = {fit.rms_relative_residual:.4f}, "
        f"log10-equivalent coefficient = {base10_equivalent:.3f}, "
        f"peaks = {[r.peak_step for r in records]}",
    ), (
        "the stated natural-log band cannot hold: the reproduced dynamics match "
        f"a base-10 reading (coefficient {base10_equivalent:.3f} vs 1.16)"
    )


def test_criterion_5_multi_target_sqrt_scaling():
    details = []
    ok = True
    for m, reference in REFERENCE_SQRT_COEFFICIENTS.items():
        records = _records(trial_jobs(
            [(side, m) for side in (64, 128, 256, 512)], TUNED_NA_HN4[m], 1, SEED + m
        ))
        fit = fit_scaling(records, RuntimeModel.SQRT)
        probabilities = [r.peak_probability for r in records]
        in_band = abs(fit.coefficient - reference) <= 0.25 * reference
        healthy = min(probabilities) >= 0.3
        flat = max(probabilities) / min(probabilities) < 2.0
        ok = ok and in_band and healthy and flat
        details.append(
            f"M={m}: c={fit.coefficient:.3f} (ref {reference} +-25%), "
            f"P in [{min(probabilities):.3f}, {max(probabilities):.3f}]"
        )
    assert _report(5, ok, "; ".join(details))


def test_criterion_6_target_count_sweep(full_profile):
    started = time.perf_counter()
    side = 128 if full_profile else 64
    trials = 50 if full_profile else 10
    m_values = (1, 4, 16, 64, 256, 1000) if full_profile else (1, 4, 16, 64, 256)
    by_m = {
        m: _records(trial_jobs([(side, m)], "8.5M", trials, SEED + 100 + m))
        for m in m_values
    }
    pooled = [r for records in by_m.values() for r in records]
    fit = fit_scaling(pooled, RuntimeModel.SQRT)

    means = {m: float(np.mean([r.peak_step for r in recs])) for m, recs in by_m.items()}
    errors = {
        m: np.std([r.peak_step for r in recs], ddof=1) / math.sqrt(len(recs))
        for m, recs in by_m.items()
    }
    monotone = all(
        means[b] <= means[a] + math.hypot(errors[a], errors[b]) + 1e-9
        for a, b in zip(m_values, m_values[1:])
    )
    elapsed = time.perf_counter() - started
    ok = 1.40 <= fit.coefficient <= 2.10 and monotone and elapsed < 600.0
    assert _report(
        6, ok,
        f"pooled sqrt coefficient = {fit.coefficient:.3f} (band [1.40, 2.10]), "
        f"mean peaks {[round(means[m], 1) for m in m_values]} monotone = {monotone}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_density_success_probability(full_profile):
    sides = (64, 128, 256, 512) if full_profile else (64, 128)
    trials = 50 if full_profile else 10
    details = []
    ok = True
    for fraction in (0.10, 0.20, 0.30):
        records = _records(density_jobs(
            sides, fraction, trials=trials, seed=SEED + int(fraction * 100)
        ))
        for side in sides:
            cell = [r.peak_probability for r in records if r.side == side]
            mean = sum(cell) / len(cell)
            ok = ok and mean > 0.5
            details.append(f"{int(fraction * 100)}%@{side}: {mean:.3f}")
    assert _report(7, ok, "mean peak probability " + ", ".join(details) + " (all > 0.5)")


def test_criterion_8_self_loop_weight_sweep():
    sweep = SweepResult(tuple(_records(sweep_jobs(64, [(1, 6)], 1.0, 30.0, 0.5, EdgeMode.HN4))))
    optimal = sweep.optimal
    ok = abs(optimal.na - 8.5) <= 1.0
    assert _report(
        8, ok,
        f"optimal na = {optimal.na} (expected 8.5 +- 1.0), "
        f"peak probability there = {optimal.peak_probability:.4f}",
    )
