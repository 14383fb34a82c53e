import concurrent.futures
import dataclasses
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hn4walk import engine
from hn4walk.engine import (
    EdgeMode,
    ResourceLimitError,
    WalkConfig,
    WalkEngine,
    memory_requirement,
    run,
    target_indices,
)
from hn4walk.experiments import (
    DECLINE_RUN,
    MIN_GAIN,
    NoPeakError,
    PeakRule,
    SWEEP_PEAK_RULE,
    ScalingRecord,
    SweepResult,
    TrialJob,
    derive_seed,
    detect_first_peak,
    random_target_set,
    resolve_na,
    run_jobs,
    run_to_first_peak,
    density_jobs,
    step_budget,
    sweep_jobs,
    trial_jobs,
    trial_record,
    warn_exceptional_targets,
)
from hn4walk import experiments
from hn4walk.fitting import RuntimeModel, fit_scaling
from hn4walk.topology import TopologyError, TopologyParams, decompose, exceptional_lines


def _records(jobs, workers=1):
    """The records of a job list, as the CLI reads them from :func:`run_jobs`."""
    return [result.record for result in run_jobs(jobs, workers)]


def reference_admissible(topo):
    """Linear indices of the admissible vertices, from the scalar hierarchy:
    neither coordinate at level n - 1 or n, where the long-range edges are
    self-loops."""
    n = topo.n
    line = np.array([decompose(c + 1, n).level >= n - 1 for c in range(topo.side)])
    return np.flatnonzero(~(line[:, None] | line[None, :]).reshape(-1))  # [y, x]


def reference_draw(m, topo, seed):
    """m distinct admissible vertices as a sample over every admissible linear
    index, sorted: (x, y) rows."""
    candidates = reference_admissible(topo)
    rng = np.random.default_rng(seed)
    chosen = np.sort(candidates[rng.choice(len(candidates), m, replace=False)])
    y, x = np.divmod(chosen, topo.side)
    return np.stack((x, y), axis=1)


def test_detect_first_peak_synthetic_unimodal():
    trace = [0.001, 0.5, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01]
    peak = detect_first_peak(trace)
    assert peak.peak_step == 2
    assert peak.peak_probability == 0.9


def test_detect_first_peak_monotone_raises():
    trace = [0.01 * t for t in range(12)]
    with pytest.raises(NoPeakError) as excinfo:
        detect_first_peak(trace)
    assert excinfo.value.max_probability == pytest.approx(0.11)


def test_detect_first_peak_plateau_resolves_to_earliest():
    trace = [0.001, 0.5, 0.9, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05]
    assert detect_first_peak(trace).peak_step == 2


def test_detect_first_peak_needs_three_samples():
    with pytest.raises(ValueError):
        detect_first_peak([0.1, 0.2])


def test_detect_first_peak_never_returns_zero():
    # a trace that starts at its maximum cannot qualify at t = 0
    trace = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
    with pytest.raises(NoPeakError):
        detect_first_peak(trace)


def test_peak_rule_thresholds_are_honored():
    trace = [0.1, 0.3, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01]
    # the gain threshold MIN_GAIN * P(0) = 0.5 rejects the bump at t=2
    assert max(trace) < MIN_GAIN * trace[0]
    with pytest.raises(NoPeakError):
        detect_first_peak(trace)
    # the maximum at t=2 falls for only DECLINE_RUN - 1 samples; the one at t=7
    # falls for DECLINE_RUN
    trace = [0.01, 0.5, 0.9, 0.8, 0.7, 0.6, 0.5, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    assert detect_first_peak(trace).peak_step == 7
    with pytest.raises(ValueError, match="stride"):
        PeakRule(stride=0)


def test_run_to_first_peak_regression_16x16():
    # frozen from the first full simulation of this configuration
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, ((1, 6),))
    peak, trace = run_to_first_peak(config)
    assert peak.peak_step == 27
    assert peak.peak_probability == pytest.approx(0.9856762645612162, rel=1e-12)
    # early stopping agrees with detection over the full horizon
    full = run(config, step_budget(256, 1, EdgeMode.HN4))
    again = detect_first_peak(full)
    assert (again.peak_step, again.peak_probability) == (
        peak.peak_step,
        peak.peak_probability,
    )
    assert len(trace) == peak.peak_step + DECLINE_RUN + 1


def test_run_to_first_peak_requires_targets():
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, ())
    with pytest.raises(ValueError):
        run_to_first_peak(config)


def test_run_to_first_peak_no_peak_within_budget():
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, ((1, 6),))
    with pytest.raises(NoPeakError):
        run_to_first_peak(config, t_max=10)


@pytest.mark.parametrize(
    "targets", [[(31, 6)], [(63, 6)], [(31, 6), (63, 40)]], ids=["x-half", "x-last", "two"]
)
def test_run_to_first_peak_refuses_targets_only_on_exceptional_lines(monkeypatch, targets):
    # the default rule confirmed these walks' t = 4 ripple as a peak (P = 0.00218
    # for one target, 0.00436 for two), and no later step rose above it
    monkeypatch.setattr(WalkEngine, "advance", lambda self, steps=1: pytest.fail("a step ran"))
    config = WalkConfig.with_na(TopologyParams.from_side(64), 8.5 * len(targets), targets)
    with pytest.raises(NoPeakError, match="every target lies on an exceptional line") as excinfo:
        run_to_first_peak(config)
    assert excinfo.value.max_probability == pytest.approx(len(targets) / 4096, rel=1e-12)


def test_refused_walk_allocates_no_engine():
    # a job or walk whose every target is exceptional is refused before its
    # engine exists: the 36.5 MiB of a side-512 walk's buffers are never held,
    # and the error carries P(0) = M/N, the uniform initial state's
    job = TrialJob(512, 1, 8.5, 0, 0, targets=((255, 5),))
    config = WalkConfig.with_na(TopologyParams.from_side(512), 8.5, job.targets)
    for walk in (lambda: trial_record(job), lambda: run_to_first_peak(config)):
        tracemalloc.start()
        try:
            with pytest.raises(NoPeakError, match="exceptional line") as excinfo:
                walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.max_probability == 1 / 512**2
        assert peak < 2**20


def _exceptional_warnings(caplog) -> list[str]:
    return [rec.message for rec in caplog.records
            if rec.name == "hn4walk.experiments" and "exceptional line" in rec.message]


@pytest.mark.parametrize(
    "targets, count, first, mode",
    [
        (((1, 2), (7, 3)), "1 of 2", (7, 3), EdgeMode.HN4),
        (((1, 2), (6, 7)), "1 of 2", (6, 7), EdgeMode.HN4),
        (((1, 2), (15, 0)), "1 of 2", (15, 0), EdgeMode.HN4),
        (((1, 2), (1, 6)), None, None, EdgeMode.HN4),
        (((6, 7), (1, 2), (15, 0)), "2 of 3", (15, 0), EdgeMode.HN4),
        (((6, 7), (1, 2), (15, 0)), None, None, EdgeMode.GRID),
    ],
    ids=["x-half", "y-half", "x-last", "regular", "two-exceptional", "grid"],
)
def test_warn_exceptional_targets(caplog, targets, count, first, mode):
    # side 16: x + 1 or y + 1 equal to 8 = 2**(n-1) or 16 = 2**n is exceptional;
    # one message per HN4 target set, naming the first flagged target in
    # linear-index order; a grid walk has no long-range edges to degenerate
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, targets, mode)
    with caplog.at_level(logging.WARNING, logger="hn4walk.experiments"):
        warn_exceptional_targets(config)
    assert _exceptional_warnings(caplog) == (
        [f"{count} targets lie on an exceptional line (their long-range "
         f"edges degenerate to self-loops), first {first}"] if count else [])


def test_run_to_first_peak_and_sweep_jobs_warn_once(caplog):
    # one line per target set given, however many walks or weights it has;
    # a job built by hand with explicit targets does not warn
    targets = [(1, 6), (31, 40)]
    config = WalkConfig.with_na(TopologyParams.from_side(64), 17.0, targets)
    expected = ["1 of 2 targets lie on an exceptional line (their long-range edges "
                "degenerate to self-loops), first (31, 40)"]
    with caplog.at_level(logging.WARNING, logger="hn4walk"):
        run_to_first_peak(config)
        assert _exceptional_warnings(caplog) == expected
        caplog.clear()
        jobs = sweep_jobs(64, targets, 8.0, 30.0, 0.5)
        assert len(jobs) == 45
        assert _exceptional_warnings(caplog) == expected
        caplog.clear()
        trial_record(jobs[0])
        assert _exceptional_warnings(caplog) == []


@pytest.mark.parametrize(
    "targets, na, mode, peak_step, peak_probability",
    [
        ([(31, 6), (1, 6)], 17.0, EdgeMode.HN4, 92, 0.868013),
        ([(31, 6)], 4.0, EdgeMode.GRID, 170, 0.975548),
    ],
    ids=["hn4-one-admissible", "grid"],
)
def test_run_to_first_peak_walks_when_a_target_can_be_found(
    targets, na, mode, peak_step, peak_probability
):
    # one admissible target is enough for the HN4 walk, and a grid walk has no
    # long-range edges to degenerate
    config = WalkConfig.with_na(TopologyParams.from_side(64), na, targets, mode)
    peak, _ = run_to_first_peak(config)
    assert peak.peak_step == peak_step
    assert peak.peak_probability == pytest.approx(peak_probability, abs=1e-6)
    if mode is EdgeMode.GRID:  # translation invariant: (31, 6) peaks as (1, 6) does
        moved = WalkConfig.with_na(config.topology, na, [(1, 6)], mode)
        assert run_to_first_peak(moved)[0] == peak


def test_stride_two_rule_follows_the_envelope():
    # a period-2 parity dip on a rising-then-falling envelope: neighbouring
    # samples never fall five times in a row, same-parity samples do
    envelope = [0.05 + 0.04 * t if t <= 20 else 0.85 - 0.04 * (t - 20) for t in range(31)]
    trace = [p - 0.1 * (t % 2) for t, p in enumerate(envelope)]
    with pytest.raises(NoPeakError):
        detect_first_peak(trace)
    peak = detect_first_peak(trace, SWEEP_PEAK_RULE)
    assert (peak.peak_step, peak.peak_probability) == (20, trace[20])

    # an off-optimal weight on a real walk oscillates the same way
    config = WalkConfig.with_na(TopologyParams.from_side(64), 1.0, ((1, 6),))
    with pytest.raises(NoPeakError):
        run_to_first_peak(config)
    peak, samples = run_to_first_peak(config, rule=SWEEP_PEAK_RULE)
    assert (peak.peak_step, peak.peak_probability) == (94, 0.48742107955817504)
    assert len(samples) == 94 + 2 * DECLINE_RUN + 1
    full = run(config, step_budget(4096, 1, EdgeMode.HN4))
    assert detect_first_peak(full, SWEEP_PEAK_RULE) == peak


def test_step_budget():
    assert step_budget(4096, 1, EdgeMode.HN4) == 384
    assert step_budget(4096, 1, EdgeMode.GRID) > step_budget(4096, 1, EdgeMode.HN4)
    assert step_budget(16, 16, EdgeMode.GRID) == 16


def test_derive_seed_is_deterministic():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_random_target_set_reproducible_and_admissible():
    topo = TopologyParams.from_side(16)
    a = random_target_set(5, topo, seed=42)
    b = random_target_set(5, topo, seed=42)
    assert np.array_equal(a, b)
    index = a[:, 0] + topo.side * a[:, 1]
    assert len(np.unique(index)) == 5
    assert not exceptional_lines(topo, EdgeMode.HN4)[a].any()
    c = random_target_set(5, topo, seed=43)
    assert not np.array_equal(a, c)


def test_random_target_set_full_draw_and_overflow():
    topo = TopologyParams.from_side(16)
    admissible = reference_admissible(topo)
    drawn = random_target_set(len(admissible), topo, seed=7)
    assert [x + topo.side * y for x, y in drawn] == admissible.tolist()
    with pytest.raises(ValueError):
        random_target_set(len(admissible) + 1, topo, seed=7)
    with pytest.raises(ValueError):
        random_target_set(0, topo, seed=7)


def test_every_admissible_target_is_found():
    # each vertex the sampler can draw, as a lone target, peaks near P = 1; a walk
    # whose every target is on an exceptional line raises NoPeakError unstepped
    topo = TopologyParams.from_side(16)
    drawn = random_target_set(14 * 14, topo, seed=5)
    assert [x + 16 * y for x, y in drawn] == reference_admissible(topo).tolist()
    for target in drawn:
        peak, _ = run_to_first_peak(WalkConfig.with_na(topo, 8.5, [target]))
        assert 27 <= peak.peak_step <= 29 and peak.peak_probability >= 0.98, (target, peak)


def test_density_jobs_name_the_fraction_of_an_unfit_side():
    with pytest.raises(ValueError, match="fraction 0.01 marks 0 vertices at side 4"):
        density_jobs([4, 64], 0.01, 1, 0)
    with pytest.raises(ValueError, match="fraction 0.5 marks 8 vertices at side 4"):
        density_jobs([64, 4], 0.5, 1, 0)


def test_random_target_set_uniformity_chi_square():
    # 1e4 single-target draws on 16x16: chi-square against uniform within 5 sigma
    topo = TopologyParams.from_side(16)
    admissible = reference_admissible(topo)
    counts = {int(v): 0 for v in admissible}
    draws = 10_000
    for i in range(draws):
        ((x, y),) = random_target_set(1, topo, seed=derive_seed(505, i))
        counts[x + topo.side * y] += 1
    expected = draws / len(admissible)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    dof = len(admissible) - 1
    sigma = np.sqrt(2 * dof)
    assert abs(chi2 - dof) < 5 * sigma


def test_random_target_set_pinned_draws():
    # existing seeds must keep drawing the same targets, so records stay reproducible
    side16, side512 = TopologyParams.from_side(16), TopologyParams.from_side(512)
    drawn = random_target_set(5, side16, seed=42)
    assert drawn.tolist() == [[3, 1], [0, 6], [1, 6], [0, 10], [10, 11]]
    assert drawn.shape == (5, 2) and drawn.dtype.kind == "i"
    (job,) = trial_jobs([(512, 4)], "8.5M", 1, 602)
    assert job.seed == 3559554422
    assert random_target_set(4, side512, job.seed).tolist() == [
        [128, 182], [150, 248], [106, 454], [108, 454],
    ]


@pytest.mark.parametrize("side", [4, 8, 16, 32, 64, 128, 256])
def test_random_target_set_draws_as_a_sample_over_every_admissible_vertex(side):
    # the same targets as a draw over the N-entry candidate array, for m on both
    # sides of numpy's dense-draw branch (m > A²/50)
    topo = TopologyParams.from_side(side)
    count = (side - 2) ** 2
    for m in sorted({1, 2, count // 50, count // 50 + 1, count // 2, count} - {0}):
        for seed in (0, 602, 2**40 + 3):
            drawn = random_target_set(m, topo, seed)
            expected = reference_draw(m, topo, seed)
            assert drawn.dtype == expected.dtype
            np.testing.assert_array_equal(drawn, expected, err_msg=f"m={m}, seed={seed}")


def test_random_target_set_round_trips_through_config():
    # the density cell M = 0.2 N at side 512: draw -> config -> linear indices
    topo = TopologyParams.from_side(512)
    drawn = random_target_set(52_429, topo, seed=9)
    config = WalkConfig.with_na(topo, 8.5 * 52_429, drawn)
    expected = np.sort(drawn[:, 0] + topo.side * drawn[:, 1])
    assert np.array_equal(target_indices(config), expected)


def test_resolve_na():
    assert resolve_na(8.5, 3) == 8.5
    assert resolve_na("8.5M", 3) == pytest.approx(25.5)
    assert resolve_na("8.5m", 4) == pytest.approx(34.0)
    for bad in ("8.5X", -1.0, "-8.5M", float("nan"), "infM"):
        with pytest.raises(ValueError):
            resolve_na(bad, 3)
    for bad in ("M", "xM"):  # a coefficient that does not parse names the rule
        with pytest.raises(ValueError, match="na rule"):
            resolve_na(bad, 3)
    with pytest.raises(ValueError, match="na rule '8.5' needs the 'M' suffix"):
        resolve_na("8.5", 3)  # as --na-rule passes it: a string, never a number


def test_sweep_self_loop_marks_optimum():
    sweep = SweepResult(tuple(_records(sweep_jobs(16, [(1, 6)], 6.0, 10.0, 2.0))))
    assert [p.na for p in sweep.points] == [6.0, 8.0, 10.0]
    best = max(sweep.points, key=lambda p: p.peak_probability)
    assert sweep.optimal == best


def test_sweep_optimum_is_the_first_of_equal_maxima():
    points = tuple(ScalingRecord(64, 4096, 1, na, "hn4", 0, i, 110, p, 110 / p**0.5)
                   for i, (na, p) in enumerate([(7.0, 0.90), (8.5, 0.95), (10.0, 0.95)]))
    sweep = SweepResult(points)
    assert sweep.optimal_index == 1
    assert sweep.optimal is points[1]
    assert [field.name for field in dataclasses.fields(SweepResult)] == ["points"]


def test_sweep_multi_target_optimum_region():
    # five targets at fixed low-hierarchy positions: the best total weight
    # sits in the mid-40s band, far above the single-target optimum
    targets = [(12, 13), (1, 4), (9, 8), (2, 11), (14, 6)]
    sweep = SweepResult(tuple(_records(sweep_jobs(64, targets, 30.0, 60.0, 5.0))))
    assert 35.0 <= sweep.optimal.na <= 55.0
    assert sweep.optimal.peak_probability > 0.9


def test_sweep_self_loop_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sweep_jobs(16, [(1, 6)], 10.0, 6.0, 0.5)
    with pytest.raises(ValueError):
        sweep_jobs(16, [(1, 6)], 6.0, 10.0, -1.0)
    for bounds in [(1.0, np.inf, 1.0), (np.nan, 30.0, 1.0), (1.0, 30.0, np.inf),
                   (-np.inf, 30.0, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            sweep_jobs(16, [(1, 6)], *bounds)
    # the targets and the smallest weight are checked before any job runs
    with pytest.raises(ValueError, match="duplicate"):
        sweep_jobs(16, [(1, 6), (1, 6)], 1.0, 3.0, 1.0)
    with pytest.raises(TopologyError, match="outside"):
        sweep_jobs(16, [(20, 1)], 1.0, 3.0, 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        sweep_jobs(16, [(1, 6)], -5.0, 3.0, 1.0)


def test_scaling_experiment_reproducible_and_ordered():
    records = _records(trial_jobs([(16, 2), (32, 2)], 17.0, 2, 99))
    assert [(r.side, r.trial) for r in records] == [(16, 0), (16, 1), (32, 0), (32, 1)]
    assert all(r.n_elements == r.side**2 for r in records)
    assert all(r.na == 17.0 and r.m == 2 and r.mode == "hn4" for r in records)
    assert all(r.amplified_cost == pytest.approx(
        r.peak_step / np.sqrt(r.peak_probability)) for r in records)
    again = _records(trial_jobs([(16, 2), (32, 2)], 17.0, 2, 99))
    assert again == records
    other_seed = _records(trial_jobs([(16, 2), (32, 2)], 17.0, 2, 100))
    assert other_seed != records


def test_scaling_experiment_worker_count_does_not_change_results():
    serial = _records(trial_jobs([(16, 1)], 8.5, 3, 5))
    pooled = _records(trial_jobs([(16, 1)], 8.5, 3, 5), workers=2)
    assert pooled == serial


def _recording_pool(monkeypatch):
    """The sizes and initializers of every pool run_jobs builds, on a stand-in:
    the real pool forks all its workers at the first submit."""
    sizes, initializers = [], []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "trial_record", lambda job: job.trial + 1)
    return sizes, initializers


def test_pool_never_exceeds_job_count(monkeypatch):
    sizes, initializers = _recording_pool(monkeypatch)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    assert list(run_jobs(trial_jobs([(16, 1)], 8.5, 2, 7), 6)) == [1, 2]
    assert list(run_jobs(trial_jobs([(16, 1)], 8.5, 3, 7), 2)) == [1, 2, 3]
    assert sizes == [2, 2]
    assert initializers == [engine._step_on_one_core] * 2  # workers step on one core


def test_pool_never_exceeds_the_cores(monkeypatch):
    # one worker per core: more workers than cores would share them, each
    # with its own interpreter and engine
    sizes, _ = _recording_pool(monkeypatch)
    jobs = trial_jobs([(16, 1)], 8.5, 5, 7)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    assert list(run_jobs(jobs, 6)) == [1, 2, 3, 4, 5]
    assert sizes == [2]
    monkeypatch.setattr(experiments, "available_cores", lambda: 1)
    assert list(run_jobs(jobs, 6)) == [1, 2, 3, 4, 5]
    assert sizes == [2]  # one core runs the jobs in-process
    one = memory_requirement(TopologyParams.from_side(512), EdgeMode.HN4)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", one * 3 // 2)
    run_jobs(trial_jobs([(512, 1)], 8.5, 2, 7), 2)  # the guard counts one engine too


def _fail_first_sleep_after(job):
    """A pool job: the first fails at once, every later one sleeps 60 s."""
    if job.trial == 0:
        raise NoPeakError("the first job fails", 0.0)
    time.sleep(60)


def test_pool_ends_running_jobs_at_the_first_failure(monkeypatch):
    # the failure raises at once instead of after the sibling's 60 s sleep
    monkeypatch.setattr(experiments, "trial_record", _fail_first_sleep_after)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    jobs = trial_jobs([(16, 1)], 8.5, 2, 7)
    before, started = set(multiprocessing.active_children()), time.monotonic()
    with pytest.raises(NoPeakError, match="the first job fails"):
        list(run_jobs(jobs, 2))
    assert time.monotonic() - started < 20
    assert set(multiprocessing.active_children()) <= before  # the workers have ended


def test_pool_raises_when_a_worker_is_killed():
    # a worker the OOM killer would end: the run raises, never hangs; in a
    # subprocess, so a hang fails the test by its timeout
    script = textwrap.dedent("""
        import os, signal
        from concurrent.futures.process import BrokenProcessPool
        from hn4walk import experiments

        def killed(job):
            os.kill(os.getpid(), signal.SIGKILL)

        experiments.trial_record = killed
        experiments.available_cores = lambda: 2
        try:
            list(experiments.run_jobs(experiments.trial_jobs([(16, 1)], 8.5, 2, 7), 2))
        except BrokenProcessPool:
            print("broken pool")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "broken pool\n"), result.stderr


def _side_512_engine():
    return WalkEngine(WalkConfig.with_na(TopologyParams.from_side(512), 8.5, ((1, 6),)))


def test_pool_after_helpers_step_in_parent(monkeypatch):
    # a fork while an engine's helper processes run: pool workers step on one
    # core, and a new engine in a forked child forks helpers of its own
    monkeypatch.setattr(engine, "_step_cores", 2)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    walk = _side_512_engine()
    walk.advance(engine._WARMUP_STEPS + 1)
    assert len(walk._parts) == 2
    jobs = density_jobs([512], 0.001, trials=2, seed=17)
    serial = list(run_jobs(jobs, 1))
    pooled = list(run_jobs(jobs, 2))
    assert [result.record for result in pooled] == [result.record for result in serial]
    assert [result.stepped_processes for result in serial] == [2, 2]
    # each job reports its own worker
    assert [result.stepped_processes for result in pooled] == [1, 1]
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)

    def child():
        again = _side_512_engine()
        again.advance(engine._WARMUP_STEPS + 1)
        send.send((len(again._parts), np.array_equal(again.amplitudes, walk.amplitudes)))

    process = fork.Process(target=child)
    process.start()
    try:
        assert receive.poll(60), "a forked child's two-part step did not finish"
        assert receive.recv() == (2, True)
    finally:
        process.join(10)
        if process.is_alive():
            process.terminate()
            process.join(10)
    assert process.exitcode == 0


def test_trial_jobs_rejects_repeated_cells():
    # a repeated cell would repeat its seeded rows, which a fit then counts twice
    with pytest.raises(ValueError, match="once"):
        trial_jobs([(16, 1), (32, 1), (16, 1)], 8.5, 1, 7)
    with pytest.raises(ValueError, match="once"):
        trial_jobs([(16, 1), (16, 1)], 8.5, 1, 7)
    with pytest.raises(ValueError, match="once"):
        density_jobs([64, 64], 0.2, 1, 7)
    assert len(trial_jobs([(16, 1), (16, 2), (32, 1)], 8.5, 2, 7)) == 6


def test_check_pool_memory_counts_every_engine_of_the_pool(monkeypatch):
    # one side-512 engine fits the limit, two at once do not; each job's walk
    # is sized with its one target
    one = memory_requirement(TopologyParams.from_side(512), EdgeMode.HN4, 1)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", one * 3 // 2)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    jobs = trial_jobs([(64, 1), (512, 1)], 8.5, 2, 7)
    run_jobs(jobs, 1)  # the check runs when called; no job runs until the results are read
    run_jobs(jobs[2:3], 4)  # one job holds one engine, whatever the workers
    with pytest.raises(ResourceLimitError, match=f"2 x {one} bytes"):
        run_jobs(jobs, 2)
    with pytest.raises(ResourceLimitError):
        run_jobs(trial_jobs([(512, 1)], 8.5, 2, 7), 3)


#: Target counts of the memory tests: one, a fifth of the vertices (the
#: density protocol's 0.2) and every admissible vertex, A².
TARGET_COUNTS = {
    "one": lambda topo: 1,
    "fifth": lambda topo: round(0.2 * topo.n_vertices),
    "admissible": lambda topo: np.count_nonzero(~exceptional_lines(topo, EdgeMode.HN4)) ** 2,
}


def _unsized_bytes(side):
    """Bytes of a walk that grow with neither N nor M, which no
    ``memory_requirement`` holds (it is exactly 16 * (C * N + R * L) at
    m = 0): the engine's four L-entry int64 move lines (32 * L) and the
    Python objects of an engine and a job (12 KiB).  The move lines'
    temporaries and the exceptional-target check come before the buffers,
    so they add nothing to the peak."""
    return 32 * side + 12 * 2**10


@pytest.mark.parametrize("count", list(TARGET_COUNTS))
@pytest.mark.parametrize("side", [64, 256])
@pytest.mark.parametrize("mode", list(EdgeMode))
def test_memory_requirement_bounds_an_engine_with_its_targets(mode, side, count):
    # the peak of building an engine, one step and one readout, with the C x M
    # block that the oracle and the readout gather, is within the guard's figure
    topo = TopologyParams.from_side(side)
    m = TARGET_COUNTS[count](topo)
    config = WalkConfig.with_na(topo, 8.5 * m, random_target_set(m, topo, 7), mode)
    tracemalloc.start()
    try:
        walk = WalkEngine(config)
        walk.advance()
        walk.probability()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= memory_requirement(topo, mode, m) + _unsized_bytes(side)


@pytest.mark.parametrize("count", list(TARGET_COUNTS))
@pytest.mark.parametrize("side", [64, 256])
@pytest.mark.parametrize("mode", list(EdgeMode))
def test_memory_requirement_bounds_a_job_with_its_targets(mode, side, count):
    # a whole job holds what the guard counts: its drawn targets only in the
    # config, beside the engine's indices and the gathered block
    topo = TopologyParams.from_side(side)
    m = TARGET_COUNTS[count](topo)
    job = TrialJob(side, m, 8.5 * m, 7, 0, mode, rule=None, t_max=2)
    trial_record(job)  # untraced: a process's first draw imports numpy's seeding modules
    tracemalloc.start()
    try:
        trial_record(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= memory_requirement(topo, mode, m) + _unsized_bytes(side)


def test_pool_guard_counts_each_jobs_targets(monkeypatch):
    # two density walks of 13107 targets each overrun a limit that two
    # walks' buffers alone fit, and are refused before any job runs
    monkeypatch.setattr(experiments, "trial_record", lambda job: pytest.fail("a job ran"))
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    jobs = density_jobs([256], 0.2, 2, 7)
    topo = TopologyParams.from_side(256)
    buffers, walk = (memory_requirement(topo, EdgeMode.HN4, m) for m in (0, jobs[0].m))
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", buffers + walk)  # within 2 x either
    with pytest.raises(ResourceLimitError, match=f"2 x {walk} bytes"):
        run_jobs(jobs, 2)


def test_negative_seed_is_refused_before_any_job(monkeypatch):
    monkeypatch.setattr(experiments, "trial_record", lambda job: pytest.fail("a job ran"))
    with pytest.raises(ValueError, match="seed"):
        trial_jobs([(16, 1)], 8.5, 1, -1)
    with pytest.raises(ValueError, match="seed"):
        density_jobs([16], 0.1, trials=1, seed=-1)


def test_scaling_experiment_na_rule():
    records = _records(trial_jobs([(16, 4)], "8.5M", 1, 1))
    assert records[0].na == pytest.approx(34.0)


def test_density_experiment_records_trace_maximum():
    records = _records(density_jobs([16], 0.1, trials=3, seed=21))
    assert len(records) == 3
    for r in records:
        assert r.m == 26  # round(0.1 * 256)
        assert 0.0 < r.peak_probability <= 1.0
        assert r.peak_step >= 0
    again = _records(density_jobs([16], 0.1, trials=3, seed=21))
    assert again == records


def test_density_experiment_rejects_bad_fractions():
    for fraction in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            density_jobs([16], fraction, trials=1, seed=1)
    # fraction below 1 can still exceed the admissible count
    with pytest.raises(ValueError):
        density_jobs([16], 0.99, trials=1, seed=1)


def test_density_jobs_carry_the_density_horizon():
    # the horizon round(1.75 * sqrt(N/M)) that the fixed-horizon walk ran before
    # it moved into each job's t_max
    jobs = density_jobs([64, 256, 512], 0.01, trials=2, seed=7)
    assert [(job.m, job.rule, job.t_max) for job in jobs[::2]] == [
        (41, None, 17), (655, None, 18), (2621, None, 18)
    ]
    for fraction in (0.01, 0.2):
        for job in density_jobs([16, 64, 128, 256, 512], fraction, trials=2, seed=7):
            n_vertices = TopologyParams.from_side(job.side).n_vertices
            assert job.t_max == int(1.75 * math.sqrt(n_vertices / job.m) + 0.5)


def test_fixed_horizon_job_refuses_targets_only_on_exceptional_lines(monkeypatch):
    # a rule=None job recorded this walk's t = 4 ripple (P = 0.00218) as its peak
    monkeypatch.setattr(WalkEngine, "advance", lambda self, steps=1: pytest.fail("a step ran"))
    job = TrialJob(64, 1, 8.5, 0, 0, rule=None, targets=[(31, 6)], t_max=112)
    with pytest.raises(NoPeakError, match="every target lies on an exceptional line") as excinfo:
        trial_record(job)
    assert excinfo.value.max_probability == pytest.approx(1 / 4096, rel=1e-12)


def test_job_with_explicit_targets_must_count_them_as_m():
    # its record carries m, which a fit divides N by
    with pytest.raises(ValueError, match="m must equal the number of targets, 1, got 3"):
        TrialJob(16, 3, 8.5, 0, 0, targets=[(1, 6)])
    job = TrialJob(16, 1, 8.5, 0, 0, targets=[(1, 6)])
    with pytest.raises(ValueError, match="number of targets, 1, got 2"):
        dataclasses.replace(job, m=2)
    assert trial_record(job).record.m == 1


def test_fixed_horizon_job_records_the_trace_maximum_over_t_max_steps():
    job = TrialJob(64, 1, 8.5, 0, 0, rule=None, targets=[(1, 6)], t_max=112)
    record = trial_record(job).record
    assert (record.peak_step, record.peak_probability) == (112, 0.9978801156154584)
    shorter = trial_record(dataclasses.replace(job, t_max=100)).record
    assert shorter.peak_step == 100 and shorter.peak_probability < record.peak_probability


def test_grid_mode_scales_like_sqrt_n_log_n():
    records = _records(trial_jobs([(16, 1), (32, 1), (64, 1)], 7.0, 1, 13,
                                  edge_mode=EdgeMode.GRID))
    fit = fit_scaling(records, RuntimeModel.SQRT_LOG)
    assert fit.rms_relative_residual < 0.1
