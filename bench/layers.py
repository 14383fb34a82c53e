"""Traced replay: per-layer metrics from spans around the package's public calls.

The workload's jobs are replayed in this process the way the CLI runs them
(``random_target_set``, ``WalkConfig.with_na``, ``WalkEngine``, then
``advance(1)`` and ``probability()`` until the record is produced), with a
span around every call.  The replayed records are written with the package's
own CSV writer and must be byte-identical to the CLI's file, so the spans
describe the same work as the untraced runs.  Spans are kept in memory and
written to ``.bench_out/trace-<workload>-<seed>.json`` at the end.

Added to the replay:

* a stage profile (oracle, coin, shift, readout per call) of the public
  ``apply_*`` functions on the workload's own configurations, and at sides
  64, 256, 512 and 1024 in both edge modes;
* the bytes a constructed engine holds (tracemalloc) against the memory
  guard's ``memory_requirement``;
* a memcpy roofline on two 448 MiB arrays, over four times the 105 MiB L3
  of the reference machine.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference

from hn4walk.engine import (
    EdgeMode,
    WalkConfig,
    WalkEngine,
    amplified_cost,
    apply_coin,
    apply_oracle,
    apply_shift,
    coin_weights,
    initial_state,
    memory_requirement,
    shift_permutation,
    success_probability,
    target_indices,
)
from hn4walk.experiments import ScalingRecord, random_target_set
from hn4walk.fitting import FitError, RuntimeModel, fit_scaling
from hn4walk.reporting import write_records_csv
from hn4walk.topology import TopologyParams

PROFILE_SIDES = (64, 256, 512, 1024)
STAGES = ("oracle", "coin", "shift", "readout")
MIN_STAGE_SECONDS = 0.05  # per stage and configuration in the profile
MIN_STAGE_CALLS = 3
# each memcpy array: at least four times the last-level cache (105 MiB L3 on
# the reference machine); raise it on a machine with a larger cache
MEMCPY_BYTES = 448 * 2**20


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        self.spans.append((name, start, end, parent))
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        names = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(names, s)) for s in self.spans]))


# ---------------------------------------------------------------------------
# Replay


def replay(jobs: list, tracer: Tracer) -> tuple[list[ScalingRecord], dict, dict]:
    """Run every job as the CLI does; records, steps per side, a config per side."""
    records, steps, configs = [], defaultdict(int), {}
    clock = time.perf_counter
    for job in jobs:
        job_start = clock()
        topology = TopologyParams.from_side(job.side)
        targets = random_target_set(job.m, topology, job.seed)
        drawn = clock()
        engine = WalkEngine(WalkConfig.with_na(topology, job.na, targets, EdgeMode.HN4))
        built = clock()
        probs = [engine.probability()]
        readouts = [(built, clock())]
        step_spans = []
        while True:
            t = len(probs)
            a = clock()
            engine.advance(1)
            b = clock()
            probs.append(engine.probability())
            c = clock()
            step_spans.append((a, b))
            readouts.append((b, c))
            if job.horizon is not None:
                if t == job.horizon:
                    peak = int(np.argmax(probs))
                    break
            elif reference.qualifies(probs, t - reference.DECLINE_RUN):
                peak = t - reference.DECLINE_RUN
                break
            elif t >= job.step_budget:
                raise RuntimeError(f"{job}: replay found no peak within {t} steps")
        job_span = tracer.add("experiments.job", job_start, clock())
        tracer.add("topology.target_sample", job_start, drawn, job_span)
        tracer.add("engine.construct", drawn, built, job_span)
        for a, b in step_spans:
            tracer.add("engine.step", a, b, job_span)
        for a, b in readouts:
            tracer.add("engine.readout", a, b, job_span)
        steps[job.side] += len(step_spans)
        configs.setdefault(job.side, engine.config)
        records.append(ScalingRecord(
            side=job.side, n_elements=topology.n_vertices, m=job.m, na=job.na, mode="hn4",
            seed=job.seed, trial=job.trial, peak_step=peak,
            peak_probability=float(probs[peak]),
            amplified_cost=amplified_cost(peak, float(probs[peak])),
        ))
    return records, dict(steps), configs


# ---------------------------------------------------------------------------
# Stage profile, memory and roofline


def _per_call(func) -> float:
    """Median seconds per call over at least MIN_STAGE_CALLS calls and
    MIN_STAGE_SECONDS in total."""
    times = []
    while len(times) < MIN_STAGE_CALLS or sum(times) < MIN_STAGE_SECONDS:
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stage_profile(config: WalkConfig) -> dict[str, float]:
    """Seconds per call of each public step stage, and of building the shift table."""
    topology, mode = config.topology, config.edge_mode
    table_s = _per_call(lambda: shift_permutation(topology, mode))
    permutation = shift_permutation(topology, mode)
    weights = coin_weights(config.loop_weight, mode)
    indices = target_indices(config)
    state = initial_state(config)
    out = np.empty_like(state)
    return {
        "oracle": _per_call(lambda: apply_oracle(state, indices)),
        "coin": _per_call(lambda: apply_coin(state, weights)),
        "shift": _per_call(lambda: apply_shift(state, permutation, out)),
        "readout": _per_call(lambda: success_probability(state, indices)),
        "shift_table": table_s,
    }


def held_bytes(config: WalkConfig) -> tuple[int, int]:
    """Bytes a constructed engine holds (tracemalloc) and the guard's estimate."""
    tracemalloc.start()
    try:
        engine = WalkEngine(config)
        held = tracemalloc.get_traced_memory()[0]
        del engine
    finally:
        tracemalloc.stop()
    return held, memory_requirement(config.topology, config.edge_mode)


def memcpy_gbytes_per_s() -> float:
    """Copy bandwidth, read plus write bytes, between two MEMCPY_BYTES arrays."""
    src = np.ones(MEMCPY_BYTES // 8)
    dst = np.zeros_like(src)
    seconds = _per_call(lambda: np.copyto(dst, src))
    return 2 * src.nbytes / seconds / 1e9


def side_profile(metrics: dict) -> None:
    """Stage times and held/guard bytes at the profile sides, both edge modes."""
    for mode in EdgeMode:
        for side in PROFILE_SIDES:
            config = WalkConfig.with_na(TopologyParams.from_side(side), 8.5, [(1, 6)], mode)
            prefix = f"profile.{mode.value}.{side}"
            times = stage_profile(config)
            for stage in STAGES:
                metrics[f"{prefix}.{stage}_us"] = (times[stage] * 1e6, "us")
            held, guard = held_bytes(config)
            metrics[f"{prefix}.held_bytes"] = (held, "bytes")
            metrics[f"{prefix}.guard_bytes"] = (guard, "bytes")


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer(workload, jobs, cli_csv: bytes, cli_walls: list[float], workdir: Path,
              checks) -> tuple[dict[str, tuple[float, str]], Tracer]:
    """Replay ``jobs`` of ``workload`` (objects of ``run.py``), compare the
    records with the CLI's ``cli_csv``, and return the per-layer metrics
    except ``cli.startup_s`` together with the spans."""
    tracer = Tracer()
    records, steps, configs = replay(jobs, tracer)

    replay_csv = workdir / "replay.csv"
    start = time.perf_counter()
    write_records_csv(replay_csv, records)
    tracer.add("reporting.write", start, time.perf_counter())
    checks.expect(replay_csv.read_bytes() == cli_csv,
                  "traced replay does not reproduce the CLI records byte for byte")

    start = time.perf_counter()
    try:
        fit_scaling(records, RuntimeModel.SQRT)
    except FitError:
        pass  # one record, or a single N/M ratio: the call rejects it, as `hn4walk fit` would
    tracer.add("fitting.fit", start, time.perf_counter())

    job_s = tracer.durations("experiments.job")
    step_s = tracer.durations("engine.step")
    total_steps = sum(steps.values())
    pool_wall = cli_walls[0]
    print(f"tracing overhead: replay {sum(job_s):.3f} s over {len(jobs)} jobs, CLI "
          f"{workload.command} {pool_wall:.3f} s with {workload.workers} worker(s)",
          file=sys.stderr)

    # stage split and bandwidth on the workload's own configurations, weighted
    # by the steps the replay evolved at each side
    stage_us = dict.fromkeys(("oracle", "coin", "shift"), 0.0)
    table_ms = 0.0  # per job
    held_by_side, guard_by_side = {}, {}
    for side, config in configs.items():
        times = stage_profile(config)
        for stage in stage_us:
            stage_us[stage] += 1e6 * times[stage] * steps[side] / total_steps
        table_ms += 1e3 * times["shift_table"] * sum(job.side == side for job in jobs) / len(jobs)
        held_by_side[side], guard_by_side[side] = held_bytes(config)
    largest = max(configs)
    bytes_moved = sum(held_by_side[side] * steps[side] for side in steps)
    gbytes_per_s = bytes_moved / sum(step_s) / 1e9
    memcpy = memcpy_gbytes_per_s()

    metrics = {
        "topology.target_sample_ms": (1e3 * statistics.fmean(
            tracer.durations("topology.target_sample")), "ms"),
        "engine.construct_ms": (1e3 * statistics.fmean(
            tracer.durations("engine.construct")), "ms"),
        "engine.shift_table_ms": (table_ms, "ms"),
        "engine.held_bytes": (held_by_side[largest], "bytes"),
        "engine.guard_bytes": (guard_by_side[largest], "bytes"),
        "engine.step_us": (1e6 * statistics.fmean(step_s), "us"),
        "engine.coin_us": (stage_us["coin"], "us"),
        "engine.shift_us": (stage_us["shift"], "us"),
        "engine.oracle_us": (stage_us["oracle"], "us"),
        "engine.readout_us": (1e6 * statistics.fmean(tracer.durations("engine.readout")), "us"),
        "engine.steps": (total_steps, "count"),
        "engine.bytes_per_step": (bytes_moved / total_steps, "bytes"),
        "engine.gbytes_per_s": (gbytes_per_s, "GB/s"),
        "engine.memcpy_gbytes_per_s": (memcpy, "GB/s"),
        "engine.roofline_fraction": (gbytes_per_s / memcpy, "ratio"),
        "experiments.jobs": (len(jobs), "count"),
        "experiments.job_s": (statistics.fmean(job_s), "s"),
        "experiments.pool_efficiency": (sum(job_s) / (workload.workers * pool_wall), "ratio"),
        "reporting.write_ms": (1e3 * tracer.durations("reporting.write")[0], "ms"),
        "fitting.fit_ms": (1e3 * tracer.durations("fitting.fit")[0], "ms"),
    }
    side_profile(metrics)
    return metrics, tracer
