"""hn4walk benchmark: end-to-end CLI workloads and a traced per-layer replay.

Run from the root of a checkout:

    python3 bench/run.py --workload search-hn4-512 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI command(s) run as separate processes,
repeated in whole rounds until ``--seconds`` have passed, and the run
reports the end-to-end metrics.  With ``--trace 1`` the commands run once
and their jobs are replayed in this process with spans around every call
into the package, which gives the per-layer metrics (see ``layers.py``).
Either way the outputs are checked against the independent reference walk
in ``reference.py`` and against the method's properties.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is timed in whole passes through the jobs, SETUP_PASSES_PER_ROUND
# after each round and at least SETUP_MIN_PASSES; the median pass is reported.
# A shared host's speed drifts by 10-20% over seconds to minutes, so the
# passes are interleaved with the rounds: both spread over the whole run, and
# their medians sample more of the drift than back-to-back rounds would.
SETUP_PASSES_PER_ROUND = 2
SETUP_MIN_PASSES = 3
REFERENCE_TOLERANCE = 1e-9
MULTI_TARGET_MIN_PROBABILITY = 0.3  # acceptance criterion 5's floor for a healthy peak


@dataclass(frozen=True)
class Job:
    """One (side, m, trial) job as the CLI derives it from the master seed."""

    side: int
    m: int
    na: float
    trial: int
    seed: int
    horizon: int | None  # fixed step count of a density job; None for a search job

    @property
    def n_vertices(self) -> int:
        return self.side * self.side

    @property
    def step_budget(self) -> int:
        """The CLI's search horizon, ceil(6*sqrt(N/M))."""
        return math.ceil(6.0 * math.sqrt(self.n_vertices / self.m))

    def useful_steps(self, peak_step: int) -> int:
        """Steps the protocol needs to produce this job's record: a search
        job's peak plus the decline run that confirms it, or a density job's
        horizon."""
        if self.horizon is not None:
            return self.horizon
        return peak_step + reference.DECLINE_RUN


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "scale" or "density"
    sides: tuple[int, ...]
    m_values: tuple[int, ...]  # scale only; density derives m from the fraction
    trials: int
    workers: int
    fit: bool = False
    fraction: float = 0.0

    def jobs(self, seed: int) -> list[Job]:
        """Jobs in the order the CLI writes their records."""
        if self.command == "density":
            jobs = []
            for side in self.sides:
                n_vertices = side * side
                m = int(self.fraction * n_vertices + 0.5)
                horizon = int(1.75 * math.sqrt(n_vertices / m) + 0.5)
                jobs += [
                    Job(side, m, 8.5 * m, trial, reference.job_seed(seed, side, m, trial), horizon)
                    for trial in range(self.trials)
                ]
            return jobs
        return [
            Job(side, m, 8.5 * m, trial, reference.job_seed(seed, side, m, trial), None)
            for m in self.m_values
            for side in self.sides
            for trial in range(self.trials)
        ]

    def commands(self, seed: int, records: Path) -> list[list[str]]:
        """CLI argument lists of one round, as a user would type them."""
        sides = ",".join(map(str, self.sides))
        common = ["--trials", str(self.trials), "--workers", str(self.workers),
                  "--seed", str(seed), "--out", str(records)]
        if self.command == "density":
            return [["density", "--sides", sides, "--fraction", str(self.fraction), *common]]
        if len(self.m_values) == 1:
            targets = ["--m", str(self.m_values[0])]
        else:
            targets = ["--m-list", ",".join(map(str, self.m_values))]
        cmds = [["scale", "--sides", sides, *targets, "--na-rule", "8.5M", *common]]
        if self.fit:
            cmds.append(["fit", "--records", str(records), "--model", "sqrt",
                         "--out", str(records.with_suffix(".fit.json"))])
        return cmds


# Why each workload: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-hn4-512", "scale", (512,), (4,), trials=1, workers=1),
        Workload("msweep-64", "scale", (64,), (1, 4, 16, 64, 256), trials=2, workers=2,
                 fit=True),
        Workload("density-large", "density", (128, 256, 512), (), trials=1, workers=1,
                 fraction=0.2),
    )
}


# ---------------------------------------------------------------------------
# Running the CLI


def cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one hn4walk command with the caller's environment; (wall s, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "hn4walk", *argv],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    return time.perf_counter() - started, result


def run_round(workload: Workload, seed: int, workdir: Path) -> tuple[list[float], bytes | None]:
    """One round of the workload's commands; per-command walls and the CSV bytes,
    or None for the CSV when a command failed."""
    records = workdir / "records.csv"
    records.unlink(missing_ok=True)
    walls = []
    for argv in workload.commands(seed, records):
        wall, result = cli(argv)
        walls.append(wall)
        if result.returncode != 0:
            print(f"hn4walk {' '.join(argv)} exited {result.returncode}:\n{result.stderr}",
                  file=sys.stderr)
            return walls, None
    return walls, records.read_bytes()


def parse_records(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    for row in rows:
        for key in ("side", "n_elements", "m", "seed", "trial", "peak_step"):
            row[key] = int(row[key])
        for key in ("na", "peak_probability", "amplified_cost"):
            row[key] = float(row[key])
    return rows


# ---------------------------------------------------------------------------
# Output checks


class Checks:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_records(workload: Workload, jobs: list[Job], rows: list[dict], checks: Checks) -> None:
    """Record identity and the protocol's properties."""
    expected = [(j.side, j.n_vertices, j.m, j.na, j.seed, j.trial) for j in jobs]
    got = [(r["side"], r["n_elements"], r["m"], r["na"], r["seed"], r["trial"]) for r in rows]
    checks.expect(got == expected, "records are not exactly the expected jobs in (m, trial) order")
    if got != expected:
        return
    for job, row in zip(jobs, rows):
        checks.expect(row["mode"] == "hn4", f"{job}: mode {row['mode']}")
        t, p = row["peak_step"], row["peak_probability"]
        checks.expect(0.0 < p <= 1.0, f"{job}: peak probability {p}")
        checks.expect(
            math.isclose(row["amplified_cost"], t / math.sqrt(p), rel_tol=1e-12),
            f"{job}: amplified_cost {row['amplified_cost']} != t/sqrt(P)",
        )
        if job.horizon is not None:
            checks.expect(t <= job.horizon, f"{job}: peak step {t} past the horizon")

    if workload.command == "density":
        for side in workload.sides:
            mean = statistics.fmean(r["peak_probability"] for r in rows if r["side"] == side)
            checks.expect(mean > 0.5, f"side {side}: mean peak probability {mean:.4f} <= 0.5")
    elif workload.fit:
        check_target_sweep(workload, rows, checks)
    else:
        # Criterion 3's band holds for these draws, but its single-target
        # P >= 0.9 does not hold for every draw of M random targets.  When two
        # targets are neighbours (seed 602 draws (106, 454) and (108, 454),
        # long-range neighbours), the walk peaks at t/sqrt(N/M) = 2.05 with
        # P = 0.87, and the reference walk reproduces that.  So P is held to
        # the multi-target floor of criterion 5 instead.
        for row in rows:
            ratio = row["peak_step"] / math.sqrt(row["n_elements"] / row["m"])
            checks.expect(1.43 <= ratio <= 2.15, f"t/sqrt(N/M) = {ratio:.3f} outside [1.43, 2.15]")
            checks.expect(row["peak_probability"] >= MULTI_TARGET_MIN_PROBABILITY,
                          f"peak probability {row['peak_probability']:.4f} < "
                          f"{MULTI_TARGET_MIN_PROBABILITY}")


def sqrt_coefficient(rows: list[dict]) -> float:
    """Least-squares c of t = c*sqrt(N/M) through the origin."""
    scales = [math.sqrt(r["n_elements"] / r["m"]) for r in rows]
    return math.fsum(r["peak_step"] * f for r, f in zip(rows, scales)) / math.fsum(
        f * f for f in scales
    )


def check_target_sweep(workload: Workload, rows: list[dict], checks: Checks) -> None:
    coefficient = sqrt_coefficient(rows)
    checks.expect(1.40 <= coefficient <= 2.10,
                  f"pooled sqrt coefficient {coefficient:.3f} outside [1.40, 2.10]")
    means, errors = [], []
    for m in workload.m_values:
        peaks = [r["peak_step"] for r in rows if r["m"] == m]
        means.append(statistics.fmean(peaks))
        errors.append(statistics.stdev(peaks) / math.sqrt(len(peaks)))
    for i in range(len(means) - 1):
        checks.expect(
            means[i + 1] <= means[i] + math.hypot(errors[i], errors[i + 1]) + 1e-9,
            f"mean peak rises from M={workload.m_values[i]} to M={workload.m_values[i + 1]} "
            "by more than one standard error",
        )


def check_fit(fit_path: Path, rows: list[dict], checks: Checks) -> None:
    doc = json.loads(fit_path.read_text())
    expected = sqrt_coefficient(rows)
    checks.expect(doc["model"] == "sqrt" and doc["points"] == len(rows), f"fit JSON {doc}")
    checks.expect(math.isclose(doc["coefficient"], expected, rel_tol=1e-12),
                  f"fit coefficient {doc['coefficient']} != recomputed {expected}")


def reference_jobs(workload: Workload, jobs: list[Job], seed: int) -> list[int]:
    """Indices of the jobs the reference walk recomputes: one per M and per side."""
    trial = seed % workload.trials
    return [i for i, job in enumerate(jobs) if job.trial == trial]


def check_reference(workload: Workload, jobs: list[Job], rows: list[dict], seed: int,
                    checks: Checks) -> None:
    if len(rows) != len(jobs):
        return  # check_records has already failed the run
    for i in reference_jobs(workload, jobs, seed):
        job, row = jobs[i], rows[i]
        walk = reference.ReferenceWalk(job.side, job.na,
                                       reference.draw_targets(job.side, job.m, job.seed))
        if job.horizon is None:
            step, prob = reference.search_peak(walk, job.step_budget)
        else:
            step, prob = reference.density_peak(walk, job.horizon)
        checks.expect(
            step == row["peak_step"] and abs(prob - row["peak_probability"]) <= REFERENCE_TOLERANCE,
            f"{job}: CLI peak ({row['peak_step']}, {row['peak_probability']!r}) != "
            f"reference ({step}, {prob!r})",
        )


# ---------------------------------------------------------------------------
# Set-up time


def setup_pass(jobs: list[Job], checks: Checks | None) -> float:
    """Per-job set-up summed over the jobs: the target draw, the config and the
    engine, timed around the package's public calls.  With ``checks``, every
    draw is also compared with the reference draw."""
    from hn4walk.engine import EdgeMode, WalkConfig, WalkEngine
    from hn4walk.experiments import random_target_set
    from hn4walk.topology import TopologyParams

    total = 0.0
    for job in jobs:
        started = time.perf_counter()
        topology = TopologyParams.from_side(job.side)
        targets = random_target_set(job.m, topology, job.seed)
        config = WalkConfig.with_na(topology, job.na, targets, EdgeMode.HN4)
        engine = WalkEngine(config)
        total += time.perf_counter() - started
        del engine
        if checks is not None:
            drawn = [x + job.side * y for x, y in targets]
            checks.expect(
                np.array_equal(drawn, reference.draw_targets(job.side, job.m, job.seed)),
                f"{job}: random_target_set differs from the reference draw",
            )
    return total


# ---------------------------------------------------------------------------
# Entry points


def peak_rss_mb() -> float:
    """Largest peak RSS of any process this one has waited for, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    jobs = workload.jobs(seed)
    checks = Checks()
    walls, setups, first, attempted, failed = [], [], None, 0, 0
    measured = 0.0  # failed rounds count here too, so a command that always fails ends the run
    while measured < seconds:
        round_walls, data = run_round(workload, seed, workdir)
        measured += sum(round_walls)
        for _ in range(SETUP_PASSES_PER_ROUND):
            setups.append(setup_pass(jobs, None if setups else checks))
        attempted += len(jobs)
        if data is None:
            failed += len(jobs)
            continue
        walls.append(sum(round_walls))
        if first is None:
            first = data
            rows = parse_records(data)
            check_records(workload, jobs, rows, checks)
            if workload.fit:
                check_fit(workdir / "records.fit.json", rows, checks)
        checks.expect(data == first, "data CSV differs between rounds")
    while len(setups) < SETUP_MIN_PASSES:
        setups.append(setup_pass(jobs, None))
    if first is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    print(f"{workload.name}: {len(walls)} rounds, walls {[round(w, 3) for w in walls]} s, "
          f"set-up passes {[round(s, 3) for s in setups]} s", file=sys.stderr)

    check_reference(workload, jobs, rows, seed, checks)
    setup_s = statistics.median(setups)
    wall_s = statistics.median(walls)
    work = sum(j.n_vertices * j.useful_steps(r["peak_step"]) for j, r in zip(jobs, rows))
    metrics = {
        "wall_s": (wall_s, "s"),
        "vertex_steps_per_s": (work / wall_s, "vertex-steps/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload: Workload, seed: int, workdir: Path) -> dict:
    import layers

    jobs = workload.jobs(seed)
    checks = Checks()
    round_walls, data = run_round(workload, seed, workdir)
    if data is None:
        return {"correct": False, "attempted": len(jobs), "failed": len(jobs), "metrics": {}}
    rows = parse_records(data)
    check_records(workload, jobs, rows, checks)
    if workload.fit:
        check_fit(workdir / "records.fit.json", rows, checks)
    check_reference(workload, jobs, rows, seed, checks)
    metrics, tracer = layers.per_layer(workload, jobs, data, round_walls, workdir, checks)
    metrics["cli.startup_s"] = (statistics.median(cli(["--help"])[0] for _ in range(3)), "s")
    tracer.dump(OUT / f"trace-{workload.name}-{seed}.json")
    return {
        "correct": checks.ok,
        "attempted": len(jobs),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print each one's result."""
    status = 0
    for name in WORKLOADS:
        result = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = result.stdout.strip().splitlines()
        print(f"== {name} (exit {result.returncode})")
        print("\n".join(lines[:-1]))
        if result.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "hn4walk" / "__init__.py").is_file():
        print(f"bench: no hn4walk package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced(workload, args.seed, workdir)
        else:
            result = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
