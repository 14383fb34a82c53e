"""Experiment protocols built on the walk engine.

Covers first-peak detection on probability traces, self-loop-weight sweeps,
random target sets, scaling runs over lattice size and target count, and
fixed-density runs.  This module alone applies the exceptional-target rule:
a vertex with a coordinate on an exceptional line is one the HN4 walk cannot
find.  A random target is drawn only from the admissible vertices, those
with neither coordinate on such a line; target sets a caller supplies get
one warning each (:func:`warn_exceptional_targets`), and a walk whose every
target is exceptional is refused.  One scan, :func:`_first_peak`, reads P(t)
sample by sample and stops at the earliest confirmed peak:
:func:`detect_first_peak` runs it over a finished trace and
:func:`run_to_first_peak` over a live walk.  Every sweep point, scaling
trial and density trial is one :class:`TrialJob`, run by
:func:`trial_record`, which returns one :class:`JobResult`: the job's
record and the most processes a step of its walk ran on.  The protocols
keep only the records; the count is run telemetry, which the CLI writes to
its manifests.  Every job, like :func:`run_to_first_peak`, walks through
one path, :func:`_walk`, the one place that builds a
:class:`~hn4walk.engine.WalkEngine`: it refuses a walk that cannot find a
target before the engine and its buffers exist, then builds the engine and
reads the first peak under a peak rule, or without one the trace maximum
over a fixed horizon.  :func:`run_jobs` is the one runner of a job list,
for the protocols and the CLI alike: it refuses, when called, a job list
whose pool could not hold all its engines at once, then runs the jobs
through one bounded process pool and yields results in submission order as
they arrive, so a run is reproducible for a fixed seed regardless of worker
count, and a failing job leaves every earlier result delivered and ends the
jobs still running.

Randomness comes from numpy's PCG64 generator.  Per-job seeds are derived
from the master seed in two documented stages,
``SeedSequence([seed, side, m])`` then ``SeedSequence([side_seed, trial])``,
and the derived integer is recorded in every output row, so any row can be
reproduced in isolation.
"""

from __future__ import annotations

import logging
import math
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import (
    EdgeMode,
    WalkConfig,
    WalkEngine,
    _check_memory,
    _step_on_one_core,
    amplified_cost,
    available_cores,
    memory_requirement,
)
from .reporting import ScalingRecord
from .topology import TopologyParams, exceptional_lines

__all__ = [
    "PeakRule",
    "PeakResult",
    "NoPeakError",
    "DEFAULT_PEAK_RULE",
    "SWEEP_PEAK_RULE",
    "detect_first_peak",
    "step_budget",
    "run_to_first_peak",
    "warn_exceptional_targets",
    "SweepResult",
    "sweep_jobs",
    "sweep_self_loop",
    "derive_seed",
    "random_target_set",
    "ScalingRecord",
    "resolve_na",
    "TrialJob",
    "JobResult",
    "trial_record",
    "trial_jobs",
    "scaling_experiment",
    "density_jobs",
    "density_experiment",
    "run_jobs",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# First-peak detection


@dataclass(frozen=True)
class PeakRule:
    """Thresholds that qualify a local maximum as the first peak.

    A step t >= 1 qualifies when P(t) >= max(P(t-1), P(t+1)), the peak rises
    to at least ``min_gain`` times P(0), and the ``decline_run`` samples at
    t + stride, t + 2*stride, ... are strictly decreasing (with P(t) at least
    the first of them).  Plateaus resolve to the earliest index that
    satisfies all conditions.

    The default stride of 1 demands a cleanly falling flank.  Walks driven
    far from their optimal self-loop weight superimpose a persistent
    period-2 parity oscillation on the success probability, so no
    neighbouring samples ever decrease monotonically; stride 2 follows the
    envelope instead and detects those peaks.
    """

    min_gain: float = 5.0
    decline_run: int = 5
    stride: int = 1

    def __post_init__(self) -> None:
        if self.min_gain <= 0 or self.decline_run < 1 or self.stride < 1:
            raise ValueError("min_gain must be > 0, decline_run and stride >= 1")


DEFAULT_PEAK_RULE = PeakRule()
#: Sweeps cover strongly off-optimal weights whose traces oscillate; compare
#: same-parity samples there.
SWEEP_PEAK_RULE = PeakRule(stride=2)


@dataclass(frozen=True)
class PeakResult:
    """A walk's peak: its step and probability."""

    peak_step: int
    peak_probability: float


class NoPeakError(RuntimeError):
    """No step qualified under the peak rule; carries the largest P seen, or
    P(0) = M/N for a walk refused before its engine is built (:func:`_walk`)."""

    def __init__(self, message: str, max_probability: float):
        super().__init__(message)
        self.max_probability = max_probability

    def __reduce__(self):
        # both arguments, so an error raised in a pool worker re-raises in the parent
        return type(self), (str(self), self.max_probability)


def _qualifies(probs: Sequence[float], t: int, rule: PeakRule) -> bool:
    if t < 1 or t + rule.decline_run * rule.stride >= len(probs):
        return False
    if probs[t] < rule.min_gain * probs[0]:
        return False
    if probs[t] < probs[t - 1] or probs[t] < probs[t + 1]:
        return False
    if probs[t] < probs[t + rule.stride]:
        return False
    return all(
        probs[t + i * rule.stride] > probs[t + (i + 1) * rule.stride]
        for i in range(1, rule.decline_run)
    )


def _first_peak(samples: Iterable[float], rule: PeakRule) -> tuple[PeakResult, np.ndarray]:
    """Earliest peak of P(t) read sample by sample, and the samples read.

    A candidate t is tested once sample t + decline_run * stride arrives, the
    last one :func:`_qualifies` looks at, so candidates are tested in
    increasing order and the scan stops at the first that qualifies.
    """
    probs: list[float] = []
    for t, p in enumerate(samples):
        probs.append(float(p))
        candidate = t - rule.decline_run * rule.stride
        if candidate >= 1 and _qualifies(probs, candidate, rule):
            return PeakResult(candidate, probs[candidate]), np.asarray(probs)
    raise NoPeakError(
        f"no qualifying peak in {len(probs)} samples (max P = {max(probs):.6g})",
        max(probs),
    )


def detect_first_peak(trace: Sequence[float], rule: PeakRule = DEFAULT_PEAK_RULE) -> PeakResult:
    """Earliest step of a finished trace that qualifies as a peak under ``rule``
    (the same scan as :func:`run_to_first_peak`)."""
    if len(trace) < 3:
        raise ValueError(f"trace needs at least 3 samples, got {len(trace)}")
    return _first_peak(trace, rule)[0]


def step_budget(n_vertices: int, m: int, edge_mode: EdgeMode) -> int:
    """Default evolution horizon: generous multiples of the expected peak time."""
    ratio = n_vertices / m
    if EdgeMode(edge_mode) is EdgeMode.HN4:
        return math.ceil(6.0 * math.sqrt(ratio))
    if ratio <= 1.0:
        return 16
    return math.ceil(4.0 * math.sqrt(ratio * math.log(ratio))) + 16


def run_to_first_peak(
    config: WalkConfig,
    t_max: int | None = None,
    rule: PeakRule = DEFAULT_PEAK_RULE,
) -> tuple[PeakResult, np.ndarray]:
    """Evolve until the first peak is confirmed, stopping as early as possible.

    Returns the peak and the trace recorded so far, which always extends
    ``decline_run * stride`` samples past the peak.  The walk feeds the scan
    behind :func:`detect_first_peak` as it steps, so the result equals
    detection over the full horizon of ``t_max`` steps (None:
    :func:`step_budget`), just cheaper.  Targets on an exceptional line are
    warned of once (:func:`warn_exceptional_targets`), and a walk that
    cannot find a target is refused before its engine is built (:func:`_walk`).
    """
    warn_exceptional_targets(config)
    return _walk(config, t_max, rule)[:2]


def _exceptional_targets(config: WalkConfig) -> np.ndarray:
    """Per target of ``config``, in its order: whether either coordinate lies on
    an exceptional line of its mode (:func:`~hn4walk.topology.exceptional_lines`),
    where its long-range edges are self-loops.  The grid has no such line."""
    line = exceptional_lines(config.topology, config.edge_mode)
    x, y = config.targets.T
    return line[x] | line[y]


def warn_exceptional_targets(config: WalkConfig) -> None:
    """Log one warning when any target of ``config`` lies on an exceptional
    line: how many do, and the first in linear-index order.  Called once per
    target set a caller supplies (a sweep, :func:`run_to_first_peak`, the
    CLI's ``simulate``); random targets are admissible and never warn."""
    flagged = _exceptional_targets(config)
    if flagged.any():
        logger.warning(
            "%d of %d targets lie on an exceptional line (their long-range edges "
            "degenerate to self-loops), first %s",
            np.count_nonzero(flagged), len(flagged),
            tuple(config.targets[np.argmax(flagged)].tolist()),
        )


def _walk(
    config: WalkConfig, t_max: int | None, rule: PeakRule | None
) -> tuple[PeakResult, np.ndarray, int]:
    """The walk of every job on ``config``: its peak, the trace recorded and
    the engine's :attr:`~hn4walk.engine.WalkEngine.stepped_processes`.  Under a
    peak ``rule`` it is :func:`run_to_first_peak`'s, within ``t_max`` steps
    (None: :func:`step_budget`); with ``rule=None`` the largest P over exactly
    ``t_max`` steps, its earliest step, and the whole trace.

    The targets are checked before the one engine is built, so a refused walk
    allocates no buffer.  A walk needs a target, and an HN4 walk whose every
    target lies on an exceptional line never finds one, so it raises
    :class:`NoPeakError`, carrying P(0) = M/N, the uniform initial state's:
    the peak rule's gain floor alone would confirm the t = 4 ripple as a
    peak, and the trace maximum would read it.
    """
    if config.target_count == 0:
        raise ValueError("search runs need at least one target")
    if _exceptional_targets(config).all():
        p0 = config.target_count / config.topology.n_vertices
        raise NoPeakError(
            f"every target lies on an exceptional line, where the HN4 walk never finds "
            f"one (P(0) = {p0:.6g})", p0,
        )
    if t_max is None:
        t_max = step_budget(config.topology.n_vertices, config.target_count, config.edge_mode)
    engine = WalkEngine(config)
    if rule is not None:
        peak, probs = _first_peak(engine.trace(t_max), rule)
    else:
        probs = np.fromiter(engine.trace(t_max), np.float64, t_max + 1)
        peak_step = int(np.argmax(probs))
        peak = PeakResult(peak_step, float(probs[peak_step]))
    return peak, probs, engine.stepped_processes


# ---------------------------------------------------------------------------
# Self-loop-weight sweep


@dataclass(frozen=True)
class SweepResult:
    """The records of a sweep's jobs, in weight order; the optimum is the first
    point of maximal peak probability."""

    points: tuple[ScalingRecord, ...]

    @cached_property
    def optimal_index(self) -> int:
        return max(range(len(self.points)), key=lambda i: (self.points[i].peak_probability, -i))

    @property
    def optimal(self) -> ScalingRecord:
        return self.points[self.optimal_index]


def sweep_jobs(
    side: int,
    targets: Sequence[tuple[int, int]],
    na_min: float,
    na_max: float,
    na_step: float,
    edge_mode: EdgeMode = EdgeMode.HN4,
    t_max: int | None = None,
) -> list[TrialJob]:
    """One job per total weight on the grid na_min .. na_max, in weight order.

    Peaks are read under :data:`SWEEP_PEAK_RULE`, which follows the
    probability envelope (stride 2) that the oscillating off-optimal points
    of a wide sweep require.  The targets and the smallest weight are checked
    here, so a bad sweep fails before any job runs, and targets on an
    exceptional line are warned of once (:func:`warn_exceptional_targets`).
    """
    if not all(map(math.isfinite, (na_min, na_max, na_step))):
        raise ValueError(f"sweep bounds must be finite, got {na_min}, {na_max}, {na_step}")
    if na_step <= 0:
        raise ValueError(f"na_step must be > 0, got {na_step}")
    count = math.floor((na_max - na_min) / na_step + 1e-9) + 1
    if count < 1:
        raise ValueError(f"empty sweep range [{na_min}, {na_max}]")
    warn_exceptional_targets(
        WalkConfig.with_na(TopologyParams.from_side(side), na_min, targets, edge_mode)
    )
    values = [na_min + i * na_step for i in range(count)]
    return [TrialJob(side, len(targets), na, 0, i, edge_mode, rule=SWEEP_PEAK_RULE,
                     targets=targets, t_max=t_max) for i, na in enumerate(values)]


def sweep_self_loop(
    side: int,
    targets: Sequence[tuple[int, int]],
    na_min: float,
    na_max: float,
    na_step: float,
    edge_mode: EdgeMode = EdgeMode.HN4,
    t_max: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Peak statistics for each total weight on the grid na_min .. na_max
    (the records of :func:`sweep_jobs`)."""
    jobs = sweep_jobs(side, targets, na_min, na_max, na_step, edge_mode, t_max)
    return SweepResult(tuple(result.record for result in run_jobs(jobs, workers)))


# ---------------------------------------------------------------------------
# Random target sets


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer components (PCG64 seed sequence)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _admissible(m: int, topology: TopologyParams) -> np.ndarray:
    """The A free line coordinates, those off the HN4 walk's exceptional lines
    (:func:`~hn4walk.topology.exceptional_lines`), in increasing order: the
    admissible vertices are the A² with both coordinates free, and ``m`` must
    lie in [1, A²]."""
    free = np.flatnonzero(~exceptional_lines(topology, EdgeMode.HN4))
    if not 1 <= m <= len(free) ** 2:
        raise ValueError(f"m must lie in [1, {len(free) ** 2}] (admissible vertices), got {m}")
    return free


def random_target_set(m: int, topology: TopologyParams, seed: int) -> np.ndarray:
    """Uniform sample of m distinct admissible vertices (no coordinate on an
    exceptional line, where the HN4 walk cannot find a target): an (m, 2) array
    of (x, y) rows in linear-index order.  Draw k is the k-th admissible vertex
    in that order, (free[k % A], free[k // A]) over the A free coordinates of
    :func:`_admissible`, in either walk mode, so a grid and an HN4 run of one
    seed share their targets."""
    free = _admissible(m, topology)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(free) ** 2, size=m, replace=False))
    y, x = np.divmod(chosen, len(free))
    return np.stack((free[x], free[y]), axis=1)


# ---------------------------------------------------------------------------
# Scaling and density experiments


def resolve_na(na_rule: float | str, m: int) -> float:
    """Finite, non-negative total weight from a rule: a number, or a string
    "<c>M", c times m."""
    if isinstance(na_rule, str):
        text = na_rule.strip()
        if not text.endswith(("M", "m")):
            raise ValueError(f"na rule {na_rule!r} needs the 'M' suffix, as in '8.5M'")
        try:
            na = float(text[:-1]) * m
        except ValueError:
            raise ValueError(f"na rule must be '<coef>M', got {na_rule!r}") from None
    else:
        na = float(na_rule)
    if not math.isfinite(na) or na < 0:
        raise ValueError(f"total weight must be finite and >= 0, got {na!r}")
    return na


@dataclass(frozen=True)
class TrialJob:
    """One walk: on the explicit ``targets``, or else on ``m`` admissible
    targets drawn from ``seed`` (:func:`random_target_set`).

    ``t_max`` bounds the walk under any rule (None: :func:`step_budget`).
    With a peak ``rule`` the walk runs to its first peak within it; with
    ``rule=None`` it runs exactly ``t_max`` steps and records the trace
    maximum, as the density protocol does over its horizon
    round(1.75 * sqrt(N/M)).  Explicit targets must number ``m``, the count
    its record carries.
    """

    side: int
    m: int
    na: float
    seed: int
    trial: int
    edge_mode: EdgeMode = EdgeMode.HN4
    rule: PeakRule | None = DEFAULT_PEAK_RULE
    targets: Sequence[tuple[int, int]] | None = None
    t_max: int | None = None

    def __post_init__(self) -> None:
        if self.targets is not None and len(self.targets) != self.m:
            raise ValueError(
                f"m must equal the number of targets, {len(self.targets)}, got {self.m}"
            )


@dataclass(frozen=True)
class JobResult:
    """What one :class:`TrialJob` gave: its peak as a record, and the most
    processes a step of its walk ran on
    (:attr:`~hn4walk.engine.WalkEngine.stepped_processes`: 1 for a walk that
    ended within the serial warm-up or whose step helpers could not start,
    and in a :func:`run_jobs` pool worker).  A helper that dies mid-walk
    fails nothing: the rest of the walk steps on one process, and the count
    keeps the helpers' steps before it."""

    record: ScalingRecord
    stepped_processes: int


def trial_record(job: TrialJob) -> JobResult:
    """Build one job's config and run its walk (:func:`_walk`, which builds the
    engine): its :class:`JobResult`.  The targets live only in the walk's
    config during the walk, as :func:`~hn4walk.engine.memory_requirement`
    counts them."""
    topology = TopologyParams.from_side(job.side)
    targets = random_target_set(job.m, topology, job.seed) if job.targets is None else job.targets
    config = WalkConfig.with_na(topology, job.na, targets, job.edge_mode)
    del targets  # the config holds its own sorted copy
    peak, _, stepped_processes = _walk(config, job.t_max, job.rule)
    return JobResult(ScalingRecord(
        side=job.side,
        n_elements=topology.n_vertices,
        m=job.m,
        na=job.na,
        mode=EdgeMode(job.edge_mode).value,
        seed=job.seed,
        trial=job.trial,
        peak_step=peak.peak_step,
        peak_probability=peak.peak_probability,
        amplified_cost=amplified_cost(peak.peak_step, peak.peak_probability),
    ), stepped_processes)


def trial_jobs(
    cells: Iterable[tuple[int, int]], na_rule: float | str, trials: int, seed: int, **fields,
) -> list[TrialJob]:
    """Seeded trials of each (side, m) cell, ordered by (cell, trial); ``fields``
    sets the remaining :class:`TrialJob` fields of every job.  The seed, each
    cell's ``m`` and weight are checked here, and a repeated cell is refused
    (its seeded rows would repeat too), so a bad cell fails before any job runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    cells = list(cells)
    if len(set(cells)) < len(cells):
        raise ValueError(f"each (side, m) cell may appear once, got {cells}")
    jobs = []
    for side, m in cells:
        _admissible(m, TopologyParams.from_side(side))
        side_seed = derive_seed(seed, side, m)
        na = resolve_na(na_rule, m)
        jobs += [
            TrialJob(side, m, na, derive_seed(side_seed, trial), trial, **fields)
            for trial in range(trials)
        ]
    return jobs


def scaling_experiment(
    sides: Sequence[int],
    m: int,
    na_rule: float | str,
    trials: int,
    seed: int,
    edge_mode: EdgeMode = EdgeMode.HN4,
    workers: int = 1,
) -> list[ScalingRecord]:
    """First-peak records over lattice sizes, with fresh random targets per trial."""
    jobs = trial_jobs([(side, m) for side in sides], na_rule, trials, seed, edge_mode=edge_mode)
    return [result.record for result in run_jobs(jobs, workers)]


def density_jobs(
    sides: Sequence[int],
    fraction: float,
    trials: int,
    seed: int,
) -> list[TrialJob]:
    """Fixed-horizon trials marking round(fraction * N) vertices on each side,
    at the Na = 8.5M heuristic: jobs with ``rule=None`` and ``t_max`` the
    density horizon round(1.75 * sqrt(N/M)).  A side on which the marked
    count is 0 or exceeds the admissible vertices is refused, naming the side
    and the fraction."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    cells = []
    for side in sides:
        topology = TopologyParams.from_side(side)
        m = int(fraction * topology.n_vertices + 0.5)
        admissible = np.count_nonzero(~exceptional_lines(topology, EdgeMode.HN4)) ** 2
        if not 1 <= m <= admissible:
            raise ValueError(
                f"fraction {fraction} marks {m} vertices at side {side}, outside "
                f"[1, {admissible}] (admissible vertices)"
            )
        cells.append((side, m))
    jobs = trial_jobs(cells, "8.5M", trials, seed, rule=None)
    return [replace(job, t_max=int(1.75 * math.sqrt(job.side**2 / job.m) + 0.5)) for job in jobs]


def density_experiment(
    sides: Sequence[int],
    fraction: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[ScalingRecord]:
    """Runs with a fixed fraction of marked vertices.

    Each trial marks round(fraction * N) random vertices, sets the total
    self-loop weight by the Na = 8.5M heuristic, evolves for the
    prescribed round(1.75 * sqrt(N/M)) steps, and records the highest success
    probability seen along the trace together with its step.  Peaks this
    early cannot satisfy the first-peak rule's gain threshold (P(0) is
    already the marked fraction), so the trace maximum stands in for it.
    """
    jobs = density_jobs(sides, fraction, trials, seed)
    return [result.record for result in run_jobs(jobs, workers)]


# ---------------------------------------------------------------------------
# Job pipeline


def run_jobs(jobs: Sequence[TrialJob], workers: int) -> Iterator[JobResult]:
    """Check the pool, then return an iterator over the :class:`JobResult` of
    every job (:func:`trial_record`) in submission order, logging each result.

    The pool holds min(workers, jobs, cores) processes, the cores being
    :func:`~hn4walk.engine.available_cores`, and a pool of one stays
    in-process.  That many walks, each the size of the largest job's
    (:func:`~hn4walk.engine.memory_requirement` of its own side, mode and
    targets), are checked against
    :data:`~hn4walk.engine.DEFAULT_MEMORY_LIMIT` when this is called, so
    :class:`~hn4walk.engine.ResourceLimitError` comes before any job runs.
    Pool workers step their walks on one core each, since together they
    already fill the cores.  A failing job raises at its own position, after
    every earlier result has been yielded; then, or when the iterator is
    closed early, the pool's workers are terminated, ending the jobs they
    still run instead of waiting them out.  A worker that dies raises
    ``BrokenProcessPool``.
    """
    largest = max((memory_requirement(TopologyParams.from_side(job.side), job.edge_mode, job.m)
                   for job in jobs), default=0)
    engines = min(workers, len(jobs), available_cores())
    _check_memory(
        engines * largest, f"{engines} walks held at once need {engines} x {largest} bytes"
    )

    def results():
        with ExitStack() as stack:
            done, started = map(trial_record, jobs), set()
            if engines > 1:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor  # only a pool run loads it

                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=engines, initializer=_step_on_one_core
                ))
                before = set(multiprocessing.active_children())
                done = pool.map(trial_record, jobs)  # submits every job, so starts every worker
                started = set(multiprocessing.active_children()) - before
            try:
                for i, result in enumerate(done, 1):
                    logger.info("job %d/%d: %s", i, len(jobs), result)
                    yield result
            except BaseException:  # a failed job, or the caller closed the results
                for worker in started:  # the pool's shutdown would wait out their jobs
                    worker.terminate()
                raise

    return results()
