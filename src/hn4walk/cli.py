"""Command-line front end.

Subcommands drive the library modules and hand their rows to the CSV/JSON
writers of :mod:`~hn4walk.reporting`.  A flag that several subcommands take
is declared once, in an argparse parent parser.  Each subcommand returns its
command-specific manifest fields, and :func:`main` writes the manifest JSON
beside the output once the command has succeeded; its seed and worker count
come from the parsed parameters.  Progress goes to stderr.

Only the numpy-free modules load with the CLI; a walk command imports the
engine and the experiment protocols when it runs, so ``fit``, ``--help``
and a usage error never load numpy.

Exit codes: 0 success, 2 usage error (including a negative seed, an input
file that cannot be read, a malformed records row, named by its file and
line, an output file that cannot be opened, or a manifest that cannot be
written, which leaves the data file in place), 3 no qualifying peak,
4 resource limit (one engine, or every engine a job pool may hold at once).
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Callable
from datetime import datetime, timezone
from itertools import tee
from pathlib import Path

from .fitting import fit_scaling, parse_model
from .reporting import (
    manifest_path,
    read_records_csv,
    write_manifest,
    write_records_csv,
    write_fit_json,
    write_sweep_csv,
    write_trace_csv,
)
from .topology import EdgeMode, TopologyParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PEAK = 3
EXIT_RESOURCE = 4

logger = logging.getLogger(__name__)


def _side(text: str) -> int:
    try:
        value = int(text)
        TopologyParams.from_side(value)
    except ValueError:  # a TopologyError too
        raise argparse.ArgumentTypeError(f"side must be a power of two >= 4, got {text!r}")
    return value


def _target(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed target {text!r}; expected 'x,y;x,y;...'")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")


def _list(item: Callable[[str], object], what: str, sep: str = ",") -> Callable[[str], tuple]:
    """An argparse type: the ``sep``-separated items of a text, each parsed by
    ``item``, as a tuple; blank items are dropped and an empty list refused."""

    def parse(text: str) -> tuple:
        values = tuple(item(token) for token in text.split(sep) if token.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"{what} list must not be empty")
        return values

    return parse


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _steps(text: str) -> str | int:
    return "auto" if text == "auto" else _positive_int(text)


def _manifest_params(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hn4walk",
        description="Lackadaisical quantum-walk search on a periodic grid "
        "with hierarchical long-range edges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=_positive_int, default=1)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=[m.value for m in EdgeMode], default="hn4")
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--side", type=_side, required=True)
    walk.add_argument("--targets", type=_list(_target, "target", ";"), required=True)
    walk.add_argument("--steps", type=_steps, default="auto")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--sides", type=_list(_side, "side"), required=True)
    trials.add_argument("--trials", type=int, default=10)
    trials.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", parents=[walk, mode, out],
                         help="evolve one walk and write its probability trace")
    sim.add_argument("--na", type=float, required=True, help="total self-loop weight N*a")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", parents=[walk, mode, out, workers],
                         help="scan the self-loop weight and mark the optimum")
    swp.add_argument("--na-min", type=float, required=True)
    swp.add_argument("--na-max", type=float, required=True)
    swp.add_argument("--na-step", type=float, required=True)
    swp.set_defaults(func=_cmd_sweep)

    scl = sub.add_parser("scale", parents=[trials, mode, out, workers],
                         help="first-peak records over lattice sizes")
    group = scl.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--m-list", type=_list(_int, "integer"))
    na_group = scl.add_mutually_exclusive_group(required=True)
    na_group.add_argument("--na", type=float)
    na_group.add_argument("--na-rule", help="heuristic total weight, e.g. 8.5M")
    scl.set_defaults(func=_cmd_scale)

    den = sub.add_parser("density", parents=[trials, out, workers],
                         help="runs with a fixed fraction of marked vertices")
    den.add_argument("--fraction", type=float, required=True)
    den.set_defaults(func=_cmd_density)

    fit = sub.add_parser("fit", parents=[out], help="fit a runtime model to scaling records")
    fit.add_argument("--records", required=True)
    fit.add_argument("--model", required=True, help="sqrt or sqrtlog")
    fit.set_defaults(func=_cmd_fit)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> dict:
    from .engine import WalkConfig, WalkEngine
    from .experiments import step_budget, warn_exceptional_targets

    topology = TopologyParams.from_side(args.side)
    config = WalkConfig.with_na(topology, args.na, args.targets, EdgeMode(args.mode))
    warn_exceptional_targets(config)
    t_max = (
        step_budget(topology.n_vertices, config.target_count, config.edge_mode)
        if args.steps == "auto"
        else args.steps
    )
    engine = WalkEngine(config)  # the memory guard, before --out is opened
    write_trace_csv(args.out, engine.trace(t_max))  # each row as its step ends
    return {"resolved_steps": t_max, "step_threads": engine.stepped_processes}


def _cmd_sweep(args: argparse.Namespace) -> dict:
    from .experiments import SweepResult, run_jobs, sweep_jobs

    jobs = sweep_jobs(
        args.side,
        args.targets,
        args.na_min,
        args.na_max,
        args.na_step,
        edge_mode=EdgeMode(args.mode),
        t_max=None if args.steps == "auto" else args.steps,
    )
    results = run_jobs(jobs, args.workers)
    open(args.out, "w").close()  # an --out that cannot be opened fails before the first job
    results = list(results)
    sweep = SweepResult(tuple(result.record for result in results))
    write_sweep_csv(args.out, sweep)
    logger.info("optimal na=%g (peak_probability=%.6f)", sweep.optimal.na,
                sweep.optimal.peak_probability)
    return {"optimal_na": sweep.optimal.na,
            "step_threads": max(result.stepped_processes for result in results)}


def _write_job_records(args: argparse.Namespace, jobs: list) -> tuple[list, int]:
    """Stream the jobs' records into ``args.out`` as they finish; return the
    records and the most processes a job's step ran on.  The pool's memory is
    checked, and the CSV opened, before the first job runs."""
    from .experiments import run_jobs

    results, kept = tee(run_jobs(jobs, args.workers))
    write_records_csv(args.out, (result.record for result in results))
    kept = list(kept)
    return [result.record for result in kept], max(result.stepped_processes for result in kept)


def _cmd_scale(args: argparse.Namespace) -> dict:
    from .experiments import trial_jobs

    m_values = args.m_list if args.m_list is not None else [args.m]
    na_rule = args.na if args.na is not None else args.na_rule
    jobs = trial_jobs(
        [(side, m) for m in m_values for side in args.sides], na_rule, args.trials, args.seed,
        edge_mode=EdgeMode(args.mode),
    )
    return {"step_threads": _write_job_records(args, jobs)[1]}


def _cmd_density(args: argparse.Namespace) -> dict:
    from .experiments import density_jobs

    jobs = density_jobs(args.sides, args.fraction, args.trials, args.seed)
    records, threads = _write_job_records(args, jobs)
    for side in args.sides:
        cell = [r.peak_probability for r in records if r.side == side]
        logger.info(
            "density side=%d: mean peak probability %.4f over %d trials",
            side, sum(cell) / len(cell), len(cell),
        )
    mean = sum(r.peak_probability for r in records) / len(records)
    return {"mean_peak_probability": mean, "step_threads": threads}


def _cmd_fit(args: argparse.Namespace) -> dict:
    written = {Path(args.out).resolve(), manifest_path(args.out).resolve()}
    if written & {Path(args.records).resolve(), manifest_path(args.records).resolve()}:
        raise ValueError(f"--out {args.out} would overwrite the records or their manifest")
    model = parse_model(args.model)
    records = read_records_csv(args.records)
    result = fit_scaling(records, model)
    write_fit_json(args.out, result)
    logger.info(
        "fit %s: coefficient=%.6g rms_relative_residual=%.6g points=%d",
        result.model.value, result.coefficient, result.rms_relative_residual, result.points,
    )
    return {"log_base": "natural"}


def _walk_exit_code(exc: RuntimeError) -> int | None:
    """Exit code of a walk layer's error (no peak, resource limit), None for any
    other error; imported here, since only a walk command raises them."""
    from .engine import ResourceLimitError
    from .experiments import NoPeakError

    if isinstance(exc, NoPeakError):
        return EXIT_NO_PEAK
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE
    return None


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started_utc = datetime.now(timezone.utc).isoformat()
    try:
        extra = args.func(args)
        write_manifest(args.out, args.command, _manifest_params(args), started_utc, extra)
    except (ValueError, OSError) as exc:  # a FitError and a TopologyError too
        print(f"hn4walk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        code = _walk_exit_code(exc)
        if code is None:
            raise
        print(f"hn4walk: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
