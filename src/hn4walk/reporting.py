"""Reproducible file emission: CSV tables, fit JSON, and run manifests.

All CSV output uses a header row, comma separators, "." decimals, and LF
line endings.  Floats are written with repr (shortest round-trip form), so a
rerun with the same manifest and a single worker produces byte-identical
files.  :func:`write_manifest` writes the pretty-printed manifest JSON that
accompanies every output file, recording the command, the full parameter
set, the seed and PRNG identifier, the engine version, the worker count,
the python version, the version of the numpy the command loaded (null when
it loaded none), the cores available, timestamps, the peak resident set
of the command and of its largest finished child process, and any
command-specific fields.  Run metadata goes only there, never into a data
CSV.

Nothing here imports numpy: :class:`ScalingRecord`, the record every walk
job returns, lives here so that reading records and fitting them stays free
of the walk layers.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .experiments import SweepResult
    from .fitting import FitResult

__all__ = [
    "ENGINE_VERSION",
    "PRNG_ALGORITHM",
    "TRACE_HEADER",
    "SWEEP_HEADER",
    "RECORDS_HEADER",
    "ScalingRecord",
    "available_cores",
    "manifest_path",
    "write_manifest",
    "write_sweep_csv",
    "write_records_csv",
    "read_records_csv",
    "write_fit_json",
]

ENGINE_VERSION = "0.1.0"
PRNG_ALGORITHM = "numpy-pcg64"

TRACE_HEADER = "step,probability"
SWEEP_HEADER = "na,peak_step,peak_probability,optimal"
RECORDS_HEADER = (
    "side,n_elements,m,na,mode,seed,trial,peak_step,peak_probability,amplified_cost"
)


@dataclass(frozen=True)
class ScalingRecord:
    """One (configuration, trial) outcome; append-only and self-describing."""

    side: int
    n_elements: int
    m: int
    na: float
    mode: str
    seed: int
    trial: int
    peak_step: int
    peak_probability: float
    amplified_cost: float


def available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _peak_rss_bytes() -> dict:
    """Peak resident set of this process and of its largest finished child."""
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB elsewhere
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit,
        "largest_child": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * unit,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def manifest_path(out_path: str | Path) -> Path:
    """Sibling manifest file: <name>.manifest.json next to the output."""
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".manifest.json")


def write_manifest(
    out_path: str | Path,
    command: str,
    parameters: dict,
    seed: int | None,
    workers: int,
    started_utc: str,
    extra: dict,
) -> Path:
    """Write the provenance of one command invocation beside ``out_path``,
    stamped as finished now; reruns with these parameters reproduce its output."""
    doc = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "prng": PRNG_ALGORITHM,
        "engine_version": ENGINE_VERSION,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "cores": available_cores(),
        "started_utc": started_utc,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "peak_rss_bytes": _peak_rss_bytes(),
        **extra,
    }
    path = manifest_path(out_path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_sweep_csv(path: str | Path, sweep: SweepResult) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(SWEEP_HEADER + "\n")
        for i, point in enumerate(sweep.points):
            optimal = 1 if i == sweep.optimal_index else 0
            handle.write(
                f"{_fmt(point.na)},{point.peak_step},"
                f"{_fmt(point.peak_probability)},{optimal}\n"
            )


def write_records_csv(path: str | Path, records: Sequence[ScalingRecord]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(RECORDS_HEADER + "\n")
        for r in records:
            handle.write(
                f"{r.side},{r.n_elements},{r.m},{_fmt(r.na)},{r.mode},{r.seed},"
                f"{r.trial},{r.peak_step},{_fmt(r.peak_probability)},"
                f"{_fmt(r.amplified_cost)}\n"
            )


def read_records_csv(path: str | Path) -> list[ScalingRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: not a scaling-record CSV (bad header)")
    records = []
    for line in lines[1:]:
        if not line:
            continue
        side, n_elements, m, na, mode, seed, trial, peak_step, peak_p, cost = line.split(",")
        records.append(
            ScalingRecord(
                side=int(side),
                n_elements=int(n_elements),
                m=int(m),
                na=float(na),
                mode=mode,
                seed=int(seed),
                trial=int(trial),
                peak_step=int(peak_step),
                peak_probability=float(peak_p),
                amplified_cost=float(cost),
            )
        )
    return records


def write_fit_json(path: str | Path, fit: FitResult) -> None:
    doc = {
        "model": fit.model.value,
        "coefficient": fit.coefficient,
        "rms_relative_residual": fit.rms_relative_residual,
        "points": fit.points,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
