"""Reproducible file emission: CSV tables, fit JSON, and run manifests.

One streaming writer emits every data CSV (trace, sweep, records): a header
row, then each row as it arrives, comma-separated, with "." decimals, LF
line endings and floats in repr (shortest round-trip) form, so a rerun with
the same manifest produces byte-identical files.  The records' columns and
their parsing come from the fields of :class:`ScalingRecord`, and the fit
JSON's keys from those of :class:`~hn4walk.fitting.FitResult`.
:func:`write_manifest` writes the pretty-printed manifest JSON that
accompanies every output file, recording the command, the full parameter
set, the seed (the parameters' ``seed``, null for a command that takes
none) and PRNG identifier, the engine version, the worker count (the
parameters' ``workers``, 1 for a command without a pool),
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
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, get_type_hints

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
    "write_trace_csv",
    "write_sweep_csv",
    "write_records_csv",
    "read_records_csv",
    "write_fit_json",
]

ENGINE_VERSION = "0.1.0"
PRNG_ALGORITHM = "numpy-pcg64"

TRACE_HEADER = "step,probability"
SWEEP_HEADER = "na,peak_step,peak_probability,optimal"


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


#: Each record column's name and type, in column order, and a record's row.
_RECORD_TYPES = get_type_hints(ScalingRecord)
_record_row = attrgetter(*_RECORD_TYPES)
RECORDS_HEADER = ",".join(_RECORD_TYPES)


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


def _write_csv(path: str | Path, header: str, rows: Iterable[tuple]) -> None:
    """Write ``header``, then each of ``rows`` as it arrives (``str`` of a
    float is its shortest round-trip repr)."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(map(str, row)) + "\n")


def manifest_path(out_path: str | Path) -> Path:
    """Sibling manifest file: <name>.manifest.json next to the output."""
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".manifest.json")


def write_manifest(
    out_path: str | Path,
    command: str,
    parameters: dict,
    started_utc: str,
    extra: dict,
) -> Path:
    """Write the provenance of one command invocation beside ``out_path``,
    stamped as finished now; reruns with these parameters reproduce its output."""
    doc = {
        "command": command,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "prng": PRNG_ALGORITHM,
        "engine_version": ENGINE_VERSION,
        "workers": parameters.get("workers", 1),
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


def write_trace_csv(path: str | Path, samples: Iterable[float]) -> None:
    """Write P(t) for t = 0, 1, ..., one row per sample as it arrives."""
    _write_csv(path, TRACE_HEADER, enumerate(samples))


def write_sweep_csv(path: str | Path, sweep: SweepResult) -> None:
    _write_csv(path, SWEEP_HEADER, (
        (point.na, point.peak_step, point.peak_probability, int(i == sweep.optimal_index))
        for i, point in enumerate(sweep.points)
    ))


def write_records_csv(path: str | Path, records: Iterable[ScalingRecord]) -> None:
    _write_csv(path, RECORDS_HEADER, map(_record_row, records))


def read_records_csv(path: str | Path) -> list[ScalingRecord]:
    """The records of a records CSV; a malformed row's ValueError names its path:line."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: not a scaling-record CSV (bad header)")
    records = []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        values = line.split(",")
        try:
            if len(values) != len(_RECORD_TYPES):
                raise ValueError(f"expected {len(_RECORD_TYPES)} fields, got {len(values)}")
            records.append(ScalingRecord(
                *(kind(value) for kind, value in zip(_RECORD_TYPES.values(), values))
            ))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return records


def write_fit_json(path: str | Path, fit: FitResult) -> None:
    """Write ``fit``'s fields, in order, as pretty-printed JSON (the model as
    its name: :class:`~hn4walk.fitting.RuntimeModel` is a ``str`` enum)."""
    Path(path).write_text(json.dumps(asdict(fit), indent=2) + "\n")
