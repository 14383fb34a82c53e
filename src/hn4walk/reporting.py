"""Reproducible file emission: CSV tables, fit JSON, and run manifests.

All CSV output uses a header row, comma separators, "." decimals, and LF
line endings.  Floats are written with repr (shortest round-trip form), so a
rerun with the same manifest and a single worker produces byte-identical
files.  Every output file is accompanied by a pretty-printed manifest JSON
recording the command, the full parameter set, the seed and PRNG identifier,
the engine version, timestamps, and the worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .experiments import ScalingRecord, SweepResult
from .fitting import FitResult

__all__ = [
    "ENGINE_VERSION",
    "PRNG_ALGORITHM",
    "TRACE_HEADER",
    "SWEEP_HEADER",
    "RECORDS_HEADER",
    "RunManifest",
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class RunManifest:
    """Provenance of one command invocation; reruns reproduce its outputs."""

    command: str
    parameters: dict
    seed: int | None = None
    workers: int = 1
    prng: str = PRNG_ALGORITHM
    engine_version: str = ENGINE_VERSION
    started_utc: str = ""
    finished_utc: str = ""
    extra: dict = field(default_factory=dict)

    @classmethod
    def begin(
        cls, command: str, parameters: dict, seed: int | None = None, workers: int = 1
    ) -> "RunManifest":
        return cls(
            command=command,
            parameters=dict(parameters),
            seed=seed,
            workers=workers,
            started_utc=datetime.now(timezone.utc).isoformat(),
        )

    def finish(self) -> "RunManifest":
        self.finished_utc = datetime.now(timezone.utc).isoformat()
        return self

    def to_json(self) -> dict:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "prng": self.prng,
            "engine_version": self.engine_version,
            "workers": self.workers,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
        }
        doc.update(self.extra)
        return doc


def manifest_path(out_path: str | Path) -> Path:
    """Sibling manifest file: <name>.manifest.json next to the output."""
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".manifest.json")


def write_manifest(out_path: str | Path, manifest: RunManifest) -> Path:
    path = manifest_path(out_path)
    path.write_text(json.dumps(manifest.to_json(), indent=2) + "\n")
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


def write_fit_json(path: str | Path, fit: FitResult, manifest: RunManifest | None = None) -> None:
    doc = {
        "model": fit.model.value,
        "coefficient": fit.coefficient,
        "rms_relative_residual": fit.rms_relative_residual,
        "points": fit.points,
    }
    if manifest is not None:
        doc["manifest"] = manifest.to_json()
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
