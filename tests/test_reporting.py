import json
import platform
import re

import numpy as np
import pytest

from hn4walk.engine import available_cores

from hn4walk.experiments import ScalingRecord, SweepResult
from hn4walk.fitting import FitResult, RuntimeModel
from hn4walk.reporting import (
    RECORDS_HEADER,
    manifest_path,
    read_records_csv,
    write_fit_json,
    write_manifest,
    write_records_csv,
    write_sweep_csv,
    write_trace_csv,
)


def sample_records():
    return [
        ScalingRecord(64, 4096, 1, 8.5, "hn4", 123, 0, 113, 0.9978988985252377, 113.118),
        ScalingRecord(128, 16384, 1, 8.5, "hn4", 124, 1, 227, 0.99884, 227.13),
    ]


#: The bytes of every data CSV, as written before the writers shared one loop.
RECORDS_CSV = (
    "side,n_elements,m,na,mode,seed,trial,peak_step,peak_probability,amplified_cost\n"
    "64,4096,1,8.5,hn4,123,0,113,0.9978988985252377,113.118\n"
    "128,16384,1,8.5,hn4,124,1,227,0.99884,227.13\n"
)
SWEEP_CSV = "na,peak_step,peak_probability,optimal\n7.0,118,0.9943,0\n8.5,113,0.9979,1\n"


def sample_sweep():
    return SweepResult(
        points=(
            ScalingRecord(64, 4096, 1, 7.0, "hn4", 0, 0, 118, 0.9943, 118 / 0.9943**0.5),
            ScalingRecord(64, 4096, 1, 8.5, "hn4", 0, 1, 113, 0.9979, 113 / 0.9979**0.5),
        ),
    )


def test_data_csvs_keep_their_bytes(tmp_path):
    records, sweep, trace = tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "t.csv"
    write_records_csv(records, iter(sample_records()))
    write_sweep_csv(sweep, sample_sweep())
    write_trace_csv(trace, iter([0.00390625, 0.1, 1.0]))
    assert records.read_bytes() == RECORDS_CSV.encode()
    assert RECORDS_HEADER == RECORDS_CSV.splitlines()[0]
    assert sweep.read_bytes() == SWEEP_CSV.encode()
    assert trace.read_bytes() == b"step,probability\n0,0.00390625\n1,0.1\n2,1.0\n"


@pytest.mark.parametrize(
    "row, error",
    [
        ("64,4096,1,8.5,hn4,123,0", "expected 10 fields, got 7"),
        ("64,4096,1,8.5,hn4,123,0,113.5,0.99,114.1", "invalid literal for int"),
    ],
    ids=["seven-fields", "non-integer-peak-step"],
)
def test_records_reader_names_the_file_and_line_of_a_bad_row(tmp_path, row, error):
    path = tmp_path / "bad.csv"
    path.write_text(RECORDS_HEADER + "\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {error}")):
        read_records_csv(path)
    path.write_text(RECORDS_CSV + "\n" + row + "\n")  # a blank line still counts
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: ")):
        read_records_csv(path)


def test_records_csv_round_trip(tmp_path):
    path = tmp_path / "records.csv"
    records = sample_records()
    write_records_csv(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == RECORDS_HEADER
    assert read_records_csv(path) == records


def test_records_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_records_csv(path)


def test_records_csv_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(a, sample_records())
    write_records_csv(b, sample_records())
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_float_formatting_survives_round_trip(tmp_path):
    value = 0.1234567890123456789
    record = ScalingRecord(64, 4096, 1, value, "hn4", 1, 0, 10, value, value)
    path = tmp_path / "r.csv"
    write_records_csv(path, [record])
    back = read_records_csv(path)[0]
    assert back.na == record.na
    assert back.peak_probability == record.peak_probability
    assert back.amplified_cost == record.amplified_cost


def test_sweep_csv_marks_optimal_row(tmp_path):
    sweep = SweepResult(
        points=(
            ScalingRecord(64, 4096, 1, 7.0, "hn4", 0, 0, 118, 0.9943, 118 / 0.9943**0.5),
            ScalingRecord(64, 4096, 1, 8.5, "hn4", 0, 1, 113, 0.9979, 113 / 0.9979**0.5),
        ),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep)
    lines = path.read_text().splitlines()
    assert lines[0] == "na,peak_step,peak_probability,optimal"
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",1")


def test_manifest_fields_and_path(tmp_path):
    out = tmp_path / "trace.csv"
    written = write_manifest(
        out, "simulate", {"side": 16, "na": 8.5, "seed": 7, "workers": 2},
        "2026-01-01T00:00:00+00:00", {"resolved_steps": 96, "step_threads": 2},
    )
    assert written == tmp_path / "trace.manifest.json"
    assert manifest_path(out) == written
    doc = json.loads(written.read_text())
    assert doc["command"] == "simulate"
    assert doc["parameters"] == {"side": 16, "na": 8.5, "seed": 7, "workers": 2}
    assert doc["seed"] == 7
    assert doc["workers"] == 2
    assert doc["python"] == platform.python_version()
    assert doc["numpy"] == np.__version__
    assert doc["cores"] == available_cores() >= 1
    assert doc["prng"] == "numpy-pcg64"
    assert doc["engine_version"]
    assert doc["started_utc"] and doc["finished_utc"]
    assert doc["resolved_steps"] == 96
    assert doc["step_threads"] == 2
    assert list(doc["peak_rss_bytes"]) == ["self", "largest_child"]
    assert doc["peak_rss_bytes"]["self"] > 2**20
    assert doc["peak_rss_bytes"]["largest_child"] >= 0
    assert list(doc) == [
        "command", "parameters", "seed", "prng", "engine_version", "workers",
        "python", "numpy", "cores", "started_utc", "finished_utc", "peak_rss_bytes",
        "resolved_steps", "step_threads",
    ]


def test_fit_json(tmp_path):
    # the keys are FitResult's fields in order; the model is written by name
    path = tmp_path / "fit.json"
    write_fit_json(path, FitResult(RuntimeModel.SQRT, 1.79, 0.02, 4))
    assert path.read_bytes() == (
        b'{\n'
        b'  "model": "sqrt",\n'
        b'  "coefficient": 1.79,\n'
        b'  "rms_relative_residual": 0.02,\n'
        b'  "points": 4\n'
        b'}\n'
    )
