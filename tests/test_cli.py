import argparse
import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hn4walk
from hn4walk import engine, experiments
from hn4walk.cli import build_parser, main
from hn4walk.engine import (
    EdgeMode,
    ResourceLimitError,
    WalkConfig,
    WalkEngine,
    memory_requirement,
    run,
)
from hn4walk.fitting import model_scale, RuntimeModel
from hn4walk.reporting import RECORDS_HEADER, read_records_csv, write_records_csv
from hn4walk.experiments import ScalingRecord
from hn4walk.topology import TopologyParams


def test_simulate_writes_trace_and_manifest(tmp_path):
    out = tmp_path / "trace.csv"
    code = main([
        "simulate", "--side", "16", "--targets", "1,6", "--na", "8.5",
        "--mode", "hn4", "--steps", "40", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,probability"
    assert lines[1] == "0,0.00390625"  # P(0) = M/N = 1/256
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, ((1, 6),))
    probabilities = run(config, 40)
    assert lines[1:] == [f"{t},{p!r}" for t, p in enumerate(probabilities.tolist())]
    doc = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert doc["command"] == "simulate"
    assert doc["parameters"]["na"] == 8.5
    assert doc["seed"] is None
    assert doc["parameters"]["steps"] == 40
    assert doc["resolved_steps"] == 40
    assert doc["step_threads"] == 1  # side 16 is one band


def test_simulate_trace_keeps_its_bytes(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--side", "16", "--targets", "1,6", "--na", "8.5",
                 "--steps", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"step,probability\n"
        b"0,0.00390625\n"
        b"1,0.00390625\n"
        b"2,0.02449707873429496\n"
        b"3,0.022758352126162597\n"
        b"4,0.06317467598684454\n"
        b"5,0.05987841692850291\n"
    )


def test_simulate_is_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--side", "16", "--targets", "2,5;9,12", "--na", "17.0",
            "--steps", "30"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--side", "16", "--targets", "", "--na", "8.5",
                 "--out", out]) == 2
    assert main(["simulate", "--side", "15", "--targets", "1,6", "--na", "8.5",
                 "--out", out]) == 2
    assert main(["simulate", "--side", "16", "--targets", "1;6", "--na", "8.5",
                 "--out", out]) == 2
    assert main(["simulate", "--side", "16", "--targets", "1,6", "--na", "8.5",
                 "--steps", "0", "--out", out]) == 2


def test_simulate_accepts_multi_target_set_with_warnings(tmp_path, caplog):
    out = tmp_path / "m3.csv"
    code = main([
        "simulate", "--side", "16", "--targets", "4,10;14,8;0,12", "--na", "25.0",
        "--steps", "25", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[1] == f"0,{3 / 256!r}"


def test_simulate_warns_on_exceptional_target(tmp_path, caplog):
    out = tmp_path / "exc.csv"
    code = main([
        "simulate", "--side", "16", "--targets", "6,7", "--na", "8.5",
        "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    assert [rec.message for rec in caplog.records if "exceptional" in rec.message] == [
        "1 of 1 targets lie on an exceptional line (their long-range edges degenerate "
        "to self-loops), first (6, 7)"
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_warns_of_exceptional_targets_once(tmp_path, workers):
    # once for the sweep, not once per weight (45 here) or per worker; run as
    # a process, so that pool workers' stderr is counted too
    env = dict(os.environ, PYTHONPATH=str(Path(hn4walk.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "hn4walk", "sweep", "--side", "64", "--targets", "1,6;31,40",
         "--na-min", "8", "--na-max", "30", "--na-step", "0.5", "--workers", workers,
         "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 46
    assert [line for line in result.stderr.splitlines() if "exceptional" in line] == [
        "1 of 2 targets lie on an exceptional line (their long-range edges degenerate "
        "to self-loops), first (31, 40)"
    ]


def test_simulate_writes_rows_as_the_walk_steps(tmp_path, monkeypatch):
    # a walk that fails after k steps leaves the header and its first k + 1 rows
    k = 7
    config = WalkConfig.with_na(TopologyParams.from_side(16), 8.5, ((1, 6),))
    expected = "step,probability\n" + "".join(
        f"{t},{p!r}\n" for t, p in enumerate(run(config, k).tolist())
    )
    advance = WalkEngine.advance

    class Interrupted(Exception):
        pass

    def advance_k_steps(self, steps=1):
        if self.t + steps > k:
            raise Interrupted
        advance(self, steps)

    monkeypatch.setattr(WalkEngine, "advance", advance_k_steps)
    out = tmp_path / "trace.csv"
    with pytest.raises(Interrupted):
        main(["simulate", "--side", "16", "--targets", "1,6", "--na", "8.5",
              "--steps", "40", "--out", str(out)])
    assert out.read_bytes() == expected.encode()
    assert not (tmp_path / "trace.manifest.json").exists()


def test_simulate_resource_error(tmp_path):
    code = main([
        "simulate", "--side", "65536", "--targets", "1,6", "--na", "8.5",
        "--steps", "5", "--out", str(tmp_path / "big.csv"),
    ])
    assert code == 4
    assert not (tmp_path / "big.csv").exists()
    assert not (tmp_path / "big.manifest.json").exists()


def test_sweep_marks_optimum(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--side", "16", "--targets", "1,6", "--na-min", "6",
        "--na-max", "10", "--na-step", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "na,peak_step,peak_probability,optimal"
    assert len(lines) == 4
    assert sum(line.endswith(",1") for line in lines[1:]) == 1
    doc = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert "optimal_na" in doc
    assert doc["step_threads"] == 1  # side 16 is one band


def test_sweep_empty_range_is_usage_error(tmp_path):
    # an empty range, then each non-finite bound
    for na_min, na_max, na_step in [("10", "6", "0.5"), ("1", "inf", "1"),
                                    ("nan", "30", "1"), ("1", "30", "inf")]:
        code = main([
            "sweep", "--side", "16", "--targets", "1,6", "--na-min", na_min,
            "--na-max", na_max, "--na-step", na_step, "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2
        assert not (tmp_path / "s.csv").exists()


def test_sweep_steps_bound_every_walk(tmp_path, capsys):
    # the peaks lie within 60 steps; 10 steps leave every weight without one
    argv = ["sweep", "--side", "16", "--targets", "1,6", "--na-min", "6", "--na-max", "10",
            "--na-step", "2"]
    auto, sixty, ten = (tmp_path / f"{name}.csv" for name in ("auto", "sixty", "ten"))
    assert main(argv + ["--steps", "auto", "--out", str(auto)]) == 0
    assert main(argv + ["--steps", "60", "--out", str(sixty)]) == 0
    assert sixty.read_bytes() == auto.read_bytes()
    assert json.loads((tmp_path / "sixty.manifest.json").read_text())["parameters"]["steps"] == 60
    assert main(argv + ["--steps", "10", "--out", str(ten)]) == 3
    assert "hn4walk: no qualifying peak in 11 samples" in capsys.readouterr().err
    assert not (tmp_path / "ten.manifest.json").exists()


def test_no_peak_exit_code(tmp_path):
    # P(0) = 4/16 leaves no room for the 5x gain rule: no peak can qualify
    code = main([
        "sweep", "--side", "4", "--targets", "0,0;1,1;2,2;3,3", "--na-min", "8",
        "--na-max", "9", "--na-step", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 3
    assert not (tmp_path / "s.manifest.json").exists()


def test_sweep_of_targets_only_on_exceptional_lines_exits_3(tmp_path, capsys):
    # the HN4 walk cannot find such a target, at any weight
    code = main([
        "sweep", "--side", "64", "--targets", "31,6;63,40", "--na-min", "8",
        "--na-max", "9", "--na-step", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 3
    assert "every target lies on an exceptional line" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_refused_pooled_sweep_prints_the_same_two_lines(tmp_path):
    # the failing job ends the pool's workers; the weights not yet run add nothing to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(hn4walk.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "hn4walk", "sweep", "--side", "64", "--targets", "31,6",
            "--na-min", "8", "--na-max", "30", "--na-step", "0.5", "--workers", "2",
            "--out", str(tmp_path / "s.csv")]
    expected = [
        "1 of 1 targets lie on an exceptional line (their long-range edges degenerate to"
        " self-loops), first (31, 6)",
        "hn4walk: every target lies on an exceptional line, where the HN4 walk never finds"
        " one (P(0) = 0.000244141)",
    ]
    for _ in range(5):
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr.splitlines()) == (3, expected)


def test_unexpected_runtime_error_is_raised_not_mapped(tmp_path, monkeypatch):
    def boom(job):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "trial_record", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "1",
              "--workers", "1", "--out", str(tmp_path / "records.csv")])
    assert not (tmp_path / "records.manifest.json").exists()


def test_scale_then_fit_round_trip(tmp_path):
    records_path = tmp_path / "records.csv"
    code = main([
        "scale", "--sides", "16,32,64", "--m", "1", "--na", "8.5",
        "--trials", "1", "--seed", "7", "--out", str(records_path),
    ])
    assert code == 0
    records = read_records_csv(records_path)
    assert [r.side for r in records] == [16, 32, 64]

    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--records", str(records_path), "--model", "sqrt",
                 "--out", str(fit_path)]) == 0
    doc = json.loads(fit_path.read_text())
    assert doc["model"] == "sqrt"
    assert doc["points"] == 3
    assert 1.0 < doc["coefficient"] < 2.5
    manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["log_base"] == "natural"


def test_scale_accepts_m_list_and_na_rule(tmp_path):
    out = tmp_path / "records.csv"
    code = main([
        "scale", "--sides", "16", "--m-list", "1,2", "--na-rule", "8.5M",
        "--trials", "1", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    records = read_records_csv(out)
    assert [(r.m, r.na) for r in records] == [(1, 8.5), (2, 17.0)]


@pytest.mark.parametrize("m_list", ["", ","])
def test_scale_rejects_empty_m_list(tmp_path, m_list):
    out = tmp_path / "empty.csv"
    assert main(["scale", "--sides", "16", "--m-list", m_list, "--na", "8.5",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "empty.manifest.json").exists()


SWEEP_1_TO_3 = ["--na-min", "1", "--na-max", "3", "--na-step", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--sides", "4,64", "--fraction", "0.01"],  # side 4 rounds to m = 0
        ["scale", "--sides", "4", "--m", "20", "--na", "8.5"],  # 4 admissible vertices
        ["scale", "--sides", "16", "--m", "2", "--na", "-1"],
        ["scale", "--sides", "16,16", "--m", "1", "--na", "8.5"],
        ["scale", "--sides", "16", "--m-list", "1,1", "--na", "8.5"],
        ["density", "--sides", "64,64", "--fraction", "0.2"],
        ["sweep", "--side", "16", "--targets", "1,6;1,6", *SWEEP_1_TO_3],
        ["sweep", "--side", "16", "--targets", "20,1", *SWEEP_1_TO_3],
        ["sweep", "--side", "16", "--targets", "1,6", "--na-min", "-5", "--na-max", "3",
         "--na-step", "1"],
        ["scale", "--sides", "16", "--m", "2", "--na", "8.5", "--trials", "0"],
        ["scale", "--sides", "16", "--m-list", "1,a", "--na", "8.5"],
        ["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--workers", "x"],
        ["sweep", "--side", "16", "--targets", "1,6", "--na-min", "0", "--na-max", "1",
         "--na-step", "1e-320"],
    ],
    ids=["density-m-zero", "scale-m-above-admissible", "scale-negative-na",
         "scale-repeated-side", "scale-repeated-m", "density-repeated-side",
         "sweep-repeated-target", "sweep-target-off-lattice", "sweep-negative-na",
         "scale-zero-trials", "scale-m-list-not-integer", "scale-workers-not-integer",
         "sweep-step-count-overflows"],
)
def test_usage_error_in_a_job_writes_nothing(tmp_path, argv):
    # every argument and job is checked before the CSV is opened
    out = tmp_path / "records.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "records.manifest.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_manifest_records_step_threads_of_largest_side(tmp_path, workers):
    # in-process jobs step on every band part of the largest side; pool workers on one core
    out = tmp_path / "density.csv"
    assert main(["density", "--sides", "64,512", "--fraction", "0.001", "--trials", "1",
                 "--workers", workers, "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "density.manifest.json").read_text())
    in_process = len(engine._layout(TopologyParams.from_side(512), EdgeMode.HN4))
    assert doc["step_threads"] == (in_process if workers == "1" else 1)


def _refuse_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "argv, refuse_fork, stepped",
    [
        (["simulate", "--side", "512", "--targets", "1,6", "--na", "8.5", "--steps", "5"],
         False, 1),
        (["density", "--sides", "512", "--fraction", "0.2", "--trials", "1", "--seed", "7"],
         False, 1),
        (["simulate", "--side", "512", "--targets", "1,6", "--na", "8.5", "--steps", "20"],
         True, 1),
        (["scale", "--sides", "512", "--m", "4", "--na-rule", "8.5M", "--trials", "1",
          "--seed", "602"], False, 2),
    ],
    ids=["simulate-within-warm-up", "density-4-steps", "simulate-fork-refused",
         "scale-on-helpers"],
)
def test_step_threads_counts_the_processes_that_stepped(
    tmp_path, monkeypatch, argv, refuse_fork, stepped
):
    # a two-part walk that ends within the serial warm-up, or whose helper cannot
    # start, stepped on one process; one past the warm-up stepped on two
    monkeypatch.setattr(engine, "_step_cores", 2)
    if refuse_fork:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads((tmp_path / "out.manifest.json").read_text())["step_threads"] == stepped


@pytest.mark.parametrize("fraction, marked", [("0.01", 0), ("0.5", 8)])
def test_density_names_the_fraction_of_an_unfit_side(tmp_path, capsys, fraction, marked):
    # side 4 has 4 admissible vertices; the message names what the user passed
    out = tmp_path / "density.csv"
    assert main(["density", "--sides", "4", "--fraction", fraction, "--out", str(out)]) == 2
    assert (f"hn4walk: fraction {fraction} marks {marked} vertices at side 4, outside [1, 4]"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_scale_draws_no_target_the_walk_cannot_find(tmp_path):
    # random targets on an exceptional line wrote t = 4 rows with P near P(0),
    # which fit read as peaks; the option that drew them is gone
    argv = ["scale", "--sides", "64", "--m", "1", "--na-rule", "8.5M", "--trials", "60",
            "--seed", "3"]
    out = tmp_path / "records.csv"
    assert main(argv + ["--policy", "intersection", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--out", str(out)]) == 0
    records = read_records_csv(out)
    assert len(records) == 60
    assert all(r.peak_probability > 0.99 for r in records)


def _write_sqrt_records(path):
    """Records whose peaks are exactly 2 * sqrt(N): their sqrt fit gives c = 2."""
    write_records_csv(path, [
        ScalingRecord(
            side=int(math.isqrt(n)), n_elements=n, m=1, na=8.5, mode="hn4",
            seed=0, trial=0,
            peak_step=2 * int(model_scale(RuntimeModel.SQRT, n, 1)),
            peak_probability=1.0, amplified_cost=1.0,
        )
        for n in (4096, 16384, 65536)
    ])


def test_fit_synthetic_records_exact_coefficient(tmp_path):
    records_path = tmp_path / "synthetic.csv"
    _write_sqrt_records(records_path)
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--records", str(records_path), "--model", "sqrt",
                 "--out", str(fit_path)]) == 0
    assert json.loads(fit_path.read_text())["coefficient"] == 2.0


def test_fit_model_record_mismatch_is_usage_error(tmp_path):
    records_path = tmp_path / "mixed.csv"
    records = [
        ScalingRecord(64, 4096, m, 8.5 * m, "hn4", 0, 0, 100, 0.9, 105.4)
        for m in (1, 2)
    ] + [
        ScalingRecord(128, 16384, 1, 8.5, "hn4", 0, 0, 200, 0.9, 210.8),
        ScalingRecord(256, 65536, 1, 8.5, "hn4", 0, 0, 400, 0.9, 421.6),
    ]
    write_records_csv(records_path, records)
    code = main(["fit", "--records", str(records_path), "--model", "sqrtlog",
                 "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert main(["fit", "--records", str(records_path), "--model", "cubic",
                 "--out", str(tmp_path / "f.json")]) == 2


def test_fit_refuses_records_without_targets(tmp_path):
    records_path = tmp_path / "run.csv"
    write_records_csv(records_path, [
        ScalingRecord(side, side * side, m, 8.5, "hn4", 0, 0, side, 0.9, side / 0.9 ** 0.5)
        for side, m in ((16, 1), (32, 0), (64, 1))
    ])
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--records", str(records_path), "--model", "sqrt",
                 "--out", str(fit_path)]) == 2
    assert not fit_path.exists()
    assert not (tmp_path / "fit.manifest.json").exists()


@pytest.mark.parametrize(
    "row", ["64,4096,1,8.5,hn4,123,0", "64,4096,1,8.5,hn4,123,0,113.5,0.99,114.1"],
    ids=["seven-fields", "non-integer-peak-step"],
)
def test_fit_names_the_file_and_line_of_a_bad_record(tmp_path, capsys, row):
    records = tmp_path / "bad.csv"
    records.write_text(RECORDS_HEADER + "\n" + row + "\n")
    assert main(["fit", "--records", str(records), "--model", "sqrt",
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert f"hn4walk: {records}:2: " in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.csv"]


@pytest.mark.parametrize("out", ["run.csv", "run.json", "run.manifest.json"])
def test_fit_refuses_to_overwrite_its_records_or_their_manifest(tmp_path, out):
    records_path = tmp_path / "run.csv"
    assert main(["scale", "--sides", "16,32,64", "--m", "1", "--na", "8.5",
                 "--trials", "1", "--seed", "7", "--out", str(records_path)]) == 0
    manifest = tmp_path / "run.manifest.json"
    records, scale_manifest = records_path.read_bytes(), manifest.read_bytes()
    assert main(["fit", "--records", str(records_path), "--model", "sqrt",
                 "--out", str(tmp_path / out)]) == 2
    assert records_path.read_bytes() == records
    assert manifest.read_bytes() == scale_manifest
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.manifest.json"]


def test_file_errors_are_usage_errors(tmp_path, capsys):
    # a missing input file or output directory: one message, exit 2, no manifest
    assert main(["fit", "--records", str(tmp_path / "missing.csv"), "--model", "sqrt",
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert not (tmp_path / "fit.json").exists()
    assert not (tmp_path / "fit.manifest.json").exists()
    out = tmp_path / "missing" / "t.csv"
    assert main(["simulate", "--side", "16", "--targets", "1,6", "--na", "8.5",
                 "--out", str(out)]) == 2
    assert not out.parent.exists()
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("hn4walk: ")] == [
        f"hn4walk: [Errno 2] No such file or directory: '{tmp_path / name}'"
        for name in ("missing.csv", "missing/t.csv")
    ]


@pytest.mark.parametrize("command", ["scale", "fit"])
def test_a_manifest_that_cannot_be_written_is_a_usage_error(
        tmp_path, monkeypatch, capsys, command):
    # the data file is written and stays; the command exits 2 with one message
    monkeypatch.chdir(tmp_path)
    if command == "fit":
        _write_sqrt_records(tmp_path / "records.csv")
        argv, out = ["fit", "--records", "records.csv", "--model", "sqrt"], "x.json"
    else:
        argv, out = ["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "1"], "x.csv"
    (tmp_path / "x.manifest.json").mkdir()
    assert main(argv + ["--out", out]) == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("hn4walk: ")] == [
        f"hn4walk: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'x.manifest.json'"
    ]
    if command == "fit":
        assert json.loads((tmp_path / out).read_text())["coefficient"] == 2.0
    else:
        assert [(r.side, r.trial) for r in read_records_csv(tmp_path / out)] == [(16, 0)]


@pytest.mark.parametrize(
    "argv, seed, workers",
    [
        (["simulate", "--side", "16", "--targets", "1,6", "--na", "8.5", "--steps", "5"],
         None, 1),
        (["sweep", "--side", "16", "--targets", "1,6", "--na-min", "6", "--na-max", "10",
          "--na-step", "2", "--workers", "2"], None, 2),
        (["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "2", "--seed", "5",
          "--workers", "2"], 5, 2),
        (["density", "--sides", "16", "--fraction", "0.1", "--trials", "1", "--seed", "3"],
         3, 1),
        (["fit", "--records", "records.csv", "--model", "sqrt"], None, 1),
    ],
    ids=["simulate", "sweep", "scale", "density", "fit"],
)
def test_manifest_seed_and_workers_are_the_parameters(tmp_path, monkeypatch, argv, seed,
                                                      workers):
    monkeypatch.chdir(tmp_path)
    _write_sqrt_records(tmp_path / "records.csv")
    assert main(argv + ["--out", "out.csv"]) == 0
    doc = json.loads((tmp_path / "out.manifest.json").read_text())
    assert doc["seed"] == doc["parameters"].get("seed") == seed
    assert doc["workers"] == doc["parameters"].get("workers", 1) == workers


def _fail_on_any_job(monkeypatch):
    def no_job(job):
        pytest.fail(f"a job ran: {job}")

    monkeypatch.setattr(experiments, "trial_record", no_job)


def test_sweep_reports_an_unopenable_out_before_any_job(tmp_path, monkeypatch):
    _fail_on_any_job(monkeypatch)
    out = tmp_path / "missing" / "s.csv"
    assert main(["sweep", "--side", "64", "--targets", "1,6", "--na-min", "1",
                 "--na-max", "30", "--na-step", "0.5", "--out", str(out)]) == 2
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--sides", "512", "--m", "1", "--na", "8.5", "--trials", "2"],
        ["density", "--sides", "512", "--fraction", "0.001", "--trials", "2"],
        ["sweep", "--side", "512", "--targets", "1,6", "--na-min", "8", "--na-max", "9",
         "--na-step", "1"],
    ],
    ids=["scale", "density", "sweep"],
)
def test_pool_beyond_the_memory_limit_runs_nothing(tmp_path, monkeypatch, argv):
    # one side-512 engine fits the limit, the two a 2-worker pool holds do not
    one = memory_requirement(TopologyParams.from_side(512), EdgeMode.HN4)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", one * 3 // 2)
    monkeypatch.setattr(experiments, "available_cores", lambda: 2)
    _fail_on_any_job(monkeypatch)
    out = tmp_path / "pool.csv"
    assert main(argv + ["--workers", "2", "--out", str(out)]) == 4
    assert not out.exists()
    assert not (tmp_path / "pool.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "1"],
        ["density", "--sides", "16", "--fraction", "0.1", "--trials", "1"],
    ],
    ids=["scale", "density"],
)
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    _fail_on_any_job(monkeypatch)
    out = tmp_path / "seed.csv"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "hn4walk: seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scale_steps_on_one_process_when_no_helper_can_start(tmp_path, monkeypatch, caplog):
    # a fork refused under a process limit leaves the walk, and its record, on one process
    forks = []

    def refuse_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(engine, "_step_cores", 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    out = tmp_path / "records.csv"
    assert main(["scale", "--sides", "512", "--m", "4", "--na-rule", "8.5M", "--trials", "1",
                 "--seed", "602", "--out", str(out)]) == 0
    assert out.read_text() == (
        RECORDS_HEADER + "\n"
        "512,262144,4,34.0,hn4,3559554422,0,525,0.8702242595546996,562.7865508306262\n"
    )
    assert forks == [1]
    assert [r.message for r in caplog.records if "could not start" in r.message] != []


def test_one_memory_limit_guards_engines_pools_and_commands(tmp_path, monkeypatch):
    # the engine's own check and the pool's check both read the one limit when
    # they run: a one-target side-16 engine fits it, a side-32 engine and a
    # complex state do not
    side_16 = TopologyParams.from_side(16)
    one_target = memory_requirement(side_16, EdgeMode.HN4, 1)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", one_target)
    with pytest.raises(ResourceLimitError, match="limit is"):
        WalkEngine(WalkConfig.with_na(TopologyParams.from_side(32), 8.5, ((1, 6),)))
    walk = WalkEngine(WalkConfig.with_na(side_16, 8.5, ((1, 6),)))
    with pytest.raises(ResourceLimitError):
        walk.set_amplitudes(walk.amplitudes.astype(complex))
    with pytest.raises(ResourceLimitError, match="1 x"):
        experiments.run_jobs(experiments.trial_jobs([(32, 1)], 8.5, 1, 7), 1)
    out = tmp_path / "limit.csv"
    assert main(["scale", "--sides", "32", "--m", "1", "--na", "8.5", "--trials", "1",
                 "--out", str(out)]) == 4
    assert not out.exists()
    assert not (tmp_path / "limit.manifest.json").exists()


def _imported_modules(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of ``python -m hn4walk <argv>`` and every module it imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(hn4walk.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hn4walk", *argv],
        capture_output=True, text=True, env=env,
    )
    modules = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
               if line.startswith("import time:")}
    return result.returncode, modules


def test_commands_load_only_the_layers_they_run(tmp_path):
    records = tmp_path / "records.csv"
    write_records_csv(records, [
        ScalingRecord(side, side * side, 1, 8.5, "hn4", 0, 0, side, 0.9, side / 0.9 ** 0.5)
        for side in (64, 128, 256)
    ])
    fit = ["fit", "--records", str(records), "--model", "sqrt", "--out", str(tmp_path / "f.json")]
    for argv, code in [(fit, 0), (["--help"], 0), (["fit", "--model", "sqrt"], 2)]:
        returncode, modules = _imported_modules(argv)
        assert returncode == code
        assert "hn4walk.cli" in modules
        assert [m for m in modules if m.partition(".")[0] == "numpy"] == []
    assert json.loads((tmp_path / "f.manifest.json").read_text())["numpy"] is None
    for argv in (["density", "--sides", "16", "--fraction", "0.1", "--trials", "1"],
                 ["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "1",
                  "--workers", "1"]):
        returncode, modules = _imported_modules(argv + ["--out", str(tmp_path / "w.csv")])
        assert returncode == 0
        assert "numpy" in modules
        assert "concurrent.futures.process" not in modules


def test_density_command(tmp_path):
    out = tmp_path / "density.csv"
    code = main([
        "density", "--sides", "16", "--fraction", "0.1", "--trials", "2",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    records = read_records_csv(out)
    assert len(records) == 2
    assert all(r.m == 26 for r in records)
    assert main(["density", "--sides", "16", "--fraction", "1.5", "--trials", "1",
                 "--out", str(tmp_path / "d.csv")]) == 2
    for command in (
        ["density", "--sides", "16", "--fraction", "0.1"],
        ["scale", "--sides", "16", "--m", "1", "--na", "8.5"],
        ["sweep", "--side", "16", "--targets", "1,6", "--na-min", "6", "--na-max", "10",
         "--na-step", "2"],
    ):
        for workers in ("0", "-2"):
            assert main(command + ["--workers", workers, "--out", str(tmp_path / "w.csv")]) == 2
    assert not (tmp_path / "w.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--sides", "16", "--m", "1", "--na", "8.5", "--trials", "2", "--seed", "11"],
        ["scale", "--sides", "16", "--m-list", "1,2", "--na-rule", "8.5M", "--trials", "2",
         "--seed", "11"],
        ["density", "--sides", "16", "--fraction", "0.1", "--trials", "2", "--seed", "5"],
        ["sweep", "--side", "16", "--targets", "1,6", "--na-min", "6", "--na-max", "10",
         "--na-step", "2"],
    ],
    ids=["scale", "scale-m-list", "density", "sweep"],
)
def test_scale_workers_flag_matches_serial(tmp_path, argv):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(argv + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


@pytest.mark.parametrize("command", ["scale", "density", "sweep"])
def test_commands_write_what_the_protocols_return(tmp_path, command):
    # the CLI writes the records of a protocol's jobs as run_jobs returns them
    out = tmp_path / "out.csv"
    if command == "scale":
        argv = ["scale", "--sides", "16", "--m", "2", "--na-rule", "8.5M", "--trials", "2",
                "--mode", "grid", "--seed", "11"]
        jobs = experiments.trial_jobs([(16, 2)], "8.5M", 2, 11, edge_mode=EdgeMode.GRID)
    elif command == "density":
        argv = ["density", "--sides", "16", "--fraction", "0.1", "--trials", "2",
                "--seed", "5"]
        jobs = experiments.density_jobs([16], 0.1, 2, 5)
    else:
        argv = ["sweep", "--side", "16", "--targets", "1,6;9,3", "--na-min", "10",
                "--na-max", "22", "--na-step", "4"]
        jobs = experiments.sweep_jobs(16, [(1, 6), (9, 3)], 10.0, 22.0, 4.0)
    expected = [result.record for result in experiments.run_jobs(jobs, 1)]
    if command == "sweep":
        sweep = experiments.SweepResult(tuple(expected))
        expected = [(p.na, p.peak_step, p.peak_probability, int(i == sweep.optimal_index))
                    for i, p in enumerate(sweep.points)]
    assert main(argv + ["--out", str(out)]) == 0
    if command == "sweep":
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(float(na), int(step), float(p), int(optimal))
                for na, step, p, optimal in rows] == expected
    else:
        assert read_records_csv(out) == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scale_keeps_records_before_a_failed_job(tmp_path, workers):
    # side 4 with four targets has no qualifying peak; the side-16 trials before it stay
    out = tmp_path / "records.csv"
    code = main([
        "scale", "--sides", "16,4", "--m", "4", "--na-rule", "8.5M", "--trials", "2",
        "--seed", "3", "--workers", workers, "--out", str(out),
    ])
    assert code == 3
    records = read_records_csv(out)
    assert [(r.side, r.trial) for r in records] == [(16, 0), (16, 1)]
    assert not (tmp_path / "records.manifest.json").exists()


#: Every subcommand's options: (type, default, required, choices, help) of each.
CLI_OPTIONS = {
    "simulate": {
        "--side": ("_side", None, True, None, None),
        "--targets": ("parse", None, True, None, None),
        "--na": ("float", None, True, None, "total self-loop weight N*a"),
        "--mode": (None, "hn4", False, ["hn4", "grid"], None),
        "--steps": ("_steps", "auto", False, None, None),
        "--out": (None, None, True, None, None),
    },
    "sweep": {
        "--side": ("_side", None, True, None, None),
        "--targets": ("parse", None, True, None, None),
        "--na-min": ("float", None, True, None, None),
        "--na-max": ("float", None, True, None, None),
        "--na-step": ("float", None, True, None, None),
        "--mode": (None, "hn4", False, ["hn4", "grid"], None),
        "--steps": ("_steps", "auto", False, None, None),
        "--out": (None, None, True, None, None),
        "--workers": ("_positive_int", 1, False, None, None),
    },
    "scale": {
        "--sides": ("parse", None, True, None, None),
        "--m": ("int", None, False, None, None),
        "--m-list": ("parse", None, False, None, None),
        "--na": ("float", None, False, None, None),
        "--na-rule": (None, None, False, None, "heuristic total weight, e.g. 8.5M"),
        "--trials": ("int", 10, False, None, None),
        "--mode": (None, "hn4", False, ["hn4", "grid"], None),
        "--out": (None, None, True, None, None),
        "--seed": ("int", 0, False, None, None),
        "--workers": ("_positive_int", 1, False, None, None),
    },
    "density": {
        "--sides": ("parse", None, True, None, None),
        "--fraction": ("float", None, True, None, None),
        "--trials": ("int", 10, False, None, None),
        "--out": (None, None, True, None, None),
        "--seed": ("int", 0, False, None, None),
        "--workers": ("_positive_int", 1, False, None, None),
    },
    "fit": {
        "--records": (None, None, True, None, None),
        "--model": (None, None, True, None, "sqrt or sqrtlog"),
        "--out": (None, None, True, None, None),
    },
}


def test_subcommands_keep_their_options():
    (subcommands,) = (action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {
        name: {
            ", ".join(action.option_strings): (
                getattr(action.type, "__name__", None), action.default, action.required,
                action.choices, action.help,
            )
            for action in sub._actions if not isinstance(action, argparse._HelpAction)
        }
        for name, sub in subcommands.choices.items()
    } == CLI_OPTIONS
    # scale takes exactly one of --m and --m-list, and one of --na and --na-rule
    assert [[action.dest for action in group._group_actions]
            for group in subcommands.choices["scale"]._mutually_exclusive_groups
            if group.required] == [["m", "m_list"], ["na", "na_rule"]]


def test_readme_cli_examples_parse():
    # every `hn4walk ...` example in README's fenced blocks must stay valid CLI input
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    examples = [shlex.split(line) for line in lines if line.startswith("hn4walk ")]
    assert {argv[1] for argv in examples} == {"simulate", "sweep", "scale", "density", "fit"}
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_readme_cli_section_names_only_accepted_flags():
    # every --flag in README's CLI section, prose included, is an option of some subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (subcommands,) = (action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {option for sub in subcommands.choices.values()
                for option in sub._option_string_actions}
    assert "--workers" in flags
    assert sorted(flags - accepted) == []
