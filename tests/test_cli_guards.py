"""Usage errors exit 2 with a clear message, and verify never passes vacuously."""

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from netgrow import ParamVector, build_topology, param_count
from netgrow.cli import UsageError, _check_jobs, main
from netgrow.model_io import load_model, save_model
from netgrow.stationarity import RISK_GAP_RTOL

SYNTH = "synth:sinusoid:n=1,m=1,P=24,noise=0.05,seed=2"


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_rejects_fewer_than_one_seed(tmp_path, seeds):
    assert main(["verify", "--seeds", seeds, "--out", str(tmp_path / "v")]) == 2


@pytest.mark.parametrize("extra", [[], ["--negative-controls"]])
def test_verify_without_checks_fails(tmp_path, capsys, extra):
    code = main(["verify", "--maps", ",", *extra, "--out", str(tmp_path / "v")])
    assert code == 1
    assert "no checks ran" in capsys.readouterr().err


def test_negative_controls_report_the_risk_gap(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--seeds", "1", "--maps", "inert", "--negative-controls",
                 "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    controls = [r for r in records if r.get("control")]
    assert len(controls) == 3
    for record in controls:
        assert (record["check"], record["expected"], record["verdict"]) == ("risk", "fail", "fail")
        assert record["risk_gap"] > RISK_GAP_RTOL * (1.0 + abs(record["source_risk"]))


def test_jobs_must_lie_between_one_and_the_cpu_count():
    cores = os.cpu_count() or 1
    _check_jobs(1)
    _check_jobs(cores)
    for jobs in (0, -1, cores + 1):
        with pytest.raises(UsageError, match="--jobs"):
            _check_jobs(jobs)


def test_bench_rejects_zero_jobs(tmp_path):
    code = main(["bench", "--problem", SYNTH, "--replicas", "1", "--budgets", "5",
                 "--jobs", "0", "--out", str(tmp_path / "b")])
    assert code == 2


@pytest.fixture
def model_file(tmp_path):
    t = build_topology([2, 3, 1])
    path = tmp_path / "m.bin"
    save_model(ParamVector(t, np.linspace(-1.0, 1.0, param_count(t))), path)
    return path


def test_load_model_rejects_an_oversized_header(model_file):
    raw = bytearray(model_file.read_bytes())
    struct.pack_into("<I", raw, 8, 10**6)
    model_file.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(str(model_file))):
        load_model(model_file)


def test_load_model_rejects_a_truncated_file(model_file):
    model_file.write_bytes(model_file.read_bytes()[:20])
    with pytest.raises(ValueError, match=re.escape(str(model_file))):
        load_model(model_file)


@pytest.mark.parametrize("keep", [20, 30])
def test_embed_exits_2_on_a_damaged_model(model_file, capsys, keep):
    model_file.write_bytes(model_file.read_bytes()[:keep])
    code = main(["embed", "--model", str(model_file),
                 "--out-model", str(Path(model_file).with_name("g.bin"))])
    assert code == 2
    assert str(model_file) in capsys.readouterr().err
