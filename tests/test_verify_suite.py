"""The certification suite lives in ``stationarity``; ``netgrow verify`` only chains it.

Each check family is a generator of report records. The command validates its
flags before it creates ``--out``, so a usage error leaves nothing behind, and
it reaches the search and check functions through their ``stationarity``
module names, where a tracer or a monkeypatch can see them.
"""

import json
from itertools import chain

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count, stationarity
from netgrow.cli import main
from netgrow.model_io import save_model
from netgrow.stationarity import (
    control_records,
    escape_records,
    model_risk_records,
    risk_records,
    transfer_records,
)

DEFAULT_TOPOLOGIES = [Topology((2, 3, 1)), Topology((2, 2, 2, 1)), Topology((3, 4, 2))]
DEFAULT_KINDS = ["inert", "constant", "split"]


def _saved_model(tmp_path):
    topology = Topology((1, 3, 1))
    theta = ParamVector(topology, np.random.default_rng(4).uniform(-1, 1, param_count(topology)))
    path = tmp_path / "source.bin"
    save_model(theta, path)
    return theta, path


def _written(out):
    return [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]


def _as_written(records):
    # what a record reads as after a trip through reports.jsonl
    return [json.loads(json.dumps(record, sort_keys=True)) for record in records]


@pytest.mark.parametrize("flags", [
    ["--seeds", "0"],
    ["--maps", "bogus"],
    ["--topologies", "2,x,1"],
    ["--topologies", "2,1"],
    ["--model", "missing.bin"],
])
def test_a_usage_error_leaves_no_out_directory(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", *flags, "--out", "v"]) == 2
    assert not (tmp_path / "v").exists()


def test_negative_controls_with_a_saved_model_are_a_usage_error(tmp_path, capsys):
    _, model = _saved_model(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--model", str(model), "--negative-controls", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--negative-controls" in err and "--model" in err
    assert not out.exists()


def test_data_without_a_saved_model_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "v"
    data = "synth:teacher_net:n=9,m=1,P=20,seed=1"
    assert main(["verify", "--data", data, "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--data" in err and "--model" in err
    assert not out.exists()


def test_the_command_writes_what_the_suite_yields(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--seeds", "2", "--negative-controls", "--transfer",
                 "--expect-escape", "--seed", "3", "--out", str(out)])
    assert code == 0
    direct = chain(
        risk_records(DEFAULT_TOPOLOGIES, DEFAULT_KINDS, 2, 3),
        control_records(DEFAULT_TOPOLOGIES, 3),
        transfer_records(2, 3),
        escape_records(3),
    )
    written = _written(out)
    assert written == _as_written(direct)
    families = [(r["check"], bool(r.get("control"))) for r in written]
    assert families.count(("risk", False)) == 3 * 3 * 2
    assert families.count(("risk", True)) == 3
    assert families.count(("gradient", False)) == 2 * 2
    assert families[-1] == ("escape", False)


def test_the_model_sweep_writes_what_the_suite_yields(tmp_path):
    theta, model = _saved_model(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--model", str(model), "--maps", "inert,beta,plan", "--seeds", "2",
                 "--seed", "5", "--out", str(out)]) == 0
    direct = model_risk_records(theta, None, str(model), ["inert", "constant", "plan"], 2, 5)
    written = _written(out)
    assert written == _as_written(direct)
    assert all(r["model"] == str(model) and r["topology"] == [1, 3, 1] for r in written)


@pytest.mark.parametrize("name", [
    "find_stationary_point", "verify_stationarity_transfer", "escape_rate", "transfer_safe_spec",
])
def test_the_command_reaches_the_module_level_function(tmp_path, monkeypatch, name):
    original = getattr(stationarity, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(stationarity, name, counted)
    assert main(["verify", "--maps", ",", "--transfer", "--expect-escape", "--seeds", "1",
                 "--out", str(tmp_path / "v")]) == 0
    assert calls
