"""``verify --model`` refuses the checks that would certify another network.

``--transfer`` and ``--expect-escape`` search stationary points of a fixed
teacher network, so next to ``--model`` their records would read as if they
certified the saved model. Each pair is a usage error that exits 2 before
``--out`` is created. ``--data`` that does not fit the saved model exits 2
before it too.
"""

from pathlib import Path

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import save_model

IRIS = str(Path(__file__).parent / "data" / "iris.csv")


def _saved_model(tmp_path):
    topology = Topology((2, 3, 1))
    theta = ParamVector(topology, np.random.default_rng(9).uniform(-1, 1, param_count(topology)))
    path = tmp_path / "m.bin"
    save_model(theta, path)
    return path


@pytest.mark.parametrize("flags", [["--transfer"], ["--expect-escape"],
                                   ["--transfer", "--expect-escape"],
                                   ["--topologies", "9,9,9"]])
def test_teacher_checks_with_a_saved_model_are_a_usage_error(tmp_path, capsys, flags):
    model = _saved_model(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--model", str(model), *flags, "--seeds", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "--model" in err
    assert not out.exists()


def test_a_saved_model_alone_still_runs_its_risk_checks(tmp_path):
    model = _saved_model(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--model", str(model), "--seeds", "1", "--out", str(out)]) == 0
    assert (out / "reports.jsonl").read_text().count("\n") == 3  # one per map


def test_data_that_does_not_fit_the_model_leaves_no_output_directory(tmp_path, capsys):
    # iris's species column is one-hot coded into three targets; the model has one output
    topology = Topology((3, 4, 1))
    save_model(ParamVector(topology, np.zeros(param_count(topology))), tmp_path / "m.bin")
    out = tmp_path / "o"
    assert main(["verify", "--model", str(tmp_path / "m.bin"), "--data", IRIS, "--has-header",
                 "--out", str(out)]) == 2
    assert "targets must have shape (150, 1), got (150, 3)" in capsys.readouterr().err
    assert not out.exists()
