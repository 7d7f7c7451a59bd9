"""A path that names a directory, or an output that already exists as a file, is a
usage error: exit 2 with an ``error:`` line, and nothing written.

``PermissionError`` is handled the same way, but these tests cannot provoke it
when they run as root.
"""

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import save_model

SYNTH = "synth:sinusoid:n=1,m=1,P=24,noise=0.05,seed=2"

CASES = {
    "embed-model-dir": ["embed", "--model", "{dir}", "--out-model", "{tmp}/g.bin"],
    "embed-out-model-dir": ["embed", "--model", "{tmp}/m.bin", "--out-model", "{dir}"],
    "train-data-dir": ["train", "--data", "{dir}", "--hidden", "2", "--out", "{tmp}/o"],
    "profile-table-dir": ["profile", "--table", "{dir}", "--out", "{tmp}/p"],
    "config-dir": ["--config", "{dir}", "train", "--data", SYNTH, "--out", "{tmp}/o"],
    "train-out-file": ["train", "--data", SYNTH, "--hidden", "2", "--out", "{tmp}/m.bin"],
}


def tree(root):
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_path_errors_exit_2_and_write_nothing(tmp_path, capsys, argv):
    topology = Topology((1, 2, 1))
    save_model(ParamVector(topology, np.ones(param_count(topology))), tmp_path / "m.bin")
    (tmp_path / "d").mkdir()
    before = tree(tmp_path)
    code = main([arg.format(tmp=tmp_path, dir=tmp_path / "d") for arg in argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ")
    assert tree(tmp_path) == before
