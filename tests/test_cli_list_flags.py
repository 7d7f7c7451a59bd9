"""Malformed comma-list flags exit 2 with a message naming the flag and the bad item."""

from pathlib import Path

import numpy as np
import pytest

from netgrow import ParamVector, ResultsTable, Topology, param_count, save_results_tsv
from netgrow.cli import main
from netgrow.model_io import save_model

IRIS = str(Path(__file__).parent / "data" / "iris.csv")
SYNTH = "synth:sinusoid:n=1,m=1,P=16,noise=0.05,seed=2"


@pytest.fixture
def files(tmp_path):
    topology = Topology((2, 3, 1))
    save_model(ParamVector(topology, np.zeros(param_count(topology))), tmp_path / "m.bin")
    table = ResultsTable(np.array([[1.0, 2.0]]), ("p#0",), ("standard", "ita"), 5)
    save_results_tsv(table, tmp_path / "results_b5.tsv")
    return tmp_path


@pytest.mark.parametrize("argv, expected", [
    (["bench", "--problem", SYNTH, "--budgets", "5,x", "--out", "{d}/o"], ["--budgets", "'x'"]),
    (["profile", "--table", "{d}/results_b5.tsv", "--alphas", "abc", "--out", "{d}/o"],
     ["--alphas", "'abc'"]),
    (["profile", "--table", "{d}/results_b5.tsv", "--alphas", "1,1.5,z", "--out", "{d}/o"],
     ["--alphas", "'z'"]),
    (["verify", "--topologies", "2,x,1", "--out", "{d}/o"], ["--topologies", "'x'"]),
    (["train", "--data", IRIS, "--has-header", "--target-cols", "1,x", "--out", "{d}/o"],
     ["--target-cols", "'x'"]),
    (["ita", "--data", SYNTH, "--growth", "2,x", "--out", "{d}/o"], ["--growth", "'x'"]),
    (["embed", "--model", "{d}/m.bin", "--out-model", "{d}/g.bin", "--map", "gamma",
      "--shares", "0.5,q"], ["--shares", "'q'"]),
    (["embed", "--model", "{d}/m.bin", "--out-model", "{d}/g.bin", "--count", "-2"],
     ["count must be >= 0"]),
], ids=["bench-budgets", "profile-alphas-end", "profile-alphas-list", "verify-topologies",
        "train-target-cols", "ita-growth", "embed-shares", "embed-negative-count"])
def test_malformed_list_flag_exits_2_naming_it(files, capsys, argv, expected):
    code = main([arg.format(d=files) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    for text in expected:
        assert text in err
    assert not (files / "g.bin").exists()
