"""``verify --topologies`` names random networks only, and config.json replays.

A ``--model`` run echoes ``topologies: null``, so its config.json fed back
through ``--config`` runs the same checks; a random-network run echoes the
topologies it resolved, the defaults included.
"""

import json

import numpy as np

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import save_model


def test_a_model_run_config_replays_through_config(tmp_path):
    topology = Topology((2, 3, 1))
    model = tmp_path / "m.bin"
    save_model(ParamVector(topology, np.random.default_rng(9).uniform(-1, 1, param_count(topology))),
               model)
    first, second = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--model", str(model), "--seeds", "1", "--out", str(first)]) == 0
    assert json.loads((first / "config.json").read_text())["topologies"] is None
    assert main(["--config", str(first / "config.json"), "verify", "--out", str(second)]) == 0
    assert (second / "reports.jsonl").read_bytes() == (first / "reports.jsonl").read_bytes()


def test_a_random_run_echoes_the_default_topologies(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--maps", "inert", "--seeds", "1", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["topologies"] == "2,3,1;2,2,2,1;3,4,2"
    assert (out / "reports.jsonl").read_text().count("\n") == 3  # one per topology
