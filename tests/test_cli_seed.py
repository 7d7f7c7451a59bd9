"""A negative ``--seed`` is a usage error of each command that seeds numpy with it.

``train``, ``ita``, ``embed`` and ``verify`` hand ``--seed`` to numpy, whose
generators take only seeds >= 0. Each exits 2 with a message that names the
flag, before it writes anything. ``bench`` mixes any integer into its cell
seeds, so it keeps taking a negative one.
"""

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import save_model

SYNTH = "synth:sinusoid:n=1,m=1,P=8"


def _saved_model(tmp_path):
    topology = Topology((1, 2, 1))
    theta = ParamVector(topology, np.random.default_rng(2).uniform(-1, 1, param_count(topology)))
    save_model(theta, tmp_path / "m.bin")
    return str(tmp_path / "m.bin")


@pytest.mark.parametrize("command", ["train", "ita", "embed", "verify"])
def test_a_negative_seed_names_the_flag_and_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "o"
    flags = {
        "train": ["--data", SYNTH, "--hidden", "2", "--out", str(out)],
        "ita": ["--data", SYNTH, "--h0", "1", "--hmax", "2", "--out", str(out)],
        "embed": ["--model", _saved_model(tmp_path), "--out-model", str(out)],
        "verify": ["--seeds", "1", "--out", str(out)],
    }[command]
    assert main([command, *flags, "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_seed_from_a_config_file_is_refused_too(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"seed": -4}')
    out = tmp_path / "o"
    assert main(["--config", str(config), "verify", "--seeds", "1", "--out", str(out)]) == 2
    assert "--seed must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()


def test_bench_takes_a_negative_seed(tmp_path):
    out = tmp_path / "b"
    assert main(["bench", "--problem", SYNTH, "--replicas", "1", "--budgets", "5",
                 "--std-width", "2", "--h0", "1", "--hmax", "2", "--seed", "-5",
                 "--out", str(out)]) == 0
    assert (out / "results_b5.tsv").exists()
