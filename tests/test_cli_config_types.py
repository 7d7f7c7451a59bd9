"""A --config value must fit its flag's type, and every config.json a command writes replays.

argparse runs a flag's ``type`` only on string defaults, so a JSON value of the
wrong type would reach the command as it is. Each such value exits 2 before
``--out`` exists, with a message that names the key and the value.
"""

import json

import numpy as np
import pytest

from netgrow.bench import ResultsTable, save_results_tsv
from netgrow.cli import main

SYNTH = "synth:sinusoid:n=1,m=1,P=16,noise=0.05,seed=2"
TRAIN = ["train", "--data", SYNTH, "--hidden", "2", "--maxit", "3"]

WRONG_TYPES = {
    # an int flag takes a JSON integer, not a bool or a fraction
    "int-bool": (TRAIN[:3], {"hidden": True}, "'hidden' takes an integer, got true"),
    "int-fraction": (TRAIN[:3], {"hidden": 3.7}, "'hidden' takes an integer, got 3.7"),
    "seed-fraction": (TRAIN, {"seed": 1.5}, "'seed' takes an integer, got 1.5"),
    # a float flag takes a number, not a bool
    "float-bool": (TRAIN, {"tol": False}, "'tol' takes a number, got false"),
    # a store_true flag takes a bool
    "flag-string": (TRAIN, {"has_header": "no"}, "'has_header' takes true or false, got \"no\""),
    # a repeatable flag takes a list of strings
    "repeatable-string": (["bench"], {"problem": SYNTH},
                          f"'problem' takes a list of strings, got \"{SYNTH}\""),
    "repeatable-numbers": (["profile"], {"table": [1]}, "'table' takes a list of strings, got [1]"),
    # other flags take a string, or null where the default is null
    "string-number": (TRAIN, {"delimiter": 1}, "'delimiter' takes a string, got 1"),
    "string-null": (TRAIN, {"delimiter": None}, "'delimiter' takes a string, got null"),
    "target-cols-floats": (TRAIN, {"target_cols": [0.5]},
                           "'target_cols' takes a string or a list of integers, got [0.5]"),
    "nullable-int": (["ita", "--data", SYNTH], {"budget": "5"},
                     "'budget' takes an integer or null, got \"5\""),
}


@pytest.mark.parametrize("case", WRONG_TYPES, ids=list(WRONG_TYPES))
def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, case):
    argv, payload, message = WRONG_TYPES[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["--config", str(config), *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_null_is_taken_where_the_default_is_null(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"budget": None, "data": SYNTH}))
    out = tmp_path / "o"
    assert main(["--config", str(config), "ita", "--h0", "1", "--hmax", "2",
                 "--maxit-per-stage", "3", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["budget"] is None


def _table(tmp_path):
    table = ResultsTable(np.array([[1.0, 2.0]]), ("p#0",), ("standard", "ita"), 5)
    save_results_tsv(table, tmp_path / "results_b5.tsv")
    return str(tmp_path / "results_b5.tsv")


def _csv(tmp_path):
    data = tmp_path / "d.csv"
    rows = ["x,y,z"] + ["%.3f,%.3f,%.3f" % (i * 0.1, np.sin(i * 0.1), i * 0.05) for i in range(20)]
    data.write_text("\n".join(rows) + "\n")
    return str(data)


RUNS = {
    # target_cols is echoed as the list of indices it parsed to
    "train": lambda tmp: ["train", "--data", _csv(tmp), "--has-header", "--target-cols", "1,2",
                          "--hidden", "2", "--maxit", "3"],
    "ita": lambda tmp: ["ita", "--data", SYNTH, "--h0", "1", "--hmax", "2", "--budget", "6",
                        "--maxit-per-stage", "3"],
    "verify": lambda tmp: ["verify", "--maps", "inert", "--seeds", "1", "--topologies", "1,2,1"],
    "bench": lambda tmp: ["bench", "--problem", SYNTH, "--replicas", "1", "--budgets", "4",
                          "--std-width", "2", "--h0", "1", "--hmax", "2"],
    "profile": lambda tmp: ["profile", "--table", _table(tmp), "--alphas", "1,2"],
}


@pytest.mark.parametrize("command", RUNS)
def test_the_config_json_a_command_writes_replays(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*RUNS[command](tmp_path), "--out", str(first)]) == 0
    echoed = first / "config.json"
    assert main(["--config", str(echoed), command, "--out", str(second)]) == 0
    replayed = json.loads((second / "config.json").read_text())
    assert replayed == {**json.loads(echoed.read_text()), "out": str(second)}
