"""In-process ``main`` calls share one parser: built once, never changed by
``--config``, and the ``cmd_*`` function that runs is looked up on each call.
``--config`` is found by argparse itself, in either spelling, and never by prefix."""

import json

import numpy as np
import pytest

from netgrow import cli
from netgrow.bench import ResultsTable, save_results_tsv
from netgrow.model_io import load_model

SYNTH = "synth:sinusoid:n=1,m=1,P=16"


@pytest.fixture
def fresh_parser():
    """Drop the shared parser before and after the test, so it is built in the test."""
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


@pytest.fixture
def tables(tmp_path):
    paths = []
    for budget, values in ((5, [[1.0, 2.0]]), (9, [[3.0, 1.0]])):
        table = ResultsTable(np.array(values), ("p#0",), ("standard", "ita"), budget)
        save_results_tsv(table, tmp_path / f"results_b{budget}.tsv")
        paths.append(str(tmp_path / f"results_b{budget}.tsv"))
    return paths


def _config(out):
    return json.loads((out / "config.json").read_text())


def test_calls_without_config_build_the_parser_once(tmp_path, monkeypatch, fresh_parser, tables):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    for n in range(4):
        assert cli.main(["profile", "--table", tables[0], "--out", str(tmp_path / f"p{n}")]) == 0
    assert cli.main(["profile", "--out", str(tmp_path / "none")]) == 2
    assert len(built) == 1
    # A --config call parses with a parser of its own and leaves the shared one in place.
    config = str(tmp_path / "p0" / "config.json")
    assert cli.main(["--config", config, "profile", "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["profile", "--table", tables[1], "--out", str(tmp_path / "q")]) == 0
    assert len(built) == 2


def test_config_values_do_not_leak_into_later_calls(tmp_path, capsys, fresh_parser, tables):
    b5, b9 = tables
    assert cli.main(["profile", "--table", b5, "--alphas", "1,2", "--out", str(tmp_path / "p1")]) == 0
    config = str(tmp_path / "p1" / "config.json")
    assert cli.main(["--config", config, "profile", "--out", str(tmp_path / "p2")]) == 0
    assert _config(tmp_path / "p2")["alphas"] == "1,2"
    assert _config(tmp_path / "p2")["table"] == [b5]

    plain = tmp_path / "p3"
    assert cli.main(["profile", "--table", b9, "--out", str(plain)]) == 0
    assert _config(plain) == {"alphas": "10.0", "command": "profile", "config": None,
                              "out": str(plain), "table": [b9]}
    # The configured table list is not the default either: without --table, profile has none.
    capsys.readouterr()
    assert cli.main(["profile", "--out", str(tmp_path / "p4")]) == 2
    assert "--table" in capsys.readouterr().err
    assert not (tmp_path / "p4").exists()


def test_a_replaced_command_function_is_the_one_that_runs(tmp_path, monkeypatch, fresh_parser,
                                                          tables):
    assert cli.main(["profile", "--table", tables[0], "--out", str(tmp_path / "p")]) == 0
    seen = []

    def replacement(args):
        seen.append(args)
        return 7

    monkeypatch.setattr(cli, "cmd_profile", replacement)
    assert cli.main(["profile", "--table", tables[1], "--out", str(tmp_path / "q")]) == 7
    assert [(args.command, args.table) for args in seen] == [("profile", [tables[1]])]
    assert not (tmp_path / "q").exists()


def test_config_with_an_equals_sign_is_applied(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"hidden": 3, "maxit": 2}))
    joined, spaced = tmp_path / "joined", tmp_path / "spaced"
    assert cli.main([f"--config={config}", "train", "--data", SYNTH, "--out", str(joined)]) == 0
    assert cli.main(["--config", str(config), "train", "--data", SYNTH, "--out", str(spaced)]) == 0
    assert _config(joined)["hidden"] == 3 and _config(joined)["maxit"] == 2
    assert load_model(joined / "model.bin").topology.layer_sizes == (1, 3, 1)
    # Both spellings echo the same configuration.
    assert {**_config(joined), "out": None} == {**_config(spaced), "out": None}


def test_abbreviated_config_flag_exits_2_and_creates_no_out(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"hidden": 3, "maxit": 2}))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--conf", str(config), "train", "--data", SYNTH, "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
