"""In-process ``main`` calls share one parser: built once, never changed by
``--config``, and the ``cmd_*`` function that runs is looked up on each call."""

import json

import numpy as np
import pytest

from netgrow import cli
from netgrow.bench import ResultsTable, save_results_tsv


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
