"""CLI paths around growth and configuration: verify plans, embed overrides, config
read-back, synthetic-spec keys, bench flags and NaN profile grids."""

import json

import numpy as np
import pytest

from netgrow import ParamVector, ResultsTable, Topology, param_count, save_results_tsv
from netgrow.cli import main
from netgrow.model_io import load_model, save_model

SYNTH = "synth:sinusoid:n=1,m=1,P=24,noise=0.05,seed=2"


@pytest.fixture
def model(tmp_path):
    topology = Topology((2, 4, 1))
    theta = ParamVector(topology, np.random.default_rng(3).uniform(-1, 1, param_count(topology)))
    save_model(theta, tmp_path / "m.bin")
    return theta, tmp_path / "m.bin"


def embed(model_path, out, *flags):
    return main(["embed", "--model", str(model_path), "--out-model", str(out), *flags])


def test_verify_plan_records(tmp_path):
    code = main(["verify", "--maps", "plan", "--topologies", "2,3,3,1", "--seeds", "2",
                 "--out", str(tmp_path / "v")])
    lines = (tmp_path / "v" / "reports.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert code == 0
    assert len(records) == 2
    assert {r["map"] for r in records} == {"plan[inert@1x1,split@2x2]"}
    assert all(r["verdict"] == "pass" for r in records)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embed_split_honours_source_without_shares(tmp_path, model, seed):
    theta, path = model
    assert embed(path, tmp_path / "g.bin", "--map", "split", "--source", "3", "--count", "2",
                 "--seed", str(seed)) == 0
    grown = load_model(tmp_path / "g.bin")
    rows = grown.layer_blocks()[0]
    assert np.array_equal(rows[4:], np.tile(theta.layer_blocks()[0][3], (2, 1)))
    column = theta.layer_blocks()[1][:, 1 + 3]
    assert np.allclose(grown.layer_blocks()[1][:, [4, 5, 6]], column[:, None] / 3)


@pytest.mark.parametrize("flags, expected", [
    (["--map", "split", "--source", "9"], "error:"),
    (["--map", "split", "--source", "9", "--shares", "0.5,0.5"], "error:"),
    (["--map", "inert", "--shares", "0.5,0.5"], "error:"),
    (["--map", "beta", "--source", "1"], "error:"),
    (["--map", "delta"], "error:"),
    (["--count", "0"], "error: --count must be >= 1, got 0"),
    (["--map", "split", "--shares", "1"], "error: --shares needs the source's share and one"),
    (["--map", "split", "--shares", ","], "error: --shares needs the source's share and one"),
    (["--map", "split", "--count", "3", "--shares", "0.5,0.5"],
     "error: --count 3 disagrees with --shares '0.5,0.5', which sets the count to 1"),
], ids=["source-out-of-range", "source-out-of-range-with-shares", "shares-on-inert",
        "source-on-constant", "unknown-map", "zero-count", "one-share", "no-shares",
        "count-disagrees-with-shares"])
def test_embed_rejects_bad_overrides(tmp_path, model, capsys, flags, expected):
    _, path = model
    assert embed(path, tmp_path / "g.bin", *flags) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "g.bin").exists()


@pytest.mark.parametrize("flags, added", [
    ([], 1),
    (["--count", "2"], 2),
    (["--shares", "0.2,0.3,0.5"], 2),
    (["--count", "2", "--shares", "0.2,0.3,0.5"], 2),
], ids=["default", "count", "shares", "count-agrees-with-shares"])
def test_embed_split_count(tmp_path, model, flags, added):
    _, path = model
    assert embed(path, tmp_path / "g.bin", "--map", "split", *flags) == 0
    assert load_model(tmp_path / "g.bin").topology.layer_sizes == (2, 4 + added, 1)


def test_config_json_reruns_its_command(tmp_path):
    first = tmp_path / "a"
    assert main(["train", "--data", SYNTH, "--hidden", "5", "--maxit", "12", "--seed", "3",
                 "--out", str(first)]) == 0
    second = tmp_path / "b"
    assert main(["--config", str(first / "config.json"), "train", "--out", str(second)]) == 0
    for name in ("metrics.jsonl", "model.bin"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_config_json_of_another_command_exits_2(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["train", "--data", SYNTH, "--hidden", "3", "--maxit", "2",
                 "--out", str(first)]) == 0
    capsys.readouterr()
    code = main(["--config", str(first / "config.json"), "ita", "--out", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert code == 2
    assert "'train'" in err and "'ita'" in err


@pytest.mark.parametrize("key", ["nosie", "widht"])
def test_synth_spec_rejects_unknown_keys(tmp_path, capsys, key):
    spec = f"synth:polynomial:n=2,m=1,P=30,{key}=0.5"
    code = main(["train", "--data", spec, "--hidden", "2", "--maxit", "2",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert repr(key) in err
    assert "n, m, P, samples, noise, seed, width, name" in err


def test_bench_takes_no_data_flag(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--data", str(tmp_path / "no-such.csv"), "--problem", SYNTH,
              "--out", str(tmp_path / "b")])
    assert exit_info.value.code == 2


def test_profile_nan_alpha_exits_2(tmp_path, capsys):
    table = ResultsTable(np.array([[1.0, 2.0]]), ("p#0",), ("standard", "ita"), 5)
    save_results_tsv(table, tmp_path / "results_b5.tsv")
    code = main(["profile", "--table", str(tmp_path / "results_b5.tsv"), "--alphas", "1,nan,2",
                 "--out", str(tmp_path / "p")])
    assert code == 2
    assert "alphas" in capsys.readouterr().err
    assert not (tmp_path / "p" / "profile_results_b5.tsv").exists()
