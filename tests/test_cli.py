import json
from pathlib import Path

import numpy as np
import pytest

from netgrow import ParamVector, build_topology, cli, param_count, run_benchmark
from netgrow.cli import main
from netgrow.incremental import RISK_CONTINUITY_RTOL
from netgrow.model_io import load_model, load_model_text, save_model, save_model_text

IRIS = str(Path(__file__).parent / "data" / "iris.csv")
SYNTH = "synth:sinusoid:n=1,m=1,P=48,noise=0.05,seed=2"


def read_lines(path):
    return Path(path).read_text().splitlines()


def test_model_io_roundtrip(tmp_path):
    t = build_topology([3, 5, 2])
    theta = ParamVector(t, np.random.default_rng(0).standard_normal(param_count(t)))
    binary = tmp_path / "m.bin"
    text = tmp_path / "m.txt"
    save_model(theta, binary)
    save_model_text(theta, text)
    assert np.array_equal(load_model(binary).flat, theta.flat)
    assert load_model(binary).topology == t
    assert np.array_equal(load_model_text(text).flat, theta.flat)


def test_model_io_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a model")
    with pytest.raises(ValueError):
        load_model(bad)


def test_train_command_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", SYNTH, "--hidden", "8", "--maxit", "20",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("config.json", "metrics.jsonl", "model.bin", "model.txt", "summary.json"):
        assert (out / name).exists()
    records = [json.loads(line) for line in read_lines(out / "metrics.jsonl")]
    assert records[0]["epoch"] == 0
    assert len(records) == 21
    model = load_model(out / "model.bin")
    assert model.topology.layer_sizes == (1, 8, 1)


def test_train_missing_data_file_exits_2(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_determinism_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--data", SYNTH, "--hidden", "6", "--maxit", "15",
                     "--seed", "3", "--out", str(out)]) == 0
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()


def test_train_on_iris(tmp_path):
    out = tmp_path / "iris"
    code = main(["train", "--data", IRIS, "--has-header", "--hidden", "10",
                 "--maxit", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    model = load_model(out / "model.bin")
    assert model.topology.layer_sizes == (4, 10, 3)


def test_ita_command_stage_widths_and_continuity(tmp_path):
    out = tmp_path / "ita"
    code = main(["ita", "--data", SYNTH, "--h0", "2", "--hmax", "8",
                 "--maxit-per-stage", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(out / "metrics.jsonl")]
    widths = sorted({r["width"] for r in records})
    assert widths == [2, 4, 8]
    # boundary continuity is visible in the metrics stream
    by_stage = {}
    for r in records:
        by_stage.setdefault(r["stage"], []).append(r)
    stages = sorted(by_stage)
    for a, b in zip(stages, stages[1:]):
        last = by_stage[a][-1]["risk"]
        first = by_stage[b][0]["risk"]
        assert abs(first - last) <= 1e-12 * (1 + abs(last))


def test_ita_rejects_h0_above_hmax(tmp_path):
    code = main(["ita", "--data", SYNTH, "--h0", "200", "--hmax", "100",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_embed_command_grows_saved_model(tmp_path):
    out = tmp_path / "t"
    main(["train", "--data", SYNTH, "--hidden", "4", "--maxit", "5",
          "--seed", "1", "--out", str(out)])
    grown_path = tmp_path / "grown.bin"
    code = main(["embed", "--model", str(out / "model.bin"), "--out-model", str(grown_path),
                 "--map", "alpha", "--layer", "1", "--count", "3", "--seed", "2"])
    assert code == 0
    grown = load_model(grown_path)
    assert grown.topology.layer_sizes == (1, 7, 1)


def test_embed_split_with_shares(tmp_path):
    out = tmp_path / "t"
    main(["train", "--data", SYNTH, "--hidden", "4", "--maxit", "5",
          "--seed", "1", "--out", str(out)])
    grown_path = tmp_path / "g.bin"
    code = main(["embed", "--model", str(out / "model.bin"), "--out-model", str(grown_path),
                 "--map", "gamma", "--layer", "1", "--source", "0",
                 "--shares", "0.25,0.75"])
    assert code == 0
    assert load_model(grown_path).topology.layer_sizes == (1, 5, 1)


def test_verify_default_sweep_90_lines(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--seeds", "10", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(out / "reports.jsonl")]
    assert len(records) == 90
    assert all(r["verdict"] == "pass" for r in records)


def test_verify_negative_controls_fail_but_exit_zero(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--seeds", "2", "--negative-controls", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(out / "reports.jsonl")]
    controls = [r for r in records if r.get("control")]
    assert controls and all(r["verdict"] == "fail" for r in controls)


def test_verify_escape_check(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--seeds", "2", "--maps", "inert", "--expect-escape",
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(out / "reports.jsonl")]
    escape = [r for r in records if r["check"] == "escape"]
    assert len(escape) == 1
    assert escape[0]["verdict"] == "pass"
    assert escape[0]["escape_rate"] >= 0.9


def test_verify_transfer_suite(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--seeds", "3", "--maps", "constant", "--transfer",
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(out / "reports.jsonl")]
    transfer = [r for r in records if r["check"] == "gradient"]
    assert transfer and all(r["verdict"] == "pass" for r in transfer)


def test_bench_and_profile_pipeline(tmp_path):
    out = tmp_path / "b"
    code = main([
        "bench",
        "--problem", SYNTH,
        "--problem", "synth:teacher_net:n=2,m=1,P=48,noise=0.1,seed=3",
        "--replicas", "2", "--budgets", "10,20", "--std-width", "8",
        "--h0", "2", "--hmax", "8", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    assert (out / "results_b10.tsv").exists()
    assert (out / "results_b20.tsv").exists()
    assert (out / "stats.tsv").exists()
    assert (out / "traces.jsonl").exists()
    lines = read_lines(out / "results_b10.tsv")
    assert lines[0] == "problem\tsolver\treplica\tbudget\tfinal_risk"
    assert len(lines) == 1 + 2 * 2 * 2

    prof = tmp_path / "p"
    code = main(["profile", "--table", str(out / "results_b20.tsv"),
                 "--alphas", "1.0,1.5,2.0", "--out", str(prof)])
    assert code == 0
    plines = read_lines(prof / "profile_results_b20.tsv")
    assert plines[0] == "alpha\trho_standard\trho_ita"
    assert len(plines) == 4


def test_bench_stage_records_add_up_to_each_run(tmp_path, monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(run_benchmark(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_benchmark", recording)
    out = tmp_path / "b"
    assert main(["bench", "--problem", SYNTH, "--problem", IRIS, "--has-header",
                 "--replicas", "2", "--budgets", "15,40", "--std-width", "6", "--h0", "2",
                 "--hmax", "6", "--growth", "2", "--seed", "3", "--out", str(out)]) == 0
    runs = results[0].runs
    records = [json.loads(line) for line in read_lines(out / "stages.jsonl")]
    keys = [(r["problem"], r["replica"], r["solver"], r["stage"]) for r in records]
    assert keys == sorted(keys)
    assert len(records) == sum(len(run.stages) for run in runs.values())
    assert any(len(run.stages) > 1 for run in runs.values())
    for cell, run in runs.items():
        stages = [r for r in records if (r["problem"], r["replica"], r["solver"]) == cell]
        assert [r["stage"] for r in stages] == list(range(len(run.stages)))
        assert [r["widths"] for r in stages] == [list(s.widths) for s in run.stages]
        assert sum(r["iterations"] for r in stages) == run.cumulative_epochs
        for before, after in zip(stages, stages[1:]):
            # Inert growth keeps the risk, up to the bound ita_train asserts.
            assert after["start_risk"] == pytest.approx(
                before["end_risk"], rel=RISK_CONTINUITY_RTOL, abs=RISK_CONTINUITY_RTOL)


def test_bench_requires_two_solvers(tmp_path):
    code = main(["bench", "--problem", SYNTH, "--solvers", "standard",
                 "--replicas", "1", "--budgets", "5", "--out", str(tmp_path / "b")])
    assert code == 2


def test_profile_hand_example_table(tmp_path):
    table = tmp_path / "t.tsv"
    lines = ["problem\tsolver\treplica\tbudget\tfinal_risk"]
    for problem, values in (("p0", (2.0, 4.0)), ("p1", (3.0, 3.0))):
        for solver, value in zip(("a", "b"), values):
            lines.append(f"{problem}\t{solver}\t0\t100\t{value}")
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p"
    code = main(["profile", "--table", str(table), "--alphas", "1.0,2.0", "--out", str(out)])
    assert code == 0
    rows = read_lines(out / "profile_t.tsv")
    assert rows[1].split("\t") == ["1.0", "1.0", "0.5"]
    assert rows[2].split("\t") == ["2.0", "1.0", "1.0"]


def test_profile_empty_table_exits_2(tmp_path):
    empty = tmp_path / "e.tsv"
    empty.write_text("problem\tsolver\treplica\tbudget\tfinal_risk\n")
    code = main(["profile", "--table", str(empty), "--out", str(tmp_path / "p")])
    assert code == 2


def test_bench_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        code = main(["bench", "--problem", SYNTH, "--replicas", "1",
                     "--budgets", "8", "--std-width", "6", "--h0", "2", "--hmax", "6",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "results_b8.tsv").read_bytes() == (b / "results_b8.tsv").read_bytes()
    assert (a / "traces.jsonl").read_bytes() == (b / "traces.jsonl").read_bytes()
    assert (a / "stats.tsv").read_bytes() == (b / "stats.tsv").read_bytes()


def test_config_file_defaults_with_flag_override(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"hidden": 6, "maxit": 5, "seed": 9}))
    out = tmp_path / "o"
    code = main(["--config", str(config), "train", "--data", SYNTH,
                 "--maxit", "7", "--out", str(out)])
    assert code == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["hidden"] == 6  # from the config file
    assert effective["maxit"] == 7  # flag wins
    model = load_model(out / "model.bin")
    assert model.topology.layer_sizes == (1, 6, 1)


def test_config_file_unknown_key_exits_2(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mystery_knob": 1}))
    code = main(["--config", str(config), "train", "--data", SYNTH,
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_model_text_roundtrip_extreme_values(tmp_path):
    t = build_topology([1, 1])
    theta = ParamVector(t, np.array([1e-308, -1e308]))
    path = tmp_path / "m.txt"
    save_model_text(theta, path)
    assert np.array_equal(load_model_text(path).flat, theta.flat)


def test_train_with_target_column_indices(tmp_path):
    data = tmp_path / "d.csv"
    rows = ["%.3f,%.3f,%.3f" % (i * 0.1, i * 0.2, np.sin(i * 0.1)) for i in range(30)]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    code = main(["train", "--data", str(data), "--target-cols", "2",
                 "--hidden", "4", "--maxit", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert load_model(out / "model.bin").topology.layer_sizes == (2, 4, 1)


def test_verify_on_saved_model(tmp_path):
    out = tmp_path / "t"
    main(["train", "--data", SYNTH, "--hidden", "5", "--maxit", "10",
          "--seed", "1", "--out", str(out)])
    vout = tmp_path / "v"
    code = main(["verify", "--model", str(out / "model.bin"), "--data", SYNTH,
                 "--seeds", "3", "--out", str(vout)])
    assert code == 0
    records = [json.loads(line) for line in read_lines(vout / "reports.jsonl")]
    assert len(records) == 9  # 3 maps x 3 seeds on the one saved model
    assert all(r["verdict"] == "pass" for r in records)
    assert all(r["topology"] == [1, 5, 1] for r in records)
