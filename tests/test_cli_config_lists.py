"""Repeatable flags under --config: command-line values replace the configured list,
and the configured list applies when the flag is absent. Without any value, bench
and profile exit 2 before creating their output directory, and so do profile when
two tables share a stem and bench and train on any other usage error."""

import json

import numpy as np
import pytest

from netgrow.bench import ResultsTable, save_results_tsv
from netgrow.cli import main

SYNTH_A = "synth:sinusoid:n=1,m=1,P=24,noise=0.05,seed=2"
SYNTH_B = "synth:teacher_net:n=2,m=1,P=24,noise=0.1,seed=3"
SYNTH_C = "synth:polynomial:n=2,m=1,P=24,seed=4"
BENCH_FLAGS = ["--replicas", "1", "--budgets", "4", "--std-width", "3",
               "--h0", "2", "--hmax", "3", "--seed", "1"]


def _tables(tmp_path):
    for budget, values in ((5, [[1.0, 2.0]]), (9, [[3.0, 1.0]])):
        table = ResultsTable(np.array(values), ("p#0",), ("standard", "ita"), budget)
        save_results_tsv(table, tmp_path / f"results_b{budget}.tsv")
    return str(tmp_path / "results_b5.tsv"), str(tmp_path / "results_b9.tsv")


def _profile_config(tmp_path, table):
    first = tmp_path / "p1"
    assert main(["profile", "--table", table, "--alphas", "1,2", "--out", str(first)]) == 0
    return str(first / "config.json")


def _echoed(out, key):
    return json.loads((out / "config.json").read_text())[key]


def _result_rows(out):
    return (out / "results_b4.tsv").read_text().splitlines()[1:]


def test_profile_table_flag_replaces_config_list(tmp_path):
    b5, b9 = _tables(tmp_path)
    config = _profile_config(tmp_path, b5)
    out = tmp_path / "p2"
    assert main(["--config", config, "profile", "--table", b9, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("profile_*.tsv")) == ["profile_results_b9.tsv"]
    assert _echoed(out, "table") == [b9]


def test_profile_table_from_config_when_flag_absent(tmp_path):
    b5, _ = _tables(tmp_path)
    config = _profile_config(tmp_path, b5)
    out = tmp_path / "p2"
    assert main(["--config", config, "profile", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("profile_*.tsv")) == ["profile_results_b5.tsv"]
    assert _echoed(out, "table") == [b5]
    assert ((tmp_path / "p1" / "profile_results_b5.tsv").read_bytes()
            == (out / "profile_results_b5.tsv").read_bytes())


def test_profile_without_any_table_exits_2(tmp_path, capsys):
    assert main(["profile", "--out", str(tmp_path / "p")]) == 2
    assert "--table" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_profile_tables_sharing_a_stem_exit_2(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    b5, _ = _tables(first)
    _tables(second)
    other = str(second / "results_b5.tsv")
    assert main(["profile", "--table", b5, "--table", other, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert b5 in err and other in err and "profile_results_b5.tsv" in err
    assert not (tmp_path / "p").exists()


BENCH_USAGE_ERRORS = {
    "no-problem": ([], "--problem"),
    "unknown-solver": (["--problem", SYNTH_A, "--solvers", "standard,sgd"], "'sgd'"),
    "zero-replicas": (["--problem", SYNTH_A, "--replicas", "0"], "replica"),
    "zero-budget": (["--problem", SYNTH_A, "--budgets", "0"], "budgets"),
    "no-budget": (["--problem", SYNTH_A, "--budgets", ","], "budgets"),
    "repeated-problem": (["--problem", SYNTH_A, "--problem", SYNTH_A], "duplicate problem"),
    "repeated-solver": (["--problem", SYNTH_A, "--solvers", "standard,standard"],
                        "duplicate solver"),
    "zero-std-width": (["--problem", SYNTH_A, "--std-width", "0"], "width"),
    "zero-std-tol": (["--problem", SYNTH_A, "--std-tol", "0"], "tol"),
    "nan-ita-delta": (["--problem", SYNTH_A, "--ita-delta", "nan"], "intermediate_loss_delta"),
}


@pytest.mark.parametrize("case", BENCH_USAGE_ERRORS, ids=list(BENCH_USAGE_ERRORS))
def test_bench_usage_errors_leave_no_output_directory(tmp_path, capsys, case):
    flags, expected = BENCH_USAGE_ERRORS[case]
    # Later flags win, so the case's own values override BENCH_FLAGS.
    assert main(["bench", *BENCH_FLAGS, *flags, "--out", str(tmp_path / "b")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flags, expected", [
    (["--hidden", "0"], "initial_width"),
    (["--maxit", "-1"], "maxit_per_stage"),
    (["--tol", "0"], "final_grad_tol"),
    (["--tol", "nan"], "final_grad_tol"),
    (["--data", "synth:sinusoid:noise=-0.1,P=5"], "noise must be a finite number >= 0, got -0.1"),
    (["--data", "synth:sinusoid:m=0"], "m must be >= 1, got 0"),
    (["--data", "synth:sinusoid:n=-1"], "n must be >= 1, got -1"),
    (["--data", "synth:sinusoid:n=0"], "n must be >= 1, got 0"),
], ids=["zero-hidden", "negative-maxit", "zero-tol", "nan-tol", "synth-negative-noise",
        "synth-zero-m", "synth-negative-n", "synth-zero-n"])
def test_train_usage_errors_leave_no_output_directory(tmp_path, capsys, flags, expected):
    # Later flags win, so a case's own --data replaces SYNTH_A.
    assert main(["train", "--data", SYNTH_A, *flags, "--out", str(tmp_path / "o")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_problem_flags_replace_config_list(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"problem": [SYNTH_A]}))
    out = tmp_path / "b"
    code = main(["--config", str(config), "bench", "--problem", SYNTH_B, "--problem", SYNTH_C,
                 *BENCH_FLAGS, "--out", str(out)])
    assert code == 0
    assert _echoed(out, "problem") == [SYNTH_B, SYNTH_C]
    assert len(_result_rows(out)) == 2 * 2  # 2 problems x 2 solvers, none from the config


def test_bench_problem_from_config_when_flag_absent(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"problem": [SYNTH_A]}))
    out = tmp_path / "b"
    assert main(["--config", str(config), "bench", *BENCH_FLAGS, "--out", str(out)]) == 0
    assert _echoed(out, "problem") == [SYNTH_A]
    assert len(_result_rows(out)) == 2
    # The configured list itself is left as it was for a later parse.
    assert json.loads(config.read_text())["problem"] == [SYNTH_A]
