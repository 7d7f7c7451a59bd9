"""Flag parsing and input errors that must exit 2 with a message naming the cause."""

import json
from pathlib import Path

import numpy as np
import pytest

from netgrow.cli import build_parser, main
from netgrow.data import ParseError, load_delimited

SYNTH = "synth:sinusoid:n=1,m=1,P=32,noise=0.05,seed=2"


@pytest.mark.parametrize("growth, widths", [("1", [2, 3, 4, 5]), ("2,1", [2, 4, 5])])
def test_bench_accepts_int_and_comma_list_growth(tmp_path, growth, widths):
    out = tmp_path / "b"
    code = main(["bench", "--problem", SYNTH, "--replicas", "1", "--budgets", "300",
                 "--std-width", "5", "--h0", "2", "--hmax", "5", "--growth", growth,
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
    seen = [r["width"] for r in records if r["solver"] == "ita" and r["epoch"] == 0]
    assert seen == widths


def test_ita_and_bench_share_the_growth_flag():
    subparsers = build_parser().subcommand_parsers
    helps = {
        name: next(a.help for a in subparsers[name]._actions if a.dest == "growth")
        for name in ("ita", "bench")
    }
    assert helps["ita"] == helps["bench"]


def test_bench_rejects_bad_growth(tmp_path, capsys):
    code = main(["bench", "--problem", SYNTH, "--replicas", "1", "--budgets", "5",
                 "--growth", "twice", "--out", str(tmp_path / "b")])
    assert code == 2
    assert "--growth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, column",
    [("1,2,3\n4,nan,6\n7,8,9\n", "feature"), ("1,2,3\n4,5,6\n7,8,inf\n", "target")],
)
def test_non_finite_cells_name_their_line(tmp_path, capsys, text, column):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_delimited(path)
    line = 2 if column == "feature" else 3
    assert info.value.line == line
    assert f"non-finite {column}" in str(info.value)
    code = main(["train", "--data", str(path), "--hidden", "2", "--maxit", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_profile_alphas_grid_end_below_one_exits_2(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("problem\tsolver\treplica\tbudget\tfinal_risk\n"
                     "p0\ta\t0\t10\t1.0\np0\tb\t0\t10\t2.0\n")
    code = main(["profile", "--table", str(table), "--alphas", "0.5",
                 "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--alphas" in err and ">= 1" in err
    assert not Path(tmp_path / "p" / "profile_t.tsv").exists()


@pytest.mark.parametrize("alphas, grid", [
    ("1.02", [1.0, 1.02]),
    ("1.0", [1.0]),
    ("1.5", list(np.linspace(1.0, 1.5, 11))),
    ("10.0", list(np.linspace(1.0, 10.0, 181))),
], ids=["end-below-one-step", "end-at-one", "short", "default"])
def test_profile_alphas_grid_ends_at_the_given_end(tmp_path, alphas, grid):
    table = tmp_path / "t.tsv"
    table.write_text("problem\tsolver\treplica\tbudget\tfinal_risk\n"
                     "p0\ta\t0\t10\t1.0\np0\tb\t0\t10\t2.0\n")
    assert main(["profile", "--table", str(table), "--alphas", alphas,
                 "--out", str(tmp_path / "p")]) == 0
    lines = (tmp_path / "p" / "profile_t.tsv").read_text().splitlines()[1:]
    assert [float(line.split("\t")[0]) for line in lines] == grid


TWO_ROWS = "p0\ta\t0\t10\t1.0\np0\tb\t0\t10\t2.0\n"


@pytest.mark.parametrize("rows, alphas, message", [
    ("p0\ta\t0\t10\t1.0\np0\tb\t0\t10\t2.0\n", "2.0,1.5", "alphas must be increasing"),
    ("p0\ta\t0\t10\t1.0\np0\tb\t0\t10\t2.0\n", ",", "--alphas is empty: ',' holds no number"),
    ("p0\ta\t0\t10\tinf\np0\tb\t0\t10\tinf\n", "2.0", "all solvers failed"),
    # at alpha = inf the failed cell of solver b would count as within alpha
    ("p0\ta\t0\t10\t1.0\np0\tb\t0\t10\tinf\n", "1,inf", "alphas must be finite"),
    # the library's alpha errors name the flag and the value given
    (TWO_ROWS, "2,1.5", "--alphas '2,1.5': alphas must be increasing and >= 1"),
    (TWO_ROWS, "1,inf", "--alphas '1,inf': alphas must be finite, got [1.0, inf]"),
    (TWO_ROWS, "1,nan", "--alphas '1,nan': alphas must be increasing and >= 1"),
], ids=["decreasing", "empty", "all-failed", "infinite", "flag-decreasing", "flag-infinite",
        "flag-nan"])
def test_profile_errors_leave_no_output_directory(tmp_path, capsys, rows, alphas, message):
    table = tmp_path / "t.tsv"
    table.write_text("problem\tsolver\treplica\tbudget\tfinal_risk\n" + rows)
    code = main(["profile", "--table", str(table), "--alphas", alphas,
                 "--out", str(tmp_path / "p")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_profile_reports_the_zero_risk_clamp(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("problem\tsolver\treplica\tbudget\tfinal_risk\n"
                     "p0\ta\t0\t10\t0.0\np0\tb\t0\t10\t2.0\n")
    code = main(["profile", "--table", str(table), "--alphas", "1,2",
                 "--out", str(tmp_path / "p")])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "t.tsv: zero-risk clamp applied on rows [0]", "wrote profile_t.tsv"]
    lines = (tmp_path / "p" / "profile_t.tsv").read_text().splitlines()
    assert lines == ["alpha\trho_a\trho_b", "1.0\t1.0\t0.0", "2.0\t1.0\t0.0"]


def test_profile_names_the_table_whose_row_every_solver_failed(tmp_path, capsys):
    good, dead = tmp_path / "t.tsv", tmp_path / "dead.tsv"
    header = "problem\tsolver\treplica\tbudget\tfinal_risk\n"
    good.write_text(header + TWO_ROWS)
    dead.write_text(header + "p0\ta\t0\t10\tinf\np0\tb\t0\t10\tinf\n")
    code = main(["profile", "--table", str(good), "--table", str(dead),
                 "--out", str(tmp_path / "p")])
    assert code == 2
    assert f"{dead}: all solvers failed on: ['p0#0']" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
