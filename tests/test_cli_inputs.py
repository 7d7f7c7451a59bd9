"""Flag parsing and input errors that must exit 2 with a message naming the cause."""

import json
from pathlib import Path

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
