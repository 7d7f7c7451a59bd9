"""The results_b<B>.tsv format: one writer, one reader, errors with path:line."""

import re

import numpy as np
import pytest

from netgrow import ResultsTable, load_results_tsv, save_results_tsv
from netgrow.cli import main

HEADER = "problem\tsolver\treplica\tbudget\tfinal_risk"


def test_results_tsv_round_trip(tmp_path):
    table = ResultsTable(
        np.array([[0.5, np.inf], [1e-300, 2.0], [np.inf, 0.0]]),
        ("poly#0", "poly#1", "iris#data#0"),
        ("standard", "ita"),
        budget=500,
    )
    path = tmp_path / "results_b500.tsv"
    save_results_tsv(table, path)
    back = load_results_tsv(path)
    assert back.problem_ids == table.problem_ids
    assert back.solver_ids == table.solver_ids
    assert back.budget == 500
    assert np.array_equal(back.values, table.values)
    save_results_tsv(back, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_missing_cells_read_as_failures(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(f"{HEADER}\np\ta\t0\t9\t1.0\np\tb\t1\t9\t2.0\n")
    table = load_results_tsv(path)
    assert table.problem_ids == ("p#0", "p#1")
    assert np.array_equal(table.values, [[1.0, np.inf], [np.inf, 2.0]])


BAD_TABLES = {
    "short row": ("p\ta\t0\t9\t1.0", "p\tb\t0\t9"),
    "bad number": ("p\ta\t0\t9\t1.0", "p\tb\t0\t9\tabc"),
    "repeated cell": ("p\ta\t0\t9\t1.0", "p\ta\t0\t9\t2.0"),
    "mixed budgets": ("p\ta\t0\t9\t1.0", "p\tb\t0\t10\t2.0"),
    "nan risk": ("p\ta\t0\t9\t1.0", "p\tb\t0\t9\tnan"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_reader_names_the_bad_line(tmp_path, case):
    path = tmp_path / "t.tsv"
    path.write_text("\n".join([HEADER, *BAD_TABLES[case]]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
        load_results_tsv(path)


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_profile_exits_2_on_a_bad_table(tmp_path, capsys, case):
    path = tmp_path / "t.tsv"
    path.write_text("\n".join([HEADER, *BAD_TABLES[case]]) + "\n")
    code = main(["profile", "--table", str(path), "--out", str(tmp_path / "p")])
    assert code == 2
    assert f"{path}:3: " in capsys.readouterr().err
