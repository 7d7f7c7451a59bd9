"""tools/golden.py --check compares a fresh manifest with the committed one line by
line, and --keep DIR leaves the run's outputs in DIR."""

import hashlib
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(spec)
with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own runs only
    spec.loader.exec_module(golden)

COMMITTED = [
    f"{'a' * 64}  train/config.json",
    f"{'b' * 64}  train/run.json",
    f"{'c' * 64}  verify/reports.jsonl",
    "# risk_and_gradient calls, certify panel seed 0: 5648",
    "# risk_and_gradient calls, certify panel total: 5648",
]


@pytest.fixture
def root(tmp_path, monkeypatch):
    (tmp_path / "GOLDEN.sha256").write_text("\n".join(COMMITTED) + "\n", encoding="utf-8")
    monkeypatch.setattr(golden, "ROOT", tmp_path)
    return tmp_path


def test_an_identical_manifest_is_unchanged(root, capsys):
    assert golden.check(list(COMMITTED)) == 0
    assert capsys.readouterr().out == "manifest unchanged\n"


def test_each_moved_missing_and_new_line_is_listed(root, capsys):
    fresh = [
        f"{'d' * 64}  train/config.json",  # moved hash
        f"{'c' * 64}  verify/reports.jsonl",
        f"{'e' * 64}  verify/config.json",  # new; train/run.json is missing
        "# risk_and_gradient calls, certify panel seed 0: 5649",  # moved count
        "# risk_and_gradient calls, certify panel total: 5648",
    ]
    assert golden.check(fresh) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"moved:   {COMMITTED[0]}",
        f"     ->  {fresh[0]}",
        f"moved:   {COMMITTED[3]}",
        f"     ->  {fresh[3]}",
        f"missing: {COMMITTED[1]}",
        f"new:     {fresh[2]}",
        "manifest differs: 2 moved, 1 missing, 1 new",
    ]


def test_keep_leaves_the_run_directory_with_the_files_the_manifest_hashes(tmp_path, monkeypatch,
                                                                         capsys):
    monkeypatch.setattr(golden, "COMMANDS", (
        ["train", "--data", "iris.csv", "--has-header", "--hidden", "2", "--maxit", "3",
         "--seed", "1", "--out", "train"],
    ))
    monkeypatch.setattr(golden, "PANEL_SEEDS", ())
    keep = tmp_path / "run"
    assert golden.main(["--keep", str(keep)]) == 0
    hashed = dict(reversed(line.split("  ", 1)) for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("#"))
    assert "train/config.json" in hashed
    kept = {p.relative_to(keep).as_posix() for p in keep.rglob("*") if p.is_file()}
    assert kept == {*hashed, *golden.INPUTS}
    for path, digest in hashed.items():
        assert hashlib.sha256((keep / path).read_bytes()).hexdigest() == digest


def test_keep_refuses_a_directory_that_is_not_empty(tmp_path):
    (tmp_path / "stale.txt").write_text("old output", encoding="utf-8")
    with pytest.raises(SystemExit, match="not empty"):
        golden.manifest(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["stale.txt"]
