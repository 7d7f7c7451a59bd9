"""tools/bench_pairs.py pairs parent and change benchmark reports by seed."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())


def _write_runs(folder: Path, workload: str, runs: dict[int, dict]) -> None:
    out = folder / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    for seed, metrics in runs.items():
        report = {"failed": 0, "attempted": 10, "peak_rss_mb": 40.0, "setup_s": 1.0, **metrics}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(report))
    # traced reports and other files are not runs to pair
    (out / f"{workload}-seed1-trace1.json").write_text(json.dumps({"wall_s": 99.0}))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls_p = [4.0, 4.2, 4.4, 4.6, 4.8, 5.0, 5.2, 5.4, 5.6, 5.8]
    _write_runs(parent, "certify", {
        seed: {"wall_s": w, "ops_per_s": 10.0} for seed, w in enumerate(walls_p, start=1)})
    # the change is 30 % faster on every seed but one, and its ops_per_s is flat
    walls_c = [w * 0.7 for w in walls_p]
    walls_c[3] = 5.0
    _write_runs(change, "certify", {
        seed: {"wall_s": w, "ops_per_s": 10.0} for seed, w in enumerate(walls_c, start=1)})
    _write_runs(change, "certify", {11: {"wall_s": 1.0, "ops_per_s": 10.0}})
    _write_runs(parent, "embed", {1: {"wall_s": 0.2, "ops_per_s": 40.0},
                                  2: {"wall_s": 0.2, "ops_per_s": 40.0}})
    _write_runs(change, "embed", {1: {"wall_s": 0.3, "ops_per_s": 30.0},
                                  2: {"wall_s": 0.3, "ops_per_s": 20.0}})
    return parent, change


def test_pairs_by_seed_with_inclusive_quartiles_and_both_verdicts(checkouts):
    parent, change = checkouts
    summary = bench_pairs.summarize(
        bench_pairs.read_reports(parent), bench_pairs.read_reports(change), SPEC)

    certify = summary["certify"]
    assert certify["seeds"] == list(range(1, 11))
    assert certify["unpaired"] == [11]
    assert certify["failed"] == {"parent": [0, 100], "change": [0, 100]}
    wall = certify["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(4.9)
    # inclusive quartiles of 4.0..5.8 in steps of 0.2: 4.45 and 5.35
    assert wall["parent_iqr"] == pytest.approx(0.9)
    assert (wall["won"], wall["lost"], wall["pairs"]) == (9, 1, 10)
    assert wall["bound"] == "within bound" and wall["gain"] == "gain"
    flat = certify["metrics"]["ops_per_s"]
    assert (flat["won"], flat["lost"]) == (0, 0)
    assert flat["bound"] == "within bound" and flat["gain"] == "no gain"

    embed = summary["embed"]["metrics"]
    assert embed["wall_s"]["bound"] == "worse beyond bound"  # 0.3 s against 0.2 s
    assert embed["ops_per_s"]["bound"] == "worse beyond bound"  # higher is better
    assert embed["wall_s"]["lost"] == 2 and embed["wall_s"]["gain"] == "no gain"


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    m = bench_pairs.compare([1.0, 2.0, 3.0], [0.9, 1.9, 2.9], "lower", 0.25)
    assert (m["won"], m["gain"]) == (3, "no gain")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 1.0 on a median of 2.0 is wider than a 0.25 bound
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]
    m = bench_pairs.compare(parent, [1.1, 1.4, 2.1, 2.4, 3.1], "lower", 0.25)
    assert m["bound"] == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.compare(parent, [0.5, 0.6, 0.7, 0.8, 0.9], "lower", 0.25)["bound"] \
        == "within bound"
    assert bench_pairs.compare(parent, [3.5, 4.0, 3.2, 3.3, 3.4], "higher", 0.25)["bound"] \
        == "within bound"
    assert bench_pairs.compare(parent, [3.5, 4.0, 3.2, 3.3, 1.2], "higher", 0.25)["bound"] \
        == "unresolved"
    # a median worse beyond the bound is reported as such, spread or not
    assert bench_pairs.compare(parent, [5.0, 5.0, 5.0, 5.0, 5.0], "lower", 0.25)["bound"] \
        == "worse beyond bound"


def test_more_failed_operations_on_the_change_is_no_gain(checkouts, capsys):
    parent, change = checkouts
    report = change / ".perfbench_out" / "certify-seed2-trace0.json"
    report.write_text(json.dumps({**json.loads(report.read_text()), "failed": 1}))
    summary = bench_pairs.summarize(
        bench_pairs.read_reports(parent), bench_pairs.read_reports(change), SPEC)
    certify = summary["certify"]
    assert certify["failed"]["change"] == [1, 100] and certify["more_failures"]
    wall = certify["metrics"]["wall_s"]
    assert (wall["won"], wall["bound"], wall["gain"]) == (9, "within bound", "no gain")

    for file in (parent / ".perfbench_out").glob("embed-*"):
        file.unlink()
    assert bench_pairs.main([str(parent), str(change)]) == 1  # certify fails more often
    assert "the change fails a larger share of operations" in capsys.readouterr().out


def test_command_line_table_and_exit_codes(checkouts, capsys, tmp_path):
    parent, change = checkouts
    args = [str(parent), str(change)]
    assert bench_pairs.main(args) == 1  # embed is worse beyond its bound
    table = capsys.readouterr().out
    assert "certify: 10 pairs" in table and "unpaired seeds left out: [11]" in table
    assert "won 9/10 lost 1  within bound, gain" in table

    for file in (parent / ".perfbench_out").glob("embed-*"):
        file.unlink()
    assert bench_pairs.main(args) == 0

    assert bench_pairs.main([str(tmp_path / "nowhere"), str(change)]) == 2
    assert bench_pairs.main([str(parent / ".perfbench_out"), str(change)]) == 2  # not a checkout
    (change / ".perfbench_out" / "certify-seed1-trace0.json").write_text('{"wall_s": 1.0}')
    assert bench_pairs.main(args) == 2  # a report without the other metrics


def test_mount_of_picks_the_deepest_and_latest_mount_holding_the_path(tmp_path):
    mounts = "\n".join([
        "/dev/vda / ext4 rw,relatime,discard 0 0",
        "tmpfs /mnt/a\\040b tmpfs rw,nosuid 0 0",
        "none /mnt/a\\040b/c overlay ro 0 0",
        "tmpfs /mnt/a\\040b tmpfs rw,noexec 0 0",
    ])
    assert bench_pairs.mount_of(Path("/mnt/a b/d/.perfbench_out"), mounts) == {
        "type": "tmpfs", "mount_point": "/mnt/a b", "options": "rw,noexec"}
    assert bench_pairs.mount_of(Path("/mnt/a b/c"), mounts)["type"] == "overlay"
    assert bench_pairs.mount_of(Path("/srv"), mounts)["options"] == "rw,relatime,discard"
    assert bench_pairs.mount_of(Path("/srv"), "") is None


def test_the_output_names_the_filesystem_of_each_side(checkouts, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "MOUNTS", Path("/nonexistent/mounts"))
    bench_pairs.main([str(p) for p in checkouts])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:-1] == ["parent reports on an unknown filesystem",
                            "change reports on an unknown filesystem"]


@pytest.mark.parametrize("text, problem", [
    ('{"wall\x01_s": 1.0}', "Invalid control character"),
    ('{"attempted": 10, "wall_s": 1.0, "ops_per_s": 10.0, "peak_rss_mb": 40.0, "setup_s": 1.0}',
     "the report lacks ['failed']"),
    ('{"attempted": 10, "failed": 0, "wall_s": 1.0, "ops_per_s": 10.0, "peak_rss_mb": 40.0}',
     "the report lacks ['setup_s']"),
    ("[]", "the report lacks ['attempted', 'failed', 'wall_s'"),
], ids=["not-json", "no-failed", "no-metric", "not-an-object"])
def test_a_bad_report_is_named_and_exits_2(checkouts, capsys, text, problem):
    parent, change = checkouts
    report = change / ".perfbench_out" / "certify-seed2-trace0.json"
    report.write_text(text)
    assert bench_pairs.main([str(parent), str(change)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: ") and problem in err
