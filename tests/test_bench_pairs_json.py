"""tools/bench_pairs.py ends its output with the record as one JSON object."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _write(folder: Path, seed: int, wall: float) -> None:
    out = folder / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    report = {"failed": 0, "attempted": 4, "wall_s": wall, "ops_per_s": 4.0 / wall,
              "peak_rss_mb": 40.0, "setup_s": 0.2}
    (out / f"deep-seed{seed}-trace0.json").write_text(json.dumps(report))


def test_the_last_line_is_the_whole_record(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        _write(parent, seed, 1.0 + 0.01 * seed)
        _write(change, seed, 0.9 + 0.01 * seed)
    assert bench_pairs.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert lines[0].startswith("deep: 10 pairs")
    assert set(record) == {"deep"}
    deep = record["deep"]
    assert deep["seeds"] == list(range(1, 11)) and deep["failed"]["change"] == [0, 40]
    wall = deep["metrics"]["wall_s"]
    assert (wall["won"], wall["lost"], wall["bound"], wall["gain"]) == (10, 0, "within bound", "gain")
    assert wall["parent_runs"] == [1.0 + 0.01 * s for s in range(1, 11)]
    assert wall["change_runs"] == [0.9 + 0.01 * s for s in range(1, 11)]
    assert wall["parent_median"] == bench_pairs.statistics.median(wall["parent_runs"])
