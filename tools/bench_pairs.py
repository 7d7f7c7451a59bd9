"""Pair the benchmark runs of a parent and a change checkout, seed by seed.

    python3 tools/bench_pairs.py PARENT CHANGE

PARENT and CHANGE are checkouts holding the untraced reports
``.perfbench_out/<workload>-seed<n>-trace0.json`` that
``perfbench/run.py --trace 0`` writes. A run of seed ``n`` in one is paired
with the run of seed ``n`` in the other; seeds found on one side only are
listed and left out. The metrics, their direction and their bounds are the
``end_to_end`` entries of this checkout's ``BENCHMARK.json``.

For each workload and metric the tool prints both medians, the parent's IQR
(inclusive quartiles), how many pairs the change won and lost (a tie counts
as neither), and two verdicts:

- bound: "worse beyond bound" when the change's median is worse than the
  parent's by more than the metric's relative bound; else "unresolved" when
  the parent's IQR over its median is wider than the bound, unless every
  change run beats every parent run; else "within bound";
- gain: "gain" when the change won at least 9 of 10 pairs, its median is
  better than the parent's by more than the parent's IQR, and it fails no
  larger share of operations than the parent; else "no gain".

Each workload also gets its failed/attempted operation counts per side.
Before the record, one line per side names the filesystem type, mount point
and mount options of its ``.perfbench_out`` (from ``/proc/self/mounts``):
how fast a model file is written over an old one depends on them. The last
line of the output is the same record as one JSON object, keyed by
workload, with each metric's paired runs; a ``BENCH_<n>.json`` is built
from it. Exit codes: 0 when every metric is within its bound and no
workload fails a larger share of operations on the change, 1 otherwise, 2
for missing, unreadable or incomplete reports (the error names the file).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MOUNTS = Path("/proc/self/mounts")
REPORT = re.compile(r"^(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace0\.json$")
GAIN_SHARE = 0.9  # share of pairs the change must win for a claimed gain


def read_reports(checkout: Path, metrics=()) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: report}}`` for the untraced reports of ``checkout``;
    a report that is not a JSON object holding ``attempted``, ``failed`` and
    each of ``metrics`` is a ``ValueError`` that names its file."""
    folder = checkout / ".perfbench_out"
    if not folder.is_dir():
        raise FileNotFoundError(f"no .perfbench_out directory in {checkout}")
    reports: dict[str, dict[int, dict]] = {}
    for file in sorted(folder.iterdir()):
        match = REPORT.match(file.name)
        if match:
            try:
                report = json.loads(file.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ValueError(f"{file}: {exc}") from None
            missing = [key for key in ("attempted", "failed", *metrics)
                       if not isinstance(report, dict) or key not in report]
            if missing:
                raise ValueError(f"{file}: the report lacks {missing}")
            reports.setdefault(match["workload"], {})[int(match["seed"])] = report
    return reports


def mount_of(path: Path, mounts: str | None = None) -> dict | None:
    """``{"type", "mount_point", "options"}`` of the mount that holds ``path``,
    read from ``mounts`` (default: ``/proc/self/mounts``); None where that
    table cannot be read."""
    if mounts is None:
        try:
            mounts = MOUNTS.read_text(encoding="utf-8")
        except OSError:
            return None
    path, found = path.resolve(), None
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        # The table writes a space in a mount point as \040, a tab as \011.
        point = Path(re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), fields[1]))
        # A later mount on the same point hides the earlier one.
        if path.is_relative_to(point) and (found is None
                                           or len(point.parts) >= len(found[0].parts)):
            found = point, fields[2], fields[3]
    if found is None:
        return None
    return {"type": found[1], "mount_point": str(found[0]), "options": found[2]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, parent IQR, pairs won and lost, and the bound and gain verdicts."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is better
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (change_median - parent_median)  # > 0 means the change is worse
    if gap > bound * abs(parent_median):
        verdict = "worse beyond bound"
    elif (q3 - q1 > bound * abs(parent_median)
          and max(sign * c for c in change) >= min(sign * p for p in parent)):
        verdict = "unresolved"  # the parent's own spread is wider than the bound
    else:
        verdict = "within bound"
    gain = won >= GAIN_SHARE * len(parent) and -gap > q3 - q1
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else float("nan"),
        "parent_iqr": q3 - q1,
        "pairs": len(parent),
        "won": won,
        "lost": lost,
        "bound": verdict,
        "gain": "gain" if gain else "no gain",
        "parent_runs": parent,
        "change_runs": change,
    }


def summarize(parent: dict, change: dict, spec: dict) -> dict:
    """Per workload: paired seeds, unpaired seeds, failure counts and one entry per metric."""
    summary = {}
    for workload in sorted(set(parent) | set(change)):
        runs_p, runs_c = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(runs_p) & set(runs_c))
        failed = {side: [sum(runs[s][key] for s in seeds) for key in ("failed", "attempted")]
                  for side, runs in (("parent", runs_p), ("change", runs_c))}
        (pf, pa), (cf, ca) = failed["parent"], failed["change"]
        entry = {
            "seeds": seeds,
            "unpaired": sorted(set(runs_p) ^ set(runs_c)),
            "failed": failed,
            "more_failures": cf * pa > pf * ca,  # cf / ca > pf / pa without dividing by 0
            "metrics": {},
        }
        if seeds:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                m = compare(
                    [runs_p[s][name] for s in seeds], [runs_c[s][name] for s in seeds],
                    metric["better"], metric["bound"],
                )
                if entry["more_failures"]:
                    m["gain"] = "no gain"
                entry["metrics"][name] = m
        summary[workload] = entry
    return summary


def render(summary: dict, spec: dict) -> str:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = []
    for workload, entry in summary.items():
        (pf, pa), (cf, ca) = entry["failed"]["parent"], entry["failed"]["change"]
        lines.append(f"{workload}: {len(entry['seeds'])} pairs (seeds {entry['seeds']}); "
                     f"failed {pf}/{pa} parent, {cf}/{ca} change")
        if entry["more_failures"]:
            lines.append("  the change fails a larger share of operations")
        if entry["unpaired"]:
            lines.append(f"  unpaired seeds left out: {entry['unpaired']}")
        for name, m in entry["metrics"].items():
            lines.append(
                f"  {name:<12} parent {m['parent_median']:.6g} (IQR {m['parent_iqr']:.3g}) "
                f"change {m['change_median']:.6g} {units[name]}  x{m['ratio']:.3f}  "
                f"won {m['won']}/{m['pairs']} lost {m['lost']}  {m['bound']}, {m['gain']}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = [metric["name"] for metric in spec["end_to_end"]]
        summary = summarize(read_reports(args.parent, metrics),
                            read_reports(args.change, metrics), spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not any(entry["seeds"] for entry in summary.values()):
        print("error: no seed has a report on both sides", file=sys.stderr)
        return 2
    print(render(summary, spec))
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        mount = mount_of(checkout / ".perfbench_out")
        print(f"{side} reports on " + ("an unknown filesystem" if mount is None else
              "{type} at {mount_point} ({options})".format(**mount)))
    print(json.dumps(summary, sort_keys=True))
    failing = any(entry["more_failures"] or any(m["bound"] != "within bound"
                                                for m in entry["metrics"].values())
                  for entry in summary.values())
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
