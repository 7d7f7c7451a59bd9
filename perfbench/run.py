"""netgrow benchmark: one workload per call, each in its own process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``sweep`` (netgrow bench + profile on criterion 8's problems), ``deep``
(multi-layer grow-as-you-train), ``certify`` (netgrow verify with controls,
transfer and escape checks) and ``embed`` (a chain of netgrow embed calls on
a large saved model).

The workload runs in a child process (worker.py) with BLAS pinned to one
thread and this checkout's ``src`` on the import path. Set-up time is the
median over several fresh processes, since imports are paid once per
process. With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Lines before it give every metric with
its unit, ``fail_ratio`` with its base, the quality block (final risks and
profile values, not gated) and the environment. A traced run also prints
``detail`` lines: per-layer seconds (``*_s``), latencies (``us_*``) and
training-cell times, which read 0 on a workload that never makes the call
and so stay out of the result line. The full report of each run is written
to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.

Exit codes: 0 with a result (``correct`` false if any check failed), 1 when
the workload process failed or timed out, 2 for bad arguments or a directory
that is not a netgrow checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "deep", "certify", "embed")
SETUP_RUNS = 7  # set-up is measured in this many fresh processes (one is the workload's own)
LIMIT_S = 170.0  # a run must end within 180 s
HERE = Path(__file__).resolve().parent


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def child(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py and return the JSON object on its last output line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, root: Path) -> dict:
    started = time.monotonic()
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    pythonpath = [str(root / "src")]
    if env.get("PYTHONPATH"):
        pythonpath.append(env["PYTHONPATH"])
    env.update(
        PYTHONPATH=os.pathsep.join(pythonpath),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [
        child([*common, "--out", str(out / f"{name}-setup"), "--setup-only"], env, LIMIT_S / 4)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    remaining = LIMIT_S - (time.monotonic() - started)
    report = child(
        [*common, "--trace", str(trace), "--out", str(out / name),
         "--hard-seconds", str(max(remaining - 30.0, seconds))],
        env, remaining,
    )
    setups.append(report["setup_s"])
    report["setup_s"] = statistics.median(setups)
    report["setup_s_runs"] = setups
    return report


def result_line(report: dict, spec: dict, trace: int) -> dict:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    source = report.get("per_layer", {}) if trace else report
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in 1..60", 2)

    root = Path.cwd()
    if not (root / "src" / "netgrow" / "__init__.py").is_file():
        return fail(f"no netgrow source under {root / 'src'}; run from a checkout's root", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, args.trace, root)
            line = result_line(report, spec, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            return fail(f"{name}: {exc!r}", 1)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (root / ".perfbench_out" / f"{tag}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"== {tag}: {report['passes']} passes")
        print(f"env {json.dumps(report['env'], sort_keys=True)}")
        print(f"quality {json.dumps(report['quality'], sort_keys=True)}")
        print(f"fail_ratio {report['failed']}/{report['attempted']} "
              f"= {report['failed'] / report['attempted']:.4g}")
        for error in report["errors"]:
            print(f"failure: {error}")
        for metric, entry in line["metrics"].items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']}")
        for metric, value in report.get("per_layer", {}).items():
            if metric not in line["metrics"]:
                print(f"detail {metric} {value:.6g}")
        lines[name] = line

    if len(lines) == 1:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": entry for name, line in lines.items()
                        for metric, entry in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
