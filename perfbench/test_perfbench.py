"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

# cli is imported so that the snapshots below cover its attributes too.
from netgrow import autodiff, cli, data, incremental, net_core  # noqa: E402,F401

import tracer as tracing  # noqa: E402


def snapshot() -> dict:
    return {(m.__name__, attr): value
            for m in tracing.package_modules() for attr, value in vars(m).items()}


def test_tracer_wraps_callers_and_restores_every_wrapper():
    before = snapshot()
    descriptor = net_core.ParamVector.__dict__["from_layer_arrays"]
    problem = data.make_synthetic("polynomial", n=2, m=1, samples=20, seed=3)
    tracer = tracing.Tracer()
    started = time.perf_counter()
    with tracer:
        assert incremental.risk_and_gradient.__wrapped__ is autodiff.risk_and_gradient.__wrapped__
        assert incremental.risk_and_gradient.__wrapped__ is before[("netgrow.autodiff", "risk_and_gradient")]
        assert tracing.leaked_wrappers()
        incremental.ita_train(problem, incremental.ItaConfig(
            initial_width=2, max_width=4, total_epoch_budget=20))
    wall = time.perf_counter() - started

    assert snapshot() == before
    assert net_core.ParamVector.__dict__["from_layer_arrays"] is descriptor
    assert tracing.leaked_wrappers() == []

    metrics = tracing.layer_metrics(tracer, wall)
    assert metrics["incremental.cells"] == 1
    assert metrics["autodiff.risk_and_gradient.calls"] > 0
    assert metrics["net_core.from_layer_arrays.calls"] >= metrics["autodiff.risk_and_gradient.calls"]
    assert metrics["optimizer.line_search_strong_wolfe.calls"] > 0
    assert metrics["optimizer.evals_per_iter"] >= 1.0
    assert metrics["growth.grow_inert.calls"] >= 1
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.0 < layer_self <= wall


def test_a_fresh_process_sees_the_original_functions():
    code = (
        "import netgrow, tracer\n"
        "from netgrow import autodiff, incremental, cli, stationarity\n"
        "assert tracer.leaked_wrappers() == []\n"
        "for module in (incremental, cli, stationarity):\n"
        "    assert module.risk_and_gradient is autodiff.risk_and_gradient\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_traced_run_passes_its_own_checks():
    # The worker checks, among others, that the untraced process sees the
    # originals, that every wrapper is restored after the traced passes, and
    # that the layers' self times sum to no more than the traced wall time.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embed", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
