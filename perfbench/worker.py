"""One workload process: set up, run timed passes, check them, report.

run.py starts this script with BLAS pinned to one thread and ``src`` on the
import path. It prints one JSON object as its last line. With
``--setup-only`` it only sets up and reports ``setup_s``, so that run.py can
repeat the set-up in fresh processes (imports are paid once per process).

After one untimed warm-up pass, passes run back to back (a closed loop, one
client, jobs=1) until their summed time reaches ``--seconds`` and the last
cycle of passes is whole.
``wall_s`` is the time of one cycle (see :func:`cycle_time`). With
``--trace 1`` the passes run once with the tracer installed and then once
more, the same passes, without it; the difference of the two ``wall_s`` is
the tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_ERRORS = 20  # messages kept in the report; all failures are counted


def blas_threads() -> tuple[int | None, str]:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.restype = ctypes.c_int
                return int(function()), symbol
    return None, "no OpenBLAS library loaded"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_source": source,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Loop:
    """Runs and checks passes, counting operations and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_cycle: list = []
        self.last = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def run(self, seconds: float, hard_s: float, count: int | None = None, tracer=None):
        """Run passes 0, 1, ...; return ``(k, seconds, operations)`` per pass."""
        wl = self.workload
        done = []
        started = time.perf_counter()
        k = 0
        while True:
            if count is not None:
                if k >= count:
                    break
            elif sum(s for _, s, _ in done) >= seconds and k % wl.cycle == 0:
                break
            if time.perf_counter() - started >= hard_s:
                self.fail(f"stopped after {k} passes at the {hard_s:.0f} s limit")
                break
            try:
                with tracer if tracer is not None else nullcontext():
                    t = time.perf_counter()
                    result = wl.run_pass(k)
                    result.seconds = time.perf_counter() - t
            except Exception:
                self.attempted += 1
                self.fail(f"pass {k}: {traceback.format_exc(limit=3)}")
                break
            try:
                problems = wl.check(result)  # may count the pass's operations
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            result.ops = max(result.ops, 1)
            done.append((k, result.seconds, result.ops))
            self.attempted += result.ops
            if problems:
                self.fail(f"pass {k}: {'; '.join(problems)}", result.ops)
            if k < wl.cycle and len(self.first_cycle) == k:
                self.first_cycle.append(result)
            self.last = result
            k += 1
        return done

    def run_check(self, name: str, problems: list[str]) -> None:
        """A check made once per run; it counts as one attempted operation."""
        self.attempted += 1
        if problems:
            self.fail(f"{name}: {'; '.join(problems[:5])}")


def cycle_time(done, cycle: int) -> tuple[float, float]:
    """Median-based time of one whole cycle, and operations per second.

    Pass ``k`` is part ``k % cycle`` of a cycle. Each part's median time over
    its repeats is robust to the bursts of slowness a shared machine has;
    their sum is the time of one cycle.
    """
    wall = ops = 0.0
    for part in range(cycle):
        repeats = [(s, o) for k, s, o in done if k % cycle == part]
        wall += statistics.median(s for s, _ in repeats)
        ops += statistics.median(o for _, o in repeats)
    return wall, ops / wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--hard-seconds", type=float, default=120.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import netgrow
    import tracer as tracing
    from workloads import WORKLOADS

    out = Path(args.out)
    workload = WORKLOADS[args.workload](args.seed, out)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)
    # The source under test must be this checkout's, and an untraced process
    # must see the original functions.
    src = Path("src").resolve()
    loop.run_check("source", [] if Path(netgrow.__file__).resolve().is_relative_to(src)
                   else [f"netgrow imported from {netgrow.__file__}"])
    loop.run_check("untraced originals", tracing.leaked_wrappers())
    # Run pass 0 once untimed (it is still checked): the first pass in a
    # process pays for page faults while the allocator's heap grows (on sweep
    # about 180k faults, 0.3 s), and later passes do not.
    loop.run(0.0, args.hard_seconds, count=1)

    report: dict = {"setup_s": setup_s}
    if args.trace:
        tracer = tracing.Tracer()
        traced = loop.run(args.seconds, args.hard_seconds / 2, tracer=tracer)
        loop.run_check("wrappers restored", tracing.leaked_wrappers())
        done = loop.run(args.seconds, args.hard_seconds / 2, count=len(traced))
    else:
        traced = done = loop.run(args.seconds, args.hard_seconds)
    if min(len(traced), len(done)) < workload.cycle:
        print(f"no whole cycle of passes completed: {loop.errors}", file=sys.stderr)
        return 1
    if args.trace:
        traced_s = sum(s for _, s, _ in traced)
        per_layer = tracing.layer_metrics(tracer, traced_s)
        per_layer["trace.overhead_s"] = (
            cycle_time(traced, workload.cycle)[0] - cycle_time(done, workload.cycle)[0]
        )
        per_layer["trace.untraced_wall_s"] = sum(s for _, s, _ in done)
        layer_self = sum(per_layer[f"{layer}.self_s"] for layer in tracing.LAYERS)
        loop.run_check("self times within traced wall",
                       [] if layer_self <= traced_s else [f"{layer_self!r} > {traced_s!r}"])
        report["per_layer"] = per_layer
    try:
        spot = workload.spot_check(loop.first_cycle, loop.last)
        quality = workload.quality(loop.first_cycle)
    except Exception:
        spot, quality = [traceback.format_exc(limit=3)], {}
    loop.run_check("gradient spot check and round trips", spot)

    wall_s, ops_per_s = cycle_time(done, workload.cycle)
    report.update({
        "wall_s": wall_s,
        "ops_per_s": ops_per_s,
        "passes": len(done),
        "pass_seconds": [s for _, s, _ in done],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "quality": quality,
        "env": environment(),
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
