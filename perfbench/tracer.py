"""Outside-in span tracing of the netgrow layers.

A :class:`Tracer` wraps the public functions of each netgrow module at every
module attribute that refers to them. Modules bind their collaborators with
``from .autodiff import risk_and_gradient``, so a caller looks the function
up in its *own* module (``netgrow.incremental.risk_and_gradient``); wrapping
only the defining module would miss those calls. The classmethod
``ParamVector.from_layer_arrays`` is wrapped on the class. Leaving the
``with`` block puts every original object back.

Spans are kept in flat arrays (name, start, end, parent, time covered by
child spans, success flag) and turned into per-layer metrics by
:func:`layer_metrics`. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

# Functions to wrap, by module. A span is named "<module>.<function>",
# except that the CLI commands are named "cli.<command>".
TRACED = {
    "net_core": ("forward_batch", "empirical_risk"),
    "autodiff": ("risk_and_gradient", "gradient_forward", "gradient_finite_diff"),
    "optimizer": ("lbfgs_minimize", "line_search_strong_wolfe"),
    "growth": (
        "grow_inert", "grow_constant", "grow_split",
        "apply_growth", "apply_plan", "random_growth",
    ),
    "incremental": ("ita_train", "standard_train"),
    "stationarity": (
        "find_stationary_point", "verify_loss_invariance",
        "verify_stationarity_transfer", "escape_rate", "transfer_safe_spec",
    ),
    "bench": ("run_benchmark", "performance_ratio", "performance_profile", "summary_stats"),
    "data": ("load_delimited", "save_delimited", "standardize", "make_synthetic"),
    "model_io": ("load_model", "save_model", "load_model_text", "save_model_text"),
    "cli": (
        "main", "cmd_train", "cmd_ita", "cmd_embed",
        "cmd_verify", "cmd_bench", "cmd_profile",
    ),
}
LAYERS = tuple(TRACED)
CLASSMETHOD_SPAN = "net_core.from_layer_arrays"
# Arguments holding a model file path, so that model I/O can report bytes.
PATH_ARG = {"model_io.load_model": 0, "model_io.save_model": 1}

MARK = "__perfbench_original__"


def span_name(module: str, function: str) -> str:
    if module == "cli" and function.startswith("cmd_"):
        return "cli." + function[4:]
    return f"{module}.{function}"


def package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "netgrow" or n.startswith("netgrow.")]


def leaked_wrappers() -> list[str]:
    """Attributes of loaded netgrow modules that still hold a tracing wrapper."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
    param_vector = sys.modules["netgrow.net_core"].ParamVector
    if hasattr(param_vector.__dict__["from_layer_arrays"].__func__, MARK):
        found.append("netgrow.net_core.ParamVector.from_layer_arrays")
    return found


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")
        self.ok = array("b")
        self.bytes_by_name: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrapper_of: dict | None = None

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        path_arg = PATH_ARG.get(name)
        stack, name_of, start, end = self._stack, self.name_of, self.start, self.end
        parent, child, ok = self.parent, self.child, self.ok

        def wrapper(*args, **kwargs):
            span = len(name_of)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            child.append(0.0)
            ok.append(1)
            stack.append(span)
            end.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                ok[span] = 0
                raise
            finally:
                t1 = perf_counter()
                end[span] = t1
                stack.pop()
                if stack:
                    child[stack[-1]] += t1 - t0
                if path_arg is not None and ok[span]:
                    path = args[path_arg] if len(args) > path_arg else None
                    if path is not None:
                        self.bytes_by_name[name] = (
                            self.bytes_by_name.get(name, 0) + os.path.getsize(path)
                        )

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, fn)
        return wrapper

    def _build(self) -> None:
        self._wrapper_of = {}
        for module, functions in TRACED.items():
            mod = importlib.import_module(f"netgrow.{module}")
            for function in functions:
                fn = getattr(mod, function)
                self._wrapper_of[id(fn)] = (fn, self._wrap(fn, span_name(module, function)))
        descriptor = sys.modules["netgrow.net_core"].ParamVector.__dict__["from_layer_arrays"]
        self._classmethod = (descriptor, classmethod(self._wrap(descriptor.__func__, CLASSMETHOD_SPAN)))

    def __enter__(self) -> "Tracer":
        """Install the wrappers (built on first use, then reused so span names stay put)."""
        if self._wrapper_of is None:
            self._build()
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._wrapper_of.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        param_vector = sys.modules["netgrow.net_core"].ParamVector
        original, wrapped = self._classmethod
        self._restore.append((param_vector, "from_layer_arrays", original))
        param_vector.from_layer_arrays = wrapped
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# Percentiles tried, highest first, for a tail that has >= 10 samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it (else 50)."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; ``wall_s`` is the traced timed time."""
    import numpy as np

    n_names = len(tracer.names)
    name_of = np.frombuffer(tracer.name_of, dtype=np.uint16).astype(np.intp)
    parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.intp)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    self_time = duration - np.frombuffer(tracer.child)
    ok = np.frombuffer(tracer.ok, dtype=np.int8).astype(bool)
    index = {name: k for k, name in enumerate(tracer.names)}

    calls = np.bincount(name_of, minlength=n_names)
    self_by_name = np.bincount(name_of, weights=self_time, minlength=n_names)

    def of(name: str):
        k = index[name]
        return name_of == k, int(calls[k]), float(self_by_name[k])

    def parent_is(name: str):
        # parent == -1 (a root span) never matches a name index
        parent_name = np.where(parent >= 0, name_of[np.maximum(parent, 0)], -1)
        return parent_name == index[name]

    has_parent = parent >= 0

    def under(flag):
        """Spans with an ancestor for which ``flag`` holds (one level per step)."""
        below = np.zeros_like(flag)
        while True:
            up = np.zeros_like(flag)
            up[has_parent] = (flag | below)[parent[has_parent]]
            if np.array_equal(up, below):
                return below
            below = up

    out: dict[str, float] = {}
    layer_of_name = np.array([LAYERS.index(name.split(".", 1)[0]) for name in tracer.names])
    span_layer = layer_of_name[name_of]
    for k, layer in enumerate(LAYERS):
        mine = span_layer == k
        self_s = float(self_time[mine].sum())
        out[f"{layer}.calls"] = int(np.count_nonzero(mine))
        # Time inside the layer: its outermost spans, so nesting counts once.
        out[f"{layer}.total_s"] = float(duration[mine & ~under(mine)].sum())
        out[f"{layer}.self_s"] = self_s

    mask, n, s = of("autodiff.risk_and_gradient")
    grad_us = duration[mask] * 1e6
    out["autodiff.risk_and_gradient.calls"] = n
    out["autodiff.risk_and_gradient.self_s"] = s
    out["autodiff.risk_and_gradient.us_p50"] = float(np.percentile(grad_us, 50)) if n else 0.0
    out["autodiff.risk_and_gradient.us_p90"] = float(np.percentile(grad_us, 90)) if n else 0.0

    mask, n, s = of(CLASSMETHOD_SPAN)
    out["net_core.from_layer_arrays.calls"] = n
    out["net_core.from_layer_arrays.self_s"] = s
    out["net_core.from_layer_arrays.us_p50"] = (
        float(np.percentile(duration[mask], 50)) * 1e6 if n else 0.0
    )

    _, n, s = of("optimizer.lbfgs_minimize")
    out["optimizer.lbfgs_minimize.calls"] = n
    out["optimizer.lbfgs_minimize.self_s"] = s
    _, searches, s = of("optimizer.line_search_strong_wolfe")
    out["optimizer.line_search_strong_wolfe.calls"] = searches
    out["optimizer.line_search_strong_wolfe.self_s"] = s
    # Gradient evaluations made inside a line search.
    in_search = under(name_of == index["optimizer.line_search_strong_wolfe"])
    evals = int(np.count_nonzero(in_search & (name_of == index["autodiff.risk_and_gradient"])))
    out["optimizer.evals_per_iter"] = evals / searches if searches else 0.0

    for function in ("grow_inert", "apply_growth", "random_growth"):
        mask, n, s = of(f"growth.{function}")
        out[f"growth.{function}.calls"] = n
        out[f"growth.{function}.self_s"] = s
        out[f"growth.{function}.us_p50"] = (
            float(np.percentile(duration[mask], 50)) * 1e6 if n else 0.0
        )
    # Inclusive: the growth maps plus the repacking they call in net_core.
    out["growth.apply_growth.total_s"] = float(duration[of("growth.apply_growth")[0]].sum())

    io_self = 0.0
    for function in ("load_model", "save_model"):
        _, n, s = of(f"model_io.{function}")
        out[f"model_io.{function}.calls"] = n
        out[f"model_io.{function}.self_s"] = s
        io_self += s
    io_bytes = sum(tracer.bytes_by_name.values())
    out["model_io.mb_per_s"] = io_bytes / 1e6 / io_self if io_self > 0 else 0.0

    cells = np.sort(np.concatenate([
        duration[of("incremental.ita_train")[0]],
        duration[of("incremental.standard_train")[0]],
    ]))
    tail = tail_percentile(cells.size)
    out["incremental.cells"] = int(cells.size)
    out["incremental.cell_s_p50"] = float(np.percentile(cells, 50)) if cells.size else 0.0
    out["incremental.cell_s_tail"] = float(np.percentile(cells, tail)) if cells.size else 0.0
    out["incremental.cell_s_tail_pct"] = tail if cells.size else 0.0
    # ita_train itself calls risk_and_gradient once per growth draw (to test
    # that the gradient woke up) and lbfgs_minimize once per stage, so
    # rejected draws = draws - (stages - runs).
    _, runs, _ = of("incremental.ita_train")
    draws = int(np.count_nonzero(parent_is("incremental.ita_train")
                                 & (name_of == index["autodiff.risk_and_gradient"])))
    stages = int(np.count_nonzero(parent_is("incremental.ita_train")
                                  & (name_of == index["optimizer.lbfgs_minimize"])))
    out["incremental.growth_retries"] = draws - (stages - runs)

    mask, n, s = of("stationarity.find_stationary_point")
    out["stationarity.find_stationary_point.calls"] = n
    out["stationarity.find_stationary_point.self_s"] = s
    out["stationarity.search_hit_ratio"] = (
        int(np.count_nonzero(ok[mask])) / n if n else 0.0
    )
    for function in ("verify_loss_invariance", "verify_stationarity_transfer", "escape_rate"):
        _, n, s = of(f"stationarity.{function}")
        out[f"stationarity.{function}.calls"] = n
        out[f"stationarity.{function}.self_s"] = s

    for name in ("bench.run_benchmark", "bench.performance_profile", "cli.main",
                 "cli.bench", "cli.profile", "cli.verify", "cli.embed"):
        out[f"{name}.self_s"] = of(name)[2]

    out["trace.spans"] = int(name_of.size)
    out["trace.wall_s"] = wall_s
    out["trace.outside_share"] = (
        1.0 - float(self_time.sum()) / wall_s if wall_s > 0 else 0.0
    )
    # Every time spent in a layer or function also as a share of the wall time.
    for key in [k for k in out if k.endswith((".self_s", ".total_s"))]:
        out[key[:-2] + "_share"] = out[key] / wall_s if wall_s > 0 else 0.0
    return out
