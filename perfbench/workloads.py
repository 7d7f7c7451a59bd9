"""The four benchmark workloads.

Each workload is built from the run seed in its constructor (set-up), then
runs numbered passes. ``run_pass(k)`` is the timed work and returns a
:class:`Pass`; ``check(result)`` runs outside the timed section, right after
the pass, and returns one message per problem it found.
Passes form cycles of ``cycle`` parts (pass ``k`` is part ``k % cycle``);
``spot_check(first_cycle, last)`` and ``quality(first_cycle)`` run once after
the timed section. Pass ``k`` is the same work in every run with the same
seed, so the traced and untraced halves of a traced run repeat the same
passes, and the quality block, taken from the first cycle, is deterministic.

Every library call goes through a module attribute looked up at call time
(``cli.main``, ``incremental.ita_train``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from netgrow import autodiff, cli, data, incremental, model_io, net_core

IRIS = Path(__file__).resolve().parent / "data" / "iris.csv"
CONTINUITY_RTOL = 1e-12  # risk must not move across a growth boundary
EMBED_OUTPUT_RTOL = 1e-10  # growth maps keep the network function
GRAD_RTOL = 1e-5  # central differences vs the analytic gradient
FD_STEP = 1e-6


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed mixed from the run seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Pass:
    k: int
    ops: int
    seconds: float = 0.0
    payload: dict = field(default_factory=dict)


@contextlib.contextmanager
def quiet():
    """Send the CLI's progress lines to the null device."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        yield


def gradient_mismatches(theta, dataset, coords=None) -> list[str]:
    """Central-difference check of ``risk_and_gradient`` on some coordinates."""
    _, grad = autodiff.risk_and_gradient(theta, dataset)
    base = np.array(theta.flat)
    coords = range(base.size) if coords is None else coords
    bad = []
    for k in coords:
        bumped = base.copy()
        bumped[k] += FD_STEP
        up = net_core.empirical_risk(net_core.ParamVector(theta.topology, bumped), dataset)
        bumped[k] = base[k] - FD_STEP
        down = net_core.empirical_risk(net_core.ParamVector(theta.topology, bumped), dataset)
        fd = (up - down) / (2.0 * FD_STEP)
        if not abs(grad[k] - fd) <= GRAD_RTOL * (1.0 + abs(fd)):
            bad.append(f"gradient {theta.topology.layer_sizes}[{k}]: {float(grad[k])!r} vs {fd!r}")
    return bad


def spread_coords(size: int, count: int) -> list[int]:
    """A fixed, evenly spread subset of ``count`` coordinates, ends included."""
    return sorted({int(round(v)) for v in np.linspace(0, size - 1, count)})


def continuity_breaks(stage_risks) -> int:
    """Growth boundaries where the risk moved; ``stage_risks`` holds ``(start, end)`` per stage."""
    breaks = 0
    for (_, end_before), (start_after, _) in zip(stage_risks, stage_risks[1:]):
        if not abs(start_after - end_before) <= CONTINUITY_RTOL * (1.0 + abs(end_before)):
            breaks += 1
    return breaks


def geometric_mean(values) -> float:
    values = [float(v) for v in values]
    if min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Sweep:
    """``netgrow bench`` on criterion 8's five problems, then ``netgrow profile``."""

    cycle = 1
    problems = (
        "synth:polynomial:n=2,m=1,P=200,noise=0.2,seed=47,name=poly2",
        "synth:teacher_net:n=2,m=1,P=200,noise=0.1,seed=11,width=6,name=teacher6",
        "synth:sinusoid:n=2,m=2,P=150,noise=0.05,seed=14,name=sin22",
        "synth:polynomial:n=3,m=1,P=150,noise=0.1,seed=13,name=poly3",
        str(IRIS),
    )
    solvers = ("standard", "ita")
    budgets = (200, 500)

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        shutil.rmtree(out, ignore_errors=True)
        self.iris = data.standardize(data.load_delimited(IRIS, has_header=True))
        self.poly2 = data.standardize(data.make_synthetic(
            "polynomial", n=2, m=1, samples=200, noise=0.2, seed=47, name="poly2"))

    def run_pass(self, k: int) -> Pass:
        argv = ["bench"]
        for problem in self.problems:
            argv += ["--problem", problem]
        argv += [
            "--has-header", "--solvers", ",".join(self.solvers), "--std-width", "100",
            "--h0", "10", "--hmax", "100", "--ita-delta", "1e-4",
            "--budgets", ",".join(map(str, self.budgets)), "--replicas", "1",
            "--jobs", "1", "--seed", str(sub_seed(self.seed, k)), "--out", str(self.out),
        ]
        tables = [str(self.out / f"results_b{b}.tsv") for b in self.budgets]
        with quiet():
            code = cli.main(argv)
            code2 = cli.main(["profile", *(a for t in tables for a in ("--table", t)),
                              "--out", str(self.out / "profiles")])
        return Pass(k, len(self.problems) * len(self.solvers), payload={"codes": (code, code2)})

    def check(self, result: Pass) -> list[str]:
        out = self.out
        errors = [f"exit code {c}" for c in result.payload["codes"] if c != 0]
        failures = out / "failures.txt"
        if failures.exists() and failures.read_text(encoding="utf-8").strip():
            errors.append("failures.txt lists failed cells")
        finals = {}
        for budget in self.budgets:
            lines = (out / f"results_b{budget}.tsv").read_text(encoding="utf-8").splitlines()
            cells = {}
            for line in lines[1:]:
                problem, solver, _, _, risk = line.split("\t")
                cells[(problem, solver)] = float(risk)
            if len(cells) != len(self.problems) * len(self.solvers) or len(lines) != len(cells) + 1:
                errors.append(f"results_b{budget}.tsv: {len(lines) - 1} rows")
            if not all(math.isfinite(v) and v >= 0.0 for v in cells.values()):
                errors.append(f"results_b{budget}.tsv: non-finite risk")
            finals = cells  # the largest budget comes last: the final risks
        stages: dict[tuple, list] = {}
        for line in (out / "traces.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            cell = stages.setdefault((record["problem"], record["solver"]), [])
            if record["epoch"] == 0:
                cell.append([record["risk"], record["risk"]])
            cell[-1][1] = record["risk"]
        boundaries = sum(len(v) - 1 for v in stages.values())
        breaks = sum(continuity_breaks(v) for v in stages.values())
        if breaks or boundaries == 0:
            errors.append(f"risk continuity: {breaks} breaks over {boundaries} growths")
        rho_ita = {}
        for budget in self.budgets:
            path = out / "profiles" / f"profile_results_b{budget}.tsv"
            lines = path.read_text(encoding="utf-8").splitlines()
            header = lines[0].split("\t")
            rows = np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])
            rho = rows[:, 1:]
            if not (np.all((rho >= 0.0) & (rho <= 1.0)) and np.all(np.diff(rho, axis=0) >= 0.0)):
                errors.append(f"{path.name}: rho outside [0,1] or decreasing in alpha")
            at = int(np.argmin(np.abs(rows[:, 0] - 1.5)))
            rho_ita[budget] = float(rows[at, header.index("rho_ita")])
        result.payload.update(finals=finals, rho_ita=rho_ita)
        shutil.rmtree(out)
        return errors

    def quality(self, first_cycle) -> dict:
        payload = first_cycle[0].payload
        return {
            **{f"final_risk_gmean.{s}": geometric_mean(
                v for (_, solver), v in payload["finals"].items() if solver == s)
               for s in self.solvers},
            **{f"rho_ita_alpha1.5.b{b}": r for b, r in payload["rho_ita"].items()},
        }

    def spot_check(self, first_cycle, last: Pass) -> list[str]:
        rng = np.random.default_rng(sub_seed(self.seed, 1 << 20))
        bad = []
        for dataset in (self.poly2, self.iris):
            topology = net_core.Topology((dataset.n_inputs, 100, dataset.n_targets))
            theta = net_core.ParamVector(topology, rng.uniform(0.0, 1.0, net_core.param_count(topology)))
            bad += gradient_mismatches(theta, dataset)
        return bad


class Deep:
    """Multi-layer grow-as-you-train, where the gradient's P*H^3 cost dominates.

    A cycle is two passes: one ITA run on each problem.
    """

    runs = (((25, 25), 200), ((25, 25, 25), 40))  # (start widths, epoch budget)
    cycle = len(runs)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.datasets = (
            data.standardize(data.make_synthetic(
                "polynomial", n=2, m=1, samples=200, noise=0.2,
                seed=sub_seed(seed, 1), name="poly2")),
            data.standardize(data.make_synthetic(
                "sinusoid", n=4, m=3, samples=200, noise=0.05,
                seed=sub_seed(seed, 2), name="sin43")),
        )

    def run_pass(self, k: int) -> Pass:
        part = k % self.cycle
        widths, budget = self.runs[part]
        cfg = incremental.ItaConfig(
            initial_width=widths[0], max_width=100, initial_hidden_widths=widths,
            experimental_multilayer=True, total_epoch_budget=budget,
            seed=sub_seed(self.seed, k),
        )
        run = incremental.ita_train(self.datasets[part], cfg)
        return Pass(k, run.cumulative_epochs, payload={"run": run})

    def check(self, result: Pass) -> list[str]:
        run = result.payload["run"]
        errors = []
        if not all(math.isfinite(r) for r in run.loss_trace):
            errors.append("non-finite risk")
        stage_risks = [(s.start_risk, s.end_risk) for s in run.stages]
        breaks = continuity_breaks(stage_risks)
        if breaks or len(stage_risks) < 2:
            errors.append(f"{breaks} continuity breaks over {len(stage_risks) - 1} growths")
        return errors

    def quality(self, first_cycle) -> dict:
        return {"final_risk_gmean": geometric_mean(p.payload["run"].final_risk for p in first_cycle)}

    def spot_check(self, first_cycle, last: Pass) -> list[str]:
        bad = []
        for dataset, result in zip(self.datasets, first_cycle):
            theta = result.payload["run"].theta_final
            bad += gradient_mismatches(theta, dataset, spread_coords(len(theta), 24))
        return bad


class Certify:
    """``netgrow verify --negative-controls --transfer --expect-escape``, split in two calls.

    The risk sweep and negative controls use seeds drawn from the run seed.
    The stationary-point searches behind ``--transfer`` and ``--expect-escape``
    cost 0.2 to 3.6 s per verify seed, depending on how many of their starts
    fail to converge. They therefore run over a fixed panel of verify seeds,
    and a run completes whole panels, so every run does the same search work.
    Verify seed ``s`` starts its searches from seeds ``s+1, s+2, ...``; the
    panel's seeds lie far apart so that no two share a start.
    """

    panel = (0, 100, 200, 300)
    cycle = len(panel)

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, k: int) -> Pass:
        with quiet():
            codes = (
                cli.main(["verify", "--negative-controls", "--seed", str(sub_seed(self.seed, k)),
                          "--out", str(self.out / "risk")]),
                cli.main(["verify", "--maps", ",", "--transfer", "--expect-escape",
                          "--seed", str(self.panel[k % len(self.panel)]),
                          "--out", str(self.out / "search")]),
            )
        return Pass(k, 0, payload={"codes": codes})

    def check(self, result: Pass) -> list[str]:
        errors = [f"exit code {c}" for c in result.payload["codes"] if c != 0]
        records = [
            json.loads(line)
            for part in ("risk", "search")
            for line in (self.out / part / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        controls = [r for r in records if r.get("control")]
        checks = [r for r in records if not r.get("control")]
        result.ops = len(checks)
        errors += [f"check failed: {r}" for r in checks if r["verdict"] != "pass"]
        errors += [f"control passed: {r}" for r in controls if r["verdict"] != "fail"]
        kinds = {r["check"] for r in checks}
        if len(controls) != 3 or not {"risk", "gradient", "escape"} <= kinds:
            errors.append(f"missing checks: {len(controls)} controls, kinds {sorted(kinds)}")
        shutil.rmtree(self.out)
        return errors

    def quality(self, first_cycle) -> dict:
        return {}

    def spot_check(self, first_cycle, last: Pass) -> list[str]:
        rng = np.random.default_rng(sub_seed(self.seed, 1 << 20))
        bad = []
        for sizes in ((2, 3, 1), (2, 2, 2, 1), (3, 4, 2), (2, 2, 1), (2, 1, 1)):
            topology = net_core.Topology(sizes)
            theta = net_core.ParamVector(topology, rng.uniform(-1.0, 1.0, net_core.param_count(topology)))
            fixture = data.Dataset(rng.uniform(-2.0, 2.0, (16, sizes[0])),
                                   rng.uniform(-1.0, 1.0, (16, sizes[-1])))
            bad += gradient_mismatches(theta, fixture)
        return bad


class Embed:
    """A chain of ``netgrow embed`` calls on a saved model of ~540k parameters."""

    cycle = 1
    sizes = (16, 512, 512, 512, 8)
    # Each map meets each hidden layer once per chain.
    chain = (("alpha", 1), ("beta", 2), ("gamma", 3), ("alpha", 2), ("beta", 3),
             ("gamma", 1), ("alpha", 3), ("beta", 1), ("gamma", 2))

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(sub_seed(seed, 0))
        topology = net_core.Topology(self.sizes)
        scale = 1.0 / math.sqrt(max(self.sizes))
        self.start = net_core.ParamVector(
            topology, rng.uniform(-scale, scale, net_core.param_count(topology)))
        self.start_path = out / "start.bin"
        model_io.save_model(self.start, self.start_path)
        self.probe = data.Dataset(rng.uniform(-2.0, 2.0, (8, self.sizes[0])),
                                  rng.uniform(-1.0, 1.0, (8, self.sizes[-1])))
        self.start_outputs = net_core.forward_batch(self.start, self.probe.inputs)[-1]

    def run_pass(self, k: int) -> Pass:
        current, codes = self.start_path, []
        with quiet():
            for index, (kind, layer) in enumerate(self.chain):
                target = self.out / f"chain{index % 2}.bin"
                codes.append(cli.main([
                    "embed", "--model", str(current), "--out-model", str(target),
                    "--map", kind, "--layer", str(layer), "--count", "1",
                    "--seed", str(sub_seed(self.seed, k, index)),
                ]))
                current = target
        return Pass(k, len(self.chain), payload={"codes": codes, "final": current})

    def check(self, result: Pass) -> list[str]:
        errors = [f"exit code {c}" for c in result.payload["codes"] if c != 0]
        grown = model_io.load_model(result.payload["final"])
        expected = tuple(s + 3 if 0 < i < len(self.sizes) - 1 else s for i, s in enumerate(self.sizes))
        if grown.topology.layer_sizes != expected:
            errors.append(f"grown topology {grown.topology.layer_sizes}, expected {expected}")
        outputs = net_core.forward_batch(grown, self.probe.inputs)[-1]
        gap = np.abs(outputs - self.start_outputs) / (1.0 + np.abs(self.start_outputs))
        if not float(gap.max()) <= EMBED_OUTPUT_RTOL:
            errors.append(f"outputs moved by {float(gap.max())!r} (relative)")
        return errors

    def quality(self, first_cycle) -> dict:
        return {}

    def spot_check(self, first_cycle, last: Pass) -> list[str]:
        final = Path(last.payload["final"])
        grown = model_io.load_model(final)
        path = self.out / "roundtrip"
        model_io.save_model_text(grown, path.with_suffix(".txt"))
        text = model_io.load_model_text(path.with_suffix(".txt"))
        model_io.save_model(text, path.with_suffix(".bin"))
        bad = []
        if text.topology != grown.topology or not np.array_equal(text.flat, grown.flat):
            bad.append("text format does not round-trip")
        if path.with_suffix(".bin").read_bytes() != final.read_bytes():
            bad.append("binary format does not round-trip")
        small = data.Dataset(self.probe.inputs[:2], self.probe.targets[:2])
        return bad + gradient_mismatches(grown, small, spread_coords(len(grown), 24))


WORKLOADS = {"sweep": Sweep, "deep": Deep, "certify": Certify, "embed": Embed}
