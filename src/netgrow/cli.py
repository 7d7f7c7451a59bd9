"""Batch command-line front end.

Subcommands: ``train`` (fixed width), ``ita`` (incremental widening),
``embed`` (grow a saved model), ``verify`` (invariance / gradient-transfer
sweeps), ``bench`` (multi-problem sweep) and ``profile`` (performance
profiles from a results table). Every command is deterministic under
``--seed`` and echoes its effective configuration into the output directory.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import model_io
from .autodiff import risk_and_gradient  # noqa: F401  (perfbench/test_perfbench.py looks it up here)
from .bench import (
    IncrementalSolver,
    StandardSolver,
    load_results_tsv,
    performance_profile,
    performance_ratio,
    run_benchmark,
    save_results_tsv,
    summary_stats,
)
from .data import Dataset, ParseError, load_delimited, make_synthetic, standardize
from .growth import (
    GrowthPlan,
    GrowthStep,
    SplitGrowth,
    apply_growth,
    random_growth,
)
from .incremental import ItaConfig, ita_train, standard_train
from .net_core import ParamVector, Topology, param_count
from .stationarity import (
    NonConvergenceError,
    escape_rate,
    find_stationary_point,
    risk_gap_report,
    transfer_safe_spec,
    verify_loss_invariance,
    verify_stationarity_transfer,
)

__all__ = ["main"]

# Accept the literature's greek names for the maps as aliases.
_MAP_ALIASES = {
    "alpha": "inert",
    "beta": "constant",
    "gamma": "split",
    "inert": "inert",
    "constant": "constant",
    "split": "split",
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def _out_dir(args: argparse.Namespace) -> Path:
    """Create ``--out`` and echo the effective configuration into it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    for key, value in payload.items():
        if isinstance(value, Path):
            payload[key] = str(value)
    _write_json(out / "config.json", payload)
    return out


def _load_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Apply --config JSON values as subcommand defaults; flags still override."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = Path(argv[at + 1])
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    argv = argv[:at] + argv[at + 2 :]
    command = next((token for token in argv if not token.startswith("-")), None)
    subparsers = getattr(parser, "subcommand_parsers", {})
    if command not in subparsers:
        raise UsageError("--config needs a subcommand to apply to")
    sub = subparsers[command]
    known = {action.dest for action in sub._actions}
    unknown = set(payload) - known
    if unknown:
        raise UsageError(
            f"config keys {sorted(unknown)} are not flags of the {command!r} command"
        )
    sub.set_defaults(**payload)
    return argv


def _parse_synth_spec(text: str) -> Dataset:
    # synth:kind:key=value,key=value
    parts = text.split(":", 2)
    if len(parts) < 2:
        raise UsageError(f"bad synthetic spec {text!r}")
    kind = parts[1]
    options = {}
    if len(parts) == 3 and parts[2]:
        for item in parts[2].split(","):
            if "=" not in item:
                raise UsageError(f"bad synthetic option {item!r} in {text!r}")
            key, value = item.split("=", 1)
            options[key.strip()] = value.strip()
    try:
        return make_synthetic(
            kind,
            n=int(options.get("n", 1)),
            m=int(options.get("m", 1)),
            samples=int(options.get("P", options.get("samples", 100))),
            noise=float(options.get("noise", 0.0)),
            seed=int(options.get("seed", 0)),
            teacher_width=int(options.get("width", 3)),
            name=options.get("name"),
        )
    except ValueError as exc:
        raise UsageError(f"synthetic spec {text!r}: {exc}") from None


def _resolve_dataset(args, spec: str | None = None) -> Dataset:
    text = spec if spec is not None else args.data
    if text is None:
        raise UsageError("no dataset given (use --data)")
    if text.startswith("synth:"):
        dataset = _parse_synth_spec(text)
    else:
        dataset = load_delimited(
            text,
            has_header=args.has_header,
            target_columns=args.target_cols,
            delimiter=args.delimiter,
        )
    if not args.no_standardize and dataset.n_samples >= 2:
        dataset = standardize(dataset)
    return dataset


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="dataset file or synth:kind:k=v,... spec")
    sub.add_argument("--has-header", action="store_true", help="skip the first line")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument(
        "--target-cols",
        default="last-1",
        help="'last-k' or comma-separated 0-based indices (default last-1)",
    )
    sub.add_argument(
        "--no-standardize",
        action="store_true",
        help="keep raw feature scales (standardization is on by default)",
    )


def _parse_target_cols(value):
    if isinstance(value, str) and not value.startswith("last-"):
        return [int(v) for v in value.split(",")]
    return value


def _add_growth_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--growth", default="double",
                     help="neurons added per stage: 'double', an int, or a comma list")


def _parse_growth(value) -> str | int | list[int]:
    if value == "double":
        return value
    try:
        amounts = [int(v) for v in str(value).split(",")]
    except ValueError:
        raise UsageError(
            f"--growth must be 'double', an int, or a comma list, got {value!r}"
        ) from None
    return amounts[0] if len(amounts) == 1 else amounts


def _save_run(out: Path, run) -> None:
    """Per-epoch metrics, the final model (binary and text) and a run summary."""
    _write_jsonl(out / "metrics.jsonl", run.epoch_records())
    model_io.save_model(run.theta_final, out / "model.bin")
    model_io.save_model_text(run.theta_final, out / "model.txt")
    _write_json(out / "summary.json", {
        "solver": run.solver,
        "cumulative_epochs": run.cumulative_epochs,
        "final_risk": run.final_risk,
        "stages": [
            {
                "widths": list(stage.widths),
                "start_risk": stage.start_risk,
                "end_risk": stage.end_risk,
                "end_grad_norm": stage.end_grad_norm,
                "iterations": stage.iterations,
                "termination": stage.termination,
            }
            for stage in run.stages
        ],
    })


def cmd_train(args) -> int:
    data = _resolve_dataset(args)
    out = _out_dir(args)
    run = standard_train(data, args.hidden, tol=args.tol, maxit=args.maxit, seed=args.seed)
    _save_run(out, run)
    print(f"final risk {run.final_risk!r} after {run.cumulative_epochs} epochs")
    return 0


def cmd_ita(args) -> int:
    data = _resolve_dataset(args)
    if args.h0 > args.hmax:
        raise UsageError(f"--h0 {args.h0} exceeds --hmax {args.hmax}")
    cfg = ItaConfig(
        initial_width=args.h0,
        max_width=args.hmax,
        growth=_parse_growth(args.growth),
        final_grad_tol=args.final_tol,
        maxit_per_stage=args.maxit_per_stage,
        seed=args.seed,
        total_epoch_budget=args.budget,
    )
    out = _out_dir(args)
    run = ita_train(data, cfg)
    _save_run(out, run)
    widths = ",".join(str(s.width) for s in run.stages)
    print(f"stage widths {widths}; final risk {run.final_risk!r} "
          f"after {run.cumulative_epochs} epochs")
    return 0


def cmd_embed(args) -> int:
    theta = model_io.load_model(args.model)
    kind = _MAP_ALIASES.get(args.map)
    if kind is None:
        raise UsageError(f"unknown --map {args.map!r}")
    rng = np.random.default_rng(args.seed)
    if kind == "split" and args.shares:
        shares = np.array([float(v) for v in args.shares.split(",")])
        source = args.source if args.source is not None else int(rng.integers(theta.topology.size(args.layer)))
        spec = SplitGrowth(args.layer, shares.size - 1, source, shares)
    else:
        spec = random_growth(kind, theta.topology, args.layer, args.count, rng)
    grown = apply_growth(theta, spec)
    model_io.save_model(grown, Path(args.out_model))
    print(
        f"{theta.topology.layer_sizes} -> {grown.topology.layer_sizes} "
        f"({len(grown) - len(theta)} new parameters)"
    )
    return 0


def _verify_fixture(topology: Topology, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(-2.0, 2.0, (16, topology.n_inputs)),
        rng.uniform(-1.0, 1.0, (16, topology.n_outputs)),
        name=f"verify-{seed}",
    )


def _verify_growth(kind: str, topology: Topology, rng) -> GrowthPlan | object:
    hidden = topology.depth - 1
    if kind == "plan":
        steps = [GrowthStep("inert", 1, 1)]
        if hidden >= 2:
            steps.append(GrowthStep("split", 2, 2))
        return GrowthPlan(tuple(steps))
    layer = int(rng.integers(1, hidden + 1))
    return random_growth(kind, topology, layer, int(rng.integers(1, 4)), rng)


def _stationary_points(topology: Topology, data: Dataset, first_seed: int, attempts: int):
    """Yield ``(seed, theta)`` for each start seed whose stationary-point search converges."""
    for seed in range(first_seed, first_seed + attempts):
        try:
            yield seed, find_stationary_point(topology, data, tol=1e-8, max_iter=3000, seed=seed)
        except NonConvergenceError:
            continue


def cmd_verify(args) -> int:
    out = _out_dir(args)
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    kinds = [_MAP_ALIASES.get(m.strip(), m.strip()) for m in args.maps.split(",") if m.strip()]
    for kind in kinds:
        if kind not in ("inert", "constant", "split", "plan"):
            raise UsageError(f"unknown map {kind!r}")

    reports = []

    # Risk-invariance cases: (topology, data, fixed network or None for a
    # random one per case, extra record fields, case seed base, seed step).
    if args.model:
        # check the maps on a saved network instead of random ones
        theta = model_io.load_model(args.model)
        data = (
            _resolve_dataset(args)
            if args.data
            else _verify_fixture(theta.topology, seed=1000 + args.seed)
        )
        cases = [(theta.topology, data, theta, {"model": str(args.model)}, args.seed, 1)]
    else:
        cases = []
        for t_index, text in enumerate(args.topologies.split(";")):
            sizes = tuple(int(v) for v in text.split(",") if v.strip())
            if len(sizes) < 3:
                raise UsageError(f"verify topologies need a hidden layer, got {text!r}")
            topology = Topology(sizes)
            data = _verify_fixture(topology, seed=1000 + t_index)
            cases.append((topology, data, None, {}, t_index * 1009 + args.seed, 13))

    for topology, data, saved, extra, base, step in cases:
        for kind in kinds:
            for seed in range(args.seeds):
                case_seed = base + seed * step
                rng = np.random.default_rng(case_seed)
                theta = saved if saved is not None else ParamVector(
                    topology, rng.uniform(-1.0, 1.0, param_count(topology))
                )
                growth = _verify_growth(kind, topology, rng)
                report = verify_loss_invariance(theta, data, growth, rng=rng)
                reports.append({"topology": list(topology.layer_sizes), **extra,
                                "seed": case_seed, **report.to_record()})

    if args.negative_controls and not args.model:
        for t_index, (topology, data, *_) in enumerate(cases):
            rng = np.random.default_rng(args.seed + 77 + t_index)
            theta = ParamVector(topology, rng.uniform(-1.0, 1.0, param_count(topology)))
            grown = apply_growth(theta, random_growth("inert", topology, 1, 2, rng))
            # corrupt one of the zero outgoing weights of the first new neuron
            layers = grown.layer_arrays()
            weights = layers[1][1].copy()
            weights[0, -2] = 0.7
            layers[1] = (layers[1][0], weights)
            corrupted = ParamVector.from_layer_arrays(grown.topology, layers)
            report = risk_gap_report(theta, corrupted, data, "inert(corrupted)")
            reports.append({"topology": list(topology.layer_sizes), "control": True,
                            "expected": "fail", **report.to_record()})

    if args.transfer:
        fixture = standardize(
            make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.1, seed=6, teacher_width=5)
        )
        points = _stationary_points(Topology((2, 2, 1)), fixture, args.seed + 1, args.seeds * 4)
        for seed, theta in islice(points, args.seeds):
            rng = np.random.default_rng(seed + 500)
            for kind in ("constant", "split"):
                spec = transfer_safe_spec(kind, theta.topology, 1, 2, rng)
                report = verify_stationarity_transfer(theta, fixture, spec)
                reports.append({"topology": [2, 2, 1], "seed": seed, **report.to_record()})

    if args.expect_escape:
        # a width-1 student of a wide teacher keeps a large residual, so the
        # grown gradient reliably wakes up
        fixture = standardize(
            make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2, seed=6, teacher_width=8)
        )
        _, theta = next(_stationary_points(Topology((2, 1, 1)), fixture, args.seed, 20), (None, None))
        if theta is None:
            raise RuntimeError("no stationary point found for the escape check")
        rate = escape_rate(theta, fixture, layer=1, count=2, draws=50, threshold=1e-3, seed=args.seed)
        reports.append(
            {
                "check": "escape",
                "map": "inert@1x2",
                "escape_rate": rate,
                "draws": 50,
                "threshold": 1e-3,
                "verdict": "pass" if rate >= 0.9 else "fail",
            }
        )

    _write_jsonl(out / "reports.jsonl", reports)
    checks = [r for r in reports if not r.get("control")]
    if not checks:
        raise RuntimeError("no checks ran")
    all_passed = all(r["verdict"] == "pass" for r in checks)
    print(f"{len(checks)} checks, {len(reports) - len(checks)} controls, "
          f"{'all passed' if all_passed else 'FAILURES present'}")
    return 0 if all_passed else 1


def _check_jobs(jobs: int) -> None:
    cores = os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise UsageError(f"--jobs must lie in 1..{cores} (the CPU count), got {jobs}")


def cmd_bench(args) -> int:
    out = _out_dir(args)
    if not args.problem:
        raise UsageError("give at least one --problem")
    _check_jobs(args.jobs)
    problems = [_resolve_dataset(args, spec) for spec in args.problem]
    solver_names = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if len(solver_names) < 2:
        raise UsageError("bench compares solvers; give at least two via --solvers")
    solvers = []
    for name in solver_names:
        if name == "standard":
            solvers.append(StandardSolver(width=args.std_width, tol=args.std_tol))
        elif name == "ita":
            solvers.append(
                IncrementalSolver(
                    config=ItaConfig(
                        initial_width=args.h0,
                        max_width=args.hmax,
                        growth=_parse_growth(args.growth),
                        final_grad_tol=args.std_tol,
                        intermediate_loss_delta=args.ita_delta,
                        loss_delta_relative=args.ita_delta_relative,
                    )
                )
            )
        else:
            raise UsageError(f"unknown solver {name!r} (use standard, ita)")
    budgets = [int(v) for v in args.budgets.split(",")]
    result = run_benchmark(
        problems,
        solvers,
        replicas=args.replicas,
        epoch_budgets=budgets,
        base_seed=args.seed,
        jobs=args.jobs,
    )

    for budget, table in sorted(result.tables.items()):
        save_results_tsv(table, out / f"results_b{budget}.tsv")
    _write_jsonl(out / "traces.jsonl", (
        {"problem": problem, "replica": replica, "solver": solver, **record}
        for (problem, replica, solver), run in sorted(result.runs.items())
        for record in run.epoch_records()
    ))

    with open(out / "stats.tsv", "w", encoding="utf-8") as handle:
        handle.write("problem\tsolver\tmin\tq1\tmedian\tq3\tmax\n")
        for problem in problems:
            for solver in solvers:
                cell_runs = [
                    run
                    for (p, _, s), run in sorted(result.runs.items())
                    if p == problem.name and s == solver.solver_id
                ]
                if not cell_runs:
                    continue
                stats = summary_stats(cell_runs)
                handle.write(
                    f"{problem.name}\t{solver.solver_id}\t{stats['min']!r}\t"
                    f"{stats['q1']!r}\t{stats['median']!r}\t{stats['q3']!r}\t{stats['max']!r}\n"
                )

    if result.failures:
        with open(out / "failures.txt", "w", encoding="utf-8") as handle:
            for line in result.failures:
                handle.write(line + "\n")
    print(
        f"{len(result.runs)} runs over {len(problems)} problems x {args.replicas} replicas "
        f"x {len(solvers)} solvers; {len(result.failures)} failures"
    )
    return 0


def cmd_profile(args) -> int:
    out = _out_dir(args)
    alphas = np.array([float(v) for v in args.alphas.split(",")]) if "," in args.alphas else None
    if alphas is None:
        stop = float(args.alphas) if args.alphas else 10.0
        if not 1.0 <= stop < np.inf:
            raise UsageError(f"--alphas grid end must be a finite number >= 1, got {args.alphas!r}")
        count = round((stop - 1.0) / 0.05) + 1
        alphas = np.linspace(1.0, stop, count)
    for table_path in args.table:
        path = Path(table_path)
        table = load_results_tsv(path)
        ratio = performance_ratio(table)
        curve = performance_profile(ratio, alphas)
        target = out / f"profile_{path.stem}.tsv"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("alpha\t" + "\t".join(f"rho_{s}" for s in table.solver_ids) + "\n")
            for a_index, alpha in enumerate(curve.alphas):
                row = "\t".join(repr(float(rho)) for rho in curve.rho[:, a_index])
                handle.write(f"{float(alpha)!r}\t{row}\n")
        if ratio.clamped_rows:
            print(f"{path.name}: zero-risk clamp applied on rows {list(ratio.clamped_rows)}")
        print(f"wrote {target.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgrow",
        description="Grow-as-you-train feedforward networks and their benchmarks.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="fixed-width training baseline")
    _add_data_flags(train)
    train.add_argument("--hidden", type=int, default=100)
    train.add_argument("--tol", type=float, default=1e-6)
    train.add_argument("--maxit", type=int, default=1000)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    ita = commands.add_parser("ita", help="incremental training (grow the hidden layer)")
    _add_data_flags(ita)
    ita.add_argument("--h0", type=int, default=10, help="starting hidden width")
    ita.add_argument("--hmax", type=int, default=100, help="target hidden width")
    _add_growth_flag(ita)
    ita.add_argument("--final-tol", type=float, default=1e-6)
    ita.add_argument("--maxit-per-stage", type=int, default=1000)
    ita.add_argument("--budget", type=int, default=None, help="total epoch cap")
    ita.add_argument("--seed", type=int, default=0)
    ita.add_argument("--out", required=True)
    ita.set_defaults(func=cmd_ita)

    embed = commands.add_parser("embed", help="widen a saved model")
    embed.add_argument("--model", required=True)
    embed.add_argument("--out-model", required=True)
    embed.add_argument("--map", default="inert", help="inert|constant|split (alpha|beta|gamma)")
    embed.add_argument("--layer", type=int, default=1)
    embed.add_argument("--count", type=int, default=1)
    embed.add_argument("--source", type=int, default=None, help="neuron to split")
    embed.add_argument("--shares", default=None, help="comma shares for split (sum 1)")
    embed.add_argument("--seed", type=int, default=0)
    embed.set_defaults(func=cmd_embed)

    verify = commands.add_parser("verify", help="certify growth-map guarantees")
    _add_data_flags(verify)
    verify.add_argument("--model", default=None,
                        help="check a saved model instead of random networks")
    verify.add_argument("--topologies", default="2,3,1;2,2,2,1;3,4,2")
    verify.add_argument("--maps", default="inert,constant,split")
    verify.add_argument("--seeds", type=int, default=10)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--negative-controls", action="store_true")
    verify.add_argument("--transfer", action="store_true",
                        help="also check gradient transfer at found stationary points")
    verify.add_argument("--expect-escape", action="store_true",
                        help="check that inert growth breaks stationarity")
    verify.add_argument("--out", required=True)
    verify.set_defaults(func=cmd_verify)

    bench = commands.add_parser("bench", help="multi-problem solver sweep")
    _add_data_flags(bench)
    bench.add_argument("--problem", action="append", default=[],
                       help="dataset file or synth spec; repeatable")
    bench.add_argument("--solvers", default="standard,ita")
    bench.add_argument("--replicas", type=int, default=10)
    bench.add_argument("--budgets", default="100,500,1000")
    bench.add_argument("--std-width", type=int, default=100)
    bench.add_argument("--std-tol", type=float, default=1e-6)
    bench.add_argument("--h0", type=int, default=10)
    bench.add_argument("--hmax", type=int, default=100)
    _add_growth_flag(bench)
    bench.add_argument("--ita-delta", type=float, default=1e-2,
                       help="stage stop: epoch-to-epoch risk improvement floor")
    bench.add_argument("--ita-delta-relative", action="store_true",
                       help="scale the stage delta by the current risk")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    profile = commands.add_parser("profile", help="performance profiles from tables")
    profile.add_argument("--table", action="append", required=True,
                         help="results table written by bench; repeatable")
    profile.add_argument("--alphas", default="10.0",
                         help="grid end (step 0.05) or explicit comma list")
    profile.add_argument("--out", required=True)
    profile.set_defaults(func=cmd_profile)

    parser.subcommand_parsers = commands.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _load_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        if hasattr(args, "target_cols"):
            args.target_cols = _parse_target_cols(args.target_cols)
        return args.func(args)
    except (UsageError, FileNotFoundError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
