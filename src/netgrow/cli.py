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
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import model_io, stationarity
from .autodiff import risk_and_gradient  # noqa: F401  (perfbench/test_perfbench.py looks it up here)
from .bench import (
    IncrementalSolver,
    StandardSolver,
    load_results_tsv,
    performance_profile,
    performance_ratio,
    run_benchmark,
    save_profile_tsv,
    save_results_tsv,
    save_stats_tsv,
)
from .data import Dataset, ParseError, load_delimited, make_synthetic, standardize
from .growth import apply_growth, random_growth
from .incremental import ItaConfig, StageRecord, ita_train, standard_train
from .net_core import Topology

__all__ = ["main"]

# Accept the literature's greek names for the maps as aliases.
_MAP_ALIASES = {"alpha": "inert", "beta": "constant", "gamma": "split"}
_DEFAULT_VERIFY_TOPOLOGIES = "2,3,1;2,2,2,1;3,4,2"


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
    _write_json(out / "config.json", payload)
    return out


def _parse_list(flag: str, text, kind=str) -> list:
    """Items of a comma list, blanks skipped; an item ``kind`` rejects is a usage error."""
    values = []
    for item in str(text).split(","):
        item = item.strip()
        if item:
            try:
                values.append(kind(item))
            except ValueError:
                raise UsageError(f"{flag}: bad item {item!r} in {text!r}") from None
    return values


class _RepeatableFlag(argparse.Action):
    """A repeatable flag whose command-line values replace its default list.

    ``action="append"`` would add them to the default, so a list from
    ``--config`` would be extended instead of overridden.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        items = [] if items is self.default else items
        setattr(namespace, self.dest, [*items, values])


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
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    argv = argv[:at] + argv[at + 2 :]
    command = next((token for token in argv if not token.startswith("-")), None)
    subparsers = getattr(parser, "subcommand_parsers", {})
    if command not in subparsers:
        raise UsageError("--config needs a subcommand to apply to")
    # A config.json written by a command echoes "command" and "config" too.
    echoed = payload.pop("command", command)
    if echoed != command:
        raise UsageError(f"config file {path} is for the {echoed!r} command, not {command!r}")
    payload.pop("config", None)
    sub = subparsers[command]
    known = {action.dest for action in sub._actions}
    unknown = set(payload) - known
    if unknown:
        raise UsageError(
            f"config keys {sorted(unknown)} are not flags of the {command!r} command"
        )
    sub.set_defaults(**payload)
    return argv


_SYNTH_KEYS = ("n", "m", "P", "samples", "noise", "seed", "width", "name")


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
            key, value = (part.strip() for part in item.split("=", 1))
            if key not in _SYNTH_KEYS:
                raise UsageError(f"unknown synthetic option {key!r} in {text!r} "
                                 f"(valid: {', '.join(_SYNTH_KEYS)})")
            options[key] = value
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


def _add_growth_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--growth", default="double",
                     help="neurons added per stage: 'double', an int, or a comma list")


def _save_run(out: Path, run) -> None:
    """Per-epoch metrics, the final model (binary and text) and a run summary."""
    _write_jsonl(out / "metrics.jsonl", run.epoch_records())
    model_io.save_model(run.theta_final, out / "model.bin")
    model_io.save_model_text(run.theta_final, out / "model.txt")
    _write_json(out / "summary.json", {
        "solver": run.solver,
        "cumulative_epochs": run.cumulative_epochs,
        "final_risk": run.final_risk,
        # Every stage field but the per-epoch histories, which metrics.jsonl holds.
        "stages": [{f.name: getattr(stage, f.name) for f in fields(StageRecord)
                    if f.name not in ("f_history", "g_history")} for stage in run.stages],
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
        growth=args.growth if args.growth == "double" else _parse_list("--growth", args.growth, int),
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
    kind = _MAP_ALIASES.get(args.map, args.map)
    if kind != "split" and (args.shares or args.source is not None):
        raise UsageError(f"--shares and --source apply only to --map split, not {args.map!r}")
    # Given shares fix the copy count; given shares and source replace the drawn ones.
    shares = np.array(_parse_list("--shares", args.shares, float)) if args.shares else None
    count = args.count if shares is None else shares.size - 1
    spec = random_growth(kind, theta.topology, args.layer, count, np.random.default_rng(args.seed))
    if shares is not None:
        spec = replace(spec, shares=shares)
    if args.source is not None:
        spec = replace(spec, source=args.source)
    grown = apply_growth(theta, spec)
    model_io.save_model(grown, Path(args.out_model))
    print(
        f"{theta.topology.layer_sizes} -> {grown.topology.layer_sizes} "
        f"({len(grown) - len(theta)} new parameters)"
    )
    return 0


def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    kinds = [_MAP_ALIASES.get(m, m) for m in _parse_list("--maps", args.maps)]
    for kind in kinds:
        if kind not in ("inert", "constant", "split", "plan"):
            raise UsageError(f"unknown map {kind!r}")
    if args.model and args.negative_controls:
        raise UsageError("--negative-controls applies only to random networks, not --model")
    if args.model and (args.transfer or args.expect_escape):
        flag = "--transfer" if args.transfer else "--expect-escape"
        raise UsageError(f"{flag} checks a fixed teacher network, not --model")
    if args.data and not args.model:
        raise UsageError("--data applies only with --model; random networks use fixed fixtures")
    if args.model and args.topologies is not None:
        raise UsageError("--topologies applies only to random networks; --model fixes the topology")
    if args.model:
        theta = model_io.load_model(args.model)
        data = _resolve_dataset(args) if args.data else None
        records = stationarity.model_risk_records(theta, data, str(args.model), kinds,
                                                  args.seeds, args.seed)
    else:
        if args.topologies is None:  # resolved here, so config.json echoes what ran
            args.topologies = _DEFAULT_VERIFY_TOPOLOGIES
        topologies = [Topology(tuple(_parse_list("--topologies", text, int)))
                      for text in args.topologies.split(";")]
        if any(topology.depth < 2 for topology in topologies):
            raise UsageError(f"verify topologies need a hidden layer, got {args.topologies!r}")
        records = stationarity.risk_records(topologies, kinds, args.seeds, args.seed)
    out = _out_dir(args)
    reports = list(chain(
        records,
        stationarity.control_records(topologies, args.seed) if args.negative_controls else (),
        stationarity.transfer_records(args.seeds, args.seed) if args.transfer else (),
        stationarity.escape_records(args.seed) if args.expect_escape else (),
    ))
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
    if not args.problem:
        raise UsageError("give at least one --problem")
    _check_jobs(args.jobs)
    problems = [_resolve_dataset(args, spec) for spec in args.problem]
    solver_names = _parse_list("--solvers", args.solvers)
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
                        growth=args.growth if args.growth == "double"
                        else _parse_list("--growth", args.growth, int),
                        final_grad_tol=args.std_tol,
                        intermediate_loss_delta=args.ita_delta,
                    )
                )
            )
        else:
            raise UsageError(f"unknown solver {name!r} (use standard, ita)")
    out = _out_dir(args)
    result = run_benchmark(
        problems,
        solvers,
        replicas=args.replicas,
        epoch_budgets=_parse_list("--budgets", args.budgets, int),
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
    save_stats_tsv(result, out / "stats.tsv")

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
    if not args.table:
        raise UsageError("give at least one --table")
    alphas = np.array(_parse_list("--alphas", args.alphas, float))
    if alphas.size == 1:
        stop = alphas[0]
        if not 1.0 <= stop < np.inf:
            raise UsageError(f"--alphas grid end must be a finite number >= 1, got {args.alphas!r}")
        count = round((stop - 1.0) / 0.05) + 1
        alphas = np.linspace(1.0, stop, count)
    tables = [(Path(table_path), load_results_tsv(table_path)) for table_path in args.table]
    out = _out_dir(args)
    for path, table in tables:
        ratio = performance_ratio(table)
        curve = replace(performance_profile(ratio, alphas), solver_ids=table.solver_ids)
        target = out / f"profile_{path.stem}.tsv"
        save_profile_tsv(curve, target)
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
    train.add_argument("--data", help="dataset file or synth:kind:k=v,... spec")
    _add_data_flags(train)
    train.add_argument("--hidden", type=int, default=100)
    train.add_argument("--tol", type=float, default=1e-6)
    train.add_argument("--maxit", type=int, default=1000)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    ita = commands.add_parser("ita", help="incremental training (grow the hidden layer)")
    ita.add_argument("--data", help="dataset file or synth:kind:k=v,... spec")
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
    verify.add_argument("--data", help="dataset file or synth:kind:k=v,... spec")
    _add_data_flags(verify)
    verify.add_argument("--model", default=None,
                        help="check a saved model instead of random networks")
    verify.add_argument("--topologies", help=f"random networks only ({_DEFAULT_VERIFY_TOPOLOGIES})")
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
    bench.add_argument("--problem", action=_RepeatableFlag, default=[],
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
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    profile = commands.add_parser("profile", help="performance profiles from tables")
    profile.add_argument("--table", action=_RepeatableFlag, default=[],
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
        target_cols = getattr(args, "target_cols", None)
        if isinstance(target_cols, str) and not target_cols.startswith("last-"):
            args.target_cols = _parse_list("--target-cols", target_cols, int)
        return args.func(args)
    except (UsageError, ParseError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
