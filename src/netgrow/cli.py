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
import functools
import json
import os
import sys
from dataclasses import replace
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
from .data import Dataset, ParseError, dataset_from_spec
from .growth import apply_growth, random_growth
from .incremental import ItaConfig, ita_train, standard_train
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
    _write_json(out / "config.json", vars(args))
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


def _apply_config(args: argparse.Namespace, path: str, tokens: list[str]) -> None:
    """Set each --config value whose flag ``tokens`` (the command line after the
    subcommand) leave out; a flag there is its option string or ``--flag=value``."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    # A config.json written by a command echoes "command" and "config" too.
    command = args.command
    echoed = payload.pop("command", command)
    if echoed != command:
        raise UsageError(f"config file {path} is for the {echoed!r} command, not {command!r}")
    payload.pop("config", None)
    actions = {action.dest: action
               for action in _shared_parser().subcommand_parsers[command]._actions}
    unknown = set(payload) - set(actions)
    if unknown:
        raise UsageError(
            f"config keys {sorted(unknown)} are not flags of the {command!r} command"
        )
    given = {token.split("=", 1)[0] for token in tokens}  # no prefixes: allow_abbrev=False
    # argparse never sees these values, so each is checked against its flag here.
    for key, value in payload.items():
        takes, fits = _config_type(actions[key])
        nullable = actions[key].default is None
        if not (fits(value) or (nullable and value is None)):
            raise UsageError(f"config file {path}: {key!r} takes {takes}"
                             f"{' or null' if nullable else ''}, got {json.dumps(value)}")
        if given.isdisjoint(actions[key].option_strings):
            setattr(args, key, value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_type(action: argparse.Action):
    """What a flag takes as a JSON value in a config file, and a test of a value."""
    if isinstance(action, argparse._StoreTrueAction):
        return "true or false", lambda value: isinstance(value, bool)
    if isinstance(action, argparse._AppendAction):
        return "a list of strings", lambda value: (
            isinstance(value, list) and all(isinstance(item, str) for item in value))
    if action.type is int:
        return "an integer", _is_int
    if action.type is float:
        return "a number", lambda value: _is_int(value) or isinstance(value, float)
    if action.dest == "target_cols":  # config.json echoes the indices it parsed to
        return "a string or a list of integers", lambda value: isinstance(value, str) or (
            isinstance(value, list) and all(map(_is_int, value)))
    return "a string", lambda value: isinstance(value, str)


def _resolve_dataset(args, spec: str | None = None) -> Dataset:
    text = spec if spec is not None else args.data
    if text is None:
        raise UsageError("no dataset given (use --data)")
    return dataset_from_spec(text, has_header=args.has_header, target_columns=args.target_cols,
                             delimiter=args.delimiter, standardize=not args.no_standardize)


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


def _growth_schedule(text: str):
    """``--growth`` as ``ItaConfig`` takes it: ``"double"`` or a list of amounts."""
    return text if text == "double" else _parse_list("--growth", text, int)


def _save_run(out: Path, run) -> None:
    """Per-epoch metrics, the final model (binary and text) and a run summary."""
    _write_jsonl(out / "metrics.jsonl", run.epoch_records())
    model_io.save_model(run.theta_final, out / "model.bin")
    model_io.save_model_text(run.theta_final, out / "model.txt")
    _write_json(out / "summary.json", {
        "solver": run.solver,
        "cumulative_epochs": run.cumulative_epochs,
        "final_risk": run.final_risk,
        "stages": [stage.to_record() for stage in run.stages],
    })


def cmd_train(args) -> int:
    data = _resolve_dataset(args)
    # standard_train checks --hidden, --tol and --maxit, so --out is made after it.
    run = standard_train(data, args.hidden, tol=args.tol, maxit=args.maxit, seed=args.seed)
    _save_run(_out_dir(args), run)
    print(f"final risk {run.final_risk!r} after {run.cumulative_epochs} epochs")
    return 0


def cmd_ita(args) -> int:
    data = _resolve_dataset(args)
    if args.h0 > args.hmax:
        raise UsageError(f"--h0 {args.h0} exceeds --hmax {args.hmax}")
    cfg = ItaConfig(
        initial_width=args.h0,
        max_width=args.hmax,
        growth=_growth_schedule(args.growth),
        final_grad_tol=args.final_tol,
        maxit_per_stage=args.maxit_per_stage,
        seed=args.seed,
        total_epoch_budget=args.budget,
    )
    # --out is made once ita_train returns, so a failed run leaves none behind.
    run = ita_train(data, cfg)
    _save_run(_out_dir(args), run)
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
    count = (1 if args.count is None else args.count) if shares is None else shares.size - 1
    if args.count not in (None, count):
        raise UsageError(f"--count {args.count} disagrees with --shares {args.shares!r}, "
                         f"which sets the count to {count}")
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}" if shares is None else
                         f"--shares needs the source's share and one per copy, got {shares.size}")
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
    if not (kinds or args.transfer or args.expect_escape):
        raise UsageError("no checks to run: --maps is empty and neither --transfer "
                         "nor --expect-escape is given")
    if args.model:
        theta = model_io.load_model(args.model)
        data = _resolve_dataset(args) if args.data else None
        records = stationarity.model_risk_records(theta, data, str(args.model), kinds,
                                                  args.seeds, args.seed)
    else:
        if args.topologies is None:  # resolved here, so config.json echoes what ran
            args.topologies = _DEFAULT_VERIFY_TOPOLOGIES
        try:
            topologies = [Topology(tuple(_parse_list("--topologies", text, int)))
                          for text in args.topologies.split(";")]
        except ValueError as exc:  # an empty or non-positive layer list
            raise UsageError(f"--topologies {args.topologies!r}: {exc}") from None
        if any(topology.depth < 2 for topology in topologies):
            raise UsageError(f"verify topologies need a hidden layer, got {args.topologies!r}")
        records = stationarity.risk_records(topologies, kinds, args.seeds, args.seed)
    # The checks run before --out is made, so bad input leaves none behind.
    reports = list(chain(
        records,
        stationarity.control_records(topologies, args.seed) if args.negative_controls else (),
        stationarity.transfer_records(args.seeds, args.seed) if args.transfer else (),
        stationarity.escape_records(args.seed) if args.expect_escape else (),
    ))
    _write_jsonl(_out_dir(args) / "reports.jsonl", reports)
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
                        growth=_growth_schedule(args.growth),
                        final_grad_tol=args.std_tol,
                        intermediate_loss_delta=args.ita_delta,
                    )
                )
            )
        else:
            raise UsageError(f"unknown solver {name!r} (use standard, ita)")
    # run_benchmark checks the replicas, budgets and names, so --out is made after it.
    result = run_benchmark(
        problems,
        solvers,
        replicas=args.replicas,
        epoch_budgets=_parse_list("--budgets", args.budgets, int),
        base_seed=args.seed,
        jobs=args.jobs,
    )
    out = _out_dir(args)

    for budget, table in sorted(result.tables.items()):
        save_results_tsv(table, out / f"results_b{budget}.tsv")
    _write_jsonl(out / "traces.jsonl", (
        {"problem": problem, "replica": replica, "solver": solver, **record}
        for (problem, replica, solver), run in sorted(result.runs.items())
        for record in run.epoch_records()
    ))
    _write_jsonl(out / "stages.jsonl", (
        {"problem": problem, "replica": replica, "solver": solver, "stage": index,
         **stage.to_record()}
        for (problem, replica, solver), run in sorted(result.runs.items())
        for index, stage in enumerate(run.stages)
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
    if alphas.size == 0:
        raise UsageError(f"--alphas is empty: {args.alphas!r} holds no number")
    if alphas.size == 1:
        stop = alphas[0]
        if not 1.0 <= stop < np.inf:
            raise UsageError(f"--alphas grid end must be a finite number >= 1, got {args.alphas!r}")
        # An end above 1 gets at least one step, so the grid ends where it was asked to.
        steps = max(round((stop - 1.0) / 0.05), 1) if stop > 1.0 else 0
        alphas = np.linspace(1.0, stop, steps + 1)
    try:  # the library's alpha checks, run before any table is read
        performance_profile(np.ones((1, 1)), alphas)
    except ValueError as exc:
        raise UsageError(f"--alphas {args.alphas!r}: {exc}") from None
    tables = [(Path(table_path), load_results_tsv(table_path)) for table_path in args.table]
    stems: dict[str, Path] = {}
    for path, _ in tables:
        if path.stem in stems:
            raise UsageError(f"--table {stems[path.stem]} and --table {path} would both "
                             f"write profile_{path.stem}.tsv")
        stems[path.stem] = path
    profiles = []
    for path, table in tables:
        try:  # the library's own message, labelled with the table, as a load error is
            profiles.append((path, performance_ratio(table).clamped_rows,
                             performance_profile(table, alphas)))
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
    out = _out_dir(args)
    for path, clamped_rows, curve in profiles:
        target = out / f"profile_{path.stem}.tsv"
        save_profile_tsv(curve, target)
        if clamped_rows:
            print(f"{path.name}: zero-risk clamp applied on rows {list(clamped_rows)}")
        print(f"wrote {target.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching, so --conf is refused rather than taken for --config.
    parser = argparse.ArgumentParser(
        prog="netgrow",
        description="Grow-as-you-train feedforward networks and their benchmarks.",
        allow_abbrev=False,
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

    embed = commands.add_parser("embed", help="widen a saved model")
    embed.add_argument("--model", required=True)
    embed.add_argument("--out-model", required=True)
    embed.add_argument("--map", default="inert", help="inert|constant|split (alpha|beta|gamma)")
    embed.add_argument("--layer", type=int, default=1)
    embed.add_argument("--count", type=int, default=None,
                       help="neurons to add (default 1; with --shares, one fewer than the shares)")
    embed.add_argument("--source", type=int, default=None, help="neuron to split")
    embed.add_argument("--shares", default=None, help="comma shares for split (sum 1)")
    embed.add_argument("--seed", type=int, default=0)

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
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)

    profile = commands.add_parser("profile", help="performance profiles from tables")
    profile.add_argument("--table", action="append", default=[],
                         help="results table written by bench; repeatable")
    profile.add_argument("--alphas", default="10.0",
                         help="grid end (step 0.05) or explicit comma list")
    profile.add_argument("--out", required=True)

    parser.subcommand_parsers = commands.choices
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every call parses with, built on first use and never changed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    tokens = iter(argv)
    for token in tokens:  # argparse would take an unknown flag's value here for the command
        if not token.startswith("-"):
            break  # the subcommand; ``tokens`` holds what follows it
        if token == "--config":
            next(tokens, None)
        elif token not in ("-h", "--help") and not token.startswith("--config="):
            _shared_parser().error(f"unrecognized argument before the command: {token}")
    try:
        args = _shared_parser().parse_args(argv)
        if args.config is not None:
            _apply_config(args, args.config, list(tokens))
            args.config = None  # config.json echoes the values the file set, not its path
        # numpy takes only seeds >= 0; bench mixes any --seed into its cell seeds
        if args.command != "bench" and (getattr(args, "seed", None) or 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        target_cols = getattr(args, "target_cols", None)
        if isinstance(target_cols, str) and not target_cols.startswith("last-"):
            args.target_cols = _parse_list("--target-cols", target_cols, int)
        # Looked up per call, so a cmd_* replaced on the module is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, ParseError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
