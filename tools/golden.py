"""Golden-output manifest: run a fixed list of netgrow commands and hash every output.

Run from anywhere; the commands use the ``src`` of the checkout this file
lives in:

    python3 tools/golden.py > GOLDEN.sha256         # write the manifest
    python3 tools/golden.py | diff GOLDEN.sha256 -  # compare with it
    python3 tools/golden.py --check                 # compare; exit 1 on any difference

Each command runs in-process, with BLAS pinned to one thread, inside a
temporary directory and with relative ``--out`` paths, so the echoed
``config.json`` files do not depend on where the run happens. The output is
one ``<sha256>  <path>`` line per output file, sorted by path, followed by
``#`` lines with deterministic counts: the gradient evaluations of each
certify-panel run (``verify --maps , --transfer --expect-escape --seed
s`` for s = 0, 100, 200, 300), their total, and the calls made through
``netgrow.incremental`` over the command list, one per growth draw of the
``ita`` and ``bench`` runs. A ``risk_and_gradient`` call is one evaluation,
and so is each network of a stacked call (``stacked_risk_objective``), so
the counts do not depend on how the evaluations are batched; the count
lines keep their ``risk_and_gradient calls`` wording. Outputs whose floating-point rounding a change
moves show up as changed lines; a change meant to keep results
byte-identical leaves the output equal to the manifest.

``--check`` compares a fresh run with the committed ``GOLDEN.sha256``
instead of printing it: it lists the lines whose value moved, the lines
missing from the run and the lines new in it, and exits 1 if there are any
(0 and "manifest unchanged" otherwise).

``--keep DIR`` runs the commands in DIR, which must be new or empty, and
leaves it in place instead of a temporary directory that is deleted. Run it
in two checkouts to compare their outputs file by file:

    python3 tools/golden.py --check --keep /tmp/golden-parent   # in the parent
    python3 tools/golden.py --check --keep /tmp/golden-change   # in the change
    diff -r /tmp/golden-parent /tmp/golden-change
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is imported; one thread keeps the
# order of floating-point sums fixed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from netgrow import ParamVector, autodiff, build_topology, cli, model_io, param_count  # noqa: E402

IRIS = ROOT / "tests" / "data" / "iris.csv"
# Inputs written before the commands run and left out of the manifest. The
# embed chain and verify --model start from a seeded model rather than a
# trained one, so their outputs move only when growth or model I/O changes.
INPUTS = ("iris.csv", "source.bin")
SOURCE_SIZES = (4, 6, 5, 3)
PANEL_SEEDS = (0, 100, 200, 300)
BENCH_PROBLEMS = (
    "synth:polynomial:n=2,m=1,P=200,noise=0.2,seed=47,name=poly2",
    "synth:sinusoid:n=2,m=2,P=150,noise=0.05,seed=14,name=sin22",
    "iris.csv",
)
COMMANDS = (
    ["train", "--data", "iris.csv", "--has-header", "--hidden", "8", "--maxit", "300",
     "--seed", "1", "--out", "train"],
    ["ita", "--data", "iris.csv", "--has-header", "--h0", "2", "--hmax", "8",
     "--maxit-per-stage", "100", "--seed", "1", "--out", "ita"],
    ["ita", "--data", "synth:teacher_net:n=2,m=1,P=100,noise=0.1,seed=3", "--h0", "2",
     "--hmax", "11", "--growth", "3", "--seed", "2", "--out", "ita_growth3"],
    ["bench", *(arg for spec in BENCH_PROBLEMS for arg in ("--problem", spec)), "--has-header",
     "--replicas", "2", "--budgets", "100,300", "--std-width", "20", "--h0", "4",
     "--hmax", "20", "--seed", "5", "--out", "bench"],
    ["profile", "--table", "bench/results_b100.tsv", "--table", "bench/results_b300.tsv",
     "--out", "profile"],
    # Replays the first run from its echoed config; the commands after it share
    # the parser it must leave unchanged.
    ["--config", "train/config.json", "train", "--out", "train_config"],
    ["verify", "--seeds", "4", "--negative-controls", "--transfer", "--expect-escape",
     "--out", "verify_controls"],
    ["verify", "--maps", "inert,plan,split", "--topologies", "2,3,3,1;3,4,2", "--seeds", "4",
     "--out", "verify_plan"],
    ["verify", "--model", "source.bin", "--data", "iris.csv", "--has-header",
     "--out", "verify_model"],
    ["embed", "--model", "source.bin", "--out-model", "embed_1_gamma.bin",
     "--map", "gamma", "--layer", "1", "--count", "2", "--seed", "1"],
    ["embed", "--model", "embed_1_gamma.bin", "--out-model", "embed_2_beta.bin",
     "--map", "beta", "--layer", "2", "--count", "3", "--seed", "2"],
    ["embed", "--model", "embed_2_beta.bin", "--out-model", "embed_3_split.bin",
     "--map", "gamma", "--layer", "1", "--shares", "0.2,0.3,0.5", "--source", "1"],
    ["embed", "--model", "embed_3_split.bin", "--out-model", "embed_4_alpha.bin",
     "--map", "alpha", "--layer", "2", "--count", "2", "--seed", "4"],
)


@contextlib.contextmanager
def counting_gradient_calls(prefix: str = "netgrow"):
    """Count gradient evaluations at every module under ``prefix``.

    Each ``risk_and_gradient`` call counts one, and so does each network of a
    call of an objective built by ``stacked_risk_objective``: a stacked call
    of K networks is K evaluations.
    """
    single, stacked = autodiff.risk_and_gradient, autodiff.stacked_risk_objective
    calls = [0]

    def counted_single(*args, **kwargs):
        calls[0] += 1
        return single(*args, **kwargs)

    def counted_stacked(*args, **kwargs):
        objective = stacked(*args, **kwargs)

        def counted(thetas):
            calls[0] += len(thetas)
            return objective(thetas)

        return counted

    wrappers = {"risk_and_gradient": (single, counted_single),
                "stacked_risk_objective": (stacked, counted_stacked)}
    patched = [(module, attr) for name, module in list(sys.modules.items()) if name.startswith(prefix)
               for attr, (original, _) in wrappers.items() if getattr(module, attr, None) is original]
    for module, attr in patched:
        setattr(module, attr, wrappers[attr][1])
    try:
        yield calls
    finally:
        for module, attr in patched:
            setattr(module, attr, wrappers[attr][0])


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"netgrow {' '.join(argv)} exited {code}")


def manifest(keep: Path | None = None) -> list[str]:
    """Run every command and return the manifest's lines.

    The commands run in a temporary directory, or in ``keep``, which must be
    new or empty and is left in place.
    """
    lines = []
    counts = []
    home = Path.cwd()
    if keep is None:
        scope = tempfile.TemporaryDirectory(prefix="netgrow-golden-")
    else:
        keep = keep.resolve()
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            raise SystemExit(f"--keep {keep}: directory is not empty")
        scope = contextlib.nullcontext(keep)
    with scope as tmp:
        work = Path(tmp)
        shutil.copy(IRIS, work / "iris.csv")
        topology = build_topology(SOURCE_SIZES)
        weights = np.random.default_rng(7).standard_normal(param_count(topology)) * 0.5
        model_io.save_model(ParamVector(topology, weights), work / "source.bin")
        os.chdir(work)
        try:
            with counting_gradient_calls("netgrow.incremental") as draws:
                for argv in COMMANDS:
                    run(argv)
            for seed in PANEL_SEEDS:
                with counting_gradient_calls() as calls:
                    run(["verify", "--maps", ",", "--transfer", "--expect-escape",
                         "--seed", str(seed), "--out", f"panel_{seed}"])
                counts.append((seed, calls[0]))
        finally:
            os.chdir(home)
        for path in sorted(p for p in work.rglob("*") if p.is_file() and p.name not in INPUTS):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    for seed, calls in counts:
        lines.append(f"# risk_and_gradient calls, certify panel seed {seed}: {calls}")
    lines.append(f"# risk_and_gradient calls, certify panel total: {sum(calls for _, calls in counts)}")
    lines.append(f"# risk_and_gradient calls, growth draws over the command list: {draws[0]}")
    return lines


def keyed(lines: list[str]) -> dict[str, str]:
    """Manifest lines by what they describe: the file path, or the text of a ``#`` count."""
    return {(line.rpartition(": ")[0] if line.startswith("#") else line.split("  ", 1)[1]): line
            for line in lines if line.strip()}


def check(fresh: list[str]) -> int:
    committed = keyed((ROOT / "GOLDEN.sha256").read_text(encoding="utf-8").splitlines())
    current = keyed(fresh)
    moved = [(committed[k], current[k]) for k in committed if k in current and committed[k] != current[k]]
    missing = [committed[k] for k in committed if k not in current]
    new = [current[k] for k in current if k not in committed]
    for old, now in moved:
        print(f"moved:   {old}\n     ->  {now}")
    for line in missing:
        print(f"missing: {line}")
    for line in new:
        print(f"new:     {line}")
    if moved or missing or new:
        print(f"manifest differs: {len(moved)} moved, {len(missing)} missing, {len(new)} new")
        return 1
    print("manifest unchanged")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with GOLDEN.sha256 and exit 1 on any difference")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="run in DIR (new or empty) and keep it instead of deleting it")
    args = parser.parse_args(argv)
    lines = manifest(args.keep)
    if args.check:
        return check(lines)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
