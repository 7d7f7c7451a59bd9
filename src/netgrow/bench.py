"""Multi-problem, multi-solver benchmark tables and performance profiles.

Each (problem, replica, solver) cell is one training run at the largest
epoch budget; smaller budgets are snapshots of the same run, so the per-cell
seeds and iterates are shared across budgets by construction. Replicas are
treated as distinct problems when profiling. The profile for a solver at
factor ``alpha`` is the fraction of problems on which its final risk is
within ``alpha`` times the best final risk of any solver. This module owns
the table formats: ``results_b<B>.tsv`` (one line per cell), ``stats.tsv``
(one five-number summary per problem and solver) and ``profile_*.tsv`` (one
line per alpha).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .incremental import ItaConfig, TrainRun, ita_train, standard_train

__all__ = [
    "StandardSolver",
    "IncrementalSolver",
    "ResultsTable",
    "RatioMatrix",
    "ProfileCurve",
    "BenchResult",
    "save_results_tsv",
    "load_results_tsv",
    "save_stats_tsv",
    "save_profile_tsv",
    "cell_seed",
    "run_benchmark",
    "performance_ratio",
    "performance_profile",
    "summary_stats",
    "ZERO_RISK_CLAMP",
]

ZERO_RISK_CLAMP = 1e-15
_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def cell_seed(base_seed: int, *indices: int) -> int:
    """Deterministic per-cell seed mixed from the base seed and cell indices."""
    h = base_seed & _MASK
    for index in indices:
        h = _splitmix64(h ^ ((index + 1) & _MASK))
    return h


@dataclass(frozen=True)
class StandardSolver:
    solver_id: str = "standard"
    width: int = 100
    tol: float = 1e-6

    def __post_init__(self) -> None:
        # Checked here, as ItaConfig checks itself, so a sweep refuses them up front.
        if self.width < 1:
            raise ValueError(f"standard width must be >= 1, got {self.width}")
        if not self.tol > 0.0:
            raise ValueError(f"standard tol must be positive, got {self.tol}")
        if self.tol == np.inf:
            raise ValueError(f"standard tol must be finite, got {self.tol}")


@dataclass(frozen=True)
class IncrementalSolver:
    solver_id: str = "ita"
    config: ItaConfig = ItaConfig()  # seed and budget are overridden per cell


SolverSpec = StandardSolver | IncrementalSolver


@dataclass(frozen=True, eq=False)
class ResultsTable:
    """Final risks, one row per (problem, replica), one column per solver."""

    values: np.ndarray
    problem_ids: tuple[str, ...]
    solver_ids: tuple[str, ...]
    budget: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape != (len(self.problem_ids), len(self.solver_ids)):
            raise ValueError(
                f"values shape {v.shape} does not match {len(self.problem_ids)} "
                f"problems x {len(self.solver_ids)} solvers"
            )
        if np.any(np.isnan(v)) or np.any(v < 0):
            raise ValueError("risks must be nonnegative (+inf marks a failed cell)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


_TSV_COLUMNS = ("problem", "solver", "replica", "budget", "final_risk")
_STATS_COLUMNS = ("min", "q1", "median", "q3", "max")


def save_results_tsv(table: ResultsTable, path) -> None:
    """Write one line per cell; row ids ``problem#replica`` split into two columns."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(_TSV_COLUMNS) + "\n")
        for row, row_id in enumerate(table.problem_ids):
            problem, replica = row_id.rsplit("#", 1)
            for col, solver_id in enumerate(table.solver_ids):
                handle.write(
                    f"{problem}\t{solver_id}\t{replica}\t{table.budget}\t"
                    f"{float(table.values[row, col])!r}\n"
                )


def load_results_tsv(path) -> ResultsTable:
    """Read a table written by :func:`save_results_tsv`; missing cells become +inf.

    Malformed lines, repeated cells and mixed budgets are rejected with a
    ``ValueError`` that names ``path:line``.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"{path}: empty results table")
    header = tuple(lines[0].split("\t"))
    if header != _TSV_COLUMNS:
        raise ValueError(f"{path}:1: expected columns {list(_TSV_COLUMNS)}, found {list(header)}")
    cells: dict[str, dict[str, float]] = {}
    solvers: list[str] = []
    budget = None
    for number, line in enumerate(lines[1:], start=2):
        where = f"{path}:{number}"
        fields = line.split("\t")
        if len(fields) != len(_TSV_COLUMNS):
            raise ValueError(f"{where}: expected {len(_TSV_COLUMNS)} fields, found {len(fields)}")
        problem, solver, replica, cell_budget, value = fields
        try:
            cell_budget, risk = int(cell_budget), float(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not risk >= 0.0:
            raise ValueError(f"{where}: final_risk must be nonnegative or inf, got {value!r}")
        if budget is not None and cell_budget != budget:
            raise ValueError(f"{where}: budget {cell_budget} in a table of budget {budget}")
        budget = cell_budget
        row = cells.setdefault(f"{problem}#{replica}", {})
        if solver in row:
            raise ValueError(f"{where}: repeated cell ({problem}, {solver}, {replica})")
        row[solver] = risk
        if solver not in solvers:
            solvers.append(solver)
    values = [[row.get(solver, np.inf) for solver in solvers] for row in cells.values()]
    return ResultsTable(np.array(values), tuple(cells), tuple(solvers), budget)


def save_stats_tsv(result: BenchResult, path) -> None:
    """Five-number summary of the final risks of each (problem, solver) pair.

    Rows follow the problem and solver order of the result's tables; a pair
    with no successful run has no row.
    """
    groups: dict[tuple[str, str], list[float]] = {}
    for (problem, _, solver), run in result.runs.items():
        groups.setdefault((problem, solver), []).append(run.final_risk)
    table = next(iter(result.tables.values()))
    problems = dict.fromkeys(row_id.rsplit("#", 1)[0] for row_id in table.problem_ids)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("problem\tsolver\t" + "\t".join(_STATS_COLUMNS) + "\n")
        for problem in problems:
            for solver in table.solver_ids:
                if (problem, solver) in groups:
                    stats = summary_stats(groups[problem, solver])
                    row = "\t".join(repr(stats[key]) for key in _STATS_COLUMNS)
                    handle.write(f"{problem}\t{solver}\t{row}\n")


def save_profile_tsv(curve: ProfileCurve, path) -> None:
    """One line per alpha: the alpha, then ``rho`` of each solver."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("alpha\t" + "\t".join(f"rho_{s}" for s in curve.solver_ids) + "\n")
        for a_index, alpha in enumerate(curve.alphas):
            row = "\t".join(repr(float(rho)) for rho in curve.rho[:, a_index])
            handle.write(f"{float(alpha)!r}\t{row}\n")


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    ratios: np.ndarray
    clamped_rows: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    alphas: np.ndarray
    rho: np.ndarray  # (n_solvers, n_alphas)
    solver_ids: tuple[str, ...]

    def value(self, solver: str, alpha: float) -> float:
        s = self.solver_ids.index(solver)
        a = int(np.searchsorted(self.alphas, alpha, side="right")) - 1
        if a < 0:
            raise ValueError(f"alpha {alpha} below the grid start {self.alphas[0]}")
        return float(self.rho[s, a])


@dataclass(frozen=True, eq=False)
class BenchResult:
    tables: dict[int, ResultsTable]
    runs: dict[tuple[str, int, str], TrainRun]
    failures: tuple[str, ...]


def performance_ratio(table: ResultsTable, eps: float = ZERO_RISK_CLAMP) -> RatioMatrix:
    """Per-row ratios to the row's best value; exact-zero bests are clamped.

    Failed cells (+inf) keep an infinite ratio. A row where every solver
    failed has no best value and is an error.
    """
    values = table.values
    finite = np.isfinite(values)
    if not np.all(finite.any(axis=1)):
        dead = [table.problem_ids[i] for i in np.flatnonzero(~finite.any(axis=1))]
        raise ValueError(f"all solvers failed on: {dead}")
    best = np.where(finite, values, np.inf).min(axis=1)
    clamped = tuple(int(i) for i in np.flatnonzero(best < eps))
    best = np.maximum(best, eps)
    return RatioMatrix(values / best[:, None], clamped)


def performance_profile(ratios, alphas) -> ProfileCurve:
    """Exact profile counting: rho_s(alpha) = fraction of rows with ratio <= alpha."""
    table = ratios if isinstance(ratios, ResultsTable) else None
    matrix = np.asarray(ratios if table is None else performance_ratio(table).ratios,
                        dtype=np.float64)
    if matrix.size == 0:
        raise ValueError("empty ratio matrix")
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.size == 0 or not (np.all(alphas >= 1.0) and np.all(np.diff(alphas) > 0)):
        raise ValueError("alphas must be increasing and >= 1")
    if not np.all(np.isfinite(alphas)):  # at alpha = inf a failed cell's inf ratio would count
        raise ValueError(f"alphas must be finite, got {alphas.tolist()}")
    n_problems, n_solvers = matrix.shape
    rho = np.empty((n_solvers, alphas.size))
    for s in range(n_solvers):
        column = matrix[:, s]
        rho[s] = [(column <= a).sum() / n_problems for a in alphas]
    solver_ids = tuple(f"s{k}" for k in range(n_solvers)) if table is None else table.solver_ids
    return ProfileCurve(alphas, rho, solver_ids)


def summary_stats(finals: Sequence[float]) -> dict[str, float]:
    """Five-number summary of final risks; quartiles use linear interpolation."""
    if not finals:
        raise ValueError("no runs to summarize")
    q1, median, q3 = np.percentile(finals, [25, 50, 75])
    return {
        "min": float(min(finals)),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(max(finals)),
    }


def _run_cell(args):
    """One cell's run and no error, or no run and the error; a cell never kills the sweep."""
    problem, solver, seed, budget = args
    try:
        if isinstance(solver, StandardSolver):
            run = standard_train(problem, solver.width, tol=solver.tol, maxit=budget, seed=seed)
        else:
            run = ita_train(problem, replace(solver.config, seed=seed, total_epoch_budget=budget))
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return run, None


def run_benchmark(
    problems: Sequence[Dataset],
    solvers: Sequence[SolverSpec],
    replicas: int,
    epoch_budgets: Sequence[int],
    base_seed: int = 0,
    *,
    jobs: int = 1,
) -> BenchResult:
    """Run every (problem, replica, solver) cell once and snapshot per budget.

    Per-cell failures are recorded and leave an infinite table entry; the
    sweep itself never aborts. Results are gathered in deterministic index
    order whatever the execution order.
    """
    if not problems:
        raise ValueError("need at least one problem")
    if not solvers:
        raise ValueError("need at least one solver")
    if replicas < 1:
        raise ValueError("need at least one replica (empty table otherwise)")
    budgets = sorted(set(int(b) for b in epoch_budgets))
    if not budgets or budgets[0] < 1:
        raise ValueError("epoch budgets must be positive")
    ids = [s.solver_id for s in solvers]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate solver ids: {ids}")
    names = [p.name for p in problems]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate problem names: {names}")

    grid = [(ip, problem, ir, is_, solver)
            for ip, problem in enumerate(problems)
            for ir in range(replicas)
            for is_, solver in enumerate(solvers)]
    keys = [(problem.name, ir, solver.solver_id) for _, problem, ir, _, solver in grid]
    cells = [(problem, solver, cell_seed(base_seed, ip, ir, is_), budgets[-1])
             for ip, problem, ir, is_, solver in grid]

    if jobs > 1:
        # Imported here, so that a sequential run does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(cell) for cell in cells]

    runs = {key: run for key, (run, _) in zip(keys, outcomes) if run is not None}
    failures = tuple(f"{key}: {error}" for key, (run, error) in zip(keys, outcomes)
                     if run is None)
    row_ids = tuple(dict.fromkeys(f"{name}#{ir}" for name, ir, _ in keys))
    tables = {}
    for budget in budgets:
        values = [runs[key].risk_after(budget) if key in runs else np.inf for key in keys]
        tables[budget] = ResultsTable(np.reshape(values, (len(row_ids), len(ids))), row_ids,
                                      tuple(ids), budget)
    return BenchResult(tables=tables, runs=runs, failures=failures)
