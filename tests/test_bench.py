import numpy as np
import pytest

from netgrow import (
    IncrementalSolver,
    ItaConfig,
    ResultsTable,
    StandardSolver,
    cell_seed,
    make_synthetic,
    performance_profile,
    performance_ratio,
    run_benchmark,
    standardize,
    summary_stats,
)


def table(values, budget=100):
    values = np.asarray(values, dtype=float)
    return ResultsTable(
        values,
        tuple(f"p{r}#0" for r in range(values.shape[0])),
        tuple(f"s{c}" for c in range(values.shape[1])),
        budget,
    )


def test_performance_ratio_hand_example():
    got = performance_ratio(table([[2.0, 4.0], [3.0, 3.0]]))
    assert np.array_equal(got.ratios, [[1.0, 2.0], [1.0, 1.0]])
    assert got.clamped_rows == ()


def test_performance_ratio_zero_best_is_clamped():
    got = performance_ratio(table([[0.0, 1e-6]]))
    assert got.clamped_rows == (0,)
    assert got.ratios[0, 0] == 0.0
    assert got.ratios[0, 1] == pytest.approx(1e-6 / 1e-15)


def test_performance_ratio_keeps_failures_infinite():
    got = performance_ratio(table([[1.0, np.inf], [2.0, 4.0]]))
    assert np.isinf(got.ratios[0, 1])


def test_performance_ratio_rejects_all_failed_row():
    with pytest.raises(ValueError):
        performance_ratio(table([[np.inf, np.inf], [1.0, 2.0]]))


def test_profile_hand_example():
    curve = performance_profile(table([[2.0, 4.0], [3.0, 3.0]]), [1.0, 2.0])
    assert curve.value("s0", 1.0) == 1.0
    assert curve.value("s1", 1.0) == 0.5
    assert curve.value("s1", 2.0) == 1.0


def test_profile_single_solver_is_one_at_alpha_one():
    curve = performance_profile(table([[0.5], [2.0], [0.1]]), [1.0])
    assert np.all(curve.rho == 1.0)


def test_profile_monotone_and_bounded():
    rng = np.random.default_rng(0)
    ratios = 1.0 + rng.exponential(1.0, (30, 4))
    ratios[:, 0] = 1.0
    alphas = np.linspace(1.0, 8.0, 40)
    curve = performance_profile(ratios, alphas)
    assert np.all(np.diff(curve.rho, axis=1) >= 0.0)
    assert np.all((curve.rho >= 0.0) & (curve.rho <= 1.0))
    assert curve.rho[0, 0] == 1.0


def test_profile_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(5):
        values = rng.uniform(0.1, 5.0, (20, 3))
        ratios = performance_ratio(table(values)).ratios
        alphas = np.sort(rng.uniform(1.0, 6.0, 12))
        alphas[0] = 1.0
        curve = performance_profile(ratios, alphas)
        for s in range(3):
            for a_index, alpha in enumerate(alphas):
                count = sum(1 for p in range(20) if ratios[p, s] <= alpha)
                assert curve.rho[s, a_index] == count / 20


def test_profile_rejects_bad_alphas_and_empty():
    with pytest.raises(ValueError):
        performance_profile(np.ones((2, 2)), [0.5, 1.0])
    with pytest.raises(ValueError):
        performance_profile(np.ones((2, 2)), [2.0, 2.0])
    with pytest.raises(ValueError):
        performance_profile(np.zeros((0, 2)), [1.0])


def test_summary_stats_five_numbers():
    stats = summary_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}
    single = summary_stats([2.5])
    assert set(single.values()) == {2.5}


def test_summary_stats_matches_numpy_recomputation():
    rng = np.random.default_rng(5)
    finals = list(rng.uniform(0, 1, 11))
    stats = summary_stats(finals)
    assert stats["q1"] == pytest.approx(np.percentile(finals, 25))
    assert stats["median"] == pytest.approx(np.percentile(finals, 50))
    assert stats["q3"] == pytest.approx(np.percentile(finals, 75))


def test_cell_seed_is_deterministic_and_spread():
    a = cell_seed(42, 0, 1, 2)
    assert a == cell_seed(42, 0, 1, 2)
    seen = {cell_seed(42, p, r, s) for p in range(4) for r in range(4) for s in range(2)}
    assert len(seen) == 32


@pytest.fixture(scope="module")
def small_bench():
    problems = [
        standardize(make_synthetic("sinusoid", n=1, m=1, samples=48, noise=0.05, seed=1)),
        standardize(make_synthetic("teacher_net", n=2, m=1, samples=48, noise=0.1, seed=2)),
    ]
    solvers = [
        StandardSolver(width=16),
        IncrementalSolver(config=ItaConfig(initial_width=4, max_width=16)),
    ]
    return run_benchmark(problems, solvers, replicas=2, epoch_budgets=[20, 40], base_seed=9)


def test_run_benchmark_shapes_and_determinism(small_bench):
    assert set(small_bench.tables) == {20, 40}
    t = small_bench.tables[40]
    assert t.values.shape == (4, 2)
    assert len(small_bench.runs) == 8
    assert small_bench.failures == ()
    problems = [
        standardize(make_synthetic("sinusoid", n=1, m=1, samples=48, noise=0.05, seed=1)),
        standardize(make_synthetic("teacher_net", n=2, m=1, samples=48, noise=0.1, seed=2)),
    ]
    solvers = [
        StandardSolver(width=16),
        IncrementalSolver(config=ItaConfig(initial_width=4, max_width=16)),
    ]
    again = run_benchmark(problems, solvers, replicas=2, epoch_budgets=[20, 40], base_seed=9)
    for budget in (20, 40):
        assert np.array_equal(again.tables[budget].values, small_bench.tables[budget].values)


def test_run_benchmark_snapshot_consistency(small_bench):
    # the smaller-budget table equals the epoch-20 snapshot of the shared runs
    t20 = small_bench.tables[20]
    for row, row_id in enumerate(t20.problem_ids):
        problem, replica = row_id.rsplit("#", 1)
        for col, solver in enumerate(t20.solver_ids):
            run = small_bench.runs[(problem, int(replica), solver)]
            assert t20.values[row, col] == run.risk_after(20)


def test_run_benchmark_validation():
    d = standardize(make_synthetic("sinusoid", n=1, m=1, samples=16, seed=0))
    solver = StandardSolver(width=4)
    with pytest.raises(ValueError):
        run_benchmark([], [solver], 1, [10])
    with pytest.raises(ValueError):
        run_benchmark([d], [solver], 0, [10])
    with pytest.raises(ValueError):
        run_benchmark([d], [solver], 1, [])
    with pytest.raises(ValueError):
        run_benchmark([d, d], [solver], 1, [10])  # duplicate problem names


def test_results_table_validation():
    with pytest.raises(ValueError):
        ResultsTable(np.ones((2, 2)), ("a",), ("x", "y"), 10)
    with pytest.raises(ValueError):
        ResultsTable(-np.ones((1, 1)), ("a",), ("x",), 10)


def test_parallel_jobs_match_sequential():
    problems = [standardize(make_synthetic("sinusoid", n=1, m=1, samples=32, noise=0.02, seed=3))]
    solvers = [StandardSolver(width=8), IncrementalSolver(config=ItaConfig(initial_width=2, max_width=8))]
    seq = run_benchmark(problems, solvers, replicas=2, epoch_budgets=[15], base_seed=4, jobs=1)
    par = run_benchmark(problems, solvers, replicas=2, epoch_budgets=[15], base_seed=4, jobs=2)
    assert np.array_equal(seq.tables[15].values, par.tables[15].values)


def test_failed_cells_are_recorded_not_fatal():
    problem = standardize(make_synthetic("sinusoid", n=1, m=1, samples=24, noise=0.02, seed=5))
    # an impossible escape tolerance makes every incremental run fail
    broken = IncrementalSolver(
        solver_id="broken",
        config=ItaConfig(
            initial_width=2, max_width=8, maxit_per_stage=4,
            final_grad_tol=1e12,
        ),
    )
    result = run_benchmark([problem], [StandardSolver(width=8), broken],
                           replicas=2, epoch_budgets=[10], base_seed=1)
    assert len(result.failures) == 2
    table = result.tables[10]
    col = table.solver_ids.index("broken")
    assert np.all(np.isinf(table.values[:, col]))
    assert np.all(np.isfinite(table.values[:, 1 - col]))
