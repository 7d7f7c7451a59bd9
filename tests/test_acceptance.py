"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. The heavy fixtures (stationary points, the benchmark sweep) are
module-scoped so the timing criteria measure the intended work.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from netgrow import (
    GrowthPlan,
    GrowthStep,
    IncrementalSolver,
    ItaConfig,
    LbfgsConfig,
    NonConvergenceError,
    ParamVector,
    ResultsTable,
    StandardSolver,
    Topology,
    apply_growth,
    apply_plan,
    build_topology,
    empirical_risk,
    escape_rate,
    find_stationary_point,
    forward_batch,
    grad_norm_inf,
    gradient_finite_diff,
    gradient_forward,
    lbfgs_minimize,
    load_delimited,
    make_synthetic,
    param_count,
    performance_profile,
    performance_ratio,
    random_growth,
    run_benchmark,
    standardize,
    transfer_safe_spec,
    verify_stationarity_transfer,
)
from netgrow.cli import main
from netgrow.data import Dataset

IRIS = Path(__file__).parent / "data" / "iris.csv"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


def random_network(sizes, seed):
    rng = np.random.default_rng(seed)
    t = build_topology(sizes)
    theta = ParamVector(t, rng.standard_normal(param_count(t)))
    data = Dataset(
        rng.uniform(-2, 2, (8, sizes[0])),
        rng.uniform(-1, 1, (8, sizes[-1])),
        name=f"case-{seed}",
    )
    return theta, data, rng


TOPOLOGY_POOL = [
    [1, 2, 1],
    [2, 2, 1],
    [2, 3, 1],
    [3, 4, 2],
    [2, 2, 2, 1],
    [3, 3, 3, 2],
    [4, 3, 2, 2],
    [5, 4, 4, 3, 2],
]


def test_criterion_1_loss_invariance():
    with criterion(1, "loss invariance of all growth maps and plans"):
        start = time.time()
        cases = 0
        for sizes in TOPOLOGY_POOL:
            hidden = len(sizes) - 2
            for seed in range(9):
                theta, data, rng = random_network(sizes, seed=1000 * hidden + seed)
                base = empirical_risk(theta, data)
                for kind in ("inert", "constant", "split"):
                    layer = int(rng.integers(1, hidden + 1))
                    spec = random_growth(kind, theta.topology, layer, int(rng.integers(1, 4)), rng)
                    grown = apply_growth(theta, spec)
                    gap = abs(empirical_risk(grown, data) - base)
                    assert gap <= 1e-10 * (1.0 + base), (sizes, kind, seed, gap)
                    cases += 1
                if hidden >= 2:
                    plan = GrowthPlan(
                        (GrowthStep("inert", 1, 1), GrowthStep("split", 2, 2))
                    )
                    grown = apply_plan(theta, plan, rng=rng)
                    gap = abs(empirical_risk(grown, data) - base)
                    assert gap <= 1e-10 * (1.0 + base), (sizes, "plan", seed, gap)
                    cases += 1
        elapsed = time.time() - start
        assert cases >= 200, cases
        assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_criterion_2_activation_preservation():
    with criterion(2, "pre-activations of surviving neurons and outputs"):
        cases = 0
        for sizes in TOPOLOGY_POOL:
            hidden = len(sizes) - 2
            for seed in range(5):
                theta, data, rng = random_network(sizes, seed=7000 + 100 * hidden + seed)
                before = forward_batch(theta, data.inputs)
                for kind in ("inert", "constant", "split"):
                    layer = int(rng.integers(1, hidden + 1))
                    count = int(rng.integers(1, 4))
                    spec = random_growth(kind, theta.topology, layer, count, rng)
                    grown = apply_growth(theta, spec)
                    after = forward_batch(grown, data.inputs)
                    # outputs match
                    assert np.max(np.abs(after[-1] - before[-1])) <= 1e-12
                    # surviving neurons keep their pre-activations
                    for q in range(len(before) - 1):
                        width = theta.topology.size(q + 1)
                        assert np.max(np.abs(after[q][:, :width] - before[q])) <= 1e-12
                    new = after[layer - 1][:, theta.topology.size(layer):]
                    if kind == "constant":
                        expected = np.tile(spec.biases, (data.n_samples, 1))
                        assert np.array_equal(new, expected)  # exact
                    elif kind == "split":
                        src = before[layer - 1][:, [spec.source] * count]
                        assert np.max(np.abs(new - src)) <= 1e-12
                    cases += 1
        assert cases >= 100, cases


@pytest.fixture(scope="module")
def stationary_points():
    """>= 20 single-hidden-layer points plus deep points for mixed chains."""
    start = time.time()
    single = []
    problem_a = standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2, seed=6, teacher_width=8)
    )
    problem_b = standardize(
        make_synthetic("teacher_net", n=3, m=2, samples=24, noise=0.2, seed=9, teacher_width=6)
    )
    for topology, data in ((Topology((2, 1, 1)), problem_a), (Topology((3, 2, 2)), problem_b)):
        seed = 0
        while sum(1 for t, d in single if d is data) < 10 and seed < 30:
            try:
                theta = find_stationary_point(topology, data, tol=1e-8, max_iter=4000, seed=seed)
                single.append((theta, data))
            except NonConvergenceError:
                pass
            seed += 1

    deep = []
    problem_c = standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2, seed=8, teacher_width=8)
    )
    seed = 0
    while len(deep) < 4 and seed < 24:
        try:
            theta = find_stationary_point(
                Topology((2, 2, 2, 1)), problem_c, tol=1e-8, max_iter=4000, seed=seed
            )
            deep.append((theta, problem_c))
        except NonConvergenceError:
            pass
        seed += 1
    return {"single": single, "deep": deep, "setup_seconds": time.time() - start}


def test_criterion_3_stationarity_transfer(stationary_points):
    with criterion(3, "gradient transfer for constant/split maps and mixed chains"):
        start = time.time()
        single, deep = stationary_points["single"], stationary_points["deep"]
        assert len(single) >= 20, len(single)
        assert len(deep) >= 4, len(deep)
        for index, (theta, data) in enumerate(single + deep):
            assert grad_norm_inf(gradient_forward(theta, data)) <= 1e-8
            rng = np.random.default_rng(4000 + index)
            for kind in ("constant", "split"):
                spec = transfer_safe_spec(kind, theta.topology, 1, 2, rng)
                report = verify_stationarity_transfer(theta, data, spec)
                assert report.embedded_grad_norm <= 1e-6, (index, kind, report)
        for index, (theta, data) in enumerate(deep):
            rng = np.random.default_rng(4500 + index)
            first = transfer_safe_spec("constant", theta.topology, 1, 2, rng)
            grown_topology = Topology(
                tuple(
                    s + (2 if layer == 1 else 0)
                    for layer, s in enumerate(theta.topology.layer_sizes)
                )
            )
            second = transfer_safe_spec("split", grown_topology, 2, 1, rng)
            report = verify_stationarity_transfer(theta, data, [first, second])
            assert report.embedded_grad_norm <= 1e-6, (index, "mixed", report)
        elapsed = stationary_points["setup_seconds"] + time.time() - start
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_4_escape_property(stationary_points):
    with criterion(4, "random inert growth escapes stationarity"):
        # quantified over the single-hidden-layer points: the growing-as-you-
        # train setting. Deep points can hide behind dead downstream units.
        single = stationary_points["single"]
        assert len(single) >= 20
        for index, (theta, data) in enumerate(single):
            rate = escape_rate(
                theta, data, layer=1, count=2, draws=50, threshold=1e-3, seed=index
            )
            assert rate >= 0.9, (index, rate)


def test_criterion_5_gradient_correctness():
    with criterion(5, "reverse-sweep gradient vs central differences"):
        shapes = [[1, 2, 1], [2, 3, 2], [3, 2, 2, 1], [2, 2, 3, 2], [2, 3, 2, 2, 1]]
        cases = 0
        for seed in range(50):
            sizes = shapes[seed % len(shapes)]
            theta, data, _ = random_network(sizes, seed=3000 + seed)
            got = gradient_forward(theta, data)
            oracle = gradient_finite_diff(theta, data, step=1e-6)
            rel = np.max(np.abs(got.flat - oracle.flat) / (1.0 + np.abs(oracle.flat)))
            assert rel <= 1e-5, (sizes, seed, rel)
            cases += 1
        assert cases >= 50


def test_criterion_6_optimizer_sanity():
    with criterion(6, "quadratic in <= 12 iterations; Rosenbrock to 1e-10"):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 10))
        matrix = m @ m.T + 10.0 * np.eye(10)
        shift = rng.standard_normal(10)

        def quadratic(x):
            return 0.5 * float(x @ matrix @ x) - float(shift @ x), matrix @ x - shift

        # near-exact line search: the regime where full-memory quasi-Newton
        # reproduces Newton steps on quadratics
        cfg = LbfgsConfig(
            memory=10, grad_tol_inf=1e-10, max_iter=40, wolfe_c1=1e-6, wolfe_c2=1e-3
        )
        result = lbfgs_minimize(quadratic, rng.standard_normal(10), cfg)
        assert result.grad_norm_final <= 1e-10
        assert result.iterations <= 12, result.iterations

        def rosenbrock(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            g = np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )
            return f, g

        result = lbfgs_minimize(
            rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol_inf=1e-9, max_iter=200)
        )
        assert result.f_final <= 1e-10
        assert result.iterations <= 200


def test_criterion_7_profile_oracle():
    with criterion(7, "performance ratios and profiles vs brute force"):
        hand = ResultsTable(
            np.array([[2.0, 4.0], [3.0, 3.0]]), ("p0#0", "p1#0"), ("s1", "s2"), 100
        )
        curve = performance_profile(hand, [1.0, 2.0])
        assert curve.value("s1", 1.0) == 1.0
        assert curve.value("s2", 1.0) == 0.5
        assert curve.value("s2", 2.0) == 1.0

        rng = np.random.default_rng(123)
        for _ in range(10):
            values = rng.uniform(1e-4, 5.0, (20, 3))
            table = ResultsTable(
                values,
                tuple(f"p{r}#0" for r in range(20)),
                ("a", "b", "c"),
                100,
            )
            ratios = performance_ratio(table).ratios
            # independent recomputation
            expected = values / values.min(axis=1, keepdims=True)
            assert np.array_equal(ratios, expected)
            alphas = np.sort(rng.uniform(1.0, 4.0, 9))
            alphas[0] = 1.0
            curve = performance_profile(ratios, alphas)
            for s in range(3):
                for a_index, alpha in enumerate(alphas):
                    count = sum(1 for p in range(20) if ratios[p, s] <= alpha)
                    assert curve.rho[s, a_index] == count / 20


def test_criterion_8_desk_scale_benchmark():
    with criterion(8, "incremental vs standard benchmark with profiles"):
        start = time.time()
        problems = [
            standardize(make_synthetic(
                "polynomial", n=2, m=1, samples=200, noise=0.2, seed=47, name="poly2")),
            standardize(make_synthetic(
                "teacher_net", n=2, m=1, samples=200, noise=0.1, seed=11,
                teacher_width=6, name="teacher6")),
            standardize(make_synthetic(
                "sinusoid", n=2, m=2, samples=150, noise=0.05, seed=14, name="sin22")),
            standardize(make_synthetic(
                "polynomial", n=3, m=1, samples=150, noise=0.1, seed=13, name="poly3")),
            standardize(load_delimited(IRIS, has_header=True)),
        ]
        solvers = [
            StandardSolver(width=100, tol=1e-6),
            IncrementalSolver(
                config=ItaConfig(
                    initial_width=10,
                    max_width=100,
                    intermediate_loss_delta=1e-4,
                )
            ),
        ]
        result = run_benchmark(
            problems, solvers, replicas=10, epoch_budgets=[200, 500], base_seed=2026
        )
        assert result.failures == ()

        # growth-boundary risk continuity in every incremental run
        boundaries = 0
        for (problem, replica, solver), run in result.runs.items():
            if solver != "ita":
                continue
            for before, after in zip(run.stages, run.stages[1:]):
                gap = abs(after.start_risk - before.end_risk)
                assert gap <= 1e-12 * (1.0 + abs(before.end_risk)), (problem, replica)
                boundaries += 1
        assert boundaries > 0

        # the incremental profile weakly dominates the baseline at alpha 1.5
        # (a soft criterion: the underlying claim is empirical)
        for budget, table in result.tables.items():
            curve = performance_profile(table, [1.0, 1.5])
            rho_ita = curve.value("ita", 1.5)
            rho_std = curve.value("standard", 1.5)
            assert rho_ita >= rho_std, (budget, rho_ita, rho_std)

        elapsed = time.time() - start
        assert elapsed < 900.0, f"{elapsed:.1f}s"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical outputs under a fixed seed"):
        synth = "synth:teacher_net:n=2,m=1,P=48,noise=0.1,seed=3"
        pairs = []
        for name in ("a", "b"):
            out = tmp_path / f"train_{name}"
            assert main([
                "train", "--data", synth, "--hidden", "8", "--maxit", "25",
                "--seed", "11", "--out", str(out),
            ]) == 0
            pairs.append(out)
        for filename in ("metrics.jsonl", "model.bin", "model.txt", "summary.json"):
            assert (pairs[0] / filename).read_bytes() == (pairs[1] / filename).read_bytes()

        bench_dirs = []
        for name in ("a", "b"):
            out = tmp_path / f"bench_{name}"
            assert main([
                "bench", "--problem", synth,
                "--problem", "synth:sinusoid:n=1,m=1,P=48,noise=0.05,seed=2",
                "--replicas", "2", "--budgets", "10,20", "--std-width", "8",
                "--h0", "2", "--hmax", "8", "--seed", "21", "--out", str(out),
            ]) == 0
            bench_dirs.append(out)
        for filename in ("results_b10.tsv", "results_b20.tsv", "traces.jsonl", "stats.tsv"):
            assert (bench_dirs[0] / filename).read_bytes() == (bench_dirs[1] / filename).read_bytes()

        profile_dirs = []
        for name in ("a", "b"):
            out = tmp_path / f"profile_{name}"
            assert main([
                "profile", "--table", str(bench_dirs[0] / "results_b20.tsv"),
                "--out", str(out),
            ]) == 0
            profile_dirs.append(out)
        a = (profile_dirs[0] / "profile_results_b20.tsv").read_bytes()
        b = (profile_dirs[1] / "profile_results_b20.tsv").read_bytes()
        assert a == b
