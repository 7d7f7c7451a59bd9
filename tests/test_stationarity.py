from itertools import combinations

import numpy as np
import pytest

from netgrow import (
    ConstantGrowth,
    GrowthPlan,
    GrowthStep,
    InertGrowth,
    NonConvergenceError,
    ParamVector,
    SplitGrowth,
    Topology,
    build_topology,
    count_manifold_families,
    escape_rate,
    find_stationary_point,
    gradient_forward,
    grad_norm_inf,
    make_synthetic,
    param_count,
    standardize,
    transfer_safe_spec,
    verify_loss_invariance,
    verify_stationarity_transfer,
)
from netgrow.data import Dataset


@pytest.fixture(scope="module")
def underfit_problem():
    # a width-5 teacher with noise cannot be matched by a width-2 student,
    # so stationary points keep a macroscopic residual
    return standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.1, seed=6, teacher_width=5)
    )


@pytest.fixture(scope="module")
def stationary_point(underfit_problem):
    for seed in range(10):
        try:
            return find_stationary_point(
                Topology((2, 2, 1)), underfit_problem, tol=1e-8, max_iter=3000, seed=seed
            )
        except NonConvergenceError:
            continue
    pytest.fail("no stationary point found in 10 attempts")


def test_linear_interpolation_toy_reaches_exact_zero_gradient():
    # one sample: the output bias alone can fit it, so the risk's minimum is
    # an exact zero with a zero gradient
    data = Dataset(np.array([[1.0]]), np.array([[2.0]]))
    theta = find_stationary_point(Topology((1, 1, 1)), data, tol=1e-12, max_iter=200, seed=1)
    grad = gradient_forward(theta, data)
    assert grad_norm_inf(grad) <= 1e-12


def test_find_stationary_point_small_net(underfit_problem):
    theta = find_stationary_point(
        Topology((2, 2, 1)), underfit_problem, tol=1e-8, max_iter=1000, seed=0
    )
    assert grad_norm_inf(gradient_forward(theta, underfit_problem)) <= 1e-8


def test_find_stationary_point_rejects_bad_tolerance(underfit_problem):
    with pytest.raises(ValueError):
        find_stationary_point(Topology((2, 2, 1)), underfit_problem, tol=0.0)


def test_find_stationary_point_raises_on_tiny_budget(underfit_problem):
    with pytest.raises(NonConvergenceError) as info:
        find_stationary_point(Topology((2, 2, 1)), underfit_problem, tol=1e-12, max_iter=1)
    assert info.value.best_norm > 1e-12


def test_loss_invariance_reports_pass_for_all_maps():
    rng = np.random.default_rng(0)
    t = build_topology([2, 3, 2, 1])
    theta = ParamVector(t, rng.standard_normal(param_count(t)))
    data = Dataset(rng.uniform(-2, 2, (12, 2)), rng.uniform(-1, 1, (12, 1)))
    specs = [
        InertGrowth(1, rng.uniform(0, 1, 2), rng.uniform(0, 1, (2, 2))),
        ConstantGrowth(2, rng.uniform(0, 1, 2), rng.uniform(0, 1, (1, 2))),
        SplitGrowth(1, 2, 1, np.array([0.2, 0.3, 0.5])),
        GrowthPlan((GrowthStep("inert", 1, 1), GrowthStep("split", 2, 1))),
    ]
    for spec in specs:
        report = verify_loss_invariance(theta, data, spec, rng=np.random.default_rng(5))
        assert report.passed, report
        assert report.risk_gap == abs(report.embedded_risk - report.source_risk)


def test_loss_invariance_fails_for_corrupted_growth():
    rng = np.random.default_rng(2)
    t = build_topology([2, 2, 1])
    theta = ParamVector(t, rng.standard_normal(param_count(t)))
    data = Dataset(rng.uniform(-2, 2, (12, 2)), rng.uniform(-1, 1, (12, 1)))
    grown = InertGrowth(1, np.array([0.5]), np.array([[0.1, 0.9]]))
    from netgrow import apply_growth

    honest = apply_growth(theta, grown)
    flat = np.array(honest.flat)
    flat[-1] = 0.7  # nonzero outgoing weight for the new neuron
    corrupted = ParamVector(honest.topology, flat)

    source = verify_loss_invariance(theta, data, grown).source_risk
    from netgrow import empirical_risk

    gap = abs(empirical_risk(corrupted, data) - source)
    assert gap > 1e-10 * (1 + abs(source))


def test_transfer_constant_zero_out(stationary_point, underfit_problem):
    spec = ConstantGrowth(1, np.array([0.7, -0.3, 1.2]), np.zeros((1, 3)))
    report = verify_stationarity_transfer(stationary_point, underfit_problem, spec)
    assert report.passed
    assert report.embedded_grad_norm <= 1e-6


def test_transfer_split_random_shares(stationary_point, underfit_problem):
    rng = np.random.default_rng(3)
    shares = rng.uniform(0, 1, 3)
    shares /= shares.sum()
    report = verify_stationarity_transfer(
        stationary_point, underfit_problem, SplitGrowth(1, 2, 0, shares)
    )
    assert report.passed


def test_transfer_accepts_spec_sequences(stationary_point, underfit_problem):
    specs = [
        ConstantGrowth(1, np.array([0.4]), np.zeros((1, 1))),
    ]
    report = verify_stationarity_transfer(stationary_point, underfit_problem, specs)
    assert report.passed


def test_transfer_mixed_chain_across_layers():
    # constant growth at layer 1 then a split at layer 2, from a stationary
    # point of a two-hidden-layer net
    problem = standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2, seed=8, teacher_width=8)
    )
    theta = None
    for seed in range(16):
        try:
            theta = find_stationary_point(
                Topology((2, 2, 2, 1)), problem, tol=1e-8, max_iter=4000, seed=seed
            )
            break
        except NonConvergenceError:
            continue
    assert theta is not None
    rng = np.random.default_rng(0)
    first = transfer_safe_spec("constant", theta.topology, 1, 2, rng)
    second = transfer_safe_spec("split", Topology((2, 4, 2, 1)), 2, 1, rng)
    report = verify_stationarity_transfer(theta, problem, [first, second])
    assert report.passed
    assert report.embedded_grad_norm <= 1e-6


def test_transfer_plan_draws_safe_parameters(stationary_point, underfit_problem):
    plan = GrowthPlan((GrowthStep("constant", 1, 2),))
    report = verify_stationarity_transfer(
        stationary_point, underfit_problem, plan, rng=np.random.default_rng(9)
    )
    assert report.passed


def test_transfer_rejects_inert_without_flag(stationary_point, underfit_problem):
    spec = InertGrowth(1, np.array([0.5]), np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        verify_stationarity_transfer(stationary_point, underfit_problem, spec)
    report = verify_stationarity_transfer(
        stationary_point, underfit_problem, spec, allow_escape_maps=True
    )
    assert not report.passed  # random inert growth wakes the gradient


def test_transfer_rejects_constant_with_nonzero_out(stationary_point, underfit_problem):
    spec = ConstantGrowth(1, np.array([0.5]), np.array([[0.4]]))
    with pytest.raises(ValueError):
        verify_stationarity_transfer(stationary_point, underfit_problem, spec)


def test_escape_statistics():
    # a width-1 student of a width-8 teacher keeps a large residual, so a
    # random new feature almost surely correlates with it
    problem = standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2, seed=6, teacher_width=8)
    )
    point = find_stationary_point(Topology((2, 1, 1)), problem, tol=1e-8, max_iter=3000, seed=0)
    rate = escape_rate(point, problem, layer=1, count=2, draws=50, threshold=1e-3, seed=0)
    assert rate >= 0.9


def brute_force_families(hidden: int, budget: int) -> int:
    total = 0
    layers = range(1, hidden + 1)
    for size in range(1, hidden + 1):
        for subset in combinations(layers, size):
            for counts in _compositions(len(subset), budget):
                total += 2 ** len(subset)
    return total


def _compositions(parts: int, budget: int):
    if parts == 0:
        yield ()
        return
    for first in range(1, budget - parts + 2):
        for rest in _compositions(parts - 1, budget - first):
            yield (first, *rest)


@pytest.mark.parametrize(
    "sizes,budget,expected",
    [([4, 5, 1], 1, 2), ([4, 5, 5, 1], 1, 4), ([4, 5, 5, 1], 2, 12)],
)
def test_count_manifold_families_examples(sizes, budget, expected):
    assert count_manifold_families(build_topology(sizes), budget) == expected


def test_count_manifold_families_matches_brute_force():
    for depth in (2, 3, 4):
        sizes = [3] * (depth + 1)
        for budget in (1, 2, 3, 5):
            got = count_manifold_families(build_topology(sizes), budget)
            assert got == brute_force_families(depth - 1, budget), (depth, budget)


def test_count_manifold_families_monotone():
    previous = 0
    for budget in range(1, 6):
        value = count_manifold_families(build_topology([3, 3, 3, 3]), budget)
        assert value >= previous
        previous = value
    for depth in (2, 3, 4, 5):
        narrow = count_manifold_families(build_topology([3] * (depth + 1)), 3)
        wider = count_manifold_families(build_topology([3] * (depth + 2)), 3)
        assert wider >= narrow


def test_count_manifold_families_rejects_bad_budget():
    with pytest.raises(ValueError):
        count_manifold_families(build_topology([2, 2, 1]), 0)


def test_transfer_safe_spec_kinds():
    t = build_topology([2, 3, 1])
    rng = np.random.default_rng(0)
    constant = transfer_safe_spec("constant", t, 1, 2, rng)
    assert not np.any(constant.out_weights)
    split = transfer_safe_spec("split", t, 1, 2, rng)
    assert abs(np.sum(split.shares) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        transfer_safe_spec("inert", t, 1, 2, rng)
