"""Stationary-point searches run in lockstep exactly as they run one by one.

``transfer_records``, ``escape_records`` and ``find_stationary_point`` find
their points with ``stationarity._stationary_points``, which advances many
resumable L-BFGS searches together and evaluates each round's points in one
stacked call. On the certify panel's fixture it must run the seeds that a loop
of per-call searches (``lbfgs_minimize`` on ``risk_objective``) runs, reach the
same points to the bit with the same evaluations per search, and never have
more than ``SEARCHES_IN_FLIGHT`` searches in flight. Run on one seed, it must
succeed and fail as the per-call search does; asked for one point, it must
move past a seed that fails.
"""

import numpy as np
import pytest

from netgrow import (
    LbfgsConfig,
    NonConvergenceError,
    NumericalError,
    ParamVector,
    Topology,
    escape_rate,
    find_stationary_point,
    risk_and_gradient,
    risk_objective,
    stationarity,
)
from netgrow.autodiff import grad_norm_inf
from netgrow.data import Dataset
from netgrow.optimizer import lbfgs_minimize, lbfgs_search

TOPOLOGY = Topology((2, 2, 1))
WANTED = 10  # verify's default --seeds
SEARCHES = {0: 13, 200: 14}  # searches each panel seed runs for its ten points


def searches_one_by_one(fixture, starts):
    """The points of a loop of per-call searches, and (start, evaluations, theta) per search."""
    cfg = LbfgsConfig(grad_tol_inf=1e-8, max_iter=3000)
    points, runs = [], []
    for seed in starts:
        x0 = stationarity._search_start(TOPOLOGY, seed)
        result = lbfgs_minimize(risk_objective(TOPOLOGY, fixture), x0, cfg, stationarity._diverged)
        runs.append((x0.tobytes(), result.evaluations, result.theta.tobytes()))
        if result.grad_norm_final <= 1e-8:
            points.append((seed, ParamVector(TOPOLOGY, result.theta)))
        if len(points) == WANTED:
            break
    return points, runs


def record_stacks(monkeypatch, stacks):
    """Make each stacked call that ``stationarity`` makes append its K to ``stacks``."""
    stacked = stationarity.stacked_risk_objective

    def recording_objective(topology, data):
        objective = stacked(topology, data)

        def counted(thetas):
            stacks.append(len(thetas))
            return objective(thetas)

        return counted

    monkeypatch.setattr(stationarity, "stacked_risk_objective", recording_objective)


def searches_in_lockstep(fixture, starts, monkeypatch):
    """The lockstep driver's points, (start, evaluations, theta) per search and K per round."""
    runs, rounds = [], []

    def recording_search(x0, cfg, stop_hook):
        result = yield from lbfgs_search(x0, cfg, stop_hook)
        runs.append((x0.tobytes(), result.evaluations, result.theta.tobytes()))
        return result

    monkeypatch.setattr(stationarity, "lbfgs_search", recording_search)
    record_stacks(monkeypatch, rounds)
    points, failed = stationarity._stationary_points(TOPOLOGY, fixture, starts, WANTED, tol=1e-8,
                                                     max_iter=3000)
    monkeypatch.undo()
    assert len(points) + len(failed) == len(runs)
    assert all(result.grad_norm_final > 1e-8 for result in failed)
    return points, runs, rounds


@pytest.fixture(scope="module")
def fixture():
    return stationarity._teacher_fixture(0.1, 5)  # the fixture behind `verify --transfer`


@pytest.mark.parametrize("cap", [stationarity.SEARCHES_IN_FLIGHT, 3])
@pytest.mark.parametrize("panel_seed", sorted(SEARCHES))
def test_lockstep_runs_the_searches_of_the_loop_to_the_bit(fixture, monkeypatch, panel_seed, cap):
    starts = range(panel_seed + 1, panel_seed + 1 + WANTED * 4)  # as transfer_records
    expected, expected_runs = searches_one_by_one(fixture, starts)
    monkeypatch.setattr(stationarity, "SEARCHES_IN_FLIGHT", cap)
    points, runs, rounds = searches_in_lockstep(fixture, starts, monkeypatch)

    assert len(expected) == WANTED and len(expected_runs) == SEARCHES[panel_seed]
    assert [seed for seed, _ in points] == [seed for seed, _ in expected]
    for (_, theta), (_, want) in zip(points, expected):
        assert theta.flat.tobytes() == want.flat.tobytes()
    # each search, failing ones too, ran from the same start with the same evaluations
    assert sorted(runs) == sorted(expected_runs)
    assert sum(rounds) == sum(evaluations for _, evaluations, _ in runs)
    assert max(rounds) == min(cap, WANTED)  # the first round launches up to the cap


def test_a_numerical_error_in_the_searches_propagates():
    rng = np.random.default_rng(1)
    targets = rng.uniform(-1.0, 1.0, (12, 1))
    targets[5] = 1e200  # its square overflows, so every risk is inf
    data = Dataset(rng.uniform(-2.0, 2.0, (12, 2)), targets, name="overflow")
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="at the starting point"):
        stationarity._stationary_points(TOPOLOGY, data, range(4), 2, tol=1e-8, max_iter=100)


@pytest.mark.parametrize("seed", [0, 3])
def test_escape_rate_counts_what_single_calls_count(seed):
    data = stationarity._teacher_fixture(0.2, 8)  # the fixture behind `verify --expect-escape`
    theta = find_stationary_point(Topology((2, 1, 1)), data, tol=1e-8, max_iter=3000, seed=seed)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(50):
        spec = stationarity.random_growth("inert", theta.topology, 1, 2, rng)
        _, grad = risk_and_gradient(stationarity.apply_growth(theta, spec), data)
        hits += grad_norm_inf(grad) > 1e-3
    rate = escape_rate(theta, data, layer=1, count=2, draws=50, threshold=1e-3, seed=seed)
    assert rate == hits / 50


def per_call_search(fixture, seed, max_iter):
    """``find_stationary_point`` as one search on a per-call objective: ``lbfgs_minimize``."""
    result = lbfgs_minimize(risk_objective(TOPOLOGY, fixture),
                            stationarity._search_start(TOPOLOGY, seed),
                            LbfgsConfig(grad_tol_inf=1e-8, max_iter=max_iter),
                            stationarity._diverged)
    if result.grad_norm_final > 1e-8:
        raise stationarity._non_convergence(result)
    return ParamVector(TOPOLOGY, result.theta)


def test_one_seed_reaches_the_bits_of_a_per_call_search(fixture):
    want = per_call_search(fixture, 6, 3000)  # a start that travels to |θ| 114 and converges
    got = find_stationary_point(TOPOLOGY, fixture, tol=1e-8, max_iter=3000, seed=6)
    assert got.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("seed, max_iter, outcome", [(106, 3000, "diverged"), (6, 20, "max_iter")])
def test_one_seed_fails_as_a_per_call_search_fails(fixture, seed, max_iter, outcome):
    with pytest.raises(NonConvergenceError) as want:
        per_call_search(fixture, seed, max_iter)
    with pytest.raises(NonConvergenceError) as got:
        find_stationary_point(TOPOLOGY, fixture, tol=1e-8, max_iter=max_iter, seed=seed)
    assert want.value.outcome == outcome
    for name in ("outcome", "iterations", "evaluations", "best_norm"):
        assert getattr(got.value, name) == getattr(want.value, name), name
    assert str(got.value) == str(want.value)


def test_a_one_seed_search_stacks_one_network(fixture, monkeypatch):
    stacks = []
    record_stacks(monkeypatch, stacks)
    find_stationary_point(TOPOLOGY, fixture, tol=1e-8, max_iter=3000, seed=6)
    assert stacks and set(stacks) == {1}


def test_one_wanted_point_moves_past_a_failed_first_seed(fixture):
    # seed 106 diverges on this fixture (see test_search_stop.py); 107 converges
    points, failed = stationarity._stationary_points(TOPOLOGY, fixture, range(106, 126), 1,
                                                     tol=1e-8, max_iter=3000)
    assert [seed for seed, _ in points] == [107]
    assert [result.termination for result in failed] == ["custom"]
    want = find_stationary_point(TOPOLOGY, fixture, tol=1e-8, max_iter=3000, seed=107)
    assert points[0][1].flat.tobytes() == want.flat.tobytes()


def test_the_escape_check_moves_past_a_failed_first_search(monkeypatch):
    seed = 3
    data = stationarity._teacher_fixture(0.2, 8)
    theta = find_stationary_point(Topology((2, 1, 1)), data, tol=1e-8, max_iter=3000,
                                  seed=seed + 1)
    want = escape_rate(theta, data, layer=1, count=2, draws=50, threshold=1e-3, seed=seed)
    diverged, starts = stationarity._diverged, []

    def first_search_diverges(k, x, f, g):
        if k == 0:
            starts.append(x.copy())
        return len(starts) == 1 or diverged(k, x, f, g)

    monkeypatch.setattr(stationarity, "_diverged", first_search_diverges)
    [record] = stationarity.escape_records(seed)
    assert len(starts) == 2
    second = stationarity._search_start(Topology((2, 1, 1)), seed + 1)
    assert starts[1].tobytes() == second.tobytes()
    assert record["escape_rate"] == want
