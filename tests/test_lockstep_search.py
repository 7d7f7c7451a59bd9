"""Stationary-point searches run in lockstep exactly as they run one by one.

``transfer_records`` finds its points with ``stationarity._stationary_points``,
which advances many resumable L-BFGS searches together and evaluates each
round's points in one stacked call. On the certify panel's fixture it must
run the seeds a loop over ``find_stationary_point`` runs, reach the same
points to the bit with the same evaluations per search, and never have more
than ``SEARCHES_IN_FLIGHT`` searches in flight.
"""

import numpy as np
import pytest

from netgrow import (
    NonConvergenceError,
    NumericalError,
    Topology,
    escape_rate,
    find_stationary_point,
    risk_and_gradient,
    stationarity,
)
from netgrow.autodiff import grad_norm_inf
from netgrow.data import Dataset
from netgrow.optimizer import lbfgs_minimize, lbfgs_search

TOPOLOGY = Topology((2, 2, 1))
WANTED = 10  # verify's default --seeds
SEARCHES = {0: 13, 200: 14}  # searches each panel seed runs for its ten points


def searches_one_by_one(fixture, starts, monkeypatch):
    """The points of a find_stationary_point loop, and (start, evaluations, theta) per search."""
    runs = []

    def recording(objective, x0, cfg, stop_hook):
        result = lbfgs_minimize(objective, x0, cfg, stop_hook)
        runs.append((x0.tobytes(), result.evaluations, result.theta.tobytes()))
        return result

    monkeypatch.setattr(stationarity, "lbfgs_minimize", recording)
    points = []
    for seed in starts:
        try:
            points.append((seed, find_stationary_point(TOPOLOGY, fixture, tol=1e-8, max_iter=3000,
                                                       seed=seed)))
        except NonConvergenceError:
            continue
        if len(points) == WANTED:
            break
    monkeypatch.undo()
    return points, runs


def searches_in_lockstep(fixture, starts, monkeypatch):
    """The lockstep driver's points, (start, evaluations, theta) per search and K per round."""
    runs, rounds = [], []

    def recording_search(x0, cfg, stop_hook):
        result = yield from lbfgs_search(x0, cfg, stop_hook)
        runs.append((x0.tobytes(), result.evaluations, result.theta.tobytes()))
        return result

    stacked = stationarity.stacked_risk_objective

    def recording_objective(topology, data, capacity):
        objective = stacked(topology, data, capacity)

        def counted(thetas):
            rounds.append(len(thetas))
            return objective(thetas)

        return counted

    monkeypatch.setattr(stationarity, "lbfgs_search", recording_search)
    monkeypatch.setattr(stationarity, "stacked_risk_objective", recording_objective)
    points = stationarity._stationary_points(TOPOLOGY, fixture, starts, WANTED, tol=1e-8,
                                             max_iter=3000)
    monkeypatch.undo()
    return points, runs, rounds


@pytest.fixture(scope="module")
def fixture():
    return stationarity._teacher_fixture(0.1, 5)  # the fixture behind `verify --transfer`


@pytest.mark.parametrize("cap", [stationarity.SEARCHES_IN_FLIGHT, 3])
@pytest.mark.parametrize("panel_seed", sorted(SEARCHES))
def test_lockstep_runs_the_searches_of_the_loop_to_the_bit(fixture, monkeypatch, panel_seed, cap):
    starts = range(panel_seed + 1, panel_seed + 1 + WANTED * 4)  # as transfer_records
    expected, expected_runs = searches_one_by_one(fixture, starts, monkeypatch)
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
