"""The stationary-point search gives up on starts whose parameters diverge."""

import inspect

import numpy as np
import pytest

from netgrow import (
    LbfgsConfig,
    NonConvergenceError,
    Topology,
    find_stationary_point,
    lbfgs_minimize,
    make_synthetic,
    standardize,
    stationarity,
)
from netgrow.stationarity import DIVERGENCE_BOUND

TOPOLOGY = Topology((2, 2, 1))


@pytest.fixture(scope="module")
def transfer_fixture():
    # the fixture behind `verify --transfer`
    return standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.1, seed=6, teacher_width=5)
    )


def test_diverging_start_stops_early(transfer_fixture):
    # Without the stop this start runs 1,363 iterations while max|θ| grows
    # past 300 at iteration 315 and on into the thousands.
    with pytest.raises(NonConvergenceError) as info:
        find_stationary_point(TOPOLOGY, transfer_fixture, tol=1e-8, max_iter=3000, seed=106)
    error = info.value
    assert error.outcome == "diverged"
    assert error.iterations < 400
    assert error.evaluations > error.iterations
    assert str(error).startswith("diverged: max|θ| ")


def test_converging_searches_stay_well_inside_the_bound(transfer_fixture, monkeypatch):
    # these starts converge with the highest |θ| peaks on the certify panel
    peaks = []
    diverged = stationarity._diverged

    def recording(k, x, f, g):  # the stop test, run on every iterate before its step
        if k == 0:
            peaks.append(0.0)
        peaks[-1] = max(peaks[-1], float(np.max(np.abs(x))))
        return diverged(k, x, f, g)

    monkeypatch.setattr(stationarity, "_diverged", recording)
    for seed in (6, 110, 309, 310):
        theta = find_stationary_point(TOPOLOGY, transfer_fixture, tol=1e-8, max_iter=3000, seed=seed)
        peaks[-1] = max(peaks[-1], float(np.max(np.abs(theta.flat))))
    assert len(peaks) == 4
    assert max(peaks) > 100.0, peaks  # the margin is pinned by searches that do travel
    assert max(peaks) <= DIVERGENCE_BOUND / 2, peaks


def test_evaluations_count_objective_calls():
    calls = [0]

    def rosenbrock(x):
        calls[0] += 1
        f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                      200.0 * (x[1] - x[0] ** 2)])
        return f, g

    result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol_inf=1e-9))
    assert result.termination == "grad_tol"
    assert result.evaluations == calls[0]
    assert result.evaluations > result.iterations


def test_search_signature_has_no_bound_parameter():
    assert list(inspect.signature(find_stationary_point).parameters) == [
        "topology", "data", "tol", "max_iter", "seed",
    ]
