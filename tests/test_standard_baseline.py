"""The fixed-width baseline is the incremental loop with nothing left to grow."""

from pathlib import Path

import numpy as np
import pytest

from netgrow import (
    ItaConfig,
    LbfgsConfig,
    Topology,
    ita_train,
    lbfgs_minimize,
    load_delimited,
    make_synthetic,
    param_count,
    risk_objective,
    standard_train,
    standardize,
)

IRIS = Path(__file__).parent / "data" / "iris.csv"


def problem(name):
    if name == "iris":
        return standardize(load_delimited(IRIS, has_header=True))
    if name == "sinusoid":
        return standardize(make_synthetic("sinusoid", n=1, m=1, samples=48, noise=0.05, seed=2))
    return standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=12, noise=0.0, seed=3, teacher_width=2)
    )


# (problem, width, tol, maxit, seed); the easy teacher runs stop on the
# gradient tolerance, the others on the iteration cap.
CASES = [
    ("teacher", 5, 1e-6, 0, 0),
    ("teacher", 12, 1e-6, 2000, 5),
    ("sinusoid", 8, 1e-6, 40, 1),
    ("iris", 6, 1e-6, 15, 2),
]


@pytest.mark.parametrize("name, width, tol, maxit, seed", CASES)
def test_standard_train_is_ita_at_full_width(name, width, tol, maxit, seed):
    data = problem(name)
    std = standard_train(data, width, tol=tol, maxit=maxit, seed=seed)
    ita = ita_train(data, ItaConfig(initial_width=width, max_width=width,
                                    maxit_per_stage=maxit, final_grad_tol=tol, seed=seed))
    assert (std.solver, ita.solver) == ("standard", "ita")
    assert std.theta_final.topology == ita.theta_final.topology
    assert np.array_equal(std.theta_final.flat, ita.theta_final.flat)
    assert std.loss_trace == ita.loss_trace
    assert std.grad_trace == ita.grad_trace
    assert std.stages == ita.stages
    assert std.cumulative_epochs == ita.cumulative_epochs


@pytest.mark.parametrize("name, width, tol, maxit, seed", CASES)
def test_standard_train_is_one_optimizer_run(name, width, tol, maxit, seed):
    data = problem(name)
    topology = Topology((data.n_inputs, width, data.targets.shape[1]))
    start = np.random.default_rng(seed).uniform(0.0, 1.0, param_count(topology))
    cfg = LbfgsConfig(max_iter=maxit, grad_tol_inf=tol)
    result = lbfgs_minimize(risk_objective(topology, data), start, cfg)
    run = standard_train(data, width, tol=tol, maxit=maxit, seed=seed)
    assert np.array_equal(run.theta_final.flat, result.theta)
    assert run.loss_trace == tuple(result.f_history)
    assert run.grad_trace == tuple(result.g_history)
    assert [s.termination for s in run.stages] == [result.termination]
