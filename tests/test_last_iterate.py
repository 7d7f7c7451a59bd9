"""L-BFGS reports the iterate it stopped at, whatever stopped it.

The returned ``theta``, ``f_final`` and ``grad_norm_final`` are the last
accepted iterate and its history entries; a failed line search leaves that
iterate where the previous step put it.
"""

import numpy as np
import pytest

from netgrow import (
    ItaConfig,
    LbfgsConfig,
    empirical_risk,
    ita_train,
    lbfgs_minimize,
    make_synthetic,
    standardize,
)


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                  200.0 * (x[1] - x[0] ** 2)])
    return f, g


def kinked(x):
    # the Wolfe search cannot satisfy |x| near its minimum
    return float(np.abs(x[0])), np.array([np.sign(x[0]) if x[0] != 0 else 1.0])


CASES = {
    "grad_tol": (rosenbrock, [-1.2, 1.0], LbfgsConfig(grad_tol_inf=1e-6, max_iter=500), None),
    "max_iter": (rosenbrock, [-1.2, 1.0], LbfgsConfig(grad_tol_inf=1e-12, max_iter=7), None),
    "custom": (rosenbrock, [-1.2, 1.0], LbfgsConfig(max_iter=100), lambda k, x, f, g: k >= 4),
    "line_search_fail": (kinked, [2.0], LbfgsConfig(max_iter=60), None),
}


@pytest.mark.parametrize("termination", sorted(CASES))
def test_the_result_is_the_last_accepted_iterate(termination):
    objective, x0, cfg, hook = CASES[termination]
    res = lbfgs_minimize(objective, np.array(x0), cfg, stop_hook=hook)
    assert res.termination == termination
    assert res.f_final == res.f_history[-1]
    assert res.grad_norm_final == res.g_history[-1]
    f, g = objective(res.theta)
    assert f == res.f_final
    assert float(np.abs(g).max()) == res.grad_norm_final


def test_a_training_run_ends_at_the_risk_of_its_final_parameters():
    data = standardize(make_synthetic("polynomial", n=2, m=1, samples=80, noise=0.2, seed=47))
    run = ita_train(data, ItaConfig(initial_width=3, max_width=12, seed=2, maxit_per_stage=40))
    assert len(run.stages) > 1
    assert empirical_risk(run.theta_final, data) == run.final_risk
