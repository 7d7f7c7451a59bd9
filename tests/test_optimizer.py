import numpy as np
import pytest

from netgrow import (
    LbfgsConfig,
    LineSearchError,
    NumericalError,
    lbfgs_minimize,
    line_search_strong_wolfe,
)
from netgrow import optimizer
from netgrow.optimizer import lbfgs_search


def quadratic(matrix, shift=None):
    shift = np.zeros(matrix.shape[0]) if shift is None else shift

    def objective(x):
        return 0.5 * float(x @ matrix @ x) - float(shift @ x), matrix @ x - shift

    return objective


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


def test_config_validation():
    with pytest.raises(ValueError):
        LbfgsConfig(memory=0)
    with pytest.raises(ValueError):
        LbfgsConfig(wolfe_c1=0.5, wolfe_c2=0.3)
    with pytest.raises(ValueError):
        LbfgsConfig(wolfe_c1=0.0)


def test_sphere_from_offset_start():
    def sphere(x):
        return float(x @ x), 2.0 * x

    res = lbfgs_minimize(sphere, np.array([5.0, -3.0]), LbfgsConfig(grad_tol_inf=1e-10))
    assert res.termination == "grad_tol"
    assert res.iterations <= 5
    assert res.grad_norm_final <= 1e-10
    assert res.f_final <= 1e-18


def test_rosenbrock_reaches_global_minimum():
    res = lbfgs_minimize(
        rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol_inf=1e-9, max_iter=200)
    )
    assert res.f_final <= 1e-10
    assert res.iterations <= 200
    assert np.max(np.abs(res.theta - 1.0)) <= 1e-5


def test_quadratic_newton_behavior_with_full_memory():
    # with memory >= dimension and a near-exact line search, the two-loop
    # reproduces Newton steps on quadratics: convergence in <= dim + 1 steps
    cfg = LbfgsConfig(memory=10, grad_tol_inf=1e-10, max_iter=40, wolfe_c2=1e-3, wolfe_c1=1e-6)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 8))
        a = m @ m.T + 5.0 * np.eye(8)
        res = lbfgs_minimize(quadratic(a, rng.standard_normal(8)), rng.standard_normal(8), cfg)
        assert res.termination == "grad_tol"
        assert res.iterations <= 9, seed


def test_every_accepted_step_decreases_objective():
    res = lbfgs_minimize(
        rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol_inf=1e-8, max_iter=150)
    )
    diffs = np.diff(res.f_history)
    # strict decrease away from the precision floor
    assert np.all(diffs <= 1e-15 * (1.0 + np.abs(res.f_history[:-1])))


def test_deterministic_given_same_inputs():
    cfg = LbfgsConfig(grad_tol_inf=1e-9, max_iter=100)
    a = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    b = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert a.f_history == b.f_history
    assert np.array_equal(a.theta, b.theta)


def test_a_non_descent_direction_restarts_with_no_memory(monkeypatch):
    # Turn the fourth direction uphill: the search must drop its memory and
    # start that line search from the no-memory step, then still converge.
    two_loop, line_search = optimizer._two_loop, optimizer.line_search_strong_wolfe
    seen, first_steps = [], []

    def uphill_once(grad, memory):
        seen.append((grad.copy(), len(memory)))
        return -grad if len(seen) == 4 else two_loop(grad, memory)

    def recorded(phi, f0, slope0, cfg, initial_step=1.0):
        first_steps.append(initial_step)
        return line_search(phi, f0, slope0, cfg, initial_step)

    monkeypatch.setattr(optimizer, "_two_loop", uphill_once)
    monkeypatch.setattr(optimizer, "line_search_strong_wolfe", recorded)
    res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol_inf=1e-9))
    grad, pairs = seen[3]
    assert pairs > 0 and first_steps[2] == 1.0
    assert first_steps[3] == min(1.0, 1.0 / (1.0 + float(np.abs(grad).sum()))) < 1.0
    assert seen[4][1] <= 1
    assert res.termination == "grad_tol" and np.max(np.abs(res.theta - 1.0)) <= 1e-5


def test_max_iter_zero_returns_start():
    res = lbfgs_minimize(
        rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=0, grad_tol_inf=1e-12)
    )
    assert res.iterations == 0
    assert res.termination == "max_iter"
    assert np.array_equal(res.theta, [-1.2, 1.0])


def test_stop_hook_terminates_with_custom_status():
    res = lbfgs_minimize(
        rosenbrock,
        np.array([-1.2, 1.0]),
        LbfgsConfig(max_iter=100),
        stop_hook=lambda k, x, f, g: k >= 3,
    )
    assert res.termination == "custom"
    assert res.iterations == 3


def test_nan_objective_aborts_with_diagnostic():
    def bad(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(NumericalError):
        lbfgs_minimize(bad, np.array([1.0]), LbfgsConfig())


def test_line_search_parabola_accepts_near_minimum():
    # phi(t) = (t - 1)^2 - 1 along the ray, slope -2 at t=0
    def phi(t):
        return (t - 1.0) ** 2 - 1.0, 2.0 * (t - 1.0)

    cfg = LbfgsConfig(wolfe_c2=1e-3)
    step = line_search_strong_wolfe(phi, phi(0.0)[0], -2.0, cfg)
    assert step == pytest.approx(1.0, abs=1e-6)


def test_line_search_rejects_ascent_direction():
    with pytest.raises(ValueError):
        line_search_strong_wolfe(lambda t: (t, 1.0), 0.0, 1.0, LbfgsConfig())


def test_line_search_step_satisfies_both_wolfe_conditions():
    # cubic with a genuine interior minimum along the ray
    def phi(t):
        return t**3 - 2.0 * t + 1.0, 3.0 * t**2 - 2.0

    f0, slope0 = phi(0.0)
    cfg = LbfgsConfig()
    step = line_search_strong_wolfe(phi, f0, slope0, cfg)
    f_t, slope_t = phi(step)
    assert f_t <= f0 + cfg.wolfe_c1 * step * slope0 + 1e-12
    assert abs(slope_t) <= -cfg.wolfe_c2 * slope0


def test_line_search_fails_on_unbounded_descent():
    tried = []

    def phi(t):
        tried.append(t)
        return -t, -1.0

    with pytest.raises(LineSearchError, match="after 25 evaluations"):
        line_search_strong_wolfe(phi, 0.0, -1.0, LbfgsConfig())
    assert len(tried) == 25


def test_line_search_failure_returns_best_iterate():
    # a kinked objective the Wolfe search cannot satisfy near its minimum
    def kinked(x):
        return float(np.abs(x[0])), np.array([np.sign(x[0]) if x[0] != 0 else 1.0])

    res = lbfgs_minimize(kinked, np.array([2.0]), LbfgsConfig(max_iter=60))
    assert res.termination == "line_search_fail"
    assert res.f_final <= 2.0


def _searched(phi, f0, slope0, initial_step, cfg=None):
    """The step the line search returns, and every step it evaluated, in order."""
    tried = []

    def recorded(t):
        tried.append(t)
        return phi(t)

    step = line_search_strong_wolfe(recorded, f0, slope0, cfg or LbfgsConfig(), initial_step)
    return step, tried


# lbfgs_minimize keeps only the latest evaluation and takes it as the accepted
# step's value and gradient, so the search must return the last step it tried.
@pytest.mark.parametrize(
    "phi, f0, slope0, initial_step, cfg, evaluations",
    [
        # bracketing: the step doubles twice and is accepted in the outer loop
        (lambda t: ((t - 4.0) ** 2, 2.0 * (t - 4.0)), 16.0, -8.0, 0.1, None, 3),
        # zoom after the first step fails sufficient decrease
        (lambda t: (-np.sin(3 * t) + 0.05 * t**4, -3 * np.cos(3 * t) + 0.2 * t**3),
         0.0, -3.0, 10.0, LbfgsConfig(wolfe_c2=0.1), 6),
        # zoom after the first step overshoots to a rising slope
        (lambda t: ((t - 1.0) ** 2, 2.0 * (t - 1.0)), 1.0, -2.0, 1.95, None, 2),
    ],
    ids=["bracketing", "zoom-decrease", "zoom-slope"],
)
def test_line_search_returns_the_last_step_it_evaluated(phi, f0, slope0, initial_step, cfg,
                                                        evaluations):
    step, tried = _searched(phi, f0, slope0, initial_step, cfg)
    assert len(tried) == evaluations
    assert step == tried[-1]


def test_random_line_searches_return_their_last_step():
    rng = np.random.default_rng(0)
    longer = 0
    for _ in range(300):
        a, w, p = rng.uniform(0.1, 2.0, 3), rng.uniform(0.2, 5.0, 3), rng.uniform(0, 6.3, 3)
        c = rng.uniform(0.01, 1.0)

        def phi(t):
            return (float(a @ np.sin(w * t + p)) + c * t * t,
                    float(a @ (w * np.cos(w * t + p))) + 2.0 * c * t)

        f0, slope0 = phi(0.0)
        if slope0 >= 0.0:
            continue
        try:
            step, tried = _searched(phi, f0, slope0, float(rng.uniform(0.05, 10.0)))
        except LineSearchError:
            continue
        assert step == tried[-1]
        longer += len(tried) > 1
    assert longer >= 50


def _kinked(x):
    return float(np.abs(x[0])), np.array([np.sign(x[0]) if x[0] != 0 else 1.0])


# lbfgs_minimize is lbfgs_search run with its objective; a driver that answers
# the points it yields one by one must see the same search, bit for bit.
@pytest.mark.parametrize(
    "objective, x0, cfg, hook, termination",
    [
        (rosenbrock, [-1.2, 1.0], LbfgsConfig(grad_tol_inf=1e-9), None, "grad_tol"),
        (rosenbrock, [-1.2, 1.0], LbfgsConfig(max_iter=100), lambda k, x, f, g: k >= 7, "custom"),
        (rosenbrock, [-1.2, 1.0], LbfgsConfig(max_iter=12), None, "max_iter"),
        (_kinked, [2.0], LbfgsConfig(max_iter=60), None, "line_search_fail"),
    ],
    ids=["grad_tol", "custom", "max_iter", "line_search_fail"],
)
def test_a_search_answered_point_by_point_is_lbfgs_minimize(objective, x0, cfg, hook,
                                                            termination):
    want = lbfgs_minimize(objective, np.array(x0), cfg, hook)
    search = lbfgs_search(np.array(x0), cfg, hook)
    points = []
    try:
        point = next(search)
        while True:
            points.append(point)
            point = search.send(objective(point))
    except StopIteration as done:
        got = done.value
    assert got.termination == want.termination == termination
    assert got.evaluations == want.evaluations == len(points)
    assert got.theta.tobytes() == want.theta.tobytes()
    assert (got.iterations, got.f_final, got.grad_norm_final) == (
        want.iterations, want.f_final, want.grad_norm_final)
    assert got.f_history == want.f_history and got.g_history == want.g_history


def test_a_search_refuses_a_nan_it_is_sent():
    search = lbfgs_search(np.array([1.0, 2.0]))
    point = search.send(None)
    with pytest.raises(NumericalError, match="at the starting point"):
        search.send((float("nan"), np.zeros_like(point)))
