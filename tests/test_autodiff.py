import numpy as np
import pytest

from netgrow import (
    ParamVector,
    build_topology,
    forward_batch,
    grad_norm_inf,
    gradient_finite_diff,
    gradient_forward,
    param_count,
    risk_and_gradient,
)
from netgrow.data import Dataset


def random_case(sizes, samples, seed):
    rng = np.random.default_rng(seed)
    t = build_topology(sizes)
    theta = ParamVector(t, rng.standard_normal(param_count(t)))
    d = Dataset(
        rng.uniform(-1.5, 1.5, (samples, sizes[0])),
        rng.uniform(-1.0, 1.0, (samples, sizes[-1])),
    )
    return theta, d


def rel_err(a, b):
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


def test_gradient_zero_at_perfect_fit():
    rng = np.random.default_rng(0)
    t = build_topology([2, 3, 2])
    theta = ParamVector(t, rng.standard_normal(param_count(t)))
    X = rng.uniform(-1, 1, (5, 2))
    Y = forward_batch(theta, X)[-1]
    grad = gradient_forward(theta, Dataset(X, Y))
    assert np.all(grad.flat == 0.0)


def test_gradient_matches_finite_differences():
    theta, d = random_case([2, 3, 2], 5, seed=21)
    forward_grad = gradient_forward(theta, d)
    oracle = gradient_finite_diff(theta, d, step=1e-6)
    assert rel_err(forward_grad.flat, oracle.flat) <= 1e-5


def test_gradient_matches_oracle_across_seeds_and_depths():
    cases = [([1, 2, 1], 4), ([2, 3, 2], 5), ([3, 2, 2, 1], 6), ([2, 2, 3, 2], 6)]
    for seed in range(20):
        sizes, samples = cases[seed % len(cases)]
        theta, d = random_case(sizes, samples, seed=seed)
        forward_grad = gradient_forward(theta, d)
        oracle = gradient_finite_diff(theta, d)
        assert rel_err(forward_grad.flat, oracle.flat) <= 1e-5, (sizes, seed)


def test_gradient_hand_derived_two_parameter_chain():
    t = build_topology([1, 1, 1])
    w1, s1, w2, s2 = 1.2, -0.4, 0.7, 0.1
    theta = ParamVector(t, np.array([s1, w1, s2, w2]))
    x, y = 0.3, 0.8
    d = Dataset(np.array([[x]]), np.array([[y]]))
    a1 = w1 * x + s1
    z = np.tanh(a1)
    f = w2 * z + s2
    e = 2.0 * (f - y)
    expected = np.array([e * w2 * (1 - z**2), e * w2 * (1 - z**2) * x, e, e * z])
    grad = gradient_forward(theta, d)
    assert np.max(np.abs(grad.flat - expected)) <= 1e-12


def test_finite_diff_on_quadratic_coordinate():
    # a net with no hidden layer is linear, so the risk is quadratic in each
    # weight and the central difference is exact up to O(step^2)
    t = build_topology([1, 1])
    theta = ParamVector(t, np.array([0.0, 1.0]))
    d = Dataset(np.array([[1.0]]), np.array([[2.0]]))
    grad = gradient_finite_diff(theta, d, step=1e-5)
    # risk = (w - 2)^2, derivative at w=1 is -2
    assert grad.flat[1] == pytest.approx(-2.0, abs=1e-9)


def test_finite_diff_rejects_bad_step():
    theta, d = random_case([2, 2, 1], 3, seed=5)
    with pytest.raises(ValueError):
        gradient_finite_diff(theta, d, step=0.0)


def test_batched_equals_mean_of_per_sample_gradients():
    theta, d = random_case([2, 3, 1], 6, seed=33)
    _, batched = risk_and_gradient(theta, d)
    parts = []
    for k in range(d.n_samples):
        single = Dataset(d.inputs[k : k + 1], d.targets[k : k + 1])
        _, g = risk_and_gradient(theta, single)
        parts.append(g)
    assert np.max(np.abs(batched - np.mean(parts, axis=0))) <= 1e-14


def test_grad_norm_inf():
    assert grad_norm_inf(np.zeros(4)) == 0.0
    assert grad_norm_inf(np.array([1.0, -3.0, 2.0])) == 3.0
    t = build_topology([1, 1])
    assert grad_norm_inf(ParamVector(t, np.array([-2.0, 0.5]))) == 2.0


def test_risk_and_gradient_rejects_empty_and_mismatched():
    theta, d = random_case([2, 2, 1], 3, seed=1)
    bad = Dataset(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        risk_and_gradient(theta, bad)


def test_gradient_on_network_without_hidden_layer():
    # depth-1 nets are linear models; the sweep degenerates to the seeds
    theta, d = random_case([3, 2], 6, seed=9)
    got = gradient_forward(theta, d)
    oracle = gradient_finite_diff(theta, d)
    assert rel_err(got.flat, oracle.flat) <= 1e-6
