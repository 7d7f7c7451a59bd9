"""The matrix-product backward sweep: agreement with the broadcast-einsum sweep it
replaced, memory per call, slopes taken from activation values, saturated units,
and a wide deep net against the central-difference oracle."""

import tracemalloc

import numpy as np
import pytest

from netgrow import (
    IDENTITY,
    TANH,
    ParamVector,
    build_topology,
    empirical_risk,
    gradient_finite_diff,
    param_count,
    risk_and_gradient,
)
from netgrow.data import Dataset
from netgrow.net_core import MSE, forward_batch


def random_case(sizes, samples, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    t = build_topology(sizes)
    theta = ParamVector(t, rng.standard_normal(param_count(t)) * scale)
    d = Dataset(
        rng.uniform(-1.5, 1.5, (samples, sizes[0])),
        rng.uniform(-1.0, 1.0, (samples, sizes[-1])),
    )
    return theta, d


def einsum_reference(theta, d, activation):
    """The broadcast-einsum sweep the matrix-product sweep replaced, slope from t."""
    layers = theta.layer_arrays()
    pre = forward_batch(theta, d.inputs, activation)
    signals = [d.inputs] + [activation.value(a) for a in pre[:-1]]
    u = MSE.derivative_per_output(d.targets, pre[-1])
    grads = []
    for layer in range(len(layers), 0, -1):
        if layer < len(layers):
            slope = activation.derivative(pre[layer - 1])
            u = np.einsum("pr,prj->pj", u, layers[layer][1][None, :, :] * slope[:, None, :])
        grads.append((u.sum(axis=0) / len(u), np.einsum("pj,pi->ji", u, signals[layer - 1]) / len(u)))
    return ParamVector.from_layer_arrays(theta.topology, grads[::-1]).flat


def test_matches_einsum_reference_on_600_random_nets():
    worst = 0.0
    for seed in range(600):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 6))]
        sizes += [int(rng.integers(1, 30)) for _ in range(1 + seed % 4)]
        sizes += [int(rng.integers(1, 5))]
        activation = IDENTITY if seed % 3 == 0 else TANH
        theta, d = random_case(sizes, int(rng.integers(1, 60)), seed, scale=rng.choice([0.3, 1.0, 3.0]))
        risk, grad = risk_and_gradient(theta, d, activation)
        assert risk == empirical_risk(theta, d, activation)
        reference = einsum_reference(theta, d, activation)
        scale = max(np.max(np.abs(reference)), np.finfo(float).tiny)
        worst = max(worst, np.max(np.abs(grad - reference)) / scale)
    assert worst <= 1e-14, worst


def test_one_call_allocates_less_than_a_quarter_of_a_p_h_h_tensor():
    samples, width = 200, 150
    theta, d = random_case([2, width, width, 1], samples, 0)
    risk_and_gradient(theta, d)  # first call pays any lazy set-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        risk_and_gradient(theta, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < samples * width * width * 8 / 4, peak


@pytest.mark.parametrize("activation", [TANH, IDENTITY], ids=["tanh", "identity"])
def test_derivative_from_value_matches_derivative(activation):
    grid = np.linspace(-25.0, 25.0, 20001)
    from_value = activation.derivative_from_value(activation.value(grid))
    assert from_value.shape == grid.shape
    assert np.max(np.abs(from_value - activation.derivative(grid))) <= 1e-15


def test_saturated_units_have_zero_slope_and_finite_gradient():
    a = np.array([-40.0, -20.0, 20.0, 35.0])
    assert np.all(TANH.derivative_from_value(np.tanh(a)) == 0.0)

    theta, d = random_case([2, 4, 1], 9, 1)
    (b1, w1), upper = [(b.copy(), w.copy()) for b, w in theta.layer_arrays()]
    b1[:2] = [30.0, -30.0]  # units 0 and 1 sit at |a| >= 20 on every input
    w1[:2] = 0.5
    theta = ParamVector.from_layer_arrays(theta.topology, [(b1, w1), upper])
    assert np.all(np.abs((d.inputs @ w1.T + b1)[:, :2]) >= 20.0)
    _, grad = risk_and_gradient(theta, d)
    assert np.all(np.isfinite(grad))
    grad_blocks = ParamVector(theta.topology, grad).layer_blocks()
    assert np.all(grad_blocks[0][:2] == 0.0)  # no signal reaches a saturated unit's inputs
    assert np.any(grad_blocks[0][2:] != 0.0)


def test_wide_deep_net_matches_finite_differences_on_spread_coordinates():
    theta, d = random_case([3, 40, 40, 40, 2], 30, 2)
    _, grad = risk_and_gradient(theta, d)
    oracle = gradient_finite_diff(theta, d).flat
    coords = sorted({int(round(v)) for v in np.linspace(0, grad.size - 1, 24)})
    assert len(coords) == 24
    err = np.abs(grad[coords] - oracle[coords]) / np.abs(oracle[coords])
    assert np.max(err) <= 1e-6, err
