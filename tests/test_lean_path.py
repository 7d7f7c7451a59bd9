"""The lean evaluation path gives bit-identical results to the straightforward formulas.

Each reference below is the plain numpy form the library code replaced: the
risk as ``np.mean`` of ``np.mean``, the forward step as ``z @ w.T + b``, the
gradient pack through ``hstack``/``concatenate``, the two-loop recursion with
fresh temporaries, the curvature guard through ``np.linalg.norm`` and the
parameter count summed over the layers. Every comparison is exact.
"""

import math
from collections import deque

import numpy as np
import pytest

from netgrow import (
    ParamVector,
    Topology,
    empirical_risk,
    forward_batch,
    param_count,
    risk_and_gradient,
)
from netgrow.data import Dataset
from netgrow.optimizer import _two_loop


def reference_outputs(theta, inputs):
    z = inputs
    layers = theta.layer_arrays()
    for layer, (b, w) in enumerate(layers, start=1):
        a = z @ w.T + b
        z = np.tanh(a) if layer < len(layers) else a
    return z


def reference_risk(theta, data):
    outputs = reference_outputs(theta, data.inputs)
    return float(np.mean(np.mean((outputs - data.targets) ** 2, axis=-1)))


def reference_pack(layers):
    parts = [np.hstack([np.asarray(b)[:, None], w]).ravel() for b, w in layers]
    return np.concatenate(parts)


def reference_two_loop(grad, s_list, y_list, rho_list):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def random_case(rng, hidden_layers, n_outputs):
    sizes = (int(rng.integers(1, 4)), *rng.integers(1, 7, hidden_layers).tolist(), n_outputs)
    topology = Topology(sizes)
    theta = ParamVector(topology, rng.normal(0.0, 1.5, param_count(topology)))
    samples = int(rng.integers(1, 40))
    data = Dataset(rng.uniform(-2.0, 2.0, (samples, sizes[0])),
                   rng.uniform(-1.0, 1.0, (samples, n_outputs)), name="lean")
    return theta, data


@pytest.mark.parametrize("hidden_layers", [1, 2, 3])
@pytest.mark.parametrize("n_outputs", [1, 2, 3, 4])
def test_risk_and_outputs_equal_the_mean_of_means(hidden_layers, n_outputs):
    rng = np.random.default_rng(100 * hidden_layers + n_outputs)
    for _ in range(25):
        theta, data = random_case(rng, hidden_layers, n_outputs)
        expected = reference_risk(theta, data)
        assert np.array_equal(forward_batch(theta, data.inputs)[-1],
                              reference_outputs(theta, data.inputs))
        assert empirical_risk(theta, data) == expected
        assert risk_and_gradient(theta, data)[0] == expected


@pytest.mark.parametrize("hidden_layers", [0, 1, 2, 3])
def test_from_layer_arrays_equals_the_hstack_pack(hidden_layers):
    rng = np.random.default_rng(7 + hidden_layers)
    for _ in range(40):
        theta, data = random_case(rng, hidden_layers, int(rng.integers(1, 5)))
        layers = [(rng.standard_normal(w.shape[0]), rng.standard_normal(w.shape))
                  for _, w in theta.layer_arrays()]
        packed = ParamVector.from_layer_arrays(theta.topology, layers)
        assert np.array_equal(packed.flat, reference_pack(layers))
        _, grad = risk_and_gradient(theta, data)
        blocks = ParamVector(theta.topology, grad).layer_arrays()
        assert np.array_equal(grad, reference_pack(blocks))


@pytest.mark.parametrize("n", [1, 9, 17, 401])
def test_two_loop_equals_the_deque_reference(n):
    rng = np.random.default_rng(n)
    for memory in (1, 3, 10):
        s_mem, y_mem, rho_mem = deque(maxlen=memory), deque(maxlen=memory), deque(maxlen=memory)
        grad = rng.standard_normal(n)
        assert np.array_equal(_two_loop(grad, s_mem, y_mem, rho_mem), grad)
        for _ in range(3 * memory):
            s = rng.standard_normal(n) * rng.uniform(0.01, 10.0)
            y = s * rng.uniform(0.1, 2.0) + rng.standard_normal(n) * 0.1
            s_mem.append(s)
            y_mem.append(y)
            rho_mem.append(1.0 / float(s @ y))
            grad = rng.standard_normal(n)
            assert np.array_equal(_two_loop(grad, s_mem, y_mem, rho_mem),
                                  reference_two_loop(grad, s_mem, y_mem, rho_mem))


@pytest.mark.parametrize("n", [1, 2, 9, 33, 401, 20803])
def test_curvature_guard_norms_equal_linalg_norm(n):
    rng = np.random.default_rng(n)
    for scale in (1e-150, 1e-8, 1.0, 1e8):
        v = rng.standard_normal(n) * scale
        assert math.sqrt(float(v @ v)) == float(np.linalg.norm(v))


def test_param_count_equals_the_summed_formula():
    rng = np.random.default_rng(5)
    for _ in range(200):
        sizes = rng.integers(1, 60, int(rng.integers(2, 7))).tolist()
        expected = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1)) + sum(sizes[1:])
        topology = Topology(sizes)
        assert param_count(topology) == expected
        assert ParamVector.zeros(topology).flat.size == expected
