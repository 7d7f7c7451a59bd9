"""Gradient evaluations that write their (P, H) arrays into a reused Workspace.

``risk_objective`` owns one :class:`Workspace` and passes it on every call;
a direct ``risk_and_gradient`` call allocates. Both must give the bits of the
allocating formulas kept below as the reference, on tanh and identity nets
with one to three hidden layers, one to three outputs, and ``P * H * 8``
below and above 128 KiB (where glibc starts to hand freed memory back to the
OS). Nothing an evaluation returns may be a view of the workspace: L-BFGS
keeps each gradient across later calls.
"""

import numpy as np
import pytest

from netgrow import (
    IDENTITY,
    TANH,
    ParamVector,
    Topology,
    forward_batch,
    param_count,
    risk_and_gradient,
    risk_objective,
)
from netgrow.data import Dataset
from netgrow.net_core import Workspace

BUFFER_BYTES = 128 * 1024


def reference_risk_and_gradient(theta, data, activation):
    """The allocating forward pass and backward sweep, one fresh array per step."""
    layers = theta.layer_arrays()
    depth = len(layers)
    signals, z = [], data.inputs
    for layer, (b, w) in enumerate(layers, start=1):
        signals.append(z)
        a = z @ w.T
        a += b
        z = activation.value(a) if layer < depth else a
    outputs, targets = z, data.targets
    n, m = targets.shape
    risk = float(np.mean(np.mean((outputs - targets) ** 2, axis=-1)))
    u = 2.0 * (outputs - targets) / m
    parts = []
    for layer in range(depth, 0, -1):
        if layer < depth:
            values = signals[layer]
            slope = 1.0 - values * values if activation is TANH else np.ones_like(values)
            u = (u @ layers[layer][1]) * slope
        grad_b = u.sum(axis=0) / n
        grad_w = (u.T @ signals[layer - 1]) / n
        parts.append(np.hstack([grad_b[:, None], grad_w]).ravel())
    return risk, np.concatenate(parts[::-1])


def make_case(sizes, samples, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    topology = Topology(tuple(sizes))
    theta = ParamVector(topology, rng.normal(0.0, scale, param_count(topology)))
    data = Dataset(rng.uniform(-2.0, 2.0, (samples, sizes[0])),
                   rng.uniform(-1.0, 1.0, (samples, sizes[-1])), name="workspace")
    return theta, data


CASES = [
    # (layer sizes, P): P * H * 8 below 128 KiB ...
    ((2, 3, 1), 16),
    ((2, 1, 1), 24),
    ((3, 7, 2), 1),
    ((3, 2, 6, 1), 1),
    ((2, 5, 4, 3), 33),
    ((4, 6, 1, 5, 2), 9),
    ((2, 40, 1), 200),
    # ... and above it
    ((2, 100, 1), 200),
    ((2, 90, 2), 200),
    ((3, 30, 100, 3), 200),
    ((4, 100, 100, 100, 3), 200),
    ((2, 150, 1), 150),
]


@pytest.mark.parametrize("activation", [TANH, IDENTITY], ids=["tanh", "identity"])
@pytest.mark.parametrize("sizes, samples", CASES, ids=[f"{s}-P{p}" for s, p in CASES])
def test_objective_and_direct_calls_give_the_allocating_bits(sizes, samples, activation):
    theta, data = make_case(sizes, samples, sum(sizes) + samples,
                            scale=0.3 if activation is IDENTITY else 1.0)
    objective = risk_objective(theta.topology, data, activation)
    rng = np.random.default_rng(samples)
    for flat in (theta.flat, rng.normal(0.0, 0.5, theta.flat.size), theta.flat):
        point = ParamVector(theta.topology, flat)
        risk, grad = reference_risk_and_gradient(point, data, activation)
        for got_risk, got_grad in (objective(flat), risk_and_gradient(point, data, activation)):
            assert got_risk == risk
            assert np.array_equal(got_grad, grad)


def test_the_cases_straddle_the_allocator_threshold():
    widest = [samples * max(sizes[1:-1]) * 8 for sizes, samples in CASES]
    assert min(widest) < BUFFER_BYTES <= max(widest)
    assert sum(b >= BUFFER_BYTES for b in widest) >= 4


def test_random_nets_give_the_allocating_bits_through_a_workspace():
    rng = np.random.default_rng(11)
    for _ in range(150):
        hidden = int(rng.integers(1, 4))
        sizes = (int(rng.integers(1, 5)), *rng.integers(1, 12, hidden).tolist(),
                 int(rng.integers(1, 4)))
        theta, data = make_case(sizes, int(rng.integers(1, 50)), int(rng.integers(1 << 30)))
        work = Workspace(theta.topology, data.inputs.shape[0])
        for activation in (TANH, IDENTITY):
            risk, grad = reference_risk_and_gradient(theta, data, activation)
            got_risk, got_grad = risk_and_gradient(theta, data, activation, work=work)
            assert got_risk == risk and np.array_equal(got_grad, grad), sizes


def _buffers(work):
    return [*work.pre, *work.act, *work.slope, *work.step]


def test_a_returned_gradient_survives_the_next_call():
    theta, data = make_case((2, 100, 100, 1), 200, 3)
    objective = risk_objective(theta.topology, data)
    rng = np.random.default_rng(4)
    kept = []
    for _ in range(4):
        risk, grad = objective(rng.normal(0.0, 0.5, theta.flat.size))
        kept.append((risk, grad, grad.copy()))
    for _, grad, copy in kept:
        assert np.array_equal(grad, copy)
    assert len({id(grad) for _, grad, _ in kept}) == len(kept)


def test_nothing_returned_is_a_view_of_the_workspace():
    theta, data = make_case((3, 20, 10, 2), 40, 5)
    work = Workspace(theta.topology, 40)
    _, grad = risk_and_gradient(theta, data, work=work)
    outputs = forward_batch(theta, data.inputs)
    for buffer in _buffers(work):
        assert not np.shares_memory(grad, buffer)
        for array in outputs:
            assert not np.shares_memory(array, buffer)
    before = [array.copy() for array in outputs]
    other = ParamVector(theta.topology, theta.flat[::-1])
    risk_and_gradient(other, data, work=work)
    assert all(np.array_equal(a, b) for a, b in zip(outputs, before))


def test_a_workspace_holds_one_buffer_set_per_layer():
    work = Workspace(Topology((3, 20, 10, 2)), 40)
    assert [b.shape for b in work.pre] == [(40, 20), (40, 10), (40, 2)]
    for buffers in (work.act, work.slope, work.step):
        assert [b.shape for b in buffers] == [(40, 20), (40, 10)]
    assert len({id(b) for b in _buffers(work)}) == 9


@pytest.mark.parametrize("samples", [1, 2, 3, 16, 24, 150, 200, 257])
def test_dot_and_matmul_agree_when_the_inner_dimension_is_one(samples):
    # The backward sweep forms u @ W with np.dot when u has one column; W is a
    # strided (1, H) view of a parameter block, as in the sweep.
    rng = np.random.default_rng(samples)
    for width in (*range(1, 40), 64, 100, 150, 513):
        u = rng.standard_normal((samples, 1))
        w = rng.standard_normal((1, 1 + width))[:, 1:]
        out = np.empty((samples, width))
        assert np.array_equal(np.dot(u, w, out), u @ w)
        assert np.array_equal(np.dot(u, np.ascontiguousarray(w)), u @ w)


def test_dot_and_matmul_agree_on_random_shapes():
    # Contiguous operands with at least two rows. The sweep still uses matmul
    # whenever u has more than one column: with a strided W and a single row
    # of u, np.dot can round differently (for example u of shape (1, 6) on a
    # W of shape (6, 2)), and at H = 100 it is slower than matmul.
    rng = np.random.default_rng(21)
    for _ in range(300):
        p, k, h = (int(v) for v in rng.integers(2, 80, 3))
        if rng.random() < 0.3:
            k = 1
        u = rng.standard_normal((p, k))
        w = rng.standard_normal((k, h))
        assert np.array_equal(np.dot(u, w), u @ w), (p, k, h)
