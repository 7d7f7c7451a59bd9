"""Exact risk gradients by one forward pass and one backward sweep.

The forward pass keeps the signal entering each layer and its
pre-activations. The backward sweep carries ``u``, the per-sample partial of
the loss with respect to one layer's pre-activations, from the outputs down
to the first hidden layer; each layer's bias and weight partials are then
``u`` summed over the samples and ``u`` against the incoming signal. A
central finite difference oracle is included for testing.
"""

from __future__ import annotations

import numpy as np

from .net_core import (
    MSE,
    TANH,
    ActivationFunction,
    LossFunction,
    ParamVector,
    Topology,
    _forward,
    empirical_risk,
)

__all__ = [
    "GradientVector",
    "risk_and_gradient",
    "risk_objective",
    "gradient_forward",
    "gradient_finite_diff",
    "grad_norm_inf",
]

# Same flat layout and accessors as the parameters it differentiates.
GradientVector = ParamVector


def risk_and_gradient(
    theta: ParamVector,
    data,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> tuple[float, np.ndarray]:
    """Empirical risk and its flat gradient, sharing one forward pass."""
    inputs = np.asarray(data.inputs, dtype=np.float64)
    targets = np.asarray(data.targets, dtype=np.float64)
    n_samples = inputs.shape[0]
    if n_samples == 0:
        raise ValueError("dataset is empty")
    topology = theta.topology
    depth = topology.depth
    layers = theta.layer_arrays()
    signals, pre = _forward(layers, inputs, activation)
    if targets.shape != (n_samples, topology.n_outputs):
        raise ValueError(
            f"targets must have shape ({n_samples}, {topology.n_outputs}), "
            f"got {targets.shape}"
        )
    outputs = pre[-1]
    risk = float(np.mean(loss.value(targets, outputs)))

    # Backward sweep: u is d loss / d a^layer, one row per sample.
    u = loss.derivative_per_output(targets, outputs)
    grads = []
    for layer in range(depth, 0, -1):
        if layer < depth:
            slope = activation.derivative(pre[layer - 1])
            u = np.einsum("pr,prj->pj", u, layers[layer][1][None, :, :] * slope[:, None, :])
        grad_b = u.sum(axis=0) / n_samples
        grad_w = np.einsum("pj,pi->ji", u, signals[layer - 1]) / n_samples
        grads.append((grad_b, grad_w))

    flat = ParamVector.from_layer_arrays(topology, grads[::-1]).flat
    return risk, flat


def risk_objective(
    topology: Topology,
    data,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
):
    """The optimizer's objective: flat parameters -> (risk, flat gradient)."""

    def objective(flat: np.ndarray):
        return risk_and_gradient(ParamVector(topology, flat), data, loss, activation)

    return objective


def gradient_forward(
    theta: ParamVector,
    data,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> GradientVector:
    """Gradient of the empirical risk, flat layout matching ``theta``."""
    _, flat = risk_and_gradient(theta, data, loss, activation)
    return GradientVector(theta.topology, flat)


def gradient_finite_diff(
    theta: ParamVector,
    data,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
    step: float = 1e-6,
) -> GradientVector:
    """Central-difference gradient, the test oracle for :func:`gradient_forward`."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    base = np.array(theta.flat)
    grad = np.zeros_like(base)
    for k in range(base.size):
        bumped = base.copy()
        bumped[k] = base[k] + step
        up = empirical_risk(ParamVector(theta.topology, bumped), data, loss, activation)
        bumped[k] = base[k] - step
        down = empirical_risk(ParamVector(theta.topology, bumped), data, loss, activation)
        grad[k] = (up - down) / (2.0 * step)
    return GradientVector(theta.topology, grad)


def grad_norm_inf(gradient) -> float:
    """Max absolute component of a gradient (ParamVector or flat array)."""
    arr = gradient.flat if isinstance(gradient, ParamVector) else np.asarray(gradient)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))
