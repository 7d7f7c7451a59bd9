"""Exact risk gradients by one forward pass and one backward sweep.

The forward pass keeps the signal entering each layer and its
pre-activations. The backward sweep carries ``u``, the per-sample partial of
the loss with respect to one layer's pre-activations, from the outputs down
to the first hidden layer; each layer's bias and weight partials are then
``u`` summed over the samples and ``u`` against the incoming signal. A
central finite difference oracle is included for testing.

Per layer ``l`` with ``H_{l-1}`` inputs and ``H_l`` neurons, the sweep costs
two ``P x H_{l-1} x H_l`` matrix products: the weight partial
``u.T @ signal`` and the step ``u = (u @ W) * slope`` down to the layer
below, where the slope is taken from the forward pass's activation values.
No ``P * H**2`` temporary is built, so memory stays at the ``(P, H)``
signals of the forward pass.
"""

from __future__ import annotations

import numpy as np

from .net_core import (
    MSE,
    TANH,
    ActivationFunction,
    ParamVector,
    Topology,
    _forward,
    _mean_risk,
    empirical_risk,
)

__all__ = [
    "risk_and_gradient",
    "risk_objective",
    "gradient_forward",
    "gradient_finite_diff",
    "grad_norm_inf",
]

def risk_and_gradient(
    theta: ParamVector,
    data,
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
    risk = _mean_risk(targets, outputs)

    # Backward sweep: u is d loss / d a^layer, one row per sample.
    u = MSE.derivative_per_output(targets, outputs)
    grads = []
    for layer in range(depth, 0, -1):
        if layer < depth:
            # signals[layer] holds this layer's activation values.
            u = (u @ layers[layer][1]) * activation.derivative_from_value(signals[layer])
        grad_b = u.sum(axis=0) / n_samples
        grad_w = (u.T @ signals[layer - 1]) / n_samples
        grads.append((grad_b, grad_w))

    flat = ParamVector.from_layer_arrays(topology, grads[::-1]).flat
    return risk, flat


def risk_objective(
    topology: Topology,
    data,
    activation: ActivationFunction = TANH,
):
    """The optimizer's objective: flat parameters -> (risk, flat gradient)."""

    def objective(flat: np.ndarray):
        return risk_and_gradient(ParamVector(topology, flat), data, activation)

    return objective


def gradient_forward(
    theta: ParamVector,
    data,
    activation: ActivationFunction = TANH,
) -> ParamVector:
    """Gradient of the empirical risk, flat layout matching ``theta``."""
    _, flat = risk_and_gradient(theta, data, activation)
    return ParamVector(theta.topology, flat)


def gradient_finite_diff(
    theta: ParamVector,
    data,
    activation: ActivationFunction = TANH,
    step: float = 1e-6,
) -> ParamVector:
    """Central-difference gradient, the test oracle for :func:`gradient_forward`."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    base = np.array(theta.flat)
    grad = np.zeros_like(base)
    for k in range(base.size):
        bumped = base.copy()
        bumped[k] = base[k] + step
        up = empirical_risk(ParamVector(theta.topology, bumped), data, activation)
        bumped[k] = base[k] - step
        down = empirical_risk(ParamVector(theta.topology, bumped), data, activation)
        grad[k] = (up - down) / (2.0 * step)
    return ParamVector(theta.topology, grad)


def grad_norm_inf(gradient) -> float:
    """Max absolute component of a gradient (ParamVector or flat array)."""
    arr = gradient.flat if isinstance(gradient, ParamVector) else np.asarray(gradient)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))
