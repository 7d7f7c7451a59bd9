"""Exact risk gradients from forward-propagated sensitivities.

The gradient is assembled layer by layer: a forward sweep carries, for every
earlier layer, the Jacobian of the current pre-activations with respect to
that layer's pre-activations. Seeding those Jacobians with the local
structure of each parameter (a bias moves its own neuron by 1, a weight by
the incoming signal) yields every partial derivative in ``depth`` batched
matrix products instead of one pass per parameter. A central finite
difference oracle is included for testing.
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
    if inputs.ndim != 2 or inputs.shape[1] != topology.n_inputs:
        raise ValueError(
            f"inputs must have shape (P, {topology.n_inputs}), got {inputs.shape}"
        )
    if targets.shape != (n_samples, topology.n_outputs):
        raise ValueError(
            f"targets must have shape ({n_samples}, {topology.n_outputs}), "
            f"got {targets.shape}"
        )

    layers = theta.layer_arrays()

    # Forward pass, keeping each layer's input signal for the weight partials.
    layer_inputs = []
    pre = []
    z = inputs
    for layer, (b, w) in enumerate(layers, start=1):
        layer_inputs.append(z)
        a = z @ w.T + b
        pre.append(a)
        if layer < depth:
            z = activation.value(a)
    outputs = pre[-1]
    risk = float(np.mean(loss.value(targets, outputs)))

    # Sweep output Jacobians forward: jac[layer] ends as d a^depth / d a^layer,
    # shape (P, n_outputs, H_layer). None stands for the identity seed.
    jac: dict[int, np.ndarray | None] = {}
    for q in range(1, depth + 1):
        if q > 1:
            slope = activation.derivative(pre[q - 2])
            transfer = layers[q - 1][1][None, :, :] * slope[:, None, :]
            for layer in jac:
                j = jac[layer]
                jac[layer] = transfer if j is None else transfer @ j
        jac[q] = None

    dloss = loss.derivative_per_output(targets, outputs)

    grads = []
    for layer in range(1, depth + 1):
        j = jac[layer]
        u = dloss if j is None else np.einsum("pr,prj->pj", dloss, j)
        z_in = layer_inputs[layer - 1]
        grad_b = u.sum(axis=0) / n_samples
        grad_w = np.einsum("pj,pi->ji", u, z_in) / n_samples
        grads.append((grad_b, grad_w))

    flat = ParamVector.from_layer_arrays(topology, grads).flat
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
