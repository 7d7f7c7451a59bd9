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

Those ``(P, H)`` arrays, two per hidden layer (pre-activation and
activation), are what an evaluation needs: the sweep writes each hidden
layer's slope over its pre-activations and its step over its activations,
once the forward pass and the sweep have read them for the last time. Once
``P * H * 8`` reaches 128 KiB, glibc's default mmap threshold, the allocator
can hand freed arrays back to the OS, and the next call page-faults them in
again. :func:`risk_objective` therefore builds one
:class:`~netgrow.net_core.Workspace` per objective and evaluates into it, so
repeated calls reuse the same buffers for as long as the objective lives. A
direct :func:`risk_and_gradient` call builds its own workspace and runs the
same code, and the returned gradient is never a view of a buffer.
"""

from __future__ import annotations

import numpy as np

from .net_core import (
    ParamVector,
    Topology,
    Workspace,
    _checked_data,
    _forward,
    _mean_risk,
    _mse_slope,
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
    *,
    work: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Empirical risk and its flat gradient, sharing one forward pass.

    ``work``, a :class:`Workspace` for ``theta``'s topology and the data's
    sample count, takes the ``(P, H)`` arrays of the pass; without it the
    call builds its own. The returned gradient is a new array either way.
    """
    topology = theta.topology
    inputs, targets = _checked_data(topology, data)
    n_samples = inputs.shape[0]
    depth = topology.depth
    layers = theta.layer_arrays()
    work = _forward(topology, layers, inputs, work)
    pre, act = work.pre, work.act
    signals = [inputs, *act]
    residual = pre[-1] - targets
    risk = _mean_risk(residual)

    # Backward sweep: u is d loss / d a^layer, one row per sample.
    u = _mse_slope(residual)
    grads = []
    for layer in range(depth, 0, -1):
        if layer < depth:
            # act[layer - 1] holds this layer's tanh values z, and the slope
            # 1 - z**2 goes over pre[layer - 1], which tanh read last. The
            # step then goes over z, read last by the slope and by the weight
            # partial of layer + 1; its input u lives in the layer above.
            # When u has one column, each entry of u @ W is a single product,
            # and np.dot forms it with matmul's bits but without matmul's
            # slow loop for that shape.
            z = act[layer - 1]
            slope = np.multiply(z, z, pre[layer - 1])
            np.subtract(1.0, slope, slope)
            product = np.dot if u.shape[1] == 1 else np.matmul
            u = product(u, layers[layer][1], z)
            u *= slope
        grad_b = np.add.reduce(u, 0) / n_samples  # u.sum(axis=0) without its Python frame
        grad_w = (u.T @ signals[layer - 1]) / n_samples
        grads.append((grad_b, grad_w))

    flat = ParamVector.from_layer_arrays(topology, grads[::-1]).flat
    return risk, flat


def risk_objective(
    topology: Topology,
    data,
):
    """The optimizer's objective: flat parameters -> (risk, flat gradient).

    The objective owns one :class:`Workspace` and reuses it on every call,
    so it serves one call at a time: do not share it between threads.
    """
    work = Workspace(topology, np.asarray(data.inputs).shape[0])

    def objective(flat: np.ndarray):
        return risk_and_gradient(ParamVector(topology, flat), data, work=work)

    return objective


def gradient_forward(
    theta: ParamVector,
    data,
) -> ParamVector:
    """Gradient of the empirical risk, flat layout matching ``theta``.

    Kept under this name because ``perfbench/tracer.py`` traces it by name.
    """
    _, flat = risk_and_gradient(theta, data)
    return ParamVector(theta.topology, flat)


def gradient_finite_diff(
    theta: ParamVector,
    data,
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
        up = empirical_risk(ParamVector(theta.topology, bumped), data)
        bumped[k] = base[k] - step
        down = empirical_risk(ParamVector(theta.topology, bumped), data)
        grad[k] = (up - down) / (2.0 * step)
    return ParamVector(theta.topology, grad)


def grad_norm_inf(gradient) -> float:
    """Max absolute component of a gradient (ParamVector or flat array)."""
    arr = gradient.flat if isinstance(gradient, ParamVector) else np.asarray(gradient)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))
