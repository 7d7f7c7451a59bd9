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

On the nets of a few neurons that stationary-point searches use, numpy's
fixed cost per call, not arithmetic, sets the price of an evaluation.
:func:`stacked_risk_objective` evaluates ``K`` networks of one topology in
one pass: it takes a ``(K, n)`` array of flat vectors and runs the same
ufuncs with a leading batch axis (``np.matmul`` broadcasts over it), into a
stacked workspace that each call allocates for its own ``K``: on those
nets even a 50-network stack is a few tens of KB, well below the mmap
threshold, so its buffers come back from the heap without page faults. Both
paths share one backward sweep, ``_sweep``, and numpy applies the same
inner loop to each batch entry as to a single ``(P, H)`` array, so every
member gets the bits of its own :func:`risk_and_gradient` call. The one
difference in the sweep: a single call forms a one-column step with
``np.dot``, which does not batch, and a stacked call with ``np.matmul``.
"""

from __future__ import annotations

import numpy as np

from .net_core import (
    ParamVector,
    Topology,
    Workspace,
    _block_views,
    _checked_data,
    _forward,
    _mean_risk,
    _mse_slope,
    empirical_risk,
)

__all__ = [
    "risk_and_gradient",
    "risk_objective",
    "stacked_risk_objective",
    "gradient_forward",
    "gradient_finite_diff",
    "grad_norm_inf",
]


def _sweep(layers, inputs: np.ndarray, targets: np.ndarray, work: Workspace):
    """Risk and per-layer ``(bias, weight)`` partials from a workspace the forward pass filled.

    Every array may carry a leading batch axis, one entry per network of a
    stacked evaluation (see :func:`_forward`); the ufuncs are the same either way.
    """
    n_samples = inputs.shape[0]
    depth = len(layers)
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
            # When a single u has one column, each entry of u @ W is a single
            # product, and np.dot forms it with matmul's bits but without
            # matmul's slow loop for that shape (np.dot does not batch).
            z = act[layer - 1]
            slope = np.multiply(z, z, pre[layer - 1])
            np.subtract(1.0, slope, slope)
            product = np.dot if u.ndim == 2 and u.shape[1] == 1 else np.matmul
            u = product(u, layers[layer][1], z)
            u *= slope
        grad_b = np.add.reduce(u, -2) / n_samples  # u.sum(axis=-2) without its Python frame
        grad_w = (u.swapaxes(-1, -2) @ signals[layer - 1]) / n_samples
        grads.append((grad_b, grad_w))
    return risk, grads[::-1]


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
    layers = theta.layer_arrays()
    work = _forward(topology, layers, inputs, work)
    risk, grads = _sweep(layers, inputs, targets, work)
    return float(risk), ParamVector.from_layer_arrays(topology, grads).flat


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


def stacked_risk_objective(
    topology: Topology,
    data,
):
    """Risks and gradients of any number of networks of one topology per call.

    The objective maps a ``(K, n)`` array of flat parameter vectors, ``K >=
    1``, to ``K`` risks and a new ``(K, n)`` array of their gradients; row
    ``k`` has the bits :func:`risk_and_gradient` gives for row ``k`` of the
    input. The data are checked once, here, and each call allocates a
    stacked workspace of its own ``K`` networks.
    """
    inputs, targets = _checked_data(topology, data)
    sizes, n_params = topology.layer_sizes, topology.n_params

    def objective(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        thetas = np.asarray(thetas, dtype=np.float64)
        k = thetas.shape[0]
        if thetas.shape != (k, n_params) or k < 1:
            raise ValueError(f"expected (K, {n_params}) parameters with K >= 1, got {thetas.shape}")
        # biases as (K, 1, H), so that they broadcast over the samples
        layers = [(block[:, None, :, 0], block[..., 1:]) for block in _block_views(sizes, thetas)]
        risks, partials = _sweep(layers, inputs, targets, _forward(topology, layers, inputs))
        grads = np.empty((k, n_params))
        for (grad_b, grad_w), block in zip(partials, _block_views(sizes, grads)):
            block[..., 0] = grad_b
            block[..., 1:] = grad_w
        return risks, grads

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
    """Central-difference gradient, the test oracle for :func:`risk_and_gradient`."""
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
