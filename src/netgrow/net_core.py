"""Dense feedforward networks with linear outputs and a flat parameter layout.

The networks are tanh hidden layers under a linear output layer, and the
empirical risk is the mean-squared error (:data:`MSE`). The forward pass and
the risk take an ``activation`` so that tests can use :data:`IDENTITY` as a
linear-network oracle; every layer above the gradient assumes tanh.

All parameters live in one flat float64 vector. For each layer (layer 1 maps
the inputs into the first hidden layer, layer ``depth`` produces the outputs)
the block holds, neuron by neuron, the bias followed by that neuron's incoming
weight row, so :meth:`ParamVector.layer_blocks` sees it as an
``(H, 1 + H_prev)`` matrix. Adding neurons to layer l (:mod:`netgrow.growth`)
appends rows to block l and columns to block l + 1; no other block changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Topology",
    "ParamVector",
    "ActivationRecord",
    "ActivationFunction",
    "LossFunction",
    "TANH",
    "IDENTITY",
    "MSE",
    "Workspace",
    "build_topology",
    "param_count",
    "forward",
    "forward_batch",
    "empirical_risk",
]


@dataclass(frozen=True)
class Topology:
    """Layer sizes of a dense net, input layer first, output layer last."""

    layer_sizes: tuple[int, ...]
    # Read on every objective evaluation, so it is computed once here.
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(h) for h in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("a topology needs at least an input and an output layer")
        if any(h < 1 for h in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)
        # All weights plus one bias per neuron.
        object.__setattr__(
            self, "n_params", sum(h * (1 + h_prev) for h_prev, h in zip(sizes, sizes[1:]))
        )

    @property
    def depth(self) -> int:
        """Number of parameterized layers (hidden layers plus the output)."""
        return len(self.layer_sizes) - 1

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def size(self, layer: int) -> int:
        """Neuron count of ``layer`` (0 is the input layer, depth the output)."""
        if not 0 <= layer <= self.depth:
            raise ValueError(f"layer {layer} out of range 0..{self.depth}")
        return self.layer_sizes[layer]


def build_topology(layer_sizes: Sequence[int]) -> Topology:
    """Validate ``layer_sizes`` and wrap them in a :class:`Topology`."""
    return Topology(tuple(layer_sizes))


def param_count(topology: Topology) -> int:
    """Total number of parameters: all weights plus one bias per neuron."""
    return topology.n_params


def _block_views(sizes: Sequence[int], flat: np.ndarray) -> list[np.ndarray]:
    """Per layer ``(H, 1 + H_prev)`` views of a flat vector laid out for ``sizes``."""
    blocks, offset = [], 0
    for h_prev, h in zip(sizes, sizes[1:]):
        blocks.append(flat[offset : offset + h * (1 + h_prev)].reshape(h, 1 + h_prev))
        offset += h * (1 + h_prev)
    return blocks


@dataclass(frozen=True, eq=False)
class ParamVector:
    """A flat parameter vector bound to its topology.

    The array is copied on construction (arrays the library has just filled
    skip the copy through :meth:`_adopt`) and frozen, so instances can be
    shared freely; every operation that changes parameters returns a new vector.
    """

    topology: Topology
    flat: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(np.array(self.flat, dtype=np.float64).ravel())

    def _freeze(self, arr: np.ndarray) -> None:
        q = param_count(self.topology)
        if arr.size != q:
            raise ValueError(
                f"parameter vector has {arr.size} entries, topology "
                f"{self.topology.layer_sizes} needs {q}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "flat", arr)

    @classmethod
    def _adopt(cls, topology: Topology, flat: np.ndarray) -> "ParamVector":
        """Check the size of ``flat`` and freeze it in place: no copy. Only for
        :meth:`from_layer_arrays`, ``growth._widen`` and ``model_io.load_model``,
        which pass a native float64 1-D array they have just filled and keep no view of.
        """
        theta = cls.__new__(cls)
        object.__setattr__(theta, "topology", topology)
        theta._freeze(flat)
        return theta

    def __len__(self) -> int:
        return self.flat.size

    @classmethod
    def zeros(cls, topology: Topology) -> "ParamVector":
        return cls(topology, np.zeros(param_count(topology)))

    @classmethod
    def from_layer_arrays(
        cls,
        topology: Topology,
        layers: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> "ParamVector":
        """Pack per-layer ``(biases, weight matrix)`` pairs into a flat vector."""
        if len(layers) != topology.depth:
            raise ValueError(f"expected {topology.depth} layers, got {len(layers)}")
        flat = np.empty(topology.n_params)
        blocks = _block_views(topology.layer_sizes, flat)
        for layer, ((b, w), block) in enumerate(zip(layers, blocks), start=1):
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            w = np.asarray(w, dtype=np.float64)
            h, cols = block.shape
            if b.shape != (h,) or w.shape != (h, cols - 1):
                raise ValueError(
                    f"layer {layer}: expected biases ({h},) and weights "
                    f"({h}, {cols - 1}), got {b.shape} and {w.shape}"
                )
            block[:, 0] = b
            block[:, 1:] = w
        return cls._adopt(topology, flat)

    def layer_blocks(self) -> list[np.ndarray]:
        """Per layer ``(H, 1 + H_prev)`` views of the flat vector: bias column, then weights."""
        return _block_views(self.topology.layer_sizes, self.flat)

    def layer_arrays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer ``(biases (H,), weights (H, H_prev))`` views of the flat vector."""
        return [(block[:, 0], block[:, 1:]) for block in self.layer_blocks()]

    def get_bias(self, layer: int, neuron: int) -> float:
        """Bias of ``neuron`` (0-based) in ``layer`` (1-based, 1 = first hidden)."""
        return float(self._block(layer, neuron)[neuron, 0])

    def get_weight(self, layer: int, neuron: int, source: int) -> float:
        """Weight into ``neuron`` of ``layer`` from ``source`` in the layer below."""
        block = self._block(layer, neuron)
        if not 0 <= source < block.shape[1] - 1:
            raise ValueError(f"source {source} out of range for layer {layer - 1}")
        return float(block[neuron, 1 + source])

    def _block(self, layer: int, neuron: int) -> np.ndarray:
        if not 1 <= layer <= self.topology.depth:
            raise ValueError(f"layer {layer} out of range 1..{self.topology.depth}")
        block = self.layer_blocks()[layer - 1]
        if not 0 <= neuron < block.shape[0]:
            raise ValueError(f"neuron {neuron} out of range for layer {layer}")
        return block


@dataclass(frozen=True, eq=False)
class ActivationFunction:
    """Elementwise activation with its derivative, both numpy-vectorized.

    ``derivative(t)`` takes the pre-activation; ``derivative_from_value(z)``
    takes the activation's value ``z = value(t)`` and returns the same slope
    without evaluating ``value`` again. ``value`` and ``derivative_from_value``
    take an optional second argument ``out``, an array of the result's shape,
    and write into it instead of allocating; the bits are the same either way.
    """

    name: str
    value: Callable[..., np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    derivative_from_value: Callable[..., np.ndarray]


def _tanh_derivative_from_value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return 1.0 - z * z
    np.multiply(z, z, out)
    return np.subtract(1.0, out, out)


def _tanh_derivative(t: np.ndarray) -> np.ndarray:
    return _tanh_derivative_from_value(np.tanh(t))


def _identity_derivative(t: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(t, dtype=np.float64))


def _identity_derivative_from_value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return _identity_derivative(z)
    out.fill(1.0)
    return out


TANH = ActivationFunction("tanh", np.tanh, _tanh_derivative, _tanh_derivative_from_value)
IDENTITY = ActivationFunction(
    "identity", np.positive, _identity_derivative, _identity_derivative_from_value
)


@dataclass(frozen=True, eq=False)
class LossFunction:
    """Per-sample loss over the last axis.

    ``value(y, f)`` maps ``(..., m)`` arrays to ``(...,)`` losses;
    ``derivative_per_output(y, f)`` returns the partial with respect to each
    model output, same shape as ``f``.
    """

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivative_per_output: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _per_sample_mse(residual: np.ndarray) -> np.ndarray:
    # Sum over count is exactly np.mean's arithmetic, without its wrapper;
    # np.add.reduce is what ndarray.sum calls, without its Python frame.
    sq = residual ** 2
    return np.add.reduce(sq, -1) / sq.shape[-1]


def _mse_slope(residual: np.ndarray) -> np.ndarray:
    """Partial of the per-sample MSE by each output, from ``residual = f - y``."""
    return 2.0 * residual / residual.shape[-1]


def _mse_value(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    return _per_sample_mse(np.asarray(f) - np.asarray(y))


def _mse_derivative(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    return _mse_slope(np.asarray(f, dtype=np.float64) - np.asarray(y, dtype=np.float64))


MSE = LossFunction("mse", _mse_value, _mse_derivative)


@dataclass(frozen=True, eq=False)
class ActivationRecord:
    """Pre-activations of every layer for one input; outputs are the last layer."""

    pre_activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.pre_activations[-1]


class Workspace:
    """Reusable ``(P, H)`` buffers for evaluating one topology on ``P`` samples.

    For layer ``l`` (1-based), ``pre[l - 1]`` receives its pre-activations and,
    for a hidden layer, ``act[l - 1]`` its activations in the forward pass, and
    ``slope[l - 1]`` and ``step[l - 1]`` the backward sweep's slope and step.
    Each evaluation overwrites them, so a workspace serves one evaluation at a
    time and nothing that outlives the evaluation may be a view of it.
    """

    __slots__ = ("pre", "act", "slope", "step")

    def __init__(self, topology: Topology, n_samples: int) -> None:
        sizes = topology.layer_sizes[1:]
        self.pre = [np.empty((n_samples, h)) for h in sizes]
        self.act = [np.empty((n_samples, h)) for h in sizes[:-1]]
        self.slope = [np.empty((n_samples, h)) for h in sizes[:-1]]
        self.step = [np.empty((n_samples, h)) for h in sizes[:-1]]


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    inputs: np.ndarray,
    activation: ActivationFunction,
    work: Workspace | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The forward loop: per layer, the signal entering it and its pre-activations.

    Without ``work`` every array is new; with it, the pre-activations and
    activations are written into its buffers.
    """
    x = np.asarray(inputs, dtype=np.float64)
    n_inputs = layers[0][1].shape[1]
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise ValueError(f"inputs must have shape (P, {n_inputs}), got {x.shape}")
    depth = len(layers)
    # Without a workspace every slot is None, and numpy allocates the result.
    pre_out, act_out = (work.pre, work.act) if work is not None else ([None] * depth,) * 2
    signals = []
    pre = []
    z = x
    for layer, (b, w) in enumerate(layers, start=1):
        signals.append(z)
        a = np.matmul(z, w.T, pre_out[layer - 1])
        a += b
        pre.append(a)
        if layer < depth:
            z = activation.value(a, act_out[layer - 1])
    return signals, pre


def forward_batch(
    theta: ParamVector,
    inputs: np.ndarray,
    activation: ActivationFunction = TANH,
) -> list[np.ndarray]:
    """Pre-activations per layer for a batch of inputs, shapes ``(P, H_layer)``.

    The output layer is linear, so the last entry is the batch of network
    outputs.
    """
    return _forward(theta.layer_arrays(), inputs, activation)[1]


def forward(
    theta: ParamVector,
    x: np.ndarray,
    activation: ActivationFunction = TANH,
) -> ActivationRecord:
    """Evaluate the network on one input vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != theta.topology.n_inputs:
        raise ValueError(
            f"input has {x.size} entries, topology expects {theta.topology.n_inputs}"
        )
    pre = forward_batch(theta, x[None, :], activation)
    return ActivationRecord(tuple(a[0] for a in pre))


def _mean_risk(residual: np.ndarray) -> float:
    """Mean over the samples of the per-sample MSE, as sum over count like ``np.mean``.

    Takes the residual ``outputs - targets``, so that the gradient can share it.
    """
    per_sample = _per_sample_mse(residual)
    return float(np.add.reduce(per_sample) / per_sample.size)


def empirical_risk(
    theta: ParamVector,
    data,
    activation: ActivationFunction = TANH,
) -> float:
    """Mean-squared error of the network over a dataset (needs ``.inputs``/``.targets``)."""
    inputs = np.asarray(data.inputs, dtype=np.float64)
    targets = np.asarray(data.targets, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("dataset is empty")
    if targets.shape != (inputs.shape[0], theta.topology.n_outputs):
        raise ValueError(
            f"targets must have shape ({inputs.shape[0]}, "
            f"{theta.topology.n_outputs}), got {targets.shape}"
        )
    outputs = forward_batch(theta, inputs, activation)[-1]
    return _mean_risk(outputs - targets)
