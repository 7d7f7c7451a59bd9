"""Dense feedforward networks with linear outputs and a flat parameter layout.

All parameters live in one flat float64 vector. For each layer (layer 1 maps
the inputs into the first hidden layer, layer ``depth`` produces the outputs)
the block holds, neuron by neuron, the bias followed by that neuron's incoming
weight row. Keeping the layout this regular makes network surgery (adding
neurons in :mod:`netgrow.growth`) pure index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self) -> None:
        sizes = tuple(int(h) for h in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("a topology needs at least an input and an output layer")
        if any(h < 1 for h in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

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
    sizes = topology.layer_sizes
    weights = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
    biases = sum(sizes[1:])
    return weights + biases


def _layer_blocks(topology: Topology) -> list[tuple[int, int, int]]:
    """Per layer: (flat offset, neuron count, incoming width)."""
    blocks = []
    offset = 0
    sizes = topology.layer_sizes
    for layer in range(1, topology.depth + 1):
        h, h_prev = sizes[layer], sizes[layer - 1]
        blocks.append((offset, h, h_prev))
        offset += h * (1 + h_prev)
    return blocks


@dataclass(frozen=True, eq=False)
class ParamVector:
    """A flat parameter vector bound to its topology.

    The array is copied on construction and frozen, so instances can be
    shared freely; every operation that changes parameters returns a new
    vector.
    """

    topology: Topology
    flat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.flat, dtype=np.float64).ravel()
        q = param_count(self.topology)
        if arr.size != q:
            raise ValueError(
                f"parameter vector has {arr.size} entries, topology "
                f"{self.topology.layer_sizes} needs {q}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "flat", arr)

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
        parts = []
        for layer, (b, w) in enumerate(layers, start=1):
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            w = np.asarray(w, dtype=np.float64)
            h, h_prev = topology.size(layer), topology.size(layer - 1)
            if b.shape != (h,) or w.shape != (h, h_prev):
                raise ValueError(
                    f"layer {layer}: expected biases ({h},) and weights "
                    f"({h}, {h_prev}), got {b.shape} and {w.shape}"
                )
            parts.append(np.hstack([b[:, None], w]).ravel())
        return cls(topology, np.concatenate(parts) if parts else np.zeros(0))

    def layer_arrays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer ``(biases (H,), weights (H, H_prev))`` views of the flat vector."""
        out = []
        for offset, h, h_prev in _layer_blocks(self.topology):
            block = self.flat[offset : offset + h * (1 + h_prev)].reshape(h, 1 + h_prev)
            out.append((block[:, 0], block[:, 1:]))
        return out

    def get_bias(self, layer: int, neuron: int) -> float:
        """Bias of ``neuron`` (0-based) in ``layer`` (1-based, 1 = first hidden)."""
        offset, h, h_prev = self._block(layer)
        if not 0 <= neuron < h:
            raise ValueError(f"neuron {neuron} out of range for layer {layer}")
        return float(self.flat[offset + neuron * (1 + h_prev)])

    def get_weight(self, layer: int, neuron: int, source: int) -> float:
        """Weight into ``neuron`` of ``layer`` from ``source`` in the layer below."""
        offset, h, h_prev = self._block(layer)
        if not 0 <= neuron < h:
            raise ValueError(f"neuron {neuron} out of range for layer {layer}")
        if not 0 <= source < h_prev:
            raise ValueError(f"source {source} out of range for layer {layer - 1}")
        return float(self.flat[offset + neuron * (1 + h_prev) + 1 + source])

    def _block(self, layer: int) -> tuple[int, int, int]:
        if not 1 <= layer <= self.topology.depth:
            raise ValueError(f"layer {layer} out of range 1..{self.topology.depth}")
        return _layer_blocks(self.topology)[layer - 1]


@dataclass(frozen=True, eq=False)
class ActivationFunction:
    """Elementwise activation with its derivative, both numpy-vectorized."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


def _tanh_derivative(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(t) ** 2


def _identity_value(t: np.ndarray) -> np.ndarray:
    return np.asarray(t, dtype=np.float64)


def _identity_derivative(t: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(t, dtype=np.float64))


TANH = ActivationFunction("tanh", np.tanh, _tanh_derivative)
IDENTITY = ActivationFunction("identity", _identity_value, _identity_derivative)


@dataclass(frozen=True, eq=False)
class LossFunction:
    """Per-sample loss over the last axis.

    ``value(y, f)`` maps ``(..., m)`` arrays to ``(...,)`` losses;
    ``derivative_per_output(y, f)`` returns the partial with respect to each
    model output, same shape as ``f``. Custom losses must be vectorized over
    leading axes.
    """

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivative_per_output: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _mse_value(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.mean((np.asarray(f) - np.asarray(y)) ** 2, axis=-1)


def _mse_derivative(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return 2.0 * (f - y) / y.shape[-1]


MSE = LossFunction("mse", _mse_value, _mse_derivative)


@dataclass(frozen=True, eq=False)
class ActivationRecord:
    """Pre-activations of every layer for one input; outputs are the last layer."""

    pre_activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.pre_activations[-1]


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    inputs: np.ndarray,
    activation: ActivationFunction,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The forward loop: per layer, the signal entering it and its pre-activations."""
    x = np.asarray(inputs, dtype=np.float64)
    n_inputs = layers[0][1].shape[1]
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise ValueError(f"inputs must have shape (P, {n_inputs}), got {x.shape}")
    depth = len(layers)
    signals = []
    pre = []
    z = x
    for layer, (b, w) in enumerate(layers, start=1):
        signals.append(z)
        a = z @ w.T + b
        pre.append(a)
        if layer < depth:
            z = activation.value(a)
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


def empirical_risk(
    theta: ParamVector,
    data,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> float:
    """Average loss of the network over a dataset (needs ``.inputs``/``.targets``)."""
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
    return float(np.mean(loss.value(targets, outputs)))
