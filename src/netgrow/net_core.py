"""Dense feedforward networks with linear outputs and a flat parameter layout.

The model is fixed: tanh hidden layers under a linear output layer, and the
mean-squared error as the empirical risk.

All parameters live in one flat float64 vector. For each layer (layer 1 maps
the inputs into the first hidden layer, layer ``depth`` produces the outputs)
the block holds, neuron by neuron, the bias followed by that neuron's incoming
weight row, so :meth:`ParamVector.layer_blocks` sees it as an
``(H, 1 + H_prev)`` matrix. Adding neurons to layer l (:mod:`netgrow.growth`)
appends rows to block l and columns to block l + 1; no other block changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Topology",
    "ParamVector",
    "Workspace",
    "build_topology",
    "param_count",
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
    """Per layer ``(..., H, 1 + H_prev)`` views of a flat vector, or of a ``(..., n)`` stack."""
    lead, blocks, offset = flat.shape[:-1], [], 0
    for h_prev, h in zip(sizes, sizes[1:]):
        blocks.append(flat[..., offset : offset + h * (1 + h_prev)].reshape(lead + (h, 1 + h_prev)))
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
        :meth:`from_layer_arrays`, ``growth._widen``, ``model_io.load_model`` and
        ``model_io.load_model_text``, which pass a native float64 1-D array they
        have just filled and keep no view of.
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


def _mse_slope(residual: np.ndarray) -> np.ndarray:
    """Partial of the per-sample mean square by each output, from ``residual = f - y``."""
    return 2.0 * residual / residual.shape[-1]


class Workspace:
    """Reusable ``(P, H)`` buffers for evaluating one topology on ``P`` samples.

    For layer ``l`` (1-based), the forward pass writes its pre-activations into
    ``pre[l - 1]`` and, for a hidden layer, its activations into ``act[l - 1]``.
    The backward sweep then writes that hidden layer's slope over ``pre[l - 1]``
    and its step over ``act[l - 1]``, each after its last read. Each evaluation
    overwrites them, so a workspace serves one evaluation at a time and nothing
    that outlives the evaluation may be a view of it.

    With ``lead``, the leading axes of a stacked evaluation's layers (``(K,)``
    for ``K`` networks), each buffer is a ``(K, P, H)`` stack, one ``(P, H)``
    array per network.
    """

    __slots__ = ("pre", "act")

    def __init__(self, topology: Topology, n_samples: int, lead: tuple[int, ...] = ()) -> None:
        sizes = topology.layer_sizes[1:]
        self.pre = [np.empty((*lead, n_samples, h)) for h in sizes]
        self.act = [np.empty((*lead, n_samples, h)) for h in sizes[:-1]]


def _forward(
    topology: Topology,
    layers: list[tuple[np.ndarray, np.ndarray]],
    inputs: np.ndarray,
    work: Workspace | None = None,
) -> Workspace:
    """The forward loop, written into ``work``, or into a new workspace for
    ``topology`` when it is None; returns the workspace it filled.

    Each layer is a ``(biases, weights)`` pair. Stacked weights ``(K, H,
    H_prev)`` with biases ``(K, 1, H)`` run the same ufuncs on a stacked
    workspace: a leading batch axis, one ``(P, H)`` slice per network. A new
    workspace takes the weights' leading axes, so it holds exactly ``K``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    n_inputs = topology.n_inputs
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise ValueError(f"inputs must have shape (P, {n_inputs}), got {x.shape}")
    if work is None:
        work = Workspace(topology, x.shape[0], layers[0][1].shape[:-2])
    z = x
    for layer, (b, w) in enumerate(layers):
        a = np.matmul(z, w.swapaxes(-1, -2), work.pre[layer])
        a += b
        if layer < len(work.act):
            z = np.tanh(a, work.act[layer])
    return work


def forward_batch(
    theta: ParamVector,
    inputs: np.ndarray,
) -> list[np.ndarray]:
    """Pre-activations per layer for a batch of inputs, shapes ``(P, H_layer)``.

    The output layer is linear, so the last entry is the batch of network
    outputs.
    """
    return _forward(theta.topology, theta.layer_arrays(), inputs).pre


def _mean_risk(residual: np.ndarray) -> np.ndarray:
    """Mean over the samples of the per-sample mean square, as sum over count like ``np.mean``.

    Takes the residual ``outputs - targets``, so that the gradient can share it.
    A ``(P, m)`` residual gives a numpy scalar, a ``(K, P, m)`` stack ``K`` risks.
    """
    # np.add.reduce is what ndarray.sum calls, without its Python frame.
    sq = residual ** 2
    per_sample = np.add.reduce(sq, -1) / sq.shape[-1]
    return np.add.reduce(per_sample, -1) / per_sample.shape[-1]


def _checked_data(topology: Topology, data) -> tuple[np.ndarray, np.ndarray]:
    """``data``'s inputs and targets as float64, checked against ``topology``'s outputs."""
    inputs = np.asarray(data.inputs, dtype=np.float64)
    targets = np.asarray(data.targets, dtype=np.float64)
    n_samples = inputs.shape[0]
    if n_samples == 0:
        raise ValueError("dataset is empty")
    if targets.shape != (n_samples, topology.n_outputs):
        raise ValueError(
            f"targets must have shape ({n_samples}, {topology.n_outputs}), "
            f"got {targets.shape}"
        )
    return inputs, targets


def empirical_risk(
    theta: ParamVector,
    data,
) -> float:
    """Mean-squared error of the network over a dataset (needs ``.inputs``/``.targets``)."""
    inputs, targets = _checked_data(theta.topology, data)
    outputs = forward_batch(theta, inputs)[-1]
    return float(_mean_risk(outputs - targets))
