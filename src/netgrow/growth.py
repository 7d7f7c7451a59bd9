"""Function-preserving maps that widen a hidden layer by K neurons.

Each map appends K ``[bias | incoming weights]`` rows to layer l's block of
the flat layout (:mod:`netgrow.net_core`) and K columns to layer l + 1's:

* ``grow_inert``: arbitrary rows and zero columns, so nothing downstream
  reads the new neurons.
* ``grow_constant``: rows with zero incoming weights (the activation is the
  constant ``tanh(bias)``) and arbitrary columns; layer l + 1's biases are
  shifted to cancel the constant contribution.
* ``grow_split``: rows copied from an existing neuron, whose outgoing column
  is divided among the copies by shares that sum to one (Net2WiderNet).

``grow_constant`` with zero outgoing weights and ``grow_split`` also preserve
stationarity of the risk; ``grow_inert`` with nonzero weights generically does
not, which is exactly what incremental training exploits to escape flat
regions. Plans compose several maps across distinct layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .net_core import ParamVector, Topology, _block_views

__all__ = [
    "InertGrowth",
    "ConstantGrowth",
    "SplitGrowth",
    "GrowthSpec",
    "GrowthStep",
    "GrowthPlan",
    "grow_inert",
    "grow_constant",
    "grow_split",
    "apply_growth",
    "apply_plan",
    "random_growth",
    "growth_label",
    "SHARE_SUM_TOL",
]

SHARE_SUM_TOL = 1e-12


def _check_hidden_layer(topology: Topology, layer: int) -> None:
    if topology.depth < 2:
        raise ValueError(
            f"topology {topology.layer_sizes} has no hidden layer to grow"
        )
    if not 1 <= layer <= topology.depth - 1:
        raise ValueError(
            f"layer {layer} is not a hidden layer (valid: 1..{topology.depth - 1})"
        )


@dataclass(frozen=True, eq=False)
class InertGrowth:
    """New neurons with given biases/incoming rows and zero outgoing weights."""

    layer: int
    biases: np.ndarray
    in_weights: np.ndarray

    kind = "inert"

    @property
    def count(self) -> int:
        return np.asarray(self.biases).size


@dataclass(frozen=True, eq=False)
class ConstantGrowth:
    """New constant-activation neurons; downstream biases absorb their output."""

    layer: int
    biases: np.ndarray
    out_weights: np.ndarray

    kind = "constant"

    @property
    def count(self) -> int:
        return np.asarray(self.biases).size


@dataclass(frozen=True, eq=False)
class SplitGrowth:
    """Replicate ``source`` and split its outgoing weights by ``shares``.

    ``shares`` has ``count + 1`` entries summing to one; the first is kept by
    the original neuron, the rest go to the copies.
    """

    layer: int
    count: int
    source: int
    shares: np.ndarray

    kind = "split"


GrowthSpec = Union[InertGrowth, ConstantGrowth, SplitGrowth]


def _new_columns(blocks: list[np.ndarray], layer: int, count: int) -> np.ndarray:
    """The columns of ``blocks[layer]`` that hidden layer ``layer``'s last ``count`` neurons feed."""
    if count < 1:  # a -0: slice would select every column
        raise ValueError(f"count must be >= 1, got {count}")
    return blocks[layer][..., -count:]


def _widen(theta: ParamVector, layer: int, count: int, biases, in_weights, out_weights,
           edit: tuple[int, np.ndarray] | None = None) -> ParamVector:
    """Add ``count`` neurons to ``layer`` in one newly allocated flat vector.

    Each old block is copied once, into the leading rows and columns of its
    grown view. ``biases`` and ``in_weights`` fill block ``layer``'s new rows,
    ``out_weights`` block ``layer + 1``'s new columns and ``edit = (j, values)``
    then its column j.
    """
    if count == 0:  # e.g. a lone share of 1, which leaves the source untouched
        return theta
    sizes = list(theta.topology.layer_sizes)
    sizes[layer] += count
    topology = Topology(tuple(sizes))
    flat = np.empty(topology.n_params)
    grown = _block_views(sizes, flat)
    for old, new in zip(theta.layer_blocks(), grown):
        new[: old.shape[0], : old.shape[1]] = old
    rows = grown[layer - 1][-count:]
    rows[:, 0] = biases
    rows[:, 1:] = in_weights
    _new_columns(grown, layer, count)[:] = out_weights
    if edit is not None:
        grown[layer][:, edit[0]] = edit[1]
    return ParamVector._adopt(topology, flat)


def grow_inert(
    theta: ParamVector,
    layer: int,
    biases: np.ndarray,
    in_weights: np.ndarray,
) -> ParamVector:
    """Widen ``layer`` with neurons nobody downstream reads (zero fan-out)."""
    topology = theta.topology
    _check_hidden_layer(topology, layer)
    biases = np.asarray(biases, dtype=np.float64).reshape(-1)
    count = biases.size
    below = topology.size(layer - 1)
    in_weights = np.asarray(in_weights, dtype=np.float64).reshape(count, below)
    return _widen(theta, layer, count, biases, in_weights, 0.0)


def grow_constant(
    theta: ParamVector,
    layer: int,
    biases: np.ndarray,
    out_weights: np.ndarray,
) -> ParamVector:
    """Widen ``layer`` with constant neurons and compensate the next layer.

    Each new neuron has zero incoming weights, so its pre-activation is its
    bias for every input. The outgoing weights may be arbitrary because the
    constant contribution ``out_weights @ tanh(biases)`` is subtracted from
    the next layer's biases; the compensation is exact only for tanh hidden
    units.
    """
    topology = theta.topology
    _check_hidden_layer(topology, layer)
    biases = np.asarray(biases, dtype=np.float64).reshape(-1)
    count = biases.size
    above = topology.size(layer + 1)
    out_weights = np.asarray(out_weights, dtype=np.float64).reshape(above, count)
    shifted = theta.layer_blocks()[layer][:, 0] - out_weights @ np.tanh(biases)
    return _widen(theta, layer, count, biases, 0.0, out_weights, (0, shifted))


def grow_split(
    theta: ParamVector,
    layer: int,
    count: int,
    source: int,
    shares: np.ndarray,
) -> ParamVector:
    """Replicate neuron ``source`` of ``layer`` into ``count`` extra copies."""
    topology = theta.topology
    _check_hidden_layer(topology, layer)
    if count < 0:
        raise ValueError("count must be >= 0")
    width = topology.size(layer)
    if not 0 <= source < width:
        raise ValueError(f"source neuron {source} out of range 0..{width - 1}")
    shares = np.asarray(shares, dtype=np.float64).reshape(-1)
    if shares.size != count + 1:
        raise ValueError(f"need {count + 1} shares for {count} copies, got {shares.size}")
    if not np.isfinite(shares).all():
        raise ValueError(f"shares must be finite, got {shares.tolist()}")
    total = float(shares.sum())
    # Negated so that a NaN sum fails the check rather than passing it.
    if not abs(total - 1.0) <= SHARE_SUM_TOL:
        raise ValueError(f"shares must sum to 1, got {total}")
    lower, upper = theta.layer_blocks()[layer - 1 : layer + 1]
    # Column 0 of the next block holds its biases, so neuron j is column 1 + j.
    col = upper[:, 1 + source]
    return _widen(theta, layer, count, lower[source, 0], lower[source, 1:],
                  col[:, None] * shares[1:][None, :], (1 + source, shares[0] * col))


def apply_growth(
    theta: ParamVector,
    spec: GrowthSpec,
) -> ParamVector:
    if isinstance(spec, InertGrowth):
        return grow_inert(theta, spec.layer, spec.biases, spec.in_weights)
    if isinstance(spec, ConstantGrowth):
        return grow_constant(theta, spec.layer, spec.biases, spec.out_weights)
    if isinstance(spec, SplitGrowth):
        return grow_split(theta, spec.layer, spec.count, spec.source, spec.shares)
    raise TypeError(f"unknown growth spec {type(spec).__name__}")


def random_growth(
    kind: str,
    topology: Topology,
    layer: int,
    count: int,
    rng: np.random.Generator,
) -> GrowthSpec:
    """Draw a growth spec with the default parameter distributions.

    Inert and constant maps draw uniform(0, 1) entries; split picks a uniform
    random source neuron and equal shares ``1 / (count + 1)``.
    """
    _check_hidden_layer(topology, layer)
    if count < 0:
        raise ValueError("count must be >= 0")
    if kind == "inert":
        return InertGrowth(
            layer,
            rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 1.0, (count, topology.size(layer - 1))),
        )
    if kind == "constant":
        return ConstantGrowth(
            layer,
            rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 1.0, (topology.size(layer + 1), count)),
        )
    if kind == "split":
        source = int(rng.integers(topology.size(layer)))
        shares = np.full(count + 1, 1.0 / (count + 1))
        return SplitGrowth(layer, count, source, shares)
    raise ValueError(f"unknown growth kind {kind!r}")


@dataclass(frozen=True)
class GrowthStep:
    kind: str
    layer: int
    count: int

    def __post_init__(self) -> None:
        if self.kind not in ("inert", "constant", "split"):
            raise ValueError(f"unknown growth kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("step count must be >= 1")


@dataclass(frozen=True)
class GrowthPlan:
    """Ordered growth steps over distinct layers, applied in sequence."""

    steps: tuple[GrowthStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        layers = [s.layer for s in self.steps]
        if len(set(layers)) != len(layers):
            raise ValueError(f"plan layers must be distinct, got {layers}")


def apply_plan(theta: ParamVector, plan: GrowthPlan, *, rng: np.random.Generator) -> ParamVector:
    """Apply every step of ``plan`` with parameters drawn by ``random_growth`` from ``rng``.

    Any step failure is reported with its index.
    """
    current = theta
    for index, step in enumerate(plan.steps):
        try:
            spec = random_growth(step.kind, current.topology, step.layer, step.count, rng)
            current = apply_growth(current, spec)
        except ValueError as exc:
            raise ValueError(f"plan step {index} ({step.kind} at layer {step.layer}): {exc}") from exc
    return current


def growth_label(spec_or_plan) -> str:
    """Short human-readable tag, used in reports and logs."""
    if isinstance(spec_or_plan, GrowthPlan):
        inner = ",".join(f"{s.kind}@{s.layer}x{s.count}" for s in spec_or_plan.steps)
        return f"plan[{inner}]"
    spec = spec_or_plan
    return f"{spec.kind}@{spec.layer}x{spec.count}"
