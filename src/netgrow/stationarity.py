"""Numerical certification of the growth-map guarantees.

Two checks matter: growing a network must leave the empirical risk unchanged
for any parameter choice, and the stationarity-preserving maps (constant
growth with zero outgoing weights, and splits) must map zero-gradient points
to zero-gradient points. Both are certified numerically against thresholds;
the reports are plain records so the CLI can stream them one per line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Sequence

import numpy as np

from .autodiff import grad_norm_inf, risk_and_gradient, risk_objective
from .growth import (
    ConstantGrowth,
    GrowthPlan,
    GrowthSpec,
    GrowthStep,
    SplitGrowth,
    apply_growth,
    apply_plan,
    growth_label,
    random_growth,
)
from .net_core import MSE, TANH, ActivationFunction, LossFunction, ParamVector, Topology, param_count
from .optimizer import LbfgsConfig, lbfgs_minimize

__all__ = [
    "StationarityReport",
    "NonConvergenceError",
    "find_stationary_point",
    "risk_gap_report",
    "verify_loss_invariance",
    "verify_stationarity_transfer",
    "transfer_safe_spec",
    "escape_rate",
    "count_manifold_families",
    "RISK_GAP_RTOL",
    "TRANSFER_SLACK",
    "TRANSFER_FLOOR",
]

RISK_GAP_RTOL = 1e-10
TRANSFER_SLACK = 100.0
TRANSFER_FLOOR = 1e-14


class NonConvergenceError(RuntimeError):
    """The stationary-point search did not reach the requested tolerance."""

    def __init__(self, best_norm: float):
        super().__init__(f"best gradient norm reached: {best_norm:.3e}")
        self.best_norm = best_norm


@dataclass(frozen=True)
class StationarityReport:
    check: str  # "risk" or "gradient"
    map_label: str
    source_risk: float
    embedded_risk: float
    risk_gap: float
    source_grad_norm: float
    embedded_grad_norm: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "map": self.map_label,
            "source_risk": self.source_risk,
            "embedded_risk": self.embedded_risk,
            "risk_gap": self.risk_gap,
            "source_grad_norm": self.source_grad_norm,
            "embedded_grad_norm": self.embedded_grad_norm,
            "verdict": "pass" if self.passed else "fail",
        }


def find_stationary_point(
    topology: Topology,
    data,
    *,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: int = 0,
) -> ParamVector:
    """Drive the risk gradient below ``tol`` from a seeded uniform(0,1) start.

    Raises :class:`NonConvergenceError` (with the best norm reached) when the
    optimizer stalls above the tolerance.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 1.0, param_count(topology))
    result = lbfgs_minimize(
        risk_objective(topology, data, loss, activation),
        start,
        LbfgsConfig(grad_tol_inf=tol, max_iter=max_iter),
    )
    if result.grad_norm_final > tol:
        raise NonConvergenceError(result.grad_norm_final)
    return ParamVector(topology, result.theta)


def _grow(theta, growth, rng, activation):
    if isinstance(growth, GrowthPlan):
        return apply_plan(theta, growth, rng=rng, activation=activation)
    return apply_growth(theta, growth, activation)


def verify_loss_invariance(
    theta: ParamVector,
    data,
    growth: GrowthSpec | GrowthPlan,
    *,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
    rng: np.random.Generator | None = None,
) -> StationarityReport:
    """Check that growing leaves the empirical risk unchanged at ``theta``."""
    grown = _grow(theta, growth, rng, activation)
    return risk_gap_report(
        theta, grown, data, growth_label(growth), loss=loss, activation=activation
    )


def risk_gap_report(
    theta: ParamVector,
    grown: ParamVector,
    data,
    map_label: str,
    *,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> StationarityReport:
    """Risk check of ``grown`` against ``theta``: the risks must agree to ``RISK_GAP_RTOL``."""
    source_risk, source_grad = risk_and_gradient(theta, data, loss, activation)
    grown_risk, grown_grad = risk_and_gradient(grown, data, loss, activation)
    gap = abs(grown_risk - source_risk)
    return StationarityReport(
        check="risk",
        map_label=map_label,
        source_risk=source_risk,
        embedded_risk=grown_risk,
        risk_gap=gap,
        source_grad_norm=grad_norm_inf(source_grad),
        embedded_grad_norm=grad_norm_inf(grown_grad),
        passed=gap <= RISK_GAP_RTOL * (1.0 + abs(source_risk)),
    )


def _transfer_safe(growth) -> bool:
    if isinstance(growth, SplitGrowth):
        return True
    if isinstance(growth, ConstantGrowth):
        return not np.any(np.asarray(growth.out_weights))
    return False


def transfer_safe_spec(
    kind: str,
    topology: Topology,
    layer: int,
    count: int,
    rng: np.random.Generator,
) -> GrowthSpec:
    """Draw a growth spec that provably preserves stationary points.

    Constant growth gets uniform(0,1) biases and zero outgoing weights; splits
    get a uniform random source and shares drawn uniformly on the simplex.
    """
    if kind == "constant":
        return ConstantGrowth(
            layer,
            rng.uniform(0.0, 1.0, count),
            np.zeros((topology.size(layer + 1), count)),
        )
    if kind == "split":
        source = int(rng.integers(topology.size(layer)))
        shares = rng.uniform(0.0, 1.0, count + 1)
        shares /= shares.sum()
        return SplitGrowth(layer, count, source, shares)
    raise ValueError(f"{kind!r} growth does not preserve stationarity")


def verify_stationarity_transfer(
    theta: ParamVector,
    data,
    growth: GrowthSpec | GrowthPlan | Sequence[GrowthSpec],
    *,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
    rng: np.random.Generator | None = None,
    allow_escape_maps: bool = False,
) -> StationarityReport:
    """Check that a stationarity-preserving map keeps the gradient tiny.

    Only splits, constant growths with zero outgoing weights, and chains of
    those qualify; anything else (inert growth in particular) is rejected
    unless ``allow_escape_maps`` is set for a deliberate negative test. A
    :class:`GrowthPlan` gets stationarity-safe parameters drawn from ``rng``.
    """
    if isinstance(growth, GrowthPlan):
        if rng is None:
            raise ValueError("a plan needs an rng to draw its parameters")
        specs = []
        sizes = list(theta.topology.layer_sizes)
        for step in growth.steps:
            topo_now = Topology(tuple(sizes))
            if step.kind == "inert" and allow_escape_maps:
                specs.append(random_growth(step.kind, topo_now, step.layer, step.count, rng))
            else:
                specs.append(transfer_safe_spec(step.kind, topo_now, step.layer, step.count, rng))
            sizes[step.layer] += step.count
    else:
        specs = list(growth) if isinstance(growth, (list, tuple)) else [growth]
    if not allow_escape_maps:
        bad = [growth_label(s) for s in specs if not _transfer_safe(s)]
        if bad:
            raise ValueError(
                f"maps {bad} do not preserve stationarity; use splits or "
                "constant growth with zero outgoing weights (or set "
                "allow_escape_maps for a negative test)"
            )
    layers = [s.layer for s in specs]
    if len(set(layers)) != len(layers):
        raise ValueError(f"chained growth layers must be distinct, got {layers}")

    grown = theta
    for spec in specs:
        grown = apply_growth(grown, spec, activation)
    label = specs[0] if len(specs) == 1 else GrowthPlan(
        tuple(GrowthStep(s.kind, s.layer, s.count) for s in specs)
    )
    report = risk_gap_report(
        theta, grown, data, growth_label(label), loss=loss, activation=activation
    )
    bound = TRANSFER_SLACK * max(report.source_grad_norm, TRANSFER_FLOOR)
    return replace(report, check="gradient", passed=report.embedded_grad_norm <= bound)


def escape_rate(
    theta: ParamVector,
    data,
    layer: int,
    count: int,
    *,
    draws: int = 50,
    threshold: float = 1e-3,
    seed: int = 0,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> float:
    """Fraction of random inert growths whose gradient norm exceeds ``threshold``.

    At a stationary point this is the probability that growing wakes the
    optimizer up again; it should be near one for uniform(0,1) draws.
    """
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(draws):
        spec = random_growth("inert", theta.topology, layer, count, rng)
        grown = apply_growth(theta, spec, activation)
        _, grad = risk_and_gradient(grown, data, loss, activation)
        if grad_norm_inf(grad) > threshold:
            hits += 1
    return hits / draws


def count_manifold_families(topology: Topology, budget: int) -> int:
    """Distinct (layer set, per-layer count, map kind) families within a budget.

    Counts nonempty subsets of the hidden layers, compositions of at least one
    new neuron per chosen layer totalling at most ``budget``, and an
    independent choice between the two stationarity-preserving maps per layer.
    Grows exponentially with the number of hidden layers.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    hidden = topology.depth - 1
    total = 0
    for k in range(1, min(hidden, budget) + 1):
        # comb(budget, k) counts the ways to give k layers >= 1 neurons
        # with at most `budget` in total.
        total += comb(hidden, k) * comb(budget, k) * 2**k
    return total
