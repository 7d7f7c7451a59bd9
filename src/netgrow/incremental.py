"""Incremental training: start narrow, train, widen, repeat.

The narrow network is trained until cheap progress runs out, then widened by
inert growth with fresh uniform(0,1) parameters. Widening keeps the risk
exactly where it was but generically breaks stationarity, so the optimizer
wakes up with new descent directions instead of sitting on a grown-in flat
spot. The run ends with a full-tolerance stage at the target width. The
fixed-width baseline is the same loop started at the target width.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .autodiff import risk_and_gradient, risk_objective
from .growth import GrowthPlan, GrowthStep, _new_columns, apply_plan
from .net_core import ParamVector, Topology, _block_views, param_count
from .optimizer import LbfgsConfig, lbfgs_minimize

__all__ = [
    "ItaConfig",
    "StageRecord",
    "TrainRun",
    "GrowthEscapeError",
    "ita_train",
    "standard_train",
    "RISK_CONTINUITY_RTOL",
]

RISK_CONTINUITY_RTOL = 1e-12
INTERMEDIATE_REL_GRAD_FACTOR = 0.1  # share of the stage-start gradient norm
GROWTH_DRAW_LIMIT = 10  # draws per widening before GrowthEscapeError


class GrowthEscapeError(RuntimeError):
    """No growth draw gave a new neuron's outgoing weights a gradient above ``final_grad_tol``."""


@dataclass(frozen=True)
class ItaConfig:
    """Knobs for incremental training of tanh networks under the mean-squared error.

    ``growth`` is ``"double"`` (add as many neurons as the layer has), or
    per-stage amounts whose last entry repeats (an int is stored as a
    one-entry schedule). Intermediate stages stop once the gradient norm
    falls to ``INTERMEDIATE_REL_GRAD_FACTOR`` times its stage-start value or
    the risk improves by less than the absolute ``intermediate_loss_delta``
    between epochs; the final stage runs at ``final_grad_tol``, the bar each
    growth draw must also clear. Every stage is one default L-BFGS run capped
    at ``maxit_per_stage`` iterations, ending at its last accepted iterate.
    ``total_epoch_budget`` caps the epochs summed over all stages, leaving
    iterates untouched up to the cap so budget-truncated runs are prefixes of
    longer ones.
    """

    initial_width: int = 10
    max_width: int = 100
    growth: Union[str, int, Sequence[int]] = "double"
    intermediate_loss_delta: float = 1e-2
    final_grad_tol: float = 1e-6
    maxit_per_stage: int = 1000
    seed: int = 0
    total_epoch_budget: Optional[int] = None
    initial_hidden_widths: Optional[tuple[int, ...]] = None
    experimental_multilayer: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.initial_width <= self.max_width:
            raise ValueError(
                f"need 1 <= initial_width <= max_width, got "
                f"{self.initial_width}/{self.max_width}"
            )
        for name in ("intermediate_loss_delta", "final_grad_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.maxit_per_stage < 0:
            raise ValueError("maxit_per_stage must be >= 0")
        if self.total_epoch_budget is not None and self.total_epoch_budget < 0:
            raise ValueError("total_epoch_budget must be >= 0")
        if isinstance(self.growth, str):
            if self.growth != "double":
                raise ValueError(f"unknown growth rule {self.growth!r}")
        else:
            growth = (self.growth,) if isinstance(self.growth, int) else self.growth
            amounts = tuple(int(k) for k in growth)
            object.__setattr__(self, "growth", amounts)
            if not amounts or any(k < 1 for k in amounts):
                raise ValueError("growth schedule entries must be >= 1")
        widths = self.initial_hidden_widths
        if widths is not None:
            widths = tuple(int(w) for w in widths)
            object.__setattr__(self, "initial_hidden_widths", widths)
            if len(widths) > 1 and not self.experimental_multilayer:
                raise ValueError(
                    "growing several hidden layers is experimental; set "
                    "experimental_multilayer=True to opt in"
                )
            if any(not 1 <= w <= self.max_width for w in widths):
                raise ValueError("hidden widths must lie in 1..max_width")

    def growth_amount(self, stage: int, width: int) -> int:
        if self.growth == "double":
            return width
        return self.growth[min(stage, len(self.growth) - 1)]


@dataclass(frozen=True)
class StageRecord:
    widths: tuple[int, ...]
    start_risk: float
    end_risk: float
    end_grad_norm: float
    iterations: int
    termination: str
    f_history: tuple[float, ...]
    g_history: tuple[float, ...]

    @property
    def width(self) -> int:
        return self.widths[0]

    def to_record(self) -> dict:
        """Every field but the per-epoch histories, which ``TrainRun.epoch_records`` yields."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("f_history", "g_history")}


@dataclass(frozen=True, eq=False)
class TrainRun:
    solver: str
    stages: tuple[StageRecord, ...]
    theta_final: ParamVector

    @property
    def cumulative_epochs(self) -> int:
        return sum(stage.iterations for stage in self.stages)

    @cached_property
    def loss_trace(self) -> tuple[float, ...]:
        """Risk per epoch over all stages; a later stage's start repeats the previous end."""
        tails = (risk for stage in self.stages[1:] for risk in stage.f_history[1:])
        return self.stages[0].f_history + tuple(tails)

    @property
    def final_risk(self) -> float:
        return self.loss_trace[-1]

    def risk_after(self, epochs: int) -> float:
        """Risk after ``epochs`` training epochs (clamped to the run length)."""
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        return self.loss_trace[min(epochs, len(self.loss_trace) - 1)]

    def epoch_records(self):
        """One record per stage epoch, stage starts included."""
        for stage_index, stage in enumerate(self.stages):
            for epoch, (risk, grad) in enumerate(zip(stage.f_history, stage.g_history)):
                yield {
                    "stage": stage_index,
                    "width": stage.width,
                    "epoch": epoch,
                    "risk": risk,
                    "grad_norm": grad,
                }


def _stage_hook(loss_delta: float):
    state: dict = {}

    def hook(iteration: int, x, f: float, g) -> bool:
        grad_norm = float(np.abs(g).max())
        if iteration == 0:
            state["start_grad"] = grad_norm
            state["prev_f"] = f
            return False
        improved_by = abs(f - state["prev_f"])
        state["prev_f"] = f
        if grad_norm <= INTERMEDIATE_REL_GRAD_FACTOR * state["start_grad"]:
            return True
        return improved_by <= loss_delta

    return hook


def ita_train(data, cfg: ItaConfig) -> TrainRun:
    """Train with progressive widening until every hidden layer reaches the cap.

    Each growth re-draws its uniform(0,1) parameters, at most
    ``GROWTH_DRAW_LIMIT`` times, until a new neuron's outgoing-weight gradient
    passes ``final_grad_tol`` (the risk itself is asserted unchanged);
    :class:`GrowthEscapeError` is raised when the draws run out.
    """
    return _train(data, cfg, "ita")


def standard_train(
    data,
    width: int,
    *,
    tol: float = 1e-6,
    maxit: int = 1000,
    seed: int = 0,
) -> TrainRun:
    """Fixed-width baseline: one optimizer run from a uniform(0,1) start.

    This is the incremental loop with nothing to grow: at
    ``initial_width == max_width`` it runs a single full-tolerance stage.
    """
    cfg = ItaConfig(
        initial_width=width,
        max_width=width,
        final_grad_tol=tol,
        maxit_per_stage=maxit,
        seed=seed,
    )
    return _train(data, cfg, "standard")


def _train(data, cfg: ItaConfig, solver: str) -> TrainRun:
    """Train stage by stage, widening between stages, and label the run ``solver``."""
    n, m = data.inputs.shape[1], data.targets.shape[1]
    rng = np.random.default_rng(cfg.seed)

    topology = Topology((n, *(cfg.initial_hidden_widths or (cfg.initial_width,)), m))
    theta = ParamVector(topology, rng.uniform(0.0, 1.0, param_count(topology)))

    budget = cfg.total_epoch_budget
    stages: list[StageRecord] = []
    epochs_used = 0
    stage_index = 0

    while True:
        widths = theta.topology.layer_sizes[1:-1]
        final_stage = all(w >= cfg.max_width for w in widths)
        max_iter = cfg.maxit_per_stage
        if budget is not None:
            max_iter = min(max_iter, budget - epochs_used)
        hook = None if final_stage else _stage_hook(cfg.intermediate_loss_delta)
        result = lbfgs_minimize(
            risk_objective(theta.topology, data),
            theta.flat,
            LbfgsConfig(max_iter=max_iter, grad_tol_inf=cfg.final_grad_tol),
            stop_hook=hook,
        )
        theta = ParamVector(theta.topology, result.theta)
        epochs_used += result.iterations
        stages.append(
            StageRecord(
                widths=widths,
                start_risk=result.f_history[0],
                end_risk=result.f_final,
                end_grad_norm=result.grad_norm_final,
                iterations=result.iterations,
                termination=result.termination,
                f_history=tuple(result.f_history),
                g_history=tuple(result.g_history),
            )
        )

        out_of_budget = budget is not None and epochs_used >= budget
        if final_stage or out_of_budget:
            break

        theta = _grow_stage(
            theta, cfg, rng, data, stage_index=stage_index, stage_end_risk=result.f_final
        )
        stage_index += 1

    return TrainRun(solver=solver, stages=tuple(stages), theta_final=theta)


def _grow_stage(
    theta: ParamVector,
    cfg: ItaConfig,
    rng: np.random.Generator,
    data,
    *,
    stage_index: int,
    stage_end_risk: float,
) -> ParamVector:
    """Widen every growable hidden layer, retrying draws until the new neurons wake.

    A draw is accepted once the largest |gradient| over the new neurons'
    outgoing weights (the columns each step appends to the block above)
    exceeds ``cfg.final_grad_tol``.
    """
    steps = []
    for layer, width in enumerate(theta.topology.layer_sizes[1:-1], start=1):
        amount = min(cfg.growth_amount(stage_index, width), cfg.max_width - width)
        if amount > 0:
            steps.append(GrowthStep("inert", layer, amount))
    if not steps:
        raise RuntimeError("growth step requested but every layer is at max width")
    plan = GrowthPlan(tuple(steps))

    for _ in range(GROWTH_DRAW_LIMIT):
        candidate = apply_plan(theta, plan, rng=rng)
        risk, grad = risk_and_gradient(candidate, data)
        if abs(risk - stage_end_risk) > RISK_CONTINUITY_RTOL * (1.0 + abs(stage_end_risk)):
            raise RuntimeError(
                f"growth changed the risk: {stage_end_risk!r} -> {risk!r}"
            )
        blocks = _block_views(candidate.topology.layer_sizes, grad)
        wake = max(float(np.abs(_new_columns(blocks, step.layer, step.count)).max())
                   for step in steps)
        if wake > cfg.final_grad_tol:
            return candidate
    raise GrowthEscapeError(
        f"{GROWTH_DRAW_LIMIT} growth draws left the new neurons' outgoing-weight "
        f"gradient at or below final_grad_tol {cfg.final_grad_tol:.3e}"
    )
