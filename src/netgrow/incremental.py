"""Incremental training: start narrow, train, widen, repeat.

The narrow network is trained until cheap progress runs out, then widened by
inert growth with fresh uniform(0,1) parameters. Widening keeps the risk
exactly where it was but generically breaks stationarity, so the optimizer
wakes up with new descent directions instead of sitting on a grown-in flat
spot. The run ends with a full-tolerance stage at the target width. The
fixed-width baseline is the same loop started at the target width.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .autodiff import risk_and_gradient, risk_objective
from .growth import apply_growth, random_growth
from .net_core import (
    MSE,
    TANH,
    ActivationFunction,
    LossFunction,
    ParamVector,
    Topology,
    param_count,
)
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


class GrowthEscapeError(RuntimeError):
    """Every retry of the growth draw left the gradient below the stage tolerance."""


@dataclass(frozen=True)
class ItaConfig:
    """Knobs for incremental training.

    ``growth`` is ``"double"`` (add as many neurons as the layer has), an int
    (fixed amount per stage), or a sequence of per-stage amounts (the last
    entry repeats). Intermediate stages stop once the gradient norm falls to
    ``intermediate_rel_grad_factor`` times its stage-start value or the risk
    improves by less than ``intermediate_loss_delta`` between epochs; the
    final stage runs at ``final_grad_tol``. ``total_epoch_budget`` caps the
    epochs summed over all stages, leaving iterates untouched up to the cap
    so budget-truncated runs are prefixes of longer ones.
    """

    initial_width: int = 10
    max_width: int = 100
    growth: Union[str, int, Sequence[int]] = "double"
    intermediate_rel_grad_factor: float = 0.1
    intermediate_loss_delta: float = 1e-2
    loss_delta_relative: bool = False
    final_grad_tol: float = 1e-6
    maxit_per_stage: int = 1000
    seed: int = 0
    embed_retry_limit: int = 10
    total_epoch_budget: Optional[int] = None
    stage_tolerances: Optional[tuple[float, ...]] = None
    lbfgs: LbfgsConfig = field(default_factory=LbfgsConfig)
    initial_hidden_widths: Optional[tuple[int, ...]] = None
    experimental_multilayer: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.initial_width <= self.max_width:
            raise ValueError(
                f"need 1 <= initial_width <= max_width, got "
                f"{self.initial_width}/{self.max_width}"
            )
        if not 0.0 < self.intermediate_rel_grad_factor <= 1.0:
            raise ValueError("intermediate_rel_grad_factor must be in (0, 1]")
        if self.intermediate_loss_delta <= 0.0:
            raise ValueError("intermediate_loss_delta must be positive")
        if self.final_grad_tol <= 0.0:
            raise ValueError("final_grad_tol must be positive")
        if self.embed_retry_limit < 1:
            raise ValueError("embed_retry_limit must be >= 1")
        if self.maxit_per_stage < 0:
            raise ValueError("maxit_per_stage must be >= 0")
        if self.total_epoch_budget is not None and self.total_epoch_budget < 0:
            raise ValueError("total_epoch_budget must be >= 0")
        if isinstance(self.growth, str):
            if self.growth != "double":
                raise ValueError(f"unknown growth rule {self.growth!r}")
        elif isinstance(self.growth, int):
            if self.growth < 1:
                raise ValueError("fixed growth must add at least one neuron")
        else:
            amounts = tuple(int(k) for k in self.growth)
            object.__setattr__(self, "growth", amounts)
            if not amounts or any(k < 1 for k in amounts):
                raise ValueError("growth schedule entries must be >= 1")
        if self.stage_tolerances is not None:
            tols = tuple(float(t) for t in self.stage_tolerances)
            object.__setattr__(self, "stage_tolerances", tols)
            if any(t <= 0 for t in tols):
                raise ValueError("stage tolerances must be positive")
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
        if isinstance(self.growth, int):
            return self.growth
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


@dataclass(frozen=True, eq=False)
class TrainRun:
    solver: str
    stages: tuple[StageRecord, ...]
    theta_final: ParamVector
    cumulative_epochs: int
    loss_trace: tuple[float, ...]
    grad_trace: tuple[float, ...]

    @property
    def final_risk(self) -> float:
        return self.loss_trace[-1]

    def risk_after(self, epochs: int) -> float:
        """Risk after ``epochs`` training epochs (clamped to the run length)."""
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


def _stage_hook(rel_factor: float, loss_delta: float, relative: bool):
    state: dict = {}

    def hook(iteration: int, x, f: float, g) -> bool:
        grad_norm = float(np.max(np.abs(g)))
        if iteration == 0:
            state["start_grad"] = grad_norm
            state["prev_f"] = f
            return False
        improved_by = abs(f - state["prev_f"])
        state["prev_f"] = f
        if grad_norm <= rel_factor * state["start_grad"]:
            return True
        threshold = loss_delta * (1.0 + abs(f)) if relative else loss_delta
        return improved_by <= threshold

    return hook


def _concat_traces(stages: Sequence[StageRecord]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    loss_trace: list[float] = []
    grad_trace: list[float] = []
    for index, stage in enumerate(stages):
        skip = 1 if index > 0 else 0  # stage starts duplicate the previous end risk
        loss_trace.extend(stage.f_history[skip:])
        grad_trace.extend(stage.g_history[skip:])
    return tuple(loss_trace), tuple(grad_trace)


def ita_train(
    data,
    cfg: ItaConfig,
    *,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
) -> TrainRun:
    """Train with progressive widening until every hidden layer reaches the cap.

    Each growth re-draws its uniform(0,1) parameters until the grown gradient
    norm clears the stage tolerance (the risk itself is asserted unchanged);
    :class:`GrowthEscapeError` is raised when the retries run out.
    """
    return _train(data, cfg, "ita", loss, activation)


def standard_train(
    data,
    width: int,
    *,
    tol: float = 1e-6,
    maxit: int = 1000,
    seed: int = 0,
    loss: LossFunction = MSE,
    activation: ActivationFunction = TANH,
    lbfgs: LbfgsConfig | None = None,
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
        lbfgs=lbfgs or LbfgsConfig(),
    )
    return _train(data, cfg, "standard", loss, activation)


def _train(data, cfg: ItaConfig, solver: str, loss, activation) -> TrainRun:
    """Train stage by stage, widening between stages, and label the run ``solver``."""
    n, m = data.inputs.shape[1], data.targets.shape[1]
    widths = list(cfg.initial_hidden_widths or (cfg.initial_width,))
    rng = np.random.default_rng(cfg.seed)

    topology = Topology((n, *widths, m))
    theta = ParamVector(topology, rng.uniform(0.0, 1.0, param_count(topology)))

    budget = cfg.total_epoch_budget
    stages: list[StageRecord] = []
    epochs_used = 0
    stage_index = 0

    while True:
        final_stage = all(w >= cfg.max_width for w in widths)
        max_iter = cfg.maxit_per_stage
        if budget is not None:
            max_iter = min(max_iter, budget - epochs_used)
        stage_cfg = replace(cfg.lbfgs, max_iter=max_iter, grad_tol_inf=cfg.final_grad_tol)
        hook = None if final_stage else _stage_hook(
            cfg.intermediate_rel_grad_factor,
            cfg.intermediate_loss_delta,
            cfg.loss_delta_relative,
        )
        result = lbfgs_minimize(
            risk_objective(theta.topology, data, loss, activation),
            theta.flat,
            stage_cfg,
            stop_hook=hook,
        )
        theta = ParamVector(theta.topology, result.theta)
        epochs_used += result.iterations
        stages.append(
            StageRecord(
                widths=tuple(widths),
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

        # After growth the copied parameters keep their gradient entries, so
        # the grown max-norm can only exceed the achieved norm through the new
        # entries. Demanding more than the smaller of (achieved norm, final
        # tolerance) keeps the test meaningful near stationarity without
        # being unsatisfiable after a loss-delta stop.
        if cfg.stage_tolerances is not None:
            k = min(stage_index, len(cfg.stage_tolerances) - 1)
            escape_tol = cfg.stage_tolerances[k]
        else:
            escape_tol = min(result.grad_norm_final, cfg.final_grad_tol)
        theta = _grow_stage(
            theta, widths, cfg, rng, data, loss, activation,
            stage_index=stage_index,
            stage_end_risk=result.f_final,
            stage_tol=escape_tol,
        )
        stage_index += 1

    loss_trace, grad_trace = _concat_traces(stages)
    return TrainRun(
        solver=solver,
        stages=tuple(stages),
        theta_final=theta,
        cumulative_epochs=epochs_used,
        loss_trace=loss_trace,
        grad_trace=grad_trace,
    )


def _grow_stage(
    theta: ParamVector,
    widths: list[int],
    cfg: ItaConfig,
    rng: np.random.Generator,
    data,
    loss,
    activation,
    *,
    stage_index: int,
    stage_end_risk: float,
    stage_tol: float,
) -> ParamVector:
    """Widen every growable hidden layer, retrying draws until the gradient wakes."""
    grow_amounts = []
    for position, width in enumerate(widths):
        amount = min(cfg.growth_amount(stage_index, width), cfg.max_width - width)
        grow_amounts.append(max(amount, 0))
    if not any(grow_amounts):
        raise RuntimeError("growth step requested but every layer is at max width")

    for _ in range(cfg.embed_retry_limit):
        candidate = theta
        for position, amount in enumerate(grow_amounts):
            if amount:
                spec = random_growth("inert", candidate.topology, position + 1, amount, rng)
                candidate = apply_growth(candidate, spec, activation)
        risk, grad = risk_and_gradient(candidate, data, loss, activation)
        if abs(risk - stage_end_risk) > RISK_CONTINUITY_RTOL * (1.0 + abs(stage_end_risk)):
            raise RuntimeError(
                f"growth changed the risk: {stage_end_risk!r} -> {risk!r}"
            )
        if float(np.max(np.abs(grad))) > stage_tol:
            for position, amount in enumerate(grow_amounts):
                widths[position] += amount
            return candidate
    raise GrowthEscapeError(
        f"{cfg.embed_retry_limit} growth draws left the gradient below {stage_tol:.3e}"
    )

