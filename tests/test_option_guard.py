"""The model family is fixed: MSE risk, tanh hidden units, one L-BFGS setting and one
stage-stop rule. Only the math layer takes an ``activation`` (tests pass ``IDENTITY``
there as a linear-network oracle); nothing takes a ``loss``."""

import dataclasses
import inspect

import pytest

import netgrow
from netgrow import autodiff, bench, growth, incremental, net_core, stationarity
from netgrow.cli import main

MATH_LAYER = [
    net_core.forward,
    net_core.forward_batch,
    net_core.empirical_risk,
    autodiff.risk_and_gradient,
    autodiff.risk_objective,
    autodiff.gradient_forward,
    autodiff.gradient_finite_diff,
    stationarity.find_stationary_point,
]
ABOVE_THE_GRADIENT = [
    growth.grow_constant,
    growth.apply_growth,
    growth.apply_plan,
    stationarity.verify_loss_invariance,
    stationarity.risk_gap_report,
    stationarity.verify_stationarity_transfer,
    stationarity.escape_rate,
    incremental.ita_train,
    incremental.standard_train,
    incremental._train,
    incremental._grow_stage,
    bench.run_benchmark,
]


@pytest.mark.parametrize("function", MATH_LAYER + ABOVE_THE_GRADIENT, ids=lambda f: f.__name__)
def test_no_loss_parameter_and_activation_only_in_the_math_layer(function):
    parameters = inspect.signature(function).parameters
    assert "loss" not in parameters
    assert ("activation" in parameters) == (function in MATH_LAYER)


def test_one_lbfgs_setting_and_one_stage_stop_rule():
    fields = {f.name for f in dataclasses.fields(incremental.ItaConfig)}
    assert not fields & {"lbfgs", "loss_delta_relative", "stage_tolerances",
                         "embed_retry_limit", "intermediate_rel_grad_factor"}
    assert "lbfgs" not in inspect.signature(incremental.standard_train).parameters


def test_no_gradient_alias():
    assert not hasattr(netgrow, "GradientVector")
    assert not hasattr(autodiff, "GradientVector")


def test_bench_has_no_relative_delta_flag(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--problem", "synth:sinusoid:n=1,m=1,P=8", "--ita-delta-relative",
              "--out", str(tmp_path / "b")])
    assert exit_info.value.code == 2
