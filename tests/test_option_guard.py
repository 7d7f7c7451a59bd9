"""The model family is fixed: MSE risk, tanh hidden units, linear outputs, one L-BFGS
setting and one stage-stop rule. Nothing takes a ``loss`` or an ``activation``."""

import dataclasses
import inspect

import pytest

import netgrow
from netgrow import autodiff, bench, growth, incremental, net_core, stationarity
from netgrow.cli import main

MATH_LAYER = [
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
def test_no_loss_or_activation_parameter(function):
    parameters = inspect.signature(function).parameters
    assert "loss" not in parameters
    assert "activation" not in parameters


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


@pytest.mark.parametrize("module", [netgrow, net_core], ids=["netgrow", "net_core"])
def test_no_loss_table(module):
    assert not hasattr(module, "MSE")
    assert not hasattr(module, "LossFunction")
    assert not {"MSE", "LossFunction"} & set(getattr(module, "__all__", ()))


@pytest.mark.parametrize("module", [netgrow, net_core], ids=["netgrow", "net_core"])
def test_no_activation_table_or_single_sample_forward(module):
    names = {"ActivationFunction", "TANH", "IDENTITY", "ActivationRecord", "forward"}
    assert not {name for name in names if hasattr(module, name)}
    assert not names & set(getattr(module, "__all__", ()))


def test_transfer_check_takes_only_a_network_data_and_growth():
    assert list(inspect.signature(stationarity.verify_stationarity_transfer).parameters) == [
        "theta", "data", "growth"]


def test_apply_plan_draws_from_a_required_rng():
    parameters = inspect.signature(growth.apply_plan).parameters
    assert "params" not in parameters
    assert parameters["rng"].default is inspect.Parameter.empty


@pytest.mark.parametrize("owner, names", [
    (net_core.ParamVector, ("get_bias", "get_weight", "_block")),
    (growth, ("added_param_count",)),
    (netgrow, ("get_bias", "get_weight", "added_param_count")),
], ids=["ParamVector", "growth", "netgrow"])
def test_no_test_only_accessors(owner, names):
    assert not {name for name in names if hasattr(owner, name)}
    assert not set(names) & set(getattr(owner, "__all__", ()))
