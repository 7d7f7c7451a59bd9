"""One growth path: the maps share one block surgery, and chains apply them spec by spec."""

import inspect

import numpy as np
import pytest

from netgrow import (
    ConstantGrowth,
    Dataset,
    ItaConfig,
    ParamVector,
    SplitGrowth,
    Topology,
    apply_growth,
    param_count,
    performance_profile,
    random_growth,
    risk_and_gradient,
    transfer_safe_spec,
    verify_stationarity_transfer,
)
from netgrow import incremental


@pytest.fixture
def net():
    topology = Topology((2, 3, 3, 1))
    rng = np.random.default_rng(4)
    theta = ParamVector(topology, rng.uniform(-1.0, 1.0, param_count(topology)))
    data = Dataset(rng.uniform(-2.0, 2.0, (10, 2)), rng.uniform(-1.0, 1.0, (10, 1)))
    return theta, data


def test_layer_blocks_are_read_only_views_of_the_layout():
    topology = Topology((2, 2, 1))
    theta = ParamVector(topology, np.arange(9.0))
    first, second = theta.layer_blocks()
    # layer 1: [b0, w00, w01, b1, w10, w11], layer 2: [b0, w00, w01]
    assert np.array_equal(first, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert np.array_equal(second, [[6.0, 7.0, 8.0]])
    assert np.shares_memory(first, theta.flat) and not first.flags.writeable
    for block, (b, w) in zip(theta.layer_blocks(), theta.layer_arrays()):
        assert np.array_equal(block[:, 0], b) and np.array_equal(block[:, 1:], w)


@pytest.mark.parametrize("kind", ["inert", "constant", "split"])
def test_maps_append_rows_below_and_columns_above(net, kind):
    theta, _ = net
    spec = random_growth(kind, theta.topology, 1, 2, np.random.default_rng(1))
    grown = apply_growth(theta, spec)
    old, new = theta.layer_blocks(), grown.layer_blocks()
    assert np.array_equal(new[0][:3], old[0])  # old rows of the grown layer kept
    assert new[1].shape == (3, 1 + 5)  # one more column per new neuron
    assert np.array_equal(new[2], old[2])  # blocks further up untouched


def test_transfer_chain_is_the_chained_apply_growth(net):
    theta, data = net
    rng = np.random.default_rng(7)
    constant = transfer_safe_spec("constant", theta.topology, 1, 2, rng)
    split = transfer_safe_spec("split", Topology((2, 5, 3, 1)), 2, 1, rng)
    report = verify_stationarity_transfer(theta, data, [constant, split])
    _, grad = risk_and_gradient(apply_growth(apply_growth(theta, constant), split), data)
    assert report.map_label == "plan[constant@1x2,split@2x1]"
    assert report.embedded_grad_norm == float(np.max(np.abs(grad)))
    inert = random_growth("inert", theta.topology, 1, 2, rng)
    with pytest.raises(ValueError, match="preserve stationarity"):
        verify_stationarity_transfer(theta, data, [inert, split])


def test_transfer_chain_rejects_a_repeated_layer(net):
    theta, data = net
    rng = np.random.default_rng(2)
    first = transfer_safe_spec("split", theta.topology, 1, 1, rng)
    second = transfer_safe_spec("constant", Topology((2, 4, 3, 1)), 1, 1, rng)
    with pytest.raises(ValueError, match="distinct"):
        verify_stationarity_transfer(theta, data, [first, second])


def test_transfer_chain_rejects_a_zero_count_spec(net):
    theta, data = net
    with pytest.raises(ValueError, match="count"):
        verify_stationarity_transfer(theta, data, [SplitGrowth(1, 0, 0, np.ones(1))])
    zero_out = ConstantGrowth(2, np.zeros(0), np.zeros((1, 0)))
    with pytest.raises(ValueError, match="count"):
        verify_stationarity_transfer(theta, data, zero_out)


def test_growth_stage_reads_widths_from_the_network():
    assert "widths" not in inspect.signature(incremental._grow_stage).parameters
    assert ItaConfig(initial_width=2, max_width=9, growth=3).growth == (3,)
    assert ItaConfig(initial_width=2, max_width=9, growth=3).growth_amount(5, 2) == 3


@pytest.mark.parametrize("alphas", [[1.0, np.nan, 2.0], [np.nan], [1.0, 2.0, np.nan]])
def test_profile_rejects_nan_alphas(alphas):
    with pytest.raises(ValueError, match="alphas"):
        performance_profile(np.ones((2, 2)), alphas)
