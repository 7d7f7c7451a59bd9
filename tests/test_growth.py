import numpy as np
import pytest

from netgrow import (
    GrowthPlan,
    GrowthStep,
    ParamVector,
    SplitGrowth,
    apply_growth,
    apply_plan,
    build_topology,
    empirical_risk,
    forward_batch,
    grow_constant,
    grow_inert,
    grow_split,
    param_count,
    random_growth,
)
from netgrow.data import Dataset
from netgrow.growth import _new_columns


def make_case(sizes, samples=10, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    t = build_topology(sizes)
    theta = ParamVector(t, scale * rng.standard_normal(param_count(t)))
    data = Dataset(
        rng.uniform(-2, 2, (samples, sizes[0])),
        rng.uniform(-1, 1, (samples, sizes[-1])),
        name="growth-case",
    )
    return theta, data


def test_inert_zero_count_is_identity():
    theta, _ = make_case([2, 2, 1])
    grown = grow_inert(theta, 1, np.zeros(0), np.zeros((0, 2)))
    assert grown is theta


def test_inert_parameter_growth_matches_formula():
    theta, _ = make_case([2, 2, 1])
    grown = grow_inert(theta, 1, np.array([0.5]), np.array([[0.1, 0.2]]))
    assert grown.topology.layer_sizes == (2, 3, 1)
    assert len(grown) - len(theta) == 1 * (2 + 1) + 1 * 1 == 4


@pytest.mark.parametrize(
    "sizes,layer,count", [([2, 3, 1], 1, 1), ([4, 10, 1], 1, 10), ([2, 3, 4, 2], 2, 3)]
)
def test_added_param_count_examples(sizes, layer, count):
    t = build_topology(sizes)
    theta = ParamVector.zeros(t)
    below, above = sizes[layer - 1], sizes[layer + 1]
    for kind in ("inert", "constant", "split"):
        grown = apply_growth(theta, random_growth(kind, t, layer, count, np.random.default_rng(0)))
        assert len(grown) - len(theta) == count * (below + 1) + count * above


def test_added_param_count_consistent_for_all_maps():
    rng = np.random.default_rng(17)
    for _ in range(15):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        t = build_topology(sizes)
        theta = ParamVector(t, rng.standard_normal(param_count(t)))
        layer = int(rng.integers(1, depth))
        count = int(rng.integers(1, 4))
        for kind in ("inert", "constant", "split"):
            grown = apply_growth(theta, random_growth(kind, t, layer, count, rng))
            below, above = sizes[layer - 1], sizes[layer + 1]
            assert len(grown) - len(theta) == count * (below + 1) + count * above
            assert param_count(grown.topology) == len(grown)


def test_inert_preserves_risk_deep():
    theta, data = make_case([2, 2, 2, 1], seed=3)
    rng = np.random.default_rng(4)
    grown = grow_inert(theta, 2, rng.uniform(0, 1, 3), rng.uniform(0, 1, (3, 2)))
    r0 = empirical_risk(theta, data)
    r1 = empirical_risk(grown, data)
    assert abs(r1 - r0) <= 1e-12 * (1 + abs(r0))


def test_constant_preserves_risk():
    theta, data = make_case([2, 3, 1], seed=5)
    rng = np.random.default_rng(6)
    grown = grow_constant(theta, 1, rng.standard_normal(2), rng.standard_normal((1, 2)))
    r0 = empirical_risk(theta, data)
    assert abs(empirical_risk(grown, data) - r0) <= 1e-12 * (1 + abs(r0))


def test_constant_new_neuron_preactivation_is_exactly_its_bias():
    theta, data = make_case([2, 3, 1], seed=7)
    biases = np.array([0.33, -1.25])
    grown = grow_constant(theta, 1, biases, np.random.default_rng(1).standard_normal((1, 2)))
    pre = forward_batch(grown, data.inputs)[0]
    assert np.array_equal(pre[:, 3:], np.tile(biases, (data.n_samples, 1)))


def test_constant_zero_out_weights_equals_inert_zero_in_weights():
    theta, _ = make_case([2, 3, 1], seed=8)
    biases = np.array([0.4, 0.9])
    a = grow_inert(theta, 1, biases, np.zeros((2, 2)))
    b = grow_constant(theta, 1, biases, np.zeros((1, 2)))
    assert np.array_equal(a.flat, b.flat)


def test_split_with_unit_share_keeps_function():
    theta, data = make_case([2, 2, 1], seed=9)
    grown = grow_split(theta, 1, 1, 0, np.array([1.0, 0.0]))
    f0 = forward_batch(theta, data.inputs)[-1]
    f1 = forward_batch(grown, data.inputs)[-1]
    assert np.max(np.abs(f1 - f0)) <= 1e-15


def test_split_half_half_outputs_match_on_random_inputs():
    theta, _ = make_case([2, 2, 1], seed=10)
    grown = grow_split(theta, 1, 1, 0, np.array([0.5, 0.5]))
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, (20, 2))
    f0 = forward_batch(theta, X)[-1]
    f1 = forward_batch(grown, X)[-1]
    assert np.max(np.abs(f1 - f0)) <= 1e-12


def test_split_copies_track_source_preactivation():
    theta, data = make_case([2, 3, 2], seed=12)
    shares = np.array([0.2, 0.5, 0.3])
    grown = grow_split(theta, 1, 2, 1, shares)
    pre0 = forward_batch(theta, data.inputs)[0]
    pre1 = forward_batch(grown, data.inputs)[0]
    assert np.max(np.abs(pre1[:, 3:] - pre0[:, [1, 1]])) <= 1e-12


def test_split_rejects_bad_shares_and_source():
    theta, _ = make_case([2, 2, 1])
    with pytest.raises(ValueError):
        grow_split(theta, 1, 1, 0, np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        grow_split(theta, 1, 1, 5, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        grow_split(theta, 1, 2, 0, np.array([0.5, 0.5]))


def test_growth_rejects_non_hidden_layers():
    theta, _ = make_case([2, 3, 1])
    for layer in (0, 2, 5):
        with pytest.raises(ValueError):
            grow_inert(theta, layer, np.zeros(1), np.zeros((1, 2)))
    shallow = ParamVector.zeros(build_topology([2, 1]))
    with pytest.raises(ValueError):
        grow_inert(shallow, 1, np.zeros(1), np.zeros((1, 2)))


def test_function_preservation_all_maps_all_outputs():
    rng = np.random.default_rng(14)
    theta, data = make_case([3, 3, 2, 2], seed=14)
    f0 = forward_batch(theta, data.inputs)[-1]
    pre0 = forward_batch(theta, data.inputs)
    for kind in ("inert", "constant", "split"):
        for layer in (1, 2):
            grown = apply_growth(theta, random_growth(kind, theta.topology, layer, 2, rng))
            batches = forward_batch(grown, data.inputs)
            assert np.max(np.abs(batches[-1] - f0)) <= 1e-12, kind
            # surviving neurons keep their pre-activations
            for q, pre in enumerate(pre0[:-1]):
                width = theta.topology.size(q + 1)
                assert np.max(np.abs(batches[q][:, :width] - pre)) <= 1e-12, (kind, q)


def test_risk_value_independent_of_constant_bias_and_split_shares():
    theta, data = make_case([2, 3, 1], seed=15)
    r0 = empirical_risk(theta, data)
    rng = np.random.default_rng(16)
    for _ in range(10):
        grown = grow_constant(theta, 1, rng.standard_normal(2), np.zeros((1, 2)))
        assert abs(empirical_risk(grown, data) - r0) <= 1e-12 * (1 + abs(r0))
        shares = rng.standard_normal(3)
        shares[0] = 1.0 - shares[1:].sum()  # any real shares summing to one
        grown = grow_split(theta, 1, 2, 0, shares)
        assert abs(empirical_risk(grown, data) - r0) <= 1e-11 * (1 + abs(r0))


def test_corrupted_inert_growth_changes_risk():
    theta, data = make_case([2, 2, 1], seed=18)
    grown = grow_inert(theta, 1, np.array([0.7]), np.array([[0.3, -0.2]]))
    flat = np.array(grown.flat)
    flat[-1] = 0.5  # the last outgoing weight belongs to the new neuron
    corrupted = ParamVector(grown.topology, flat)
    r0 = empirical_risk(theta, data)
    assert abs(empirical_risk(corrupted, data) - r0) > 1e-6


def test_empty_plan_is_identity():
    theta, _ = make_case([2, 2, 1])
    assert apply_plan(theta, GrowthPlan(()), rng=np.random.default_rng(0)) is theta


def test_two_step_inert_plan_preserves_risk():
    theta, data = make_case([2, 2, 2, 1], seed=19)
    plan = GrowthPlan((GrowthStep("inert", 1, 1), GrowthStep("inert", 2, 2)))
    grown = apply_plan(theta, plan, rng=np.random.default_rng(20))
    r0 = empirical_risk(theta, data)
    assert grown.topology.layer_sizes == (2, 3, 4, 1)
    assert abs(empirical_risk(grown, data) - r0) <= 1e-12 * (1 + abs(r0))


def test_mixed_plan_preserves_risk():
    theta, data = make_case([2, 3, 3, 2], seed=21)
    plan = GrowthPlan(
        (GrowthStep("constant", 1, 2), GrowthStep("split", 2, 1), )
    )
    grown = apply_plan(theta, plan, rng=np.random.default_rng(22))
    r0 = empirical_risk(theta, data)
    assert abs(empirical_risk(grown, data) - r0) <= 1e-12 * (1 + abs(r0))


def test_plan_rejects_duplicate_layers():
    with pytest.raises(ValueError):
        GrowthPlan((GrowthStep("inert", 1, 1), GrowthStep("split", 1, 1)))


def test_plan_errors_carry_step_index():
    theta, _ = make_case([2, 2, 1])
    # layer 3 is not a hidden layer of a (2,2,1) net, so the second drawn step fails
    plan = GrowthPlan((GrowthStep("split", 1, 1), GrowthStep("inert", 3, 1)))
    with pytest.raises(ValueError, match=r"plan step 1 \(inert at layer 3\): layer 3 is not"):
        apply_plan(theta, plan, rng=np.random.default_rng(0))


def test_split_spec_of_zero_copies_is_identity():
    theta, _ = make_case([2, 2, 1])
    grown = apply_growth(theta, SplitGrowth(1, 0, 0, np.array([1.0])))
    assert grown is theta


def test_new_columns_are_the_last_columns_and_never_all_of_them():
    t = build_topology([2, 3, 2, 1])
    blocks = ParamVector(t, np.arange(param_count(t), dtype=float)).layer_blocks()
    assert np.shares_memory(_new_columns(blocks, 1, 2), blocks[1])
    assert np.array_equal(_new_columns(blocks, 1, 2), blocks[1][:, 2:])
    # a -0: slice would select every column, bias included
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        _new_columns(blocks, 1, 0)
