import numpy as np
import pytest

from netgrow import (
    ParamVector,
    build_topology,
    empirical_risk,
    forward_batch,
    param_count,
    risk_and_gradient,
)
from netgrow.data import Dataset
from netgrow.net_core import Workspace


def random_params(topology, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ParamVector(topology, scale * rng.standard_normal(param_count(topology)))


def test_build_topology_basic():
    t = build_topology([2, 3, 1])
    assert t.depth == 2
    assert t.layer_sizes == (2, 3, 1)
    assert build_topology([1, 1]).depth == 1
    assert build_topology([4, 100, 1]).depth == 2


@pytest.mark.parametrize("bad", [[], [3], [2, 0, 1], [0, 1], [2, -1]])
def test_build_topology_rejects(bad):
    with pytest.raises(ValueError):
        build_topology(bad)


@pytest.mark.parametrize(
    "sizes,expected",
    [([2, 3, 1], 13), ([1, 1, 1], 4), ([4, 100, 1], 601), ([1, 1], 2)],
)
def test_param_count(sizes, expected):
    assert param_count(build_topology(sizes)) == expected


def test_param_vector_checks_length():
    t = build_topology([2, 3, 1])
    with pytest.raises(ValueError):
        ParamVector(t, np.zeros(12))


def test_layout_roundtrip_random_topologies():
    rng = np.random.default_rng(3)
    for _ in range(25):
        depth = rng.integers(1, 4)
        sizes = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        t = build_topology(sizes)
        theta = ParamVector(t, rng.standard_normal(param_count(t)))
        again = ParamVector.from_layer_arrays(t, theta.layer_arrays())
        assert np.array_equal(again.flat, theta.flat)


def test_param_vector_is_frozen():
    theta = ParamVector.zeros(build_topology([2, 2, 1]))
    with pytest.raises(ValueError):
        theta.flat[0] = 1.0


def test_forward_zero_params_gives_zero():
    t = build_topology([3, 4, 2])
    theta = ParamVector.zeros(t)
    for a in forward_batch(theta, np.array([[0.5, -1.0, 2.0]])):
        assert np.all(a == 0.0)


def test_forward_single_path_chain():
    t = build_topology([1, 1, 1])
    theta = ParamVector.from_layer_arrays(
        t, [(np.zeros(1), np.ones((1, 1))), (np.zeros(1), np.ones((1, 1)))]
    )
    output = forward_batch(theta, np.array([[0.5]]))[-1][0]
    assert output[0] == pytest.approx(np.tanh(0.5), abs=1e-15)


def straight_line_forward(theta, x):
    """Independent scalar re-implementation used as an oracle.

    It reads ``theta.flat`` by the documented layout alone: layer by layer,
    each neuron's bias and then its incoming weights.
    """
    t = theta.topology
    flat = theta.flat
    signal = list(x)
    outputs = None
    offset = 0
    for layer in range(1, t.depth + 1):
        pre = []
        for _ in range(t.size(layer)):
            total = flat[offset]
            for i in range(t.size(layer - 1)):
                total += flat[offset + 1 + i] * signal[i]
            offset += 1 + t.size(layer - 1)
            pre.append(total)
        outputs = pre
        signal = [float(np.tanh(v)) for v in pre]
    assert offset == flat.size
    return np.array(outputs)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(5)
    for sizes in ([2, 2, 1], [3, 4, 2, 2]):
        theta = random_params(build_topology(sizes), seed=11)
        for _ in range(10):
            x = rng.uniform(-2, 2, sizes[0])
            expected = straight_line_forward(theta, x)
            output = forward_batch(theta, x[None, :])[-1][0]
            assert np.max(np.abs(output - expected)) <= 1e-12


def test_forward_rejects_bad_input_dim():
    theta = ParamVector.zeros(build_topology([2, 2, 1]))
    with pytest.raises(ValueError, match=r"inputs must have shape \(P, 2\)"):
        forward_batch(theta, np.array([[1.0, 2.0, 3.0]]))


def test_empirical_risk_perfect_fit_is_zero():
    t = build_topology([2, 3, 2])
    theta = random_params(t, seed=2)
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (6, 2))
    Y = forward_batch(theta, X)[-1]
    assert empirical_risk(theta, Dataset(X, Y)) == 0.0


def test_empirical_risk_single_sample_mse():
    theta = ParamVector.zeros(build_topology([1, 1, 1]))
    d = Dataset(np.array([[0.3]]), np.array([[1.0]]))
    assert empirical_risk(theta, d) == pytest.approx(1.0)


def test_zero_network_risk_is_mean_loss_against_zero_output():
    theta = ParamVector.zeros(build_topology([2, 3, 2]))
    rng = np.random.default_rng(6)
    d = Dataset(rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (7, 2)))
    expected = float(np.mean(np.mean(d.targets**2, axis=-1)))
    assert empirical_risk(theta, d) == expected


def test_empirical_risk_three_sample_hand_computation():
    t = build_topology([2, 2, 1])
    theta = random_params(t, seed=4)
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (3, 2))
    Y = rng.uniform(-1, 1, (3, 1))
    per_sample = []
    for x, y in zip(X, Y):
        f = straight_line_forward(theta, x)[0]
        per_sample.append((f - y[0]) ** 2)
    expected = sum(per_sample) / 3.0
    assert empirical_risk(theta, Dataset(X, Y)) == pytest.approx(expected, rel=1e-12)


def test_empirical_risk_rejects_dim_mismatch():
    theta = ParamVector.zeros(build_topology([2, 2, 1]))
    with pytest.raises(ValueError):
        empirical_risk(theta, Dataset(np.zeros((3, 2)), np.zeros((3, 2))))


def test_evaluation_is_bit_for_bit_deterministic():
    t = build_topology([3, 5, 2])
    theta = random_params(t, seed=8)
    rng = np.random.default_rng(1)
    d = Dataset(rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (20, 2)))
    assert empirical_risk(theta, d) == empirical_risk(theta, d)
    a = forward_batch(theta, d.inputs)[-1]
    b = forward_batch(theta, d.inputs)[-1]
    assert np.array_equal(a, b)


def test_output_affine_in_last_layer_params():
    # with hidden activations fixed, outputs interpolate linearly along a
    # segment in the output layer's parameters
    t = build_topology([2, 3, 1])
    rng = np.random.default_rng(12)
    theta_a = random_params(t, seed=13)
    arrays = theta_a.layer_arrays()
    b2, w2 = arrays[-1]
    arrays_b = arrays[:-1] + [(b2 + 1.5, w2 + rng.standard_normal(w2.shape))]
    theta_b = ParamVector.from_layer_arrays(t, arrays_b)
    mid_arrays = arrays[:-1] + [
        (0.5 * (b2 + arrays_b[-1][0]), 0.5 * (w2 + arrays_b[-1][1]))
    ]
    theta_mid = ParamVector.from_layer_arrays(t, mid_arrays)
    x = rng.uniform(-1, 1, 2)
    f_a = forward_batch(theta_a, x[None, :])[-1][0]
    f_b = forward_batch(theta_b, x[None, :])[-1][0]
    f_mid = forward_batch(theta_mid, x[None, :])[-1][0]
    assert np.max(np.abs(f_mid - 0.5 * (f_a + f_b))) <= 1e-12


def test_activation_derivatives_match_finite_differences():
    # the backward sweep's slope, read back from its workspace on a (1, 1, 1)
    # net whose pre-activations are the grid: the sweep writes it over them
    grid = np.linspace(-3.0, 3.0, 41)
    h = 1e-6
    theta = ParamVector(build_topology([1, 1, 1]), [0.0, 1.0, 0.0, 1.0])
    work = Workspace(theta.topology, grid.size)
    risk_and_gradient(theta, Dataset(grid[:, None], np.zeros((grid.size, 1))), work=work)
    exact = work.pre[0][:, 0]
    numeric = (np.tanh(grid + h) - np.tanh(grid - h)) / (2 * h)
    rel = np.max(np.abs(numeric - exact) / (1.0 + np.abs(exact)))
    assert rel <= 1e-6
