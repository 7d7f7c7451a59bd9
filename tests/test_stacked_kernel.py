"""The stacked objective gives every network the bits of its own gradient call.

``stacked_risk_objective`` evaluates K networks of one topology in one pass,
through the backward sweep that ``risk_and_gradient`` runs, with a leading
batch axis. Each comparison here is of raw bytes, so even the sign of a zero
must agree.
"""

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count, risk_and_gradient
from netgrow.autodiff import stacked_risk_objective
from netgrow.data import Dataset
from netgrow.net_core import _block_views

FIXED = [(2, 1, 1), (2, 2, 1), (2, 2, 2, 1), (2, 4, 1), (2, 25, 25, 1)]


def make_data(rng, sizes, samples):
    return Dataset(rng.uniform(-2.0, 2.0, (samples, sizes[0])),
                   rng.uniform(-1.0, 1.0, (samples, sizes[-1])), name="stacked")


def make_thetas(rng, topology, members):
    thetas = rng.uniform(-1.5, 1.5, (members, param_count(topology)))
    # zero entries, as inert growth writes them (escape_rate stacks such nets)
    thetas[rng.random(thetas.shape) < 0.2] = 0.0
    return thetas


def mismatches(objective, topology, data, thetas):
    risks, grads = objective(thetas)
    assert risks.shape == (len(thetas),) and grads.shape == thetas.shape
    bad = 0
    for theta, risk, grad in zip(thetas, risks, grads):
        want_risk, want_grad = risk_and_gradient(ParamVector(topology, theta), data)
        bad += (np.float64(want_risk).tobytes() != risk.tobytes()
                or want_grad.tobytes() != grad.tobytes())
    return bad


def test_600_random_nets_match_their_single_calls_bit_for_bit():
    rng = np.random.default_rng(26)
    members = bad = 0
    for _ in range(600):
        sizes = tuple(int(h) for h in rng.integers(1, 9, int(rng.integers(3, 6))))
        topology = Topology(sizes)
        data = make_data(rng, sizes, int(rng.integers(1, 60)))
        k = int(rng.integers(1, 40))
        objective = stacked_risk_objective(topology, data)
        bad += mismatches(objective, topology, data, make_thetas(rng, topology, k))
        members += k
    assert bad == 0, f"{bad} of {members} members differ"
    assert members > 10_000


@pytest.mark.parametrize("sizes", FIXED, ids=[",".join(map(str, s)) for s in FIXED])
def test_fixed_topologies_match_their_single_calls_bit_for_bit(sizes):
    rng = np.random.default_rng(sum(sizes))
    topology = Topology(sizes)
    data = make_data(rng, sizes, 200 if max(sizes) > 8 else 24)
    objective = stacked_risk_objective(topology, data)
    assert mismatches(objective, topology, data, make_thetas(rng, topology, 30)) == 0


@pytest.mark.parametrize("sizes", FIXED[:3], ids=[",".join(map(str, s)) for s in FIXED[:3]])
def test_one_objective_serves_stacks_of_any_size_bit_for_bit(sizes):
    # 50, escape_rate's draws, is above SEARCHES_IN_FLIGHT; each call sizes its own workspace
    rng = np.random.default_rng(len(sizes))
    topology = Topology(sizes)
    data = make_data(rng, sizes, 24)
    objective = stacked_risk_objective(topology, data)
    for k in (1, 50, 3, 16):
        assert mismatches(objective, topology, data, make_thetas(rng, topology, k)) == 0, k


def test_a_returned_gradient_survives_the_next_stacked_call():
    rng = np.random.default_rng(3)
    topology = Topology((2, 4, 1))
    objective = stacked_risk_objective(topology, make_data(rng, (2, 4, 1), 24))
    kept = []
    for k in (5, 8, 1, 3):
        risks, grads = objective(make_thetas(rng, topology, k))
        kept.append((risks, grads, risks.copy(), grads.copy()))
    for risks, grads, risks_then, grads_then in kept:
        assert np.array_equal(risks, risks_then) and np.array_equal(grads, grads_then)
    arrays = [a for risks, grads, _, _ in kept for a in (risks, grads)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


@pytest.mark.parametrize("shape", [(0, 17), (3, 16), (17,)])
def test_a_stack_outside_the_capacity_or_layout_is_refused(shape):
    # K must be at least 1; past that, each call sizes its own workspace
    rng = np.random.default_rng(0)
    objective = stacked_risk_objective(Topology((2, 4, 1)), make_data(rng, (2, 4, 1), 24))
    with pytest.raises(ValueError, match=r"expected \(K, 17\) parameters with K >= 1"):
        objective(np.zeros(shape))


@pytest.mark.parametrize("sizes", FIXED, ids=[",".join(map(str, s)) for s in FIXED])
def test_block_views_of_a_stack_are_the_block_views_of_each_row(sizes):
    rng = np.random.default_rng(sum(sizes))
    thetas = make_thetas(rng, Topology(sizes), 3)
    stacked = _block_views(sizes, thetas)
    assert len(stacked) == len(sizes) - 1
    assert all(np.shares_memory(block, thetas) for block in stacked)
    for k, row in enumerate(thetas):
        for block, alone in zip(stacked, _block_views(sizes, row), strict=True):
            assert block[k].shape == alone.shape
            assert block[k].tobytes() == alone.tobytes()
