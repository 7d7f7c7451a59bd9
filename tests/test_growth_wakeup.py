"""Growth is accepted only when the new neurons' outgoing weights wake up.

An inert growth keeps the risk and copies every old gradient entry, so the
copied entries say nothing about escaping the grown-in stationary point. A
draw counts only through the gradient on the columns each step appends to
the block above the grown layer.
"""

import numpy as np
import pytest

from netgrow import (
    GrowthEscapeError,
    ItaConfig,
    Topology,
    empirical_risk,
    find_stationary_point,
    ita_train,
    make_synthetic,
    standardize,
)
from netgrow import incremental
from netgrow.incremental import GROWTH_DRAW_LIMIT, _grow_stage


@pytest.fixture(scope="module")
def problem():
    return standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=60, noise=0.1, seed=11, teacher_width=4)
    )


def test_copied_entries_alone_do_not_accept_a_draw(problem, monkeypatch):
    # growth (2,4,1) -> (2,8,1): old entries of the gradient read 1.0, new ones 0
    original = incremental.risk_and_gradient
    calls = []

    def copied_entries_only(theta, data):
        risk, _ = original(theta, data)
        calls.append(theta.topology.layer_sizes)
        n, h, m = theta.topology.layer_sizes
        lower, upper = np.ones((h, 1 + n)), np.ones((m, 1 + h))
        lower[4:, :] = 0.0  # the new neurons' biases and incoming weights
        upper[:, 1 + 4:] = 0.0  # their outgoing weights
        return risk, np.concatenate([lower.ravel(), upper.ravel()])

    monkeypatch.setattr(incremental, "risk_and_gradient", copied_entries_only)
    cfg = ItaConfig(initial_width=4, max_width=8, seed=1, maxit_per_stage=5)
    with pytest.raises(GrowthEscapeError, match="final_grad_tol"):
        ita_train(problem, cfg)
    assert calls == [(2, 8, 1)] * GROWTH_DRAW_LIMIT


def test_growth_at_a_stationary_point_wakes_on_the_first_draw(monkeypatch):
    # the (2,1,1) student of the escape check: a width-1 net on a wide teacher
    fixture = standardize(make_synthetic("teacher_net", n=2, m=1, samples=24, noise=0.2,
                                         seed=6, teacher_width=8))
    theta = find_stationary_point(Topology((2, 1, 1)), fixture, tol=1e-8, max_iter=3000, seed=0)
    original = incremental.risk_and_gradient
    new_column_grads = []

    def recorded(candidate, data):
        risk, grad = original(candidate, data)
        new_column_grads.append(grad[-2:])  # the output layer's block ends with them
        return risk, grad

    monkeypatch.setattr(incremental, "risk_and_gradient", recorded)
    cfg = ItaConfig(initial_width=1, max_width=3, growth=2)
    grown = _grow_stage(theta, cfg, np.random.default_rng(0), fixture,
                        stage_index=0, stage_end_risk=empirical_risk(theta, fixture))
    assert grown.topology.layer_sizes == (2, 3, 1)
    assert len(new_column_grads) == 1
    assert np.abs(new_column_grads[0]).max() > cfg.final_grad_tol
