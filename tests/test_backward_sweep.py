"""The backward sweep against the central-difference oracle on deep nets."""

import numpy as np
import pytest

from netgrow import (
    ParamVector,
    build_topology,
    empirical_risk,
    gradient_finite_diff,
    param_count,
    risk_and_gradient,
)
from netgrow.data import Dataset


def random_case(sizes, samples, seed):
    rng = np.random.default_rng(seed)
    t = build_topology(sizes)
    theta = ParamVector(t, rng.standard_normal(param_count(t)) * 0.7)
    d = Dataset(
        rng.uniform(-1.5, 1.5, (samples, sizes[0])),
        rng.uniform(-1.0, 1.0, (samples, sizes[-1])),
    )
    return theta, d


@pytest.mark.parametrize(
    "sizes",
    [
        [3, 4, 3, 5, 4, 3],  # four hidden layers, three outputs
        [2, 3, 2],
    ],
    ids=["tanh-4-hidden-3-out", "tanh-1-hidden"],
)
def test_risk_and_gradient_matches_oracle(sizes):
    for seed in range(3):
        theta, d = random_case(sizes, 7, seed)
        risk, grad = risk_and_gradient(theta, d)
        assert risk == empirical_risk(theta, d)
        oracle = gradient_finite_diff(theta, d).flat
        assert np.max(np.abs(grad - oracle) / (1.0 + np.abs(oracle))) <= 1e-6, (sizes, seed)
