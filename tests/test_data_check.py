"""``empirical_risk`` and ``risk_and_gradient`` share one data check, so they refuse
the same bad datasets with the same message."""

from types import SimpleNamespace

import numpy as np
import pytest

from netgrow import ParamVector, build_topology, empirical_risk, risk_and_gradient
from netgrow.data import Dataset

THETA = ParamVector.zeros(build_topology([2, 3, 1]))
BAD_DATA = {
    "mismatched_targets": (
        Dataset(np.zeros((4, 2)), np.zeros((4, 2))),
        r"^targets must have shape \(4, 1\), got \(4, 2\)$",
    ),
    "zero_rows": (
        SimpleNamespace(inputs=np.zeros((0, 2)), targets=np.zeros((0, 1))),
        r"^dataset is empty$",
    ),
}


@pytest.mark.parametrize("case", BAD_DATA, ids=list(BAD_DATA))
@pytest.mark.parametrize("evaluate", [empirical_risk, risk_and_gradient],
                         ids=lambda f: f.__name__)
def test_bad_data_refused_with_one_message(case, evaluate):
    data, message = BAD_DATA[case]
    with pytest.raises(ValueError, match=message):
        evaluate(THETA, data)
