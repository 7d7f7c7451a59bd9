"""Split shares that are not finite, or do not sum to 1, are rejected before any growth."""

import numpy as np
import pytest

from netgrow import ParamVector, Topology, grow_split, param_count
from netgrow.cli import main
from netgrow.model_io import save_model

TOPOLOGY = Topology((2, 3, 1))


def _theta():
    return ParamVector(TOPOLOGY, np.linspace(-1.0, 1.0, param_count(TOPOLOGY)))


@pytest.mark.parametrize("shares", [[np.nan, 1.0], [1.0, np.nan], [np.inf, -np.inf],
                                    [np.inf, 0.0], [0.5, np.nan, 0.5]])
def test_non_finite_shares_raise(shares):
    with pytest.raises(ValueError, match=r"shares must be finite, got \["):
        grow_split(_theta(), 1, len(shares) - 1, 0, np.array(shares))


def test_wrong_sum_is_printed_as_a_plain_float():
    with pytest.raises(ValueError) as info:
        grow_split(_theta(), 1, 1, 0, np.array([0.5, 0.6]))
    assert str(info.value) == "shares must sum to 1, got 1.1"


def test_embed_with_nan_shares_exits_2_and_saves_nothing(tmp_path, capsys):
    save_model(_theta(), tmp_path / "m.bin")
    code = main(["embed", "--model", str(tmp_path / "m.bin"), "--out-model",
                 str(tmp_path / "g.bin"), "--map", "gamma", "--layer", "1",
                 "--shares", "nan,1", "--source", "0"])
    assert code == 2
    assert "shares must be finite" in capsys.readouterr().err
    assert not (tmp_path / "g.bin").exists()
