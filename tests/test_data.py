import re
from pathlib import Path

import numpy as np
import pytest

from netgrow import (
    ParamVector,
    Topology,
    empirical_risk,
    load_delimited,
    make_synthetic,
    save_delimited,
    standardize,
)
from netgrow.data import Dataset, ParseError

IRIS = Path(__file__).parent / "data" / "iris.csv"


def test_load_iris_one_hot():
    d = load_delimited(IRIS, has_header=True)
    assert d.n_samples == 150
    assert d.n_inputs == 4
    assert d.n_targets == 3
    # one-hot rows have exactly one 1
    assert np.all(d.targets.sum(axis=1) == 1.0)
    assert set(np.unique(d.targets)) == {0.0, 1.0}
    # 50 samples per class in the classic file
    assert np.all(d.targets.sum(axis=0) == 50.0)


def test_load_numeric_target_with_header(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    d = load_delimited(path, has_header=True)
    assert d.n_inputs == 2 and d.n_targets == 1
    assert np.array_equal(d.targets, [[3.0], [6.0]])


def test_load_multiple_target_columns(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n")
    d = load_delimited(path, target_columns=[2, 3])
    assert d.n_inputs == 2 and d.n_targets == 2
    assert np.array_equal(d.inputs, [[1.0, 2.0], [5.0, 6.0]])


def test_load_reports_bad_feature_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n1,oops,3\n")
    with pytest.raises(ParseError) as info:
        load_delimited(path)
    assert info.value.line == 2


def test_load_rejects_empty_and_ragged(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(ParseError):
        load_delimited(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n1,2\n")
    with pytest.raises(ParseError) as info:
        load_delimited(ragged)
    assert info.value.line == 2


def test_load_missing_file_raises_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_delimited(tmp_path / "absent.csv")


def test_roundtrip_is_lossless(tmp_path):
    d = make_synthetic("polynomial", n=3, m=2, samples=20, noise=0.3, seed=5)
    path = tmp_path / "out.csv"
    save_delimited(d, path)
    back = load_delimited(path, target_columns="last-2")
    assert np.array_equal(back.inputs, d.inputs)
    assert np.array_equal(back.targets, d.targets)


def test_standardize_column_stats():
    d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)))
    s = standardize(d)
    assert s.inputs.mean() == pytest.approx(0.0, abs=1e-15)
    assert s.inputs.std(ddof=1) == pytest.approx(1.0, rel=1e-12)
    means, stds = s.feature_stats
    assert means[0] == 2.0 and stds[0] == 1.0


def test_standardize_constant_column_maps_to_zero():
    d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros((3, 1)))
    s = standardize(d)
    assert np.all(s.inputs[:, 0] == 0.0)


def test_standardize_idempotent():
    d = make_synthetic("polynomial", n=4, m=1, samples=30, seed=2)
    once = standardize(d)
    twice = standardize(once)
    assert np.max(np.abs(twice.inputs - once.inputs)) <= 1e-12


def test_standardize_needs_two_samples():
    d = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        standardize(d)


def test_dataset_rejects_nan_and_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.zeros((3, 1)))


def test_synthetic_deterministic_bytes(tmp_path):
    a = make_synthetic("teacher_net", n=2, m=1, samples=15, noise=0.1, seed=9)
    b = make_synthetic("teacher_net", n=2, m=1, samples=15, noise=0.1, seed=9)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_delimited(a, pa)
    save_delimited(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = make_synthetic("teacher_net", n=2, m=1, samples=15, noise=0.1, seed=10)
    assert not np.array_equal(a.targets, c.targets)


def test_sinusoid_noise_free_targets_are_sine_of_inputs():
    d = make_synthetic("sinusoid", n=1, m=1, samples=40, noise=0.0, seed=4)
    assert np.max(np.abs(d.targets[:, 0] - np.sin(d.inputs[:, 0]))) == 0.0


def test_teacher_net_records_attainable_floor():
    d = make_synthetic("teacher_net", n=2, m=1, samples=30, noise=0.0, seed=7, teacher_width=3)
    sizes = d.origin["teacher_layer_sizes"]
    teacher = ParamVector(Topology(tuple(sizes)), np.array(d.origin["teacher_params"]))
    assert empirical_risk(teacher, d) == 0.0


def test_teacher_floor_reachable_by_training():
    # training a same-width student from near the recorded teacher reaches the floor
    from netgrow import LbfgsConfig, lbfgs_minimize, risk_and_gradient

    d = make_synthetic("teacher_net", n=2, m=1, samples=30, noise=0.0, seed=7, teacher_width=3)
    sizes = tuple(d.origin["teacher_layer_sizes"])
    teacher = np.array(d.origin["teacher_params"])
    start = teacher + 0.01 * np.random.default_rng(1).standard_normal(teacher.size)

    def objective(flat):
        return risk_and_gradient(ParamVector(Topology(sizes), flat), d)

    result = lbfgs_minimize(objective, start, LbfgsConfig(grad_tol_inf=1e-12, max_iter=500))
    assert result.f_final <= 1e-8


def test_synthetic_rejects_bad_kind_and_size():
    with pytest.raises(ValueError):
        make_synthetic("mystery", n=1, m=1, samples=5)
    with pytest.raises(ValueError):
        make_synthetic("sinusoid", n=1, m=1, samples=0)


@pytest.mark.parametrize("arguments, expected", [
    ({"samples": 0}, "samples must be >= 1, got 0"),
    ({"n": 0}, "n must be >= 1, got 0"),
    ({"n": -1}, "n must be >= 1, got -1"),
    ({"m": 0}, "m must be >= 1, got 0"),
    ({"noise": -0.1}, "noise must be a finite number >= 0, got -0.1"),
    ({"noise": float("nan")}, "noise must be a finite number >= 0, got nan"),
    ({"noise": float("inf")}, "noise must be a finite number >= 0, got inf"),
], ids=["zero-samples", "zero-n", "negative-n", "zero-m", "negative-noise", "nan-noise",
        "inf-noise"])
def test_synthetic_checks_its_arguments_naming_the_bad_value(arguments, expected):
    for kind in ("teacher_net", "polynomial", "sinusoid"):
        with pytest.raises(ValueError, match=re.escape(expected)):
            make_synthetic(kind, **{"n": 1, "m": 1, "samples": 5, **arguments})


def test_load_semicolon_delimiter_and_last_two(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("1;2;3;4\n5;6;7;8\n")
    d = load_delimited(path, delimiter=";", target_columns="last-2")
    assert d.n_inputs == 2 and d.n_targets == 2
    assert np.array_equal(d.targets, [[3.0, 4.0], [7.0, 8.0]])


def test_load_negative_target_index(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("1,2,3\n4,5,6\n")
    d = load_delimited(path, target_columns=[-1])
    assert np.array_equal(d.targets, [[3.0], [6.0]])
