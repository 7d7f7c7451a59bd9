"""Seeded property tests: growth keeps the network function, model files round-trip,
and damaged model files fail with an error that names them."""

import struct

import numpy as np
import pytest

from netgrow import (
    GrowthPlan,
    GrowthStep,
    ParamVector,
    Topology,
    apply_growth,
    apply_plan,
    forward_batch,
    param_count,
    random_growth,
)
from netgrow.model_io import load_model, load_model_text, save_model, save_model_text

KINDS = ("inert", "constant", "split")


def random_net(rng, min_hidden=1):
    hidden = [int(h) for h in rng.integers(1, 7, int(rng.integers(min_hidden, 4)))]
    topology = Topology((int(rng.integers(1, 4)), *hidden, int(rng.integers(1, 4))))
    return ParamVector(topology, rng.standard_normal(param_count(topology)))


def assert_same_outputs(theta, grown, rng):
    x = rng.standard_normal((8, theta.topology.n_inputs))
    before = forward_batch(theta, x)[-1]
    after = forward_batch(grown, x)[-1]
    assert np.max(np.abs(after - before)) <= 1e-12 * max(1.0, np.max(np.abs(before)))


@pytest.mark.parametrize("seed", range(4))
def test_every_map_keeps_the_outputs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        theta = random_net(rng)
        for kind in KINDS:
            layer = int(rng.integers(1, theta.topology.depth))
            count = int(rng.integers(0, 4))
            grown = apply_growth(theta, random_growth(kind, theta.topology, layer, count, rng))
            sizes = list(theta.topology.layer_sizes)
            sizes[layer] += count
            assert grown.topology.layer_sizes == tuple(sizes)
            assert_same_outputs(theta, grown, rng)


@pytest.mark.parametrize("seed", range(4))
def test_two_step_plans_keep_the_outputs(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(30):
        theta = random_net(rng, min_hidden=2)
        layers = rng.choice(np.arange(1, theta.topology.depth), 2, replace=False)
        plan = GrowthPlan(tuple(
            GrowthStep(str(rng.choice(KINDS)), int(layer), int(rng.integers(1, 4)))
            for layer in layers
        ))
        assert_same_outputs(theta, apply_plan(theta, plan, rng=rng), rng)


@pytest.mark.parametrize("seed", range(3))
def test_model_files_round_trip_exactly(tmp_path, seed):
    rng = np.random.default_rng(200 + seed)
    for index in range(10):
        theta = random_net(rng)
        flat = np.array(theta.flat)
        flat[: min(4, flat.size)] = [-0.0, 5e-324, 1e300, -1.0 / 3.0][: min(4, flat.size)]
        theta = ParamVector(theta.topology, flat)
        binary, text = tmp_path / f"{index}.bin", tmp_path / f"{index}.txt"
        save_model(theta, binary)
        save_model_text(theta, text)
        for loaded in (load_model(binary), load_model_text(text)):
            assert loaded.topology == theta.topology
            assert loaded.flat.tobytes() == theta.flat.tobytes()


@pytest.fixture
def small_model(tmp_path):
    topology = Topology((2, 3, 1))
    path = tmp_path / "m.bin"
    save_model(ParamVector(topology, np.arange(param_count(topology), dtype=float)), path)
    return path


def test_every_truncation_names_the_path(small_model):
    raw = small_model.read_bytes()
    damaged = small_model.with_name("cut.bin")
    for length in range(len(raw)):
        damaged.write_bytes(raw[:length])
        with pytest.raises(ValueError, match="cut.bin"):
            load_model(damaged)


@pytest.mark.parametrize("count", [0, 1, 2, 4, 5, 1000, 10**6, 2**32 - 1])
def test_corrupted_size_count_names_the_path(small_model, count):
    raw = bytearray(small_model.read_bytes())
    struct.pack_into("<I", raw, 8, count)
    small_model.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="m.bin"):
        load_model(small_model)


@pytest.mark.parametrize("body", [
    "1 x 1\n0.5\n",
    "1 1 1\n" + "0.5\n" * 3 + "zero\n",
    "1 1 1\n" + "0.5\n" * 3,
])
def test_damaged_text_model_names_the_path(tmp_path, body):
    path = tmp_path / "m.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match="m.txt"):
        load_model_text(path)
