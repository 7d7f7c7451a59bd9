"""Parameter vectors the library builds itself are filled once, with the old bits.

The references below are the stacking formulas the growth maps and the model
files used before they wrote straight into one array: new rows through
``vstack``/``hstack``/``tile``, the widened block through ``hstack``, the
whole vector through ``concatenate``, and a saved file as the header plus
``tobytes()``. Every comparison is exact. The tracemalloc peaks pin how many
vectors' worth of memory one call may allocate.
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count, risk_and_gradient
from netgrow.autodiff import risk_objective
from netgrow.cli import main
from netgrow.data import Dataset
from netgrow.growth import SplitGrowth, apply_growth, random_growth
from netgrow.model_io import load_model, save_model

KINDS = ("inert", "constant", "split")


def reference_widen(theta, layer, rows, upper):
    blocks = theta.layer_blocks()
    blocks[layer - 1] = np.vstack([blocks[layer - 1], rows])
    blocks[layer] = upper
    return np.concatenate([block.ravel() for block in blocks])


def reference_grow(theta, spec):
    """The grown flat vector as the stacking formulas built it."""
    if spec.count == 0:
        return theta.flat
    lower, upper = theta.layer_blocks()[spec.layer - 1 : spec.layer + 1]
    count = spec.count
    if spec.kind == "inert":
        rows = np.hstack([spec.biases[:, None], spec.in_weights])
        return reference_widen(theta, spec.layer, rows,
                               np.hstack([upper, np.zeros((upper.shape[0], count))]))
    if spec.kind == "constant":
        rows = np.hstack([spec.biases[:, None], np.zeros((count, lower.shape[1] - 1))])
        shifted = upper[:, 0] - spec.out_weights @ np.tanh(spec.biases)
        return reference_widen(theta, spec.layer, rows,
                               np.hstack([shifted[:, None], upper[:, 1:], spec.out_weights]))
    col = upper[:, 1 + spec.source]
    widened = np.hstack([upper, col[:, None] * spec.shares[1:][None, :]])
    widened[:, 1 + spec.source] = spec.shares[0] * col
    return reference_widen(theta, spec.layer, np.tile(lower[spec.source], (count, 1)), widened)


def random_net(rng, hidden_layers):
    sizes = (int(rng.integers(1, 4)), *rng.integers(1, 6, hidden_layers).tolist(),
             int(rng.integers(1, 4)))
    topology = Topology(sizes)
    return ParamVector(topology, rng.normal(0.0, 1.5, param_count(topology)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("hidden_layers", [1, 2, 3])
def test_grown_vectors_equal_the_stacked_reference(kind, hidden_layers):
    rng = np.random.default_rng(10 * hidden_layers + KINDS.index(kind))
    for _ in range(10):
        theta = random_net(rng, hidden_layers)
        for layer in range(1, theta.topology.depth):
            for count in range(4):
                specs = [random_growth(kind, theta.topology, layer, count, rng)]
                if kind == "split" and count:
                    # Unequal shares, so the kept and the copied columns differ.
                    shares = np.array([0.5] + [0.5 / count] * count)
                    specs.append(SplitGrowth(layer, count, specs[0].source, shares))
                for spec in specs:
                    grown = apply_growth(theta, spec)
                    assert grown.flat.tobytes() == reference_grow(theta, spec).tobytes()
                    assert grown.topology.size(layer) == theta.topology.size(layer) + count


def test_grown_loaded_and_gradient_vectors_are_frozen_and_their_own(tmp_path):
    rng = np.random.default_rng(3)
    theta = random_net(rng, 2)
    for kind in KINDS:
        grown = apply_growth(theta, random_growth(kind, theta.topology, 2, 2, rng))
        assert not grown.flat.flags.writeable
        assert not np.shares_memory(grown.flat, theta.flat)

    save_model(theta, tmp_path / "m.bin")
    first, second = load_model(tmp_path / "m.bin"), load_model(tmp_path / "m.bin")
    assert not first.flat.flags.writeable
    assert not np.shares_memory(first.flat, second.flat)
    assert first.flat.tobytes() == theta.flat.tobytes()

    data = Dataset(rng.uniform(-1, 1, (6, theta.topology.n_inputs)),
                   rng.uniform(-1, 1, (6, theta.topology.n_outputs)))
    _, direct = risk_and_gradient(theta, data)
    assert not direct.flags.writeable
    assert not np.shares_memory(direct, theta.flat)
    # One objective reuses its buffers, so its gradients must not live in them.
    objective = risk_objective(theta.topology, data)
    _, g1 = objective(theta.flat)
    kept = g1.copy()
    moved = theta.flat + 0.5
    _, g2 = objective(moved)
    assert not g1.flags.writeable and not g2.flags.writeable
    assert not np.shares_memory(g1, g2) and not np.shares_memory(g2, moved)
    assert np.array_equal(g1, kept)


def test_the_public_constructor_still_copies():
    topology = Topology((2, 3, 1))
    source = np.arange(param_count(topology), dtype=np.float64)
    theta = ParamVector(topology, source)
    assert not np.shares_memory(theta.flat, source)
    assert source.flags.writeable and not theta.flat.flags.writeable
    again = ParamVector(topology, theta.flat)
    assert not np.shares_memory(again.flat, theta.flat)


def test_save_model_writes_the_header_then_the_parameter_bytes(tmp_path):
    rng = np.random.default_rng(4)
    for hidden_layers in (0, 1, 3):
        theta = random_net(rng, hidden_layers)
        sizes = theta.topology.layer_sizes
        save_model(theta, tmp_path / "m.bin")
        expected = (struct.pack("<4sII", b"NGM1", 1, len(sizes))
                    + struct.pack(f"<{len(sizes)}I", *sizes) + theta.flat.tobytes())
        assert (tmp_path / "m.bin").read_bytes() == expected


def damaged_files(raw):
    """``(name, bytes, message)`` for each damage a model file can have."""
    q = param_count(Topology((2, 3, 1)))
    body = len(raw) - 24
    return [
        ("truncated", raw[:-5],
         f"expected {q} parameters ({8 * q} bytes), found {body - 5} bytes"),
        ("extended", raw + b"\0" * 8,
         f"expected {q} parameters ({8 * q} bytes), found {body + 8} bytes"),
        ("bad-magic", b"NGM2" + raw[4:], "not a model file (bad magic)"),
        ("short", raw[:11], "not a model file (bad magic)"),
        ("bad-version", raw[:4] + struct.pack("<I", 7) + raw[8:],
         "unsupported model version 7"),
        ("too-many-sizes", raw[:8] + struct.pack("<I", 100) + raw[12:],
         f"header declares 100 layer sizes but the file has {len(raw)} bytes"),
    ]


def test_damaged_model_files_keep_their_messages(tmp_path):
    topology = Topology((2, 3, 1))
    save_model(ParamVector(topology, np.arange(param_count(topology), dtype=float)),
               tmp_path / "m.bin")
    for name, content, message in damaged_files((tmp_path / "m.bin").read_bytes()):
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)


def test_embed_may_write_over_its_own_model(tmp_path):
    topology = Topology((3, 4, 4, 2))
    theta = ParamVector(topology, np.random.default_rng(5).uniform(-1, 1, param_count(topology)))
    save_model(theta, tmp_path / "same.bin")
    save_model(theta, tmp_path / "source.bin")
    flags = ["--map", "split", "--layer", "2", "--count", "2", "--seed", "9"]
    assert main(["embed", "--model", str(tmp_path / "same.bin"),
                 "--out-model", str(tmp_path / "same.bin"), *flags]) == 0
    assert main(["embed", "--model", str(tmp_path / "source.bin"),
                 "--out-model", str(tmp_path / "other.bin"), *flags]) == 0
    grown = (tmp_path / "same.bin").read_bytes()
    assert grown == (tmp_path / "other.bin").read_bytes()
    assert load_model(tmp_path / "same.bin").topology.layer_sizes == (3, 4, 6, 2)


@pytest.fixture(scope="module")
def large_model(tmp_path_factory):
    """The embed benchmark's ~544k-parameter net, saved once."""
    topology = Topology((16, 512, 512, 512, 8))
    theta = ParamVector(topology, np.random.default_rng(6).uniform(-0.05, 0.05,
                                                                   param_count(topology)))
    path = tmp_path_factory.mktemp("large") / "m.bin"
    save_model(theta, path)
    return theta, path


def peak_vectors(call, unit):
    """Peak bytes that ``call()`` allocates, in units of ``unit`` bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("layer", [1, 2, 3])
def test_growing_the_large_model_allocates_one_vector(large_model, kind, layer):
    theta, _ = large_model
    spec = random_growth(kind, theta.topology, layer, 1, np.random.default_rng(layer))
    # The stacking formulas allocated 2.5 to 3.0 vectors here.
    assert peak_vectors(lambda: apply_growth(theta, spec), theta.flat.nbytes) <= 1.05


def test_loading_the_large_model_allocates_one_vector(large_model):
    theta, path = large_model
    # Reading the file into bytes and then copying them allocated 2.0 vectors.
    assert peak_vectors(lambda: load_model(path), theta.flat.nbytes) <= 1.05


def test_saving_the_large_model_copies_no_vector(large_model, tmp_path):
    theta, _ = large_model
    # tobytes() allocated 1.0 vector.
    assert peak_vectors(lambda: save_model(theta, tmp_path / "m.bin"), theta.flat.nbytes) <= 0.05
