"""Saving a model over an existing file rewrites it in place and cuts it to length.

A rewrite must give the same bytes as a save to a fresh path, whatever the old
file held; a save that raises part-way must leave a file the loaders reject; and
the target keeps what a truncating open kept: symlinks, hard links and its mode.
"""

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import load_model, load_model_text, save_model, save_model_text

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = {"bin": (save_model, load_model), "txt": (save_model_text, load_model_text)}


def net(sizes, seed):
    topology = Topology(sizes)
    rng = np.random.default_rng(seed)
    return ParamVector(topology, rng.uniform(-1, 1, param_count(topology)))


def fresh_bytes(save, theta, tmp_path):
    path = tmp_path / "fresh"
    save(theta, path)
    content = path.read_bytes()
    path.unlink()
    return content


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("first, second", [((3, 9, 9, 2), (3, 2, 2)), ((3, 2, 2), (3, 9, 9, 2)),
                                           ((2, 4, 1), (2, 4, 1))])
def test_a_rewrite_gives_the_bytes_of_a_fresh_save(tmp_path, fmt, first, second):
    save, load = FORMATS[fmt]
    old, new = net(first, 1), net(second, 2)
    path = tmp_path / f"m.{fmt}"
    save(old, path)
    save(new, path)
    assert path.read_bytes() == fresh_bytes(save, new, tmp_path)
    loaded = load(path)
    assert loaded.topology == new.topology and np.array_equal(loaded.flat, new.flat)


def test_embed_may_write_over_a_larger_model(tmp_path):
    # Writing over its own input is test_copy_once.test_embed_may_write_over_its_own_model.
    flags = ["--map", "inert", "--layer", "1", "--count", "2", "--seed", "4"]
    save_model(net((3, 4, 2), 3), tmp_path / "source.bin")
    save_model(net((3, 40, 40, 2), 5), tmp_path / "larger.bin")
    for target in ("larger.bin", "fresh.bin"):
        assert main(["embed", "--model", str(tmp_path / "source.bin"),
                     "--out-model", str(tmp_path / target), *flags]) == 0
    assert (tmp_path / "larger.bin").read_bytes() == (tmp_path / "fresh.bin").read_bytes()
    assert load_model(tmp_path / "larger.bin").topology.layer_sizes == (3, 6, 2)


def test_saving_to_dev_null_and_a_pipe_works(tmp_path):
    theta = net((2, 3, 1), 6)
    save_model(theta, tmp_path / "m.bin")
    assert main(["embed", "--model", str(tmp_path / "m.bin"), "--out-model", os.devnull,
                 "--map", "split", "--layer", "1", "--count", "1", "--seed", "2"]) == 0
    save_model(theta, os.devnull)
    save_model_text(theta, os.devnull)

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_model(theta, fifo)
    reader.join(timeout=30)
    assert received == [(tmp_path / "m.bin").read_bytes()]


class Failing:
    """Parameters that fail after ``good`` values: ``np.asarray`` on them raises
    at once, iterating them yields ``good`` floats first."""

    def __init__(self, good):
        self.good = good

    def __array__(self, dtype=None, copy=None):
        raise OSError("parameters unavailable")

    def __iter__(self):
        yield from np.linspace(0.0, 1.0, self.good)
        raise OSError("parameters unavailable")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_failed_save_over_an_equal_sized_model_leaves_a_rejected_file(tmp_path, fmt):
    save, load = FORMATS[fmt]
    theta = net((2, 5, 1), 7)
    path = tmp_path / f"m.{fmt}"
    save(theta, path)
    # The new header matches the old one; without the cut the old model would load.
    broken = SimpleNamespace(topology=theta.topology, flat=Failing(3))
    with pytest.raises(OSError, match="parameters unavailable"):
        save(broken, path)
    assert 0 < path.stat().st_size < len(fresh_bytes(save, theta, tmp_path))
    with pytest.raises(ValueError, match=f"^{path}: "):
        load(path)


FILE_SIZE_LIMIT = """
import resource, signal, sys
import numpy as np
from netgrow import ParamVector, Topology, param_count
from netgrow.model_io import save_model
topology = Topology((4, 64, 64, 2))
theta = ParamVector(topology, np.full(param_count(topology), 0.5))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[2]), resource.RLIM_INFINITY))
try:
    save_model(theta, sys.argv[1])
except OSError as exc:
    print(exc.errno)
"""


@pytest.mark.parametrize("limit", [10, 10000])
def test_a_save_that_fails_mid_write_cuts_off_the_old_tail(tmp_path, limit):
    theta = net((4, 64, 64, 2), 8)
    path = tmp_path / "m.bin"
    save_model(theta, path)
    # The write itself fails ``limit`` bytes in, as on a full disk: in the header
    # or in the parameters.
    done = subprocess.run([sys.executable, "-c", FILE_SIZE_LIMIT, str(path), str(limit)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().isdigit()
    assert path.stat().st_size == limit
    with pytest.raises(ValueError, match=f"^{path}: "):
        load_model(path)


def test_a_rewrite_keeps_links_and_mode(tmp_path):
    theta, old = net((2, 3, 1), 9), net((2, 30, 1), 10)
    expected = fresh_bytes(save_model, theta, tmp_path)
    target = tmp_path / "target.bin"
    save_model(old, target)
    target.chmod(0o600)
    link, hard = tmp_path / "link.bin", tmp_path / "hard.bin"
    link.symlink_to(target)
    os.link(target, hard)
    save_model(theta, link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == hard.read_bytes() == expected
    assert stat.S_IMODE(target.stat().st_mode) == 0o600

    dangling = tmp_path / "dangling.bin"
    dangling.symlink_to(tmp_path / "new.bin")
    save_model(theta, dangling)
    assert dangling.is_symlink() and (tmp_path / "new.bin").read_bytes() == expected
