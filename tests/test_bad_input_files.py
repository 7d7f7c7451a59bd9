"""Input files the commands cannot use are refused by name.

A model file with a NaN or infinite parameter is refused by both loaders, so
``embed`` and ``verify --model`` exit 2 and write nothing (``embed`` wrote a
grown NaN model before). A data file, results table, ``--config`` file or
text model that is not UTF-8 is an error that names the file.
"""

from pathlib import Path

import numpy as np
import pytest

from netgrow import ParamVector, Topology, param_count
from netgrow.cli import main
from netgrow.model_io import load_model, load_model_text, save_model, save_model_text

NOT_UTF8 = b"1,2\n3,4\xe9\n"  # 0xe9 is Latin-1's e-acute, a bad continuation in UTF-8


def _model(bad: float) -> ParamVector:
    topology = Topology((2, 3, 1))
    flat = np.random.default_rng(5).uniform(-1, 1, param_count(topology))
    flat[4] = bad
    return ParamVector(topology, flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("save, load", [(save_model, load_model),
                                        (save_model_text, load_model_text)],
                         ids=["binary", "text"])
def test_loaders_refuse_a_non_finite_parameter(tmp_path, save, load, bad):
    path = tmp_path / "m"
    save(_model(bad), path)
    with pytest.raises(ValueError, match=f"^{path}: parameter 4 is not finite \\({bad}\\)$"):
        load(path)


@pytest.mark.parametrize("command", ["embed", "verify"])
def test_commands_refuse_a_model_with_a_nan(tmp_path, capsys, command):
    model, out = tmp_path / "m.bin", tmp_path / "out"
    save_model(_model(np.nan), model)
    flags = ["--out-model"] if command == "embed" else ["--seeds", "1", "--out"]
    assert main([command, "--model", str(model), *flags, str(out)]) == 2
    assert f"{model}: parameter 4 is not finite (nan)" in capsys.readouterr().err
    assert not out.exists()


def _command(argv):
    """Run ``main`` on ``argv``; it must exit 2 and create no ``out``."""
    def run(path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([arg.format(path=path, out=out) for arg in argv]) == 2
        assert not out.exists()
        return capsys.readouterr().err
    return run


def _text_model(path, tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        load_model_text(path)
    return str(info.value)


@pytest.mark.parametrize("read", [
    _command(["train", "--data", "{path}", "--out", "{out}"]),
    _command(["bench", "--problem", "{path}", "--out", "{out}"]),
    _command(["profile", "--table", "{path}", "--out", "{out}"]),
    _command(["--config", "{path}", "train", "--data", "synth:sinusoid", "--out", "{out}"]),
    _text_model,
], ids=["data", "problem", "table", "config", "model-text"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, read):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    error = read(path, tmp_path, capsys)
    assert f"{path}: 'utf-8' codec can't decode byte 0xe9" in error
