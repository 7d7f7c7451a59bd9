"""Model files: a small versioned binary format plus a plain-text export.

Binary layout, all little-endian:

    bytes 0-3   magic ``b"NGM1"``
    uint32      format version (currently 1)
    uint32      number of layer sizes (network depth + 1)
    uint32[k]   layer sizes, input first
    float64[q]  flat parameters in the standard bias-then-weight-row layout

The text form has the layer sizes on the first line and one full-precision
parameter per following line; both forms round-trip exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .net_core import ParamVector, Topology, param_count

__all__ = ["save_model", "load_model", "save_model_text", "load_model_text"]

_MAGIC = b"NGM1"
_VERSION = 1


def save_model(theta: ParamVector, path) -> None:
    sizes = theta.topology.layer_sizes
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sII", _MAGIC, _VERSION, len(sizes)))
        handle.write(struct.pack(f"<{len(sizes)}I", *sizes))
        handle.write(np.asarray(theta.flat, dtype="<f8").tobytes())


def load_model(path) -> ParamVector:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    version, n_sizes = struct.unpack_from("<II", raw, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    offset = 12 + 4 * n_sizes
    if len(raw) < offset:
        raise ValueError(
            f"{path}: header declares {n_sizes} layer sizes but the file has {len(raw)} bytes"
        )
    try:
        topology = Topology(struct.unpack_from(f"<{n_sizes}I", raw, 12))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(raw) - offset != 8 * param_count(topology):
        raise ValueError(
            f"{path}: expected {param_count(topology)} parameters "
            f"({8 * param_count(topology)} bytes), found {len(raw) - offset} bytes"
        )
    return ParamVector(topology, np.frombuffer(raw, dtype="<f8", offset=offset))


def save_model_text(theta: ParamVector, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(" ".join(str(s) for s in theta.topology.layer_sizes))
        handle.write("\n")
        for value in theta.flat:
            handle.write(repr(float(value)))
            handle.write("\n")


def load_model_text(path) -> ParamVector:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty model file")
    try:
        topology = Topology(tuple(int(s) for s in lines[0].split()))
        return ParamVector(topology, np.array([float(v) for v in lines[1:] if v.strip()]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
