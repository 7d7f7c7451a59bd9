"""Model files: a small versioned binary format plus a plain-text export.

Binary layout, all little-endian:

    bytes 0-3   magic ``b"NGM1"``
    uint32      format version (currently 1)
    uint32      number of layer sizes (network depth + 1)
    uint32[k]   layer sizes, input first
    float64[q]  flat parameters in the standard bias-then-weight-row layout

The text form has the layer sizes on the first line and one full-precision
parameter per following line; both forms round-trip exactly. ``save_model``
writes the vector's own buffer; ``load_model`` reads the parameters straight
into the returned vector's array, not memory-mapped, so a model may be saved
back to its own path. ``load_model_text`` streams the lines.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .net_core import ParamVector, Topology

__all__ = ["save_model", "load_model", "save_model_text", "load_model_text"]

_MAGIC = b"NGM1"
_VERSION = 1


def save_model(theta: ParamVector, path) -> None:
    sizes = theta.topology.layer_sizes
    with open(path, "wb") as handle:
        handle.write(struct.pack(f"<4sII{len(sizes)}I", _MAGIC, _VERSION, len(sizes), *sizes))
        handle.write(np.asarray(theta.flat, dtype="<f8").data)


def load_model(path) -> ParamVector:
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(12)
        if len(head) < 12 or head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        version, n_sizes = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        offset = 12 + 4 * n_sizes
        if size < offset:
            raise ValueError(
                f"{path}: header declares {n_sizes} layer sizes but the file has {size} bytes"
            )
        try:
            topology = Topology(struct.unpack(f"<{n_sizes}I", handle.read(4 * n_sizes)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        q = topology.n_params
        if size - offset != 8 * q:
            raise ValueError(f"{path}: expected {q} parameters ({8 * q} bytes), "
                             f"found {size - offset} bytes")
        flat = np.fromfile(handle, dtype="<f8", count=q)
    # Converts to native order on a big-endian machine only.
    return ParamVector._adopt(topology, flat.astype(np.float64, copy=False))


def save_model_text(theta: ParamVector, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(" ".join(str(s) for s in theta.topology.layer_sizes) + "\n")
        handle.writelines(f"{float(value)!r}\n" for value in theta.flat)


def load_model_text(path) -> ParamVector:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}: empty model file")
        try:
            topology = Topology(tuple(int(s) for s in header.split()))
            return ParamVector(topology, np.fromiter((float(v) for v in handle if v.strip()), float))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
