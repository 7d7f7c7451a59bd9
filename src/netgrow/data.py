"""Dataset ingestion, standardization, and synthetic problem generators."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .net_core import ParamVector, Topology, forward_batch, param_count

__all__ = [
    "Dataset",
    "ParseError",
    "load_delimited",
    "save_delimited",
    "standardize",
    "make_synthetic",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired samples: ``inputs`` is P x n, ``targets`` is P x m, both finite."""

    inputs: np.ndarray
    targets: np.ndarray
    name: str = "dataset"
    feature_stats: tuple[np.ndarray, np.ndarray] | None = None  # (means, stddevs)
    origin: dict | None = None

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        y = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} input rows vs {y.shape[0]} target rows")
        if x.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains NaN or Inf")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[1]


def _resolve_target_columns(spec, n_columns: int) -> list[int]:
    if isinstance(spec, str):
        text = spec.strip().lower()
        if not text.startswith("last-"):
            raise ValueError(f"target column spec {spec!r}: use 'last-k' or a list of indices")
        try:
            k = int(text.split("-", 1)[1])
        except ValueError:
            raise ValueError(
                f"target column spec {spec!r}: k in 'last-k' must be an integer"
            ) from None
        if not 1 <= k < n_columns:
            raise ValueError(f"'last-{k}' out of range for {n_columns} columns")
        return list(range(n_columns - k, n_columns))
    for c in spec:
        if not -n_columns <= int(c) < n_columns:
            raise ValueError(f"target column {c} out of range for {n_columns} columns")
    cols = [int(c) % n_columns for c in spec]
    if len(cols) != len(set(cols)):
        raise ValueError(f"duplicate target columns in {list(spec)}")
    if not 1 <= len(cols) < n_columns:
        raise ValueError("need at least one target and one feature column")
    return sorted(cols)


def _reject_non_finite(values: np.ndarray, columns, rows, line_numbers, kind: str) -> None:
    """Raise :class:`ParseError` at the first NaN or Inf cell of ``values``."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        col = columns[c]
        raise ParseError(f"non-finite {kind} {rows[r][col]!r} in column {col}", line_numbers[r])


def load_delimited(
    path,
    *,
    has_header: bool = False,
    target_columns="last-1",
    delimiter: str = ",",
    name: str | None = None,
) -> Dataset:
    """Load a delimited text file into features and targets.

    ``target_columns`` is either ``"last-k"`` or a list of 0-based column
    indices; a negative index counts from the end, and one outside the
    file's columns is a ``ValueError``. Numeric target columns pass through;
    a column with any non-numeric entry is treated as categorical and one-hot
    encoded over its sorted distinct values. Feature columns must be numeric;
    violations are reported with their line number.
    """
    if not delimiter:
        raise ValueError(f"delimiter must be a non-empty string, got {delimiter!r}")
    path = Path(path)
    rows: list[list[str]] = []
    line_numbers: list[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            rows.append([cell.strip() for cell in line.split(delimiter)])
            line_numbers.append(number)
    if has_header and rows:
        rows, line_numbers = rows[1:], line_numbers[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    n_columns = len(rows[0])
    for row, number in zip(rows, line_numbers):
        if len(row) != len(rows[0]):
            raise ParseError(f"expected {n_columns} columns, found {len(row)}", number)

    target_idx = _resolve_target_columns(target_columns, n_columns)
    feature_idx = [i for i in range(n_columns) if i not in target_idx]

    features = np.empty((len(rows), len(feature_idx)))
    for r, (row, number) in enumerate(zip(rows, line_numbers)):
        for c, col in enumerate(feature_idx):
            try:
                features[r, c] = float(row[col])
            except ValueError:
                raise ParseError(f"non-numeric feature {row[col]!r} in column {col}", number) from None
    _reject_non_finite(features, feature_idx, rows, line_numbers, "feature")

    target_parts = []
    for col in target_idx:
        cells = [row[col] for row in rows]
        try:
            column = np.array([[float(v)] for v in cells])
        except ValueError:
            classes = sorted(set(cells))
            column = np.zeros((len(cells), len(classes)))
            index = {label: k for k, label in enumerate(classes)}
            for r, value in enumerate(cells):
                column[r, index[value]] = 1.0
        else:
            _reject_non_finite(column, [col], rows, line_numbers, "target")
        target_parts.append(column)
    targets = np.hstack(target_parts)

    return Dataset(features, targets, name=name or path.stem)


def save_delimited(dataset: Dataset, path, delimiter: str = ",") -> None:
    """Write features then targets, one row per sample, full float precision."""
    with open(path, "w", encoding="utf-8") as handle:
        for x, y in zip(dataset.inputs, dataset.targets):
            handle.write(delimiter.join(repr(float(v)) for v in (*x, *y)))
            handle.write("\n")


def standardize(dataset: Dataset) -> Dataset:
    """Scale each feature column to mean 0, sample stddev 1 (constants to 0)."""
    if dataset.n_samples < 2:
        raise ValueError("standardize needs at least two samples")
    means = dataset.inputs.mean(axis=0)
    stds = dataset.inputs.std(axis=0, ddof=1)
    safe = np.where(stds > 0.0, stds, 1.0)
    scaled = np.where(stds > 0.0, (dataset.inputs - means) / safe, 0.0)
    return Dataset(
        scaled,
        dataset.targets,
        name=dataset.name,
        feature_stats=(means, stds),
        origin=dataset.origin,
    )


def make_synthetic(
    kind: str,
    *,
    n: int,
    m: int,
    samples: int,
    noise: float = 0.0,
    seed: int = 0,
    teacher_width: int = 3,
    name: str | None = None,
) -> Dataset:
    """Reproducible synthetic regression problems.

    ``teacher_net`` samples a random tanh network of ``teacher_width`` hidden
    neurons and records its parameters in ``origin`` so the attainable risk
    floor is known. ``polynomial`` draws cubic coefficients, ``sinusoid``
    takes the sine of the mean input coordinate (phase-shifted per output).
    Inputs are uniform on [-2, 2]; ``noise`` adds seeded Gaussian noise to
    the targets.
    """
    for key, value in (("samples", samples), ("n", n), ("m", m)):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be a finite number >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-2.0, 2.0, (samples, n))
    origin: dict = {"kind": kind, "noise": noise, "seed": seed}

    if kind == "teacher_net":
        topo = Topology((n, teacher_width, m))
        teacher = rng.uniform(-1.5, 1.5, param_count(topo))
        clean = forward_batch(ParamVector(topo, teacher), inputs)[-1]
        origin["teacher_layer_sizes"] = list(topo.layer_sizes)
        origin["teacher_params"] = [float(v) for v in teacher]
    elif kind == "polynomial":
        coeffs = [rng.uniform(-1.0, 1.0, (m, n)) for _ in range(3)]
        intercept = rng.uniform(-1.0, 1.0, m)
        clean = intercept + sum(inputs**p @ c.T for p, c in enumerate(coeffs, start=1))
    elif kind == "sinusoid":
        base = inputs.mean(axis=1)
        clean = np.column_stack([np.sin(base + r * np.pi / 4.0) for r in range(m)])
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    targets = clean + noise * rng.standard_normal((samples, m))
    return Dataset(inputs, targets, name=name or f"{kind}-{seed}", origin=origin)
