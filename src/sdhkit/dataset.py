"""Loading, normalization, and synthesis of labeled feature datasets.

Features are stored column-major: one sample per column, so a dataset with
D-dimensional features and N samples is a (D, N) matrix. Labels are integer
class indices; one-hot label matrices are materialized only inside the
operations that need them.

`class_labels` is the package's one label check: every function that takes
labels reads them through it, so a label that is not a whole number or lies
outside the class range, or a label count that is not the sample count,
raises ValueError instead of being truncated, wrapped or broadcast.
"""
from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

NORMALIZE_MODES = ("none", "unit_norm", "zero_mean_unit_norm")


@dataclass(frozen=True)
class RawDataset:
    """Labeled feature vectors, one column per sample."""

    features: np.ndarray  # (dim, sample_count) float64, finite
    labels: np.ndarray    # (sample_count,) int64 in [0, class_count), read-only
    class_count: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D (dim x samples), got shape {features.shape}")
        if features.shape[1] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        labels = class_labels(self.labels, "labels", self.class_count, features.shape[1])
        if self.class_count < 1:
            raise ValueError(f"class_count must be positive, got {self.class_count}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def sample_count(self) -> int:
        return self.features.shape[1]

    def subset(self, cols) -> RawDataset:
        """The samples at `cols`, an index array or a slice, in that order."""
        return RawDataset(features=self.features[:, cols], labels=self.labels[cols],
                          class_count=self.class_count)


def class_labels(values, name: str, class_count: int | None = None,
                 count: int | None = None) -> np.ndarray:
    """A read-only 1-D int64 copy of class labels.

    Integer and boolean arrays are copied as they are. Floats must hold
    finite whole numbers, so no label is truncated, wrapped or turned from
    NaN into -2**63. With `class_count`, every label must lie in
    [0, class_count); with `count`, there must be exactly `count` labels.
    Anything else raises ValueError naming `name`.
    """
    values = np.asarray(values)
    if values.dtype.kind == "f":
        # NaN fails both tests, and +-inf the second.
        if not ((values == np.floor(values)) & (np.abs(values) < 2.0 ** 63)).all():
            raise ValueError(f"{name} must be finite integers")
    elif values.dtype.kind == "u":
        if values.size and values.max() > np.iinfo(np.int64).max:
            raise ValueError(f"{name} must fit in int64")
    elif values.dtype.kind not in "bi":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    if values.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {values.shape}")
    if count is not None and values.shape[0] != count:
        raise ValueError(f"{name} must have length {count}, got {values.shape[0]}")
    labels = values.astype(np.int64)
    if class_count is not None and labels.size and (
            labels.min() < 0 or labels.max() >= class_count):
        bad = labels[(labels < 0) | (labels >= class_count)][0]
        raise ValueError(f"{name}: label out of range [0, {class_count}): found {bad}")
    labels.flags.writeable = False
    return labels


def validate_training_labels(dataset: RawDataset) -> None:
    """Check that every class in [0, class_count) has at least one sample.

    Loaders accept sparse test splits; training entry points call this.
    """
    present = np.zeros(dataset.class_count, dtype=bool)
    present[dataset.labels] = True
    if not present.all():
        missing = int(np.flatnonzero(~present)[0])
        raise ValueError(f"class {missing} has no samples in the training set")


def _open_maybe_gzip(path: str | Path):
    # IDX files are commonly distributed gzipped; sniff the 2-byte gzip magic.
    # Opened by path, so closing the gzip stream closes its file too.
    with open(path, "rb") as f:
        head = f.read(2)
    return gzip.open(path) if head == b"\x1f\x8b" else open(path, "rb")


def _read_exact(f, nbytes: int, path, what: str) -> bytes:
    offset = f.tell()
    data = f.read(nbytes)
    if len(data) != nbytes:
        raise ValueError(
            f"{path}: truncated file reading {what} at byte offset {offset}: "
            f"wanted {nbytes} bytes, got {len(data)}"
        )
    return data


def _read_be32(f, path, what: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path, what))[0]


def _read_idx(path: str | Path, magic: int, dims: tuple[str, ...],
              what: str) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its header.

    Layout (big endian): `magic` and one size per name in `dims` as 32-bit
    integers, then the product of the sizes in bytes. Only the first size
    may be zero.
    """
    with _open_maybe_gzip(path) as f:
        found = _read_be32(f, path, "magic number")
        if found != magic:
            raise ValueError(
                f"{path}: bad magic number at byte offset 0: "
                f"expected {magic:#010x}, got {found:#010x}"
            )
        shape = tuple(_read_be32(f, path, name) for name in dims)
        if shape[0] < 0 or any(size <= 0 for size in shape[1:]):
            sizes = ", ".join(f"{name}={size}" for name, size in zip(dims, shape))
            raise ValueError(f"{path}: invalid dimensions ({sizes})")
        raw = _read_exact(f, math.prod(shape), path, what)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def read_idx_images(path: str | Path) -> np.ndarray:
    """Read an IDX image file (magic 0x00000803; count, rows, cols) into a
    (count, rows, cols) uint8 array."""
    return _read_idx(path, IDX_IMAGES_MAGIC, ("image count", "row count", "column count"),
                     "pixel data")


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Read an IDX label file (magic 0x00000801; count) into a (count,)
    uint8 array."""
    return _read_idx(path, IDX_LABELS_MAGIC, ("label count",), "label data")


def _check_limit(limit: int) -> None:
    if limit == 0:
        raise ValueError("empty dataset requested (limit=0)")
    if limit < 0:
        raise ValueError(f"limit must be positive, got {limit}")


def truncate(dataset: RawDataset, limit: int | None) -> RawDataset:
    """Keep the first `limit` samples in order; None keeps every sample."""
    if limit is None:
        return dataset
    _check_limit(limit)
    return dataset.subset(slice(limit))


def load_mnist(images_path: str | Path, labels_path: str | Path,
               limit: int | None = None) -> RawDataset:
    """Load an MNIST-style IDX image/label pair as a 10-class dataset.

    Pixels are flattened row-wise to D = rows*cols features and scaled to
    [0, 1] by dividing by 255. `limit` truncates in file order.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"count mismatch: {images_path} declares {images.shape[0]} images "
            f"(byte offset 4) but {labels_path} declares {labels.shape[0]} labels (byte offset 4)"
        )
    if limit is not None:
        _check_limit(limit)
        images = images[:limit]
        labels = labels[:limit]
    count = images.shape[0]
    features = images.reshape(count, -1).T.astype(np.float64) / 255.0
    return RawDataset(features=features, labels=labels, class_count=10)


def _parse_csv_matrix(path: str | Path) -> np.ndarray:
    rows = []
    ncols = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if ncols is None:
                ncols = len(cells)
            elif len(cells) != ncols:
                raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected {ncols}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise ValueError(f"{path}: row {lineno} has non-numeric cell {bad!r}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(features_path: str | Path, labels_path: str | Path) -> RawDataset:
    """Load precomputed features (one sample per row) and integer labels.

    The feature file fixes D by its column count; the label file has one
    non-negative integer per row, and the class count is max(label) + 1.
    """
    data = _parse_csv_matrix(features_path)
    raw_labels = _parse_csv_matrix(labels_path)
    if raw_labels.shape[1] != 1:
        raise ValueError(f"{labels_path}: expected one label per row, got {raw_labels.shape[1]} columns")
    labels = class_labels(raw_labels[:, 0], f"{labels_path}: labels", count=data.shape[0])
    if labels.min() < 0:
        raise ValueError(f"{labels_path}: labels must be non-negative, "
                         f"found {labels[labels < 0][0]}")
    return RawDataset(features=data.T, labels=labels, class_count=int(labels.max()) + 1)


def synth_blobs(classes: int, per_class: int, dim: int, spread: float,
                seed: int) -> RawDataset:
    """Gaussian blobs: class k is drawn around a distinct random center.

    Pure function of its arguments; the same seed yields a bitwise-identical
    dataset.
    """
    if classes < 1 or per_class < 1 or dim < 1:
        raise ValueError(
            f"classes, per_class, dim must all be >= 1, got ({classes}, {per_class}, {dim})"
        )
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim))
    noise = rng.standard_normal((classes, per_class, dim))
    samples = centers[:, None, :] + spread * noise
    features = samples.reshape(classes * per_class, dim).T.copy()
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return RawDataset(features=features, labels=labels, class_count=classes)


def training_mean(features: np.ndarray) -> np.ndarray:
    """The (D,) per-dimension mean of (D, N) samples.

    Each dimension's samples are summed as one row, so the mean does not
    depend on the memory layout of `features`. A mean that overflows float64
    raises ValueError.
    """
    with np.errstate(over="ignore"):
        mean = np.array([row.mean() for row in features])
    if not np.isfinite(mean).all():
        raise ValueError("the samples' mean overflows float64")
    return mean


def normalized(features: np.ndarray, mode: str, mean: np.ndarray | None = None,
               columns=None) -> np.ndarray:
    """(D, K) samples preprocessed by `mode`, the one normalization routine.

    none: the samples as they are. unit_norm: each column scaled to
    Euclidean norm 1. zero_mean_unit_norm: the (D,) `mean` subtracted
    first. A column's squared norm is summed over the dimensions in order,
    so it does not depend on the memory layout of the array that holds the
    sample. A column whose norm is zero, or whose squared norm overflows
    float64, raises ValueError naming it by its entry of `columns`, the
    samples' indices in the caller's data, or else by its position.
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; expected one of {NORMALIZE_MODES}")
    if mode == "none":
        return features
    columns = range(features.shape[1]) if columns is None else columns
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "zero_mean_unit_norm":
            features = features - mean[:, None]
        squares = np.zeros(features.shape[1])
        for row in features:
            squares += row * row
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        raise ValueError(f"cannot unit-normalize: the squared norm of sample column "
                         f"{columns[bad[0]]} overflows float64")
    zero = np.flatnonzero(squares == 0.0)
    if zero.size:
        raise ValueError(f"cannot unit-normalize: sample column {columns[zero[0]]} "
                         f"has zero norm")
    return features / np.sqrt(squares)


def normalize(dataset: RawDataset, mode: str = "unit_norm") -> RawDataset:
    """The dataset's samples through `normalized`, centred on their own mean
    under zero_mean_unit_norm."""
    mean = training_mean(dataset.features) if mode == "zero_mean_unit_norm" else None
    return RawDataset(features=normalized(dataset.features, mode, mean),
                      labels=dataset.labels, class_count=dataset.class_count)
