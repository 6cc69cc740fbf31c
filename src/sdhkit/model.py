"""The trained hash model and its binary file format.

Both trainers produce the same artifact: a kernel map, which carries the
input normalization, a projection, and
optionally the per-class codes of the closed-form trainer, whose projection
is kept in class space as the factor S of P = S C^T. A model hashes samples
by the sign of their projected kernel features, and `save_model` /
`load_model` round-trip it bitwise through a versioned, checksummed file.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import index
from .codes import ClassCodes
from .dataset import NORMALIZE_MODES
from .kernelmap import BLOCK, KernelMap, _checked_samples, _mapped

MODEL_MAGIC = b"FSDH"
MODEL_VERSION = 3
# The fixed fields after the magic, laid out as `save_model` describes.
_HEADER = struct.Struct("<IIIIIQqddI")


@dataclass(frozen=True)
class DatasetFingerprint:
    """Identifies the training data a model came from."""

    sample_count: int
    dim: int
    class_count: int
    seed: int


@dataclass(frozen=True)
class HashModel:
    """Trained artifact: kernel map, projection, and per-class codes.

    `class_codes` is None for models trained by the alternating optimizer,
    which does not constrain its codes to a Hadamard subset.
    """

    kernel: KernelMap
    # float64. Without class codes, the (anchor_count, bits) projection P.
    # With class codes C, the (anchor_count, classes) closed-form solution S,
    # one column per class; the projection is P = S C^T and is never formed.
    projection: np.ndarray
    class_codes: ClassCodes | None
    lam: float
    trained_on: DatasetFingerprint

    def __post_init__(self):
        projection = np.asarray(self.projection, dtype=np.float64)
        if projection.ndim != 2 or projection.shape[0] != self.kernel.anchor_count:
            raise ValueError(
                f"projection shape {projection.shape} does not match "
                f"{self.kernel.anchor_count} kernel anchors"
            )
        if not np.isfinite(projection).all():
            raise ValueError("projection contains non-finite values")
        if self.class_codes is not None and self.class_codes.classes != projection.shape[1]:
            raise ValueError(
                f"the model has {self.class_codes.classes} class codes but the "
                f"class-space projection has {projection.shape[1]} columns"
            )
        if self.class_codes is not None and self.class_codes.classes != self.trained_on.class_count:
            raise ValueError(
                f"the model has {self.class_codes.classes} class codes but was "
                f"trained on {self.trained_on.class_count} classes"
            )
        if self.trained_on.dim != self.kernel.source_dim:
            raise ValueError(
                f"the kernel map takes {self.kernel.source_dim}-dimensional samples but "
                f"the model was trained on {self.trained_on.dim} dimensions"
            )
        object.__setattr__(self, "projection", projection)

    @property
    def bits(self) -> int:
        if self.class_codes is not None:
            return self.class_codes.bits
        return self.projection.shape[1]


def _scorer(model: HashModel) -> Callable[[np.ndarray], np.ndarray]:
    """Maps (anchor_count, n) kernel features K to their (bits, n) scores:
    P^T K, or C (S^T K) for a model with class codes C."""
    projection_t = model.projection.T
    if model.class_codes is None:
        return lambda features: projection_t @ features
    codes = model.class_codes.codes.astype(np.float64)
    return lambda features: codes @ (projection_t @ features)


def encode(model: HashModel, raw_samples: np.ndarray) -> index.PackedCodes:
    """Hash raw samples: kernel-transform, project, take signs, pack.

    A model with class codes projects onto its C classes and scores its L
    bits through the codes, C (S^T K), at C*M + L*C flops per sample in
    place of L*M. A score of exactly zero encodes as +1 so codes are
    reproducible. Samples stream through the transform one block at a
    time, and each block's signs are packed as soon as they are scored,
    through one reused buffer of a byte per bit for BLOCK samples. So
    memory grows with the sample count by the packed words, 8 bytes per
    started 64 bits, held twice at the end while `PackedCodes` takes its
    own copy; the input check, too, reads the samples a block at a time,
    once: the blocks then go through the kernel map unchecked. Samples the
    kernel map rejects (not real, not finite, with overflowing norms, or
    refused by its normalization; see `kernelmap`) raise ValueError.
    """
    samples = _checked_samples(model.kernel, raw_samples)
    count = samples.shape[1]
    scores = _scorer(model)
    nwords = -(-model.bits // index.WORD_BITS)
    words = np.empty((count, nwords), dtype=np.uint64, order="F")
    positive = np.zeros((min(BLOCK, count), nwords * index.WORD_BITS), dtype=bool)
    for start in range(0, count, BLOCK):
        chunk = samples[:, start:start + BLOCK]
        signs = positive[:chunk.shape[1]]
        # One expression, so no block's features or scores outlive it.
        signs[:, :model.bits] = (scores(_mapped(model.kernel, chunk)) >= 0.0).T
        words[start:start + BLOCK] = index._pack_rows(signs, model.bits).words
    return index.PackedCodes(words=words, bits=model.bits)


def save_model(model: HashModel, path: str | Path) -> None:
    """Serialize to the versioned binary model format.

    Little-endian layout: magic, version, bits, classes, anchors, dim as
    u32; sample count u64; seed i64; lambda and sigma f64; the kernel map's
    normalization as a u32 index into `dataset.NORMALIZE_MODES`; a
    class-code presence flag byte (0 or 1); the kernel map's mean, dim f64
    values (zeros unless the mode centres); anchor matrix; projection
    matrix, with one column per class when class codes are present and one
    per bit when not; packed class-code words; trailing CRC32 of everything
    before it.
    """
    fp = model.trained_on
    header = MODEL_MAGIC + _HEADER.pack(
        MODEL_VERSION,
        model.bits,
        fp.class_count,
        model.kernel.anchor_count,
        model.kernel.source_dim,
        fp.sample_count,
        fp.seed,
        model.lam,
        model.kernel.sigma,
        NORMALIZE_MODES.index(model.kernel.normalize),
    )
    blob = bytearray(header)
    blob.append(1 if model.class_codes is not None else 0)
    blob += model.kernel.mean.tobytes()
    blob += np.ascontiguousarray(model.kernel.anchors).tobytes()
    blob += np.ascontiguousarray(model.projection).tobytes()
    if model.class_codes is not None:
        blob += np.ascontiguousarray(index.pack(model.class_codes.codes).words).tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def load_model(path: str | Path) -> HashModel:
    """Read a model file back; every field round-trips bitwise."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise ValueError(
            f"{path}: bad magic: expected {MODEL_MAGIC!r}, got {blob[:4]!r}"
        )
    if len(blob) < 4 + _HEADER.size + 1 + 4:
        raise ValueError(f"{path}: truncated model file ({len(blob)} bytes)")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4])
    if stored_crc != actual_crc:
        raise ValueError(
            f"{path}: checksum failure: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    offset = 4
    (version, bits, classes, anchors_n, dim, samples, seed,
     lam, sigma, mode) = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported version {version}, expected {MODEL_VERSION}; "
                         f"retrain the model")
    if mode >= len(NORMALIZE_MODES):
        raise ValueError(f"{path}: unknown normalization code {mode}")
    has_codes = blob[offset]
    if has_codes not in (0, 1):
        raise ValueError(
            f"{path}: class-code flag byte at offset {offset} is {has_codes}, expected 0 or 1"
        )
    offset += 1

    def take(count: int, dtype, what: str) -> np.ndarray:
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(blob) - 4:
            raise ValueError(f"{path}: truncated model file reading {what}")
        out = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return out

    mean = take(dim, np.float64, "mean")
    anchors = take(dim * anchors_n, np.float64, "anchors").reshape(dim, anchors_n)
    columns = classes if has_codes else bits
    projection = take(anchors_n * columns, np.float64, "projection").reshape(anchors_n, columns)
    class_codes = None
    if has_codes:
        nwords = -(-bits // index.WORD_BITS)
        words = take(classes * nwords, np.uint64, "class codes").reshape(classes, nwords)
        packed = index.PackedCodes(words=words, bits=bits)
        class_codes = ClassCodes(codes=index.unpack(packed))
    if offset != len(blob) - 4:
        raise ValueError(f"{path}: {len(blob) - 4 - offset} unexpected trailing bytes")
    return HashModel(
        kernel=KernelMap(anchors=anchors.copy(), sigma=sigma,
                         normalize=NORMALIZE_MODES[mode], mean=mean.copy()),
        projection=projection.copy(),
        class_codes=class_codes,
        lam=lam,
        trained_on=DatasetFingerprint(sample_count=samples, dim=dim,
                                      class_count=classes, seed=seed),
    )
