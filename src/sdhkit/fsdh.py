"""Closed-form hash trainer and the trained-model artifact.

The fast trainer skips alternating optimization entirely. Its model
assumptions are named throughout the package:

  A1: the code length L is a power of two,
  A2: L is at least the number of classes,
  A3: each sample carries a single label,
  A4: the code-fitting bias term is negligible (it is dropped).

Under A1-A3 the optimal class codes are columns of a Hadamard matrix, and
the code matrix is B = C Y for the (L, C) class codes C and the (C, N)
one-hot label matrix Y. Training therefore reduces to one regularized
least-squares solve against Y, independent of the code length L, and one
(M, C) x (C, L) product for the projection.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import index
from .codes import ClassCodes, is_power_of_two, pick_class_codes, sylvester
from .kernelmap import KernelMap, transform
from .sdh import DEFAULT_LAMBDA, ProjectionSolver, one_hot

MODEL_MAGIC = b"FSDH"
MODEL_VERSION = 1


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
    projection: np.ndarray  # (anchor_count, bits) float64
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
        if self.class_codes is not None and self.class_codes.bits != projection.shape[1]:
            raise ValueError(
                f"class codes have {self.class_codes.bits} bits but the projection "
                f"produces {projection.shape[1]}"
            )
        object.__setattr__(self, "projection", projection)

    @property
    def bits(self) -> int:
        return self.projection.shape[1]


def train_fsdh(features: np.ndarray, labels: np.ndarray, class_count: int,
               bits: int, jitter: float | None = None) -> tuple[np.ndarray, ClassCodes]:
    """Closed-form training on already kernel-transformed features.

    Builds the per-class Hadamard codes C and returns the solution P of
    (X X^T + jitter*I) P = X B^T for the per-sample codes B = C Y, in the
    factored form P = [(X X^T + jitter*I)^-1 X Y^T] C^T. The solve runs
    against the C class indicators Y (assumption A3) rather than the L-bit
    codes, so its cost does not depend on L. No iteration and no randomness:
    repeated calls return bit-identical projections.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if not is_power_of_two(bits):
        raise ValueError(
            f"code length {bits} violates assumption A1: it must be a power of two"
        )
    if bits < class_count:
        raise ValueError(
            f"code length {bits} violates assumption A2: it must be at least "
            f"the class count {class_count}"
        )
    if labels.shape[0] != x.shape[1]:
        raise ValueError(f"label count {labels.shape[0]} does not match {x.shape[1]} samples")
    class_codes = pick_class_codes(sylvester(bits), class_count)
    indicators = one_hot(labels, class_count)
    per_class = ProjectionSolver(x, jitter).solve(indicators)
    return per_class @ class_codes.codes.astype(np.float64).T, class_codes


def optimal_weights(class_codes: ClassCodes, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Ridge classifier for one sample per class: W = B' / (L + lambda).

    Satisfies (B' B'^T + lam*I) W = B' exactly because the class codes are
    orthogonal with squared norm L.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return class_codes.codes.astype(np.float64) / (class_codes.bits + lam)


def encode(model: HashModel, raw_samples: np.ndarray) -> index.PackedCodes:
    """Hash raw samples: kernel-transform, project, take signs, pack.

    A projection of exactly zero encodes as +1 so codes are reproducible.
    """
    features = transform(model.kernel, raw_samples)
    scores = model.projection.T @ features
    signs = np.where(scores >= 0.0, 1, -1).astype(np.int8)
    return index.pack(signs)


def _pack_code_words(class_codes: ClassCodes) -> np.ndarray:
    return index.pack(class_codes.codes).words


def save_model(model: HashModel, path: str | Path) -> None:
    """Serialize to the versioned binary model format.

    Little-endian layout: magic, version, bits, classes, anchors, dim as
    u32; sample count u64; seed i64; lambda and sigma f64; a class-code
    presence flag byte; anchor matrix, projection matrix, packed class-code
    words; trailing CRC32 of everything before it.
    """
    fp = model.trained_on
    header = MODEL_MAGIC + struct.pack(
        "<IIIIIQqdd",
        MODEL_VERSION,
        model.bits,
        fp.class_count,
        model.kernel.anchor_count,
        model.kernel.source_dim,
        fp.sample_count,
        fp.seed,
        model.lam,
        model.kernel.sigma,
    )
    blob = bytearray(header)
    blob.append(1 if model.class_codes is not None else 0)
    blob += np.ascontiguousarray(model.kernel.anchors).tobytes()
    blob += np.ascontiguousarray(model.projection).tobytes()
    if model.class_codes is not None:
        blob += np.ascontiguousarray(_pack_code_words(model.class_codes)).tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def load_model(path: str | Path) -> HashModel:
    """Read a model file back; every field round-trips bitwise."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise ValueError(
            f"{path}: bad magic: expected {MODEL_MAGIC!r}, got {blob[:4]!r}"
        )
    if len(blob) < 4 + struct.calcsize("<IIIIIQqdd") + 1 + 4:
        raise ValueError(f"{path}: truncated model file ({len(blob)} bytes)")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4])
    if stored_crc != actual_crc:
        raise ValueError(
            f"{path}: checksum failure: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    offset = 4
    (version, bits, classes, anchors_n, dim, samples, seed,
     lam, sigma) = struct.unpack_from("<IIIIIQqdd", blob, offset)
    offset += struct.calcsize("<IIIIIQqdd")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported version {version}, expected {MODEL_VERSION}")
    has_codes = blob[offset]
    offset += 1

    def take(count: int, dtype, what: str) -> np.ndarray:
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(blob) - 4:
            raise ValueError(f"{path}: truncated model file reading {what}")
        out = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return out

    anchors = take(dim * anchors_n, np.float64, "anchors").reshape(dim, anchors_n)
    projection = take(anchors_n * bits, np.float64, "projection").reshape(anchors_n, bits)
    class_codes = None
    if has_codes:
        nwords = -(-bits // index.WORD_BITS)
        words = take(classes * nwords, np.uint64, "class codes").reshape(classes, nwords)
        packed = index.PackedCodes(words=words.copy(), bits=bits)
        class_codes = ClassCodes(codes=index.unpack(packed))
    if offset != len(blob) - 4:
        raise ValueError(f"{path}: {len(blob) - 4 - offset} unexpected trailing bytes")
    return HashModel(
        kernel=KernelMap(anchors=anchors.copy(), sigma=sigma),
        projection=projection.copy(),
        class_codes=class_codes,
        lam=lam,
        trained_on=DatasetFingerprint(sample_count=samples, dim=dim,
                                      class_count=classes, seed=seed),
    )
