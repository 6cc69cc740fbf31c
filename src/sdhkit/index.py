"""Packed binary codes and linear-scan Hamming search.

Codes are bit-packed into 64-bit words so that distances reduce to XOR plus
popcount. Bit j of code i is stored in word j // 64 at bit position j % 64;
a set bit encodes +1 and a clear bit encodes -1, and unused high bits of the
last word are always zero. Search is a straight scan over the packed words;
at the database sizes this toolkit targets, a popcount scan is the honest
baseline and no acceleration structure is layered on top.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64


@dataclass(frozen=True)
class PackedCodes:
    """N binary codes of length `bits`, one row of words per code."""

    words: np.ndarray  # (count, ceil(bits/64)) uint64
    bits: int

    def __post_init__(self):
        words = np.asarray(self.words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        expected = -(-self.bits // WORD_BITS)
        if words.shape[1] != expected:
            raise ValueError(
                f"expected {expected} words per code for {self.bits} bits, got {words.shape[1]}"
            )
        tail = self.bits % WORD_BITS
        if tail and words.size:
            mask = np.uint64((1 << tail) - 1)
            if np.any(words[:, -1] & ~mask):
                raise ValueError("unused tail bits must be zero")
        object.__setattr__(self, "words", words)

    @property
    def count(self) -> int:
        return self.words.shape[0]

    def code(self, i: int) -> np.ndarray:
        """Word row of code i."""
        return self.words[i]


@dataclass(frozen=True)
class CodeIndex:
    """Database of packed codes with aligned integer labels."""

    codes: PackedCodes
    labels: np.ndarray  # (count,) int64

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.codes.count,):
            raise ValueError(
                f"label count {labels.shape} does not match code count {self.codes.count}"
            )
        object.__setattr__(self, "labels", labels)


def pack(signs: np.ndarray) -> PackedCodes:
    """Pack an (L, N) matrix of -1/+1 entries; +1 becomes a set bit."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"signs must be (bits, count), got shape {signs.shape}")
    if not np.isin(signs, (-1, 1)).all():
        raise ValueError("signs must contain only -1 and +1")
    bits, count = signs.shape
    nwords = -(-bits // WORD_BITS)
    positive = np.zeros((count, nwords * WORD_BITS), dtype=bool)
    positive[:, :bits] = signs.T > 0
    # Little-endian bit order within bytes and bytes within a word puts bit
    # j at position j % 64 of word j // 64; the zero padding keeps tail bits clear.
    octets = np.packbits(positive, axis=1, bitorder="little")
    words = octets.view("<u8")
    return PackedCodes(words=words, bits=bits)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Inverse of `pack`: (bits, count) int8 matrix of -1/+1 entries."""
    j = np.arange(packed.bits)
    cols = packed.words[:, j // WORD_BITS]  # (count, bits)
    bit = (cols >> (j % WORD_BITS).astype(np.uint64)) & np.uint64(1)
    return (2 * bit.T.astype(np.int8) - 1)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two word rows of equal length."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"code length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def hamming_matrix(database: PackedCodes, queries: PackedCodes,
                   *, block: int = 256) -> np.ndarray:
    """All query-to-database distances as an (n_queries, count) int32 matrix."""
    if database.bits != queries.bits:
        raise ValueError(
            f"code length mismatch: database {database.bits} vs queries {queries.bits}"
        )
    out = np.empty((queries.count, database.count), dtype=np.int32)
    for start in range(0, queries.count, block):
        chunk = queries.words[start:start + block]
        xor = chunk[:, None, :] ^ database.words[None, :, :]
        out[start:start + block] = np.bitwise_count(xor).sum(axis=2, dtype=np.int32)
    return out


def radius_search(index: CodeIndex, query: np.ndarray,
                  radius: int) -> list[tuple[int, int]]:
    """All (id, distance) pairs within the radius, ascending by (distance, id)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    dist = np.bitwise_count(index.codes.words ^ np.asarray(query, dtype=np.uint64))
    dist = dist.sum(axis=1, dtype=np.int32)
    hits = np.flatnonzero(dist <= radius)
    order = hits[np.argsort(dist[hits], kind="stable")]
    return [(int(i), int(dist[i])) for i in order]


def rank_all(index: CodeIndex, query: np.ndarray) -> np.ndarray:
    """All database ids sorted ascending by distance, ties by ascending id."""
    dist = np.bitwise_count(index.codes.words ^ np.asarray(query, dtype=np.uint64))
    dist = dist.sum(axis=1, dtype=np.int32)
    return np.argsort(dist, kind="stable")
