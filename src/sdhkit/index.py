"""Packed binary codes and linear-scan Hamming search.

Codes are bit-packed into 64-bit words so that distances reduce to XOR plus
popcount. Bit j of code i is stored in word j // 64 at bit position j % 64;
a set bit encodes +1 and a clear bit encodes -1, and unused high bits of the
last word are always zero. Search is a straight scan over the packed words;
at the database sizes this toolkit targets, a popcount scan is the honest
baseline and no acceleration structure is layered on top.

One kernel, `hamming_matrix`, computes every distance: `radius_search`,
`rank_all` and the evaluation pass all go through it. Distances come back in
the narrowest unsigned dtype that holds the code length (uint8 up to 255
bits, uint16 beyond), so a stable sort of them is NumPy's radix sort.

`PackedCodes` copies its words once, at construction, into one read-only
Fortran-ordered array that the codes own. `words` reads as one row per
code, and its transpose `words.T` is the contiguous one-row-per-word layout
the kernel scans, so a lookup does no work that grows with the database
beyond one XOR and popcount pass per word, the threshold and the sort.
`radius_search` returns its hits as a `Hits`, two flat arrays of ids and
distances, and creates no Python object per hit; a caller that indexes or
iterates it gets (id, distance) tuples of Python ints, built as they are
read. `CodeIndex` reads its labels through `dataset.class_labels`, the
package's one label check.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codes import only_signs
from .dataset import class_labels

WORD_BITS = 64


@dataclass(frozen=True)
class PackedCodes:
    """N binary codes of length `bits`, one row of words per code."""

    words: np.ndarray  # (count, ceil(bits/64)) uint64, Fortran-ordered
    bits: int

    def __post_init__(self):
        words = np.array(self.words, dtype=np.uint64, order="F")
        words.flags.writeable = False
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


@dataclass(frozen=True)
class CodeIndex:
    """Database of packed codes with aligned integer labels.

    The labels are copied once, at construction, into a read-only int64
    array (see `dataset.class_labels`), so later writes to the caller's
    array do not reach the index.
    """

    codes: PackedCodes
    labels: np.ndarray  # (count,) int64, read-only

    def __post_init__(self):
        object.__setattr__(self, "labels",
                           class_labels(self.labels, "labels", count=self.codes.count))


def pack(signs: np.ndarray) -> PackedCodes:
    """Pack an (L, N) matrix of -1/+1 entries; +1 becomes a set bit."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"signs must be (bits, count), got shape {signs.shape}")
    if not only_signs(signs):
        raise ValueError("signs must contain only -1 and +1")
    bits, count = signs.shape
    positive = np.zeros((count, -(-bits // WORD_BITS) * WORD_BITS), dtype=bool)
    positive[:, :bits] = signs.T > 0
    return _pack_rows(positive, bits)


def _pack_rows(positive: np.ndarray, bits: int) -> PackedCodes:
    """Pack a (count, words * 64) boolean matrix, one code per row.

    Column j holds bit j, True for +1; the columns from `bits` on must be
    False.
    """
    # Little-endian bit order within bytes and bytes within a word puts bit
    # j at position j % 64 of word j // 64; the zero padding keeps tail bits clear.
    octets = np.packbits(positive, axis=1, bitorder="little")
    return PackedCodes(words=octets.view("<u8"), bits=bits)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Inverse of `pack`: (bits, count) int8 matrix of -1/+1 entries."""
    j = np.arange(packed.bits)
    cols = packed.words[:, j // WORD_BITS]  # (count, bits)
    bit = (cols >> (j % WORD_BITS).astype(np.uint64)) & np.uint64(1)
    return (2 * bit.T.astype(np.int8) - 1)


def hamming_matrix(database: PackedCodes, queries: PackedCodes) -> np.ndarray:
    """All query-to-database distances as an (n_queries, count) matrix.

    Both code sets must have the same length. The result has the narrowest
    unsigned dtype that holds `bits`. Every query row is scored in one pass
    over a Q x N uint64 XOR scratch (Q * N * 8 bytes), so the caller bounds
    the number of queries Q per call.
    """
    if queries.bits != database.bits:
        raise ValueError(
            f"code length mismatch: database {database.bits} vs queries {queries.bits}"
        )
    count = database.count
    out = np.empty((queries.count, count), dtype=np.min_scalar_type(database.bits))
    scratch = np.empty((queries.count, count), dtype=np.uint64)
    # words.T holds one contiguous row per word, so each XOR streams the database once.
    for j, column in enumerate(database.words.T):
        np.bitwise_xor(queries.words[:, j, None], column, out=scratch)
        if j == 0:
            np.bitwise_count(scratch, out=out)
        else:
            out += np.bitwise_count(scratch)
    return out


@dataclass(frozen=True, eq=False)
class Hits(Sequence):
    """Database codes within a search radius, ascending by (distance, id).

    `ids` (int64) and `distances` (the kernel's uint8 or uint16) are aligned
    read-only arrays. As a sequence the hits are (id, distance) tuples of
    Python ints, made only when read; a slice is again a `Hits`. Hits compare
    equal to a `Hits`, list or tuple holding the same tuples.
    """

    ids: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64).view()
        distances = np.asarray(self.distances).view()
        if ids.ndim != 1 or distances.shape != ids.shape:
            raise ValueError(
                f"ids and distances must be 1-D and aligned, got shapes "
                f"{ids.shape} and {distances.shape}"
            )
        ids.flags.writeable = distances.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", distances)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Hits(ids=self.ids[key], distances=self.distances[key])
        return int(self.ids[key]), int(self.distances[key])

    def __iter__(self):
        return zip(self.ids.tolist(), self.distances.tolist())

    def __eq__(self, other):
        if isinstance(other, (Hits, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def _query_distances(index: CodeIndex, query: np.ndarray) -> np.ndarray:
    """Distances from one word row to every database code."""
    words = np.asarray(query, dtype=np.uint64)
    nwords = index.codes.words.shape[1]
    if words.shape != (nwords,):
        raise ValueError(
            f"code length mismatch: database codes have {nwords} words, "
            f"the query row has shape {words.shape}"
        )
    # Set tail bits would count as distance and could overflow the dtype.
    row = PackedCodes(words=words[None], bits=index.codes.bits)
    return hamming_matrix(index.codes, row)[0]


def radius_search(index: CodeIndex, query: np.ndarray, radius: int) -> Hits:
    """All database codes within the radius, ascending by (distance, id)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    dist = _query_distances(index, query)
    within = np.flatnonzero(dist <= radius)
    near = dist[within]
    order = np.argsort(near, kind="stable")
    return Hits(ids=within[order], distances=near[order])


def rank_all(index: CodeIndex, query: np.ndarray) -> np.ndarray:
    """All database ids sorted ascending by distance, ties by ascending id."""
    return np.argsort(_query_distances(index, query), kind="stable")
