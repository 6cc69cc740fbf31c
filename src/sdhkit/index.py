"""Packed binary codes and Hamming search over distinct codes.

Codes are bit-packed into 64-bit words so that distances reduce to XOR plus
popcount. Bit j of code i is stored in word j // 64 at bit position j % 64;
a set bit encodes +1 and a clear bit encodes -1, and unused high bits of the
last word are always zero.

One kernel, `hamming_matrix`, computes every distance: `radius_search`,
`rank_all` and the evaluation pass all go through it. Distances come back in
the narrowest unsigned dtype that holds the code length (uint8 up to 255
bits, uint16 beyond), so a stable sort of them is NumPy's radix sort.

`PackedCodes` takes integer words only (signed ones keep their bits) and
copies them once, at construction, into one read-only Fortran-ordered array
that the codes own. `words` reads as one row per code, and its transpose
`words.T` is the contiguous one-row-per-word layout the kernel scans.

Supervised codes collapse onto a few codes per class, so `CodeIndex` groups
its items into buckets of equal words and label once, when it is built, with
the fold-and-sort `_groups` that also groups the evaluation's queries; the
evaluation pass reads those buckets as they are. A lookup scores the query
against each bucket's word, not each item. `rank_all` gathers the per-bucket
distances back to the items and radix-sorts them; `radius_search` keeps the
buckets within the radius, reads their ids through the bucket offsets and
sorts only the hits, so it touches no array of the database's length. An
index whose (code, label) pairs are all distinct holds one bucket per item,
so every index has this one layout. `radius_search` returns its hits as a
`Hits`, two flat arrays of ids and distances, and creates no Python object
per hit; a caller that indexes or iterates it gets (id, distance) tuples of
Python ints, built as they are read. `CodeIndex` reads its labels through
`dataset.class_labels`, the package's one label check.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .codes import only_signs
from .dataset import class_labels

WORD_BITS = 64
# Odd multiplier of the 64-bit fold that sorts codes into groups.
_FOLD = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class PackedCodes:
    """N binary codes of length `bits`, one row of words per code."""

    words: np.ndarray  # (count, ceil(bits/64)) uint64, Fortran-ordered
    bits: int

    def __post_init__(self):
        words = np.asarray(self.words)
        if words.dtype.kind not in "iu":  # a cast would truncate floats and bools
            raise ValueError(f"words must be integers, got dtype {words.dtype}")
        words = np.array(words, dtype=np.uint64, order="F")
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
        if tail and words.size and words[:, -1].max() >> np.uint64(tail):
            raise ValueError("unused tail bits must be zero")
        object.__setattr__(self, "words", words)

    @property
    def count(self) -> int:
        return self.words.shape[0]


@dataclass(frozen=True)
class _Buckets:
    """The database's items grouped into buckets of equal words and label."""

    words: PackedCodes   # (buckets, words), one code per bucket
    labels: np.ndarray   # (buckets,) int64, each bucket's label
    of_item: np.ndarray  # (count,) intp, each item's bucket
    members: np.ndarray  # (count,) intp, item ids by bucket, ascending within one
    starts: np.ndarray   # (buckets,) intp, where each bucket's ids start in `members`
    sizes: np.ndarray    # (buckets,) intp, how many ids each bucket holds
    id_bits: int         # bits that hold any item id


@dataclass(frozen=True)
class CodeIndex:
    """Database of packed codes with aligned integer labels.

    The labels are copied once, at construction, into a read-only int64
    array (see `dataset.class_labels`), so later writes to the caller's
    array do not reach the index. The items are grouped into buckets of
    equal words and label once, at construction; with no two (code, label)
    pairs equal each item is a bucket of its own.
    """

    codes: PackedCodes
    labels: np.ndarray  # (count,) int64, read-only
    _buckets: _Buckets = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes = self.codes
        object.__setattr__(self, "labels",
                           class_labels(self.labels, "labels", count=codes.count))
        first, of_item = _groups(codes, self.labels)
        sizes = np.bincount(of_item)
        object.__setattr__(self, "_buckets", _Buckets(
            words=PackedCodes(words=codes.words[first], bits=codes.bits),
            labels=self.labels[first], of_item=of_item,
            members=of_item.argsort(kind="stable"), starts=sizes.cumsum() - sizes,
            sizes=sizes, id_bits=(codes.count - 1).bit_length()))


def _groups(codes: PackedCodes, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group codes with equal words and equal int64 `key` (a label or class).

    Returns the index of each group's first item and each item's group. The
    items are sorted by one 64-bit fold of their words and key, and a group
    ends wherever the key or any word differs from the next item's, so the
    groups come in fold order, also when every item is a group of its own.
    Equal items whose folds collide with another item's may land in separate
    groups, which leaves every count and distance exact.
    """
    fold = key.astype(np.uint64)
    for column in codes.words.T:
        fold *= _FOLD
        fold += column
    order = np.argsort(fold)
    starts = np.zeros(codes.count, dtype=bool)
    starts[:1] = True
    ordered = key[order]
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    for column in codes.words.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(codes.count, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


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
    """Distances from one word row to every bucket's code."""
    words = np.asarray(query)
    nwords = index.codes.words.shape[1]
    if words.shape != (nwords,):
        raise ValueError(
            f"code length mismatch: database codes have {nwords} words, "
            f"the query row has shape {words.shape}"
        )
    # Set tail bits would count as distance and could overflow the dtype.
    row = PackedCodes(words=words[None], bits=index.codes.bits)
    return hamming_matrix(index._buckets.words, row)[0]


def radius_search(index: CodeIndex, query: np.ndarray, radius: int) -> Hits:
    """All database codes within the radius, ascending by (distance, id)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    dist = _query_distances(index, query)
    buckets = index._buckets
    within = (dist <= radius).nonzero()[0]
    # Hit k of the j-th bucket within the radius sits at members[starts[j] + k].
    sizes = buckets.sizes[within]
    ends = sizes.cumsum()
    at = (buckets.starts[within] - ends + sizes).repeat(sizes)
    at += np.arange(at.size)
    # Ids are below 2**id_bits, so the keys are distinct and order by (distance, id).
    keys = (dist[within].astype(np.int64) << buckets.id_bits).repeat(sizes)
    keys |= buckets.members[at]
    keys.sort()
    return Hits(ids=keys & ((1 << buckets.id_bits) - 1),
                distances=(keys >> buckets.id_bits).astype(dist.dtype))


def rank_all(index: CodeIndex, query: np.ndarray) -> np.ndarray:
    """All database ids sorted ascending by distance, ties by ascending id."""
    return _query_distances(index, query)[index._buckets.of_item].argsort(kind="stable")
