"""Hadamard class-code construction.

The closed-form trainer assigns one binary code per class, taken as columns
of a Sylvester Hadamard matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import class_labels


def is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def only_signs(values: np.ndarray) -> bool:
    """Whether every entry is -1 or +1. Uses two one-byte masks per entry,
    whatever the dtype."""
    valid = values == 1
    valid |= values == -1
    return bool(valid.all())


@dataclass(frozen=True)
class ClassCodes:
    """One length-L binary code per class, stored as (bits, classes) columns.

    Columns are pairwise orthogonal with squared norm L, which puts every
    pair of class codes at Hamming distance exactly L/2.
    """

    codes: np.ndarray  # (bits, classes) int8 in {-1, +1}

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2:
            raise ValueError(f"codes must be (bits, classes), got shape {codes.shape}")
        bits, classes = codes.shape
        if not is_power_of_two(bits):
            raise ValueError(f"code length must be a power of two, got {bits}")
        if classes < 1 or classes > bits:
            raise ValueError(f"class count must be in [1, {bits}], got {classes}")
        if not only_signs(codes):
            raise ValueError("codes must contain only -1 and +1")
        codes = codes.astype(np.int8, copy=False)
        wide = codes.astype(np.int64)
        gram = wide.T @ wide
        # C^T C must equal bits * I; comparing in place keeps one C x C matrix.
        gram.flat[::classes + 1] -= bits
        if gram.any():
            raise ValueError("class codes must be pairwise orthogonal with squared norm = bits")
        object.__setattr__(self, "codes", codes)

    @property
    def bits(self) -> int:
        return self.codes.shape[0]

    @property
    def classes(self) -> int:
        return self.codes.shape[1]

    @property
    def distinct_bits(self) -> int:
        """The number of distinct rows of the code matrix: bits that split
        the classes apart differently. Hadamard codes of C classes repeat
        with period 2^ceil(log2 C), so C = 10 gives 16 at any L >= 16."""
        return len(np.unique(self.codes, axis=0))


def hadamard_codes(bits: int, classes: int) -> ClassCodes:
    """The first `classes` columns of the order-`bits` Sylvester Hadamard
    matrix, as class codes.

    Entry (j, c) of that matrix is (-1)^popcount(j & c), so the columns are
    built in O(bits * classes) without the bits x bits matrix, and any
    power-of-two `bits` >= `classes` is accepted. Any column subset is
    optimal by orthogonality; taking the first C keeps the choice
    deterministic.
    """
    if not is_power_of_two(bits):
        raise ValueError(
            f"code length {bits} violates assumption A1: it must be a power of two >= 2"
        )
    if classes > bits:
        raise ValueError(
            f"code length {bits} violates assumption A2: it must be at least "
            f"the class count {classes}"
        )
    odd = np.bitwise_count(np.arange(bits)[:, None] & np.arange(classes)) & 1
    return ClassCodes(codes=np.where(odd, -1, 1).astype(np.int8))


def expand_codes(class_codes: ClassCodes, labels: np.ndarray) -> np.ndarray:
    """Line class codes up per sample: column i is the code of labels[i]."""
    return class_codes.codes[:, class_labels(labels, "labels", class_codes.classes)]
