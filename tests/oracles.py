"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: scalar loops, full enumeration, or
textbook definitions. None of it shares code with the package.
"""
from __future__ import annotations

import itertools

import numpy as np


def rbf_loop(anchors: np.ndarray, samples: np.ndarray, sigma: float) -> np.ndarray:
    """Scalar double loop over anchors and samples."""
    m = anchors.shape[1]
    k = samples.shape[1]
    out = np.empty((m, k))
    for i in range(m):
        for j in range(k):
            d = anchors[:, i] - samples[:, j]
            out[i, j] = np.exp(-float(np.dot(d, d)) / sigma)
    return out


def hamming_loop(signs_a: np.ndarray, signs_b: np.ndarray) -> int:
    """Count differing entries of two +/-1 vectors, one bit at a time."""
    assert signs_a.shape == signs_b.shape
    return int(sum(1 for x, y in zip(signs_a, signs_b) if x != y))


def pack_loop(signs: np.ndarray) -> np.ndarray:
    """Packed words from the layout definition, one bit at a time: bit j of
    code i is set in word j // 64 at position j % 64 when signs[j, i] is +1."""
    bits, count = signs.shape
    nwords = -(-bits // 64)
    words = [[0] * nwords for _ in range(count)]
    for i in range(count):
        for j in range(bits):
            if signs[j, i] == 1:
                words[i][j // 64] |= 1 << (j % 64)
    return np.array(words, dtype=np.uint64).reshape(count, nwords)


def sign_distances(db_signs: np.ndarray, query_signs: np.ndarray) -> np.ndarray:
    """Distances of one query column against all database columns, computed
    from unpacked sign matrices."""
    return (db_signs != query_signs[:, None]).sum(axis=0)


def biqp_objective(q: np.ndarray, f: np.ndarray, b) -> float:
    b = np.asarray(b, dtype=np.float64)
    return float(b @ q @ b + f @ b)


def biqp_brute_force(q: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """Enumerate all assignments with itertools; ties prefer the
    lexicographically smallest (-1 before +1)."""
    best_b = None
    best_val = np.inf
    for combo in itertools.product((-1, 1), repeat=len(f)):
        val = biqp_objective(q, f, combo)
        if val < best_val:
            best_val = val
            best_b = np.array(combo, dtype=np.int8)
    return best_b, best_val


def dcc_simulator(q: np.ndarray, f: np.ndarray, init: np.ndarray,
                  sweeps: int) -> np.ndarray:
    """Per-bit scalar simulation of the cyclic update rule."""
    b = [float(v) for v in init]
    bits = len(f)
    for _ in range(sweeps):
        changed = False
        for l in range(bits):
            arg = f[l]
            for i in range(bits):
                if i != l:
                    arg += 2.0 * q[i, l] * b[i]
            if arg > 0:
                new = -1.0
            elif arg < 0:
                new = 1.0
            else:
                new = b[l]
            if new != b[l]:
                b[l] = new
                changed = True
        if not changed:
            break
    return np.array(b, dtype=np.int8)


def average_precision_reference(relevance_in_rank_order) -> float:
    """AP from a relevance sequence, straight from the definition."""
    hits = 0
    total = sum(1 for r in relevance_in_rank_order if r)
    acc = 0.0
    for rank, rel in enumerate(relevance_in_rank_order, start=1):
        if rel:
            hits += 1
            acc += hits / rank
    return acc / total


def grid_simplex_min_3(fn, total: float, step: float):
    """Grid-search min of fn(x1)+fn(x2)+fn(x3) over the simplex
    x1+x2+x3 = total, xi >= 0."""
    ticks = int(round(total / step))
    best = None
    best_val = np.inf
    for i in range(ticks + 1):
        x1 = i * step
        for j in range(ticks - i + 1):
            x2 = j * step
            x3 = total - x1 - x2
            val = fn(x1) + fn(x2) + fn(x3)
            if val < best_val:
                best_val = val
                best = (x1, x2, x3)
    return best, best_val


def one_nn_accuracy(features: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out 1-nearest-neighbor accuracy on raw columns."""
    n = features.shape[1]
    sq = (features ** 2).sum(axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * features.T @ features
    np.fill_diagonal(d2, np.inf)
    nearest = d2.argmin(axis=1)
    return float((labels[nearest] == labels).mean())
