"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: scalar loops, full enumeration, or
textbook definitions. None of it shares code with the package.
"""
from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

# Enumeration guard for the class-code oracle: 2^(bits*classes) candidates.
ORACLE_MAX_BITS = 5
ORACLE_MAX_CLASSES = 3


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


def write_idx(path, payload) -> None:
    """Write an array as an IDX file of unsigned bytes: magic 0x0800 plus
    the dimension count, each size as a big-endian int32, then the bytes."""
    payload = np.asarray(payload, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + payload.ndim}i", 0x0800 + payload.ndim, *payload.shape))
        f.write(payload.tobytes())


def sylvester(order: int) -> np.ndarray:
    """Sylvester Hadamard matrix of a power-of-two order by its block
    recursion: H_2 = [[1, 1], [1, -1]] and H_2k = [[H_k, H_k], [H_k, -H_k]]."""
    h = np.array([[1, 1], [1, -1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


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
    """AP from a relevance sequence, straight from the definition. On a
    Hamming ranking with ties this is the AP of one tie-breaking order."""
    hits = 0
    total = sum(1 for r in relevance_in_rank_order if r)
    acc = 0.0
    for rank, rel in enumerate(relevance_in_rank_order, start=1):
        if rel:
            hits += 1
            acc += hits / rank
    return acc / total


def tie_average_precision(levels) -> float:
    """Expected AP over every ordering of the tied items.

    `levels` lists (items, relevant items) per distance, nearest first. Each
    place of a level of n items, r of them relevant, is relevant with chance
    r / n; given that it is, each other item of the level is relevant with
    chance (r - 1) / (n - 1). Each place adds its chance of being relevant
    times the expected precision there, one place at a time.
    """
    total = sum(r for _, r in levels)
    seen = hits = 0
    acc = 0.0
    for n, r in levels:
        for place in range(1, n + 1):
            ahead = (place - 1) * (r - 1) / (n - 1) if n > 1 else 0.0
            acc += (r / n) * (hits + 1 + ahead) / (seen + place)
        seen += n
        hits += r
    return acc / total


def retrieval_three_pass(db_signs: np.ndarray, db_labels: np.ndarray,
                         query_signs: np.ndarray, query_labels: np.ndarray,
                         radius: int, zero_retrieval: str = "zero") -> dict:
    """Retrieval metrics in three separate passes of per-query loops, each
    recounting distances from the unpacked sign matrices: precision and
    recall at `radius`, then each query's average precision expected over
    every ordering of equidistant items (`tie_average_precision`), then
    (recall, precision) at every threshold 0..L.

    Precision and recall are plain Python divisions collected into float64
    arrays and averaged by NumPy, so they can be compared bit for bit. The
    average precisions add one term per place of a level, where a closed
    form over harmonic numbers adds one per level, so they agree only to
    rounding. A query label absent from the database raises ValueError
    naming it.
    """
    bits, query_count = query_signs.shape

    def distances(qi):
        return sign_distances(db_signs, query_signs[:, qi])

    def class_size(qi):
        size = int((db_labels == query_labels[qi]).sum())
        if size == 0:
            raise ValueError(f"query label {int(query_labels[qi])} absent from database")
        return size

    def averages(counts):
        # counts: per query (retrieved, relevant retrieved, class size)
        precisions = [rel / ret if ret else 0.0 for ret, rel, _ in counts]
        if zero_retrieval == "skip":
            kept = [p for p, (ret, _, _) in zip(precisions, counts) if ret]
            precision = float(np.array(kept).mean()) if kept else 0.0
        else:
            precision = float(np.array(precisions).mean())
        recall = float(np.array([rel / size for _, rel, size in counts]).mean())
        return recall, precision

    at_radius = []
    for qi in range(query_count):
        hits = np.flatnonzero(distances(qi) <= radius)
        matching = int((db_labels[hits] == query_labels[qi]).sum())
        at_radius.append((len(hits), matching, class_size(qi)))
    recall, precision = averages(at_radius)

    per_query = []
    for qi in range(query_count):
        target = int(query_labels[qi])
        levels = [[0, 0] for _ in range(bits + 1)]
        for d, label in zip(distances(qi).tolist(), db_labels.tolist()):
            levels[d][0] += 1
            levels[d][1] += int(label == target)
        per_query.append(tie_average_precision(levels))

    curve = []
    all_distances = [distances(qi) for qi in range(query_count)]
    for t in range(bits + 1):
        counts = []
        for qi in range(query_count):
            within = all_distances[qi] <= t
            matching = int((within & (db_labels == query_labels[qi])).sum())
            counts.append((int(within.sum()), matching, class_size(qi)))
        curve.append(averages(counts))

    per_query = np.array(per_query)
    return {"precision_at_radius": precision, "recall_at_radius": recall,
            "map": float(per_query.mean()), "per_query": per_query, "pr_curve": curve}


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


@dataclass(frozen=True)
class CodesOracleReport:
    """Result of the brute-force class-code optimality check.

    brute_force_value is the empirically exact minimum of the ridge
    classification objective over all candidate code matrices and is the
    ground truth. analytic_value is the closed-form candidate
    C*lambda/(L+lambda); ridge_fit_factor records L/(L+lambda), the diagonal
    that the fitted classifier attains at the optimum, which is sometimes
    quoted as the minimum itself. Reporting all three keeps the discrepancy
    visible.
    """

    bits: int
    classes: int
    lam: float
    brute_force_value: float
    analytic_value: float
    ridge_fit_factor: float
    optimal_codes: np.ndarray          # first minimizer in enumeration order
    optimal_set: frozenset[bytes]      # all minimizers, as int8 row-major bytes


def ridge_classifier_objective(codes: np.ndarray, lam: float) -> float:
    """Objective ||I - W^T B||^2 + lam*||W||^2 at the exact ridge solution W.

    W solves (B B^T + lam*I) W = B for identity targets (one sample per
    class). At lam = 0 the minimum-norm limit is used.
    """
    b = np.asarray(codes, dtype=np.float64)
    bits = b.shape[0]
    gram = b @ b.T
    if lam > 0:
        w = np.linalg.solve(gram + lam * np.eye(bits), b)
    else:
        w = np.linalg.pinv(gram) @ b
    resid = np.eye(b.shape[1]) - w.T @ b
    return float((resid ** 2).sum() + lam * (w ** 2).sum())


def _enumerate_sign_matrices(bits: int, classes: int) -> np.ndarray:
    """All {-1,+1}^(bits x classes) matrices, ordered so that index order is
    lexicographic with entry (0, 0) most significant and -1 < +1."""
    n = bits * classes
    idx = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    flat = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    return (2 * flat - 1).reshape(-1, bits, classes)


def fsdh_objective_oracle(bits: int, classes: int, lam: float) -> CodesOracleReport:
    """Brute-force the class-code objective over every candidate matrix.

    Feasible only for tiny instances (2^(bits*classes) candidates). The
    report carries the full minimizer set so invariance checks can compare
    argmin sets across regularization strengths.
    """
    if bits > ORACLE_MAX_BITS or classes > ORACLE_MAX_CLASSES:
        raise ValueError(
            f"enumeration budget exceeded: need bits <= {ORACLE_MAX_BITS} and "
            f"classes <= {ORACLE_MAX_CLASSES}, got ({bits}, {classes})"
        )
    if bits < 1 or classes < 1:
        raise ValueError(f"bits and classes must be >= 1, got ({bits}, {classes})")
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")

    candidates = _enumerate_sign_matrices(bits, classes)
    b = candidates.astype(np.float64)
    gram = b @ np.transpose(b, (0, 2, 1))
    if lam > 0:
        w = np.linalg.solve(gram + lam * np.eye(bits), b)
    else:
        w = np.linalg.pinv(gram) @ b
    resid = np.eye(classes) - np.transpose(w, (0, 2, 1)) @ b
    values = (resid ** 2).sum(axis=(1, 2)) + lam * (w ** 2).sum(axis=(1, 2))

    best = float(values.min())
    minimizers = np.flatnonzero(values <= best + 1e-9)
    optimal_set = frozenset(candidates[i].tobytes() for i in minimizers)
    return CodesOracleReport(
        bits=bits,
        classes=classes,
        lam=float(lam),
        brute_force_value=best,
        analytic_value=classes * lam / (bits + lam),
        ridge_fit_factor=bits / (bits + lam),
        optimal_codes=candidates[minimizers[0]].copy(),
        optimal_set=optimal_set,
    )
