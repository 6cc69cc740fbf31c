"""Output checks that turn a wrong answer into a failed operation.

Every check uses only code in this file, never the package's own helpers,
and returns a list of failure messages (empty when the output is right).
"""
from __future__ import annotations

import numpy as np

WORD_BITS = 64


def unpacked_signs(words: np.ndarray, bits: int) -> np.ndarray:
    """(count, bits) int8 matrix of -1/+1 from packed words, bit j in word
    j // 64 at position j % 64, a set bit meaning +1."""
    out = np.empty((words.shape[0], bits), dtype=np.int8)
    for j in range(bits):
        bit = (words[:, j // WORD_BITS] >> np.uint64(j % WORD_BITS)) & np.uint64(1)
        out[:, j] = np.where(bit == 1, 1, -1)
    return out


def check_lookups(db_words: np.ndarray, query_words: np.ndarray, bits: int, radius: int,
                  sampled: list[tuple[int, list, np.ndarray]]) -> list[str]:
    """Recompute sampled lookups bit by bit from the unpacked signs.

    Each sample is (query row, radius_search result, rank_all result).
    """
    if not sampled:
        return []
    db = unpacked_signs(db_words, bits)
    queries = unpacked_signs(query_words, bits)
    ids = np.arange(db.shape[0])
    failures = []
    for qi, hits, ranking in sampled:
        dist = (db != queries[qi]).sum(axis=1)
        within = ids[dist <= radius]
        within = within[np.lexsort((within, dist[within]))]
        expected_hits = [(int(i), int(dist[i])) for i in within]
        if list(hits) != expected_hits:
            failures.append(f"radius_search for query {qi} differs from the per-bit recount")
        if not np.array_equal(np.asarray(ranking), np.lexsort((ids, dist))):
            failures.append(f"rank_all for query {qi} differs from the per-bit recount")
    return failures


def check_pr_point(report) -> list[str]:
    """Precision and recall at the radius are point `radius` of the PR curve."""
    recall, precision = report.pr_curve[report.radius]
    if (recall, precision) != (report.recall_at_radius, report.precision_at_radius):
        return [f"PR curve point {report.radius} is ({recall!r}, {precision!r}) but the radius "
                f"metrics are ({report.recall_at_radius!r}, {report.precision_at_radius!r})"]
    return []


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_model_round_trip(trained, loaded) -> list[str]:
    """The loaded model equals the trained one bit for bit."""
    fields = {
        "anchors": (trained.kernel.anchors, loaded.kernel.anchors),
        "projection": (trained.projection, loaded.projection),
        "class codes": (None if trained.class_codes is None else trained.class_codes.codes,
                        None if loaded.class_codes is None else loaded.class_codes.codes),
        "sigma": (np.float64(trained.kernel.sigma), np.float64(loaded.kernel.sigma)),
        "lambda": (np.float64(trained.lam), np.float64(loaded.lam)),
    }
    failures = [f"model {name} changed in the file round trip"
                for name, (a, b) in fields.items() if not _same_array(a, b)]
    if trained.trained_on != loaded.trained_on:
        failures.append("model fingerprint changed in the file round trip")
    return failures


def check_same(reference: dict, current: dict, what: str) -> list[str]:
    """Arrays and numbers equal bit for bit to the reference cycle's."""
    failures = []
    for key, ref in reference.items():
        cur = current.get(key)
        same = _same_array(ref, cur) if isinstance(ref, np.ndarray) else ref == cur
        if not same:
            failures.append(f"{what} {key!r} differs from the first cycle")
    return failures
