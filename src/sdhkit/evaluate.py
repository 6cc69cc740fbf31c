"""Retrieval metrics, loss tables, and code-fitting diagnostics.

Precision and recall are computed per query against the labeled database at
a fixed Hamming radius; MAP averages precision over the full Hamming
ranking, taking the expected average precision over every ordering of
equidistant items, so it does not depend on how the database is stored.
Queries that retrieve nothing score precision 0 by default (the
conservative convention); a flag switches to skipping them for sensitivity
analysis since either reading is defensible.

Every retrieval metric comes from one streaming pass, `retrieval_counts`,
which computes each block of query distances once; `evaluate_retrieval`
reads precision and recall at a radius, MAP, the per-query average
precisions and the PR curve from it. The metrics need only per-(query,
class, distance) totals, so the pass first groups the database into
buckets of items with the same code and label and scores each bucket once,
counted with its multiplicity; supervised codes collapse onto a few codes
per class, so there are far fewer buckets than items. Memory stays
O(n_queries * bits + database size * words + block * buckets) however many
queries there are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import expand_codes
from .dataset import class_labels
from .index import CodeIndex, PackedCodes, hamming_matrix
from .model import HashModel, _scorer
from .sdh import SdhState, one_hot, w_step

ZERO_RETRIEVAL_MODES = ("zero", "skip")
BIAS_DIAGNOSTICS_MAX_SAMPLES = 5000
# Scratch bytes one evaluation block may hold; the bytes it holds at most per
# (query, database bucket) pair: distance (at most uint16), int64 bin key and
# the kernel's uint64 XOR, plus the pair's float64 bincount weight when some
# bucket holds more than one item; and per (query, class, distance) bin: its
# int64 or float64 count.
EVAL_BLOCK_BYTES = 4 << 20
EVAL_PAIR_BYTES = 18
EVAL_WEIGHT_BYTES = 8
EVAL_BIN_BYTES = 8
# Odd multiplier of the 64-bit fold that sorts the database into buckets.
_FOLD = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class EvalReport:
    precision_at_radius: float
    recall_at_radius: float
    map: float
    pr_curve: list[tuple[float, float]]  # (recall, precision) per threshold
    radius: int
    # Per-query average precision, expected over orderings of equidistant items.
    per_query: np.ndarray | None = None

    def __post_init__(self):
        for name in ("precision_at_radius", "recall_at_radius", "map"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        recalls = [r for r, _ in self.pr_curve]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            raise ValueError("pr_curve recall must be non-decreasing")


def _check_query_inputs(index: CodeIndex, queries: PackedCodes,
                        query_labels: np.ndarray) -> np.ndarray:
    if index.codes.count == 0:
        raise ValueError("empty database")
    if queries.count == 0:
        raise ValueError("no queries")
    return class_labels(query_labels, "query labels", count=queries.count)


def _check_options(zero_retrieval: str, radius: int) -> None:
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if zero_retrieval not in ZERO_RETRIEVAL_MODES:
        raise ValueError(f"zero_retrieval must be one of {ZERO_RETRIEVAL_MODES}")


@dataclass(frozen=True)
class RetrievalCounts:
    """Per-query outcome of one retrieval pass over the database.

    Column t of `retrieved` and `relevant` counts the database items within
    Hamming distance t of the query, and those of them sharing its label,
    for t = 0..L.
    """

    retrieved: np.ndarray    # (n_queries, bits + 1) int64
    relevant: np.ndarray     # (n_queries, bits + 1) int64
    class_sizes: np.ndarray  # (n_queries,) database items sharing the query label
    ap: np.ndarray           # (n_queries,) tie-averaged AP of the full ranking

    def curve(self, zero_retrieval: str) -> list[tuple[float, float]]:
        """Mean (recall, precision) over queries at every threshold 0..L.

        The counts are laid out one contiguous row per threshold, so every
        mean is NumPy's pairwise sum over that threshold's values in query
        order, as a one-dimensional mean of them would be.
        """
        retrieved = np.ascontiguousarray(self.retrieved.T)
        relevant = np.ascontiguousarray(self.relevant.T)
        recall = (relevant / self.class_sizes).mean(axis=1)
        nonzero = retrieved > 0
        per_query = np.divide(relevant, retrieved, out=np.zeros(retrieved.shape),
                              where=nonzero)
        if zero_retrieval == "skip":
            # A threshold averages only its queries that retrieve something.
            precision = np.array([row[keep].mean() if keep.any() else 0.0
                                  for row, keep in zip(per_query, nonzero)])
        else:
            precision = per_query.mean(axis=1)
        return list(zip(recall.tolist(), precision.tolist()))


def retrieval_counts(index: CodeIndex, queries: PackedCodes,
                     query_labels: np.ndarray) -> RetrievalCounts:
    """Score every query against the database in one streaming pass.

    The database is first grouped into buckets of items with the same words
    and the same label (`_buckets`), and each query is scored once per
    bucket, its distance counted with the bucket's multiplicity. Queries go
    through in blocks sized so that a block's distances, bin keys, weights
    and histograms stay within EVAL_BLOCK_BYTES; memory is
    O(n_queries * bits + count * words + block * buckets). Each block's
    distances are computed once and binned by (query, database class,
    distance) in one bincount. The cumulative bins over all classes give
    `retrieved`, those of the query's class give `relevant`, and the same
    per-distance counts give average precision as the expected AP over
    every ordering of equidistant items (McSherry and Najork, ECIR 2008).
    No ranking is built, so the result does not depend on the database's
    storage order.
    """
    query_labels = _check_query_inputs(index, queries, query_labels)
    classes, db_class, class_counts = np.unique(
        index.labels, return_inverse=True, return_counts=True)
    slot = np.minimum(np.searchsorted(classes, query_labels), classes.size - 1)
    present = classes[slot] == query_labels
    if not present.all():
        bad = int(query_labels[np.argmin(present)])
        raise ValueError(f"query label {bad} absent from database")
    class_sizes = class_counts[slot]

    codes, bucket_class, multiplicity = _buckets(index.codes, db_class)
    count, buckets, bits = index.codes.count, codes.count, index.codes.bits
    levels = bits + 1
    bins = classes.size * levels
    # Bin key of bucket j against query row i of a block:
    # dist + levels * class(j) + bins * i.
    class_key = bucket_class.astype(np.int64) * levels
    # harmonic[k] = 1 + 1/2 + ... + 1/k.
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, count + 1))))
    retrieved = np.empty((queries.count, levels), dtype=np.int64)
    relevant = np.empty_like(retrieved)
    ap = np.empty(queries.count)
    pair_bytes = EVAL_PAIR_BYTES + (0 if multiplicity is None else EVAL_WEIGHT_BYTES)
    block = max(1, EVAL_BLOCK_BYTES // (pair_bytes * buckets + EVAL_BIN_BYTES * bins))
    # Each key's weight is its bucket's multiplicity; the float64 sums are
    # whole numbers below 2**53, so they convert back to int64 exactly.
    weights = None if multiplicity is None else np.tile(multiplicity,
                                                        min(block, queries.count))
    for start in range(0, queries.count, block):
        rows = PackedCodes(words=queries.words[start:start + block], bits=queries.bits)
        stop = start + rows.count
        key = hamming_matrix(codes, rows) + class_key
        key += np.arange(0, rows.count * bins, bins)[:, None]
        hist = np.bincount(key.ravel(), None if weights is None else weights[:key.size],
                           minlength=rows.count * bins).reshape(rows.count, classes.size,
                                                                levels)
        del key  # so the next block's kernel scratch does not sit beside it
        at_level = hist.sum(axis=1).astype(np.int64, copy=False)
        relevant_at_level = hist[np.arange(rows.count), slot[start:stop]].astype(
            np.int64, copy=False)
        np.cumsum(at_level, axis=1, out=retrieved[start:stop])
        np.cumsum(relevant_at_level, axis=1, out=relevant[start:stop])
        ap[start:stop] = _tie_average_precision(
            at_level, relevant_at_level, retrieved[start:stop], relevant[start:stop],
            harmonic) / class_sizes[start:stop]
    return RetrievalCounts(retrieved=retrieved, relevant=relevant,
                           class_sizes=class_sizes, ap=ap)


def _buckets(codes: PackedCodes, db_class: np.ndarray
             ) -> tuple[PackedCodes, np.ndarray, np.ndarray | None]:
    """Group the database into buckets of items with equal words and class.

    Returns each bucket's code, its class index and its multiplicity (float64,
    the bincount weight); the multiplicity is None, and the database comes
    back as it is, when every item is a bucket of its own. The items are
    sorted by one 64-bit fold of their words and class, and a bucket ends
    wherever the class or any word differs from the next item's. Equal items
    whose folds collide with another item's may land in separate buckets,
    which leaves the counts exact.
    """
    fold = db_class.astype(np.uint64)
    for column in codes.words.T:
        fold *= _FOLD
        fold += column
    order = np.argsort(fold)
    ordered = db_class[order]
    starts = np.empty(codes.count, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    for column in codes.words.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    if starts.all():
        return codes, db_class, None
    first = np.flatnonzero(starts)
    multiplicity = np.diff(first, append=codes.count).astype(np.float64)
    first = order[first]
    return (PackedCodes(words=codes.words[first], bits=codes.bits), db_class[first],
            multiplicity)


def _tie_average_precision(items: np.ndarray, hits: np.ndarray, items_within: np.ndarray,
                           hits_within: np.ndarray, harmonic: np.ndarray) -> np.ndarray:
    """Per row, the sum of precision at each relevant rank, averaged over
    every ordering of the items at equal distance.

    A level holding n items, r of them relevant, behind N items holding R
    relevant ones, adds (r/n) * [b*n + (a - b*N) * (H(N+n) - H(N))] with
    b = (r-1)/(n-1) (0 when n = 1), a = R + 1 - b and H the harmonic
    numbers: position N+i of the level is relevant with probability r/n,
    and then the i-1 places ahead of it within the level hold b*(i-1)
    relevant items on average. `items_within` and `hits_within` are the
    cumulative counts of `items` and `hits`.
    """
    before = items_within - items
    b = np.divide(hits - 1, items - 1, out=np.zeros(items.shape), where=items > 1)
    a = (hits_within - hits) + 1.0 - b
    spread = harmonic[items_within] - harmonic[before]
    share = np.divide(hits, items, out=np.zeros(items.shape), where=hits > 0)
    return (share * (b * items + (a - b * before) * spread)).sum(axis=1)


def evaluate_retrieval(index: CodeIndex, queries: PackedCodes,
                       query_labels: np.ndarray, radius: int = 2,
                       zero_retrieval: str = "zero") -> EvalReport:
    """Precision/recall at the given radius, MAP, and the full PR curve.

    Everything comes from one `retrieval_counts` pass. The PR curve holds
    the mean (recall, precision) at every Hamming threshold 0..L; its recall
    is non-decreasing and reaches 1 at L. Precision and recall at radius r
    are point min(r, L) of it. `per_query` holds each query's average
    precision along the full ranking, expected over every ordering of the
    items at equal distance, and MAP is its mean.
    """
    _check_options(zero_retrieval, radius)
    counts = retrieval_counts(index, queries, query_labels)
    curve = counts.curve(zero_retrieval)
    recall, precision = curve[min(radius, index.codes.bits)]
    return EvalReport(
        precision_at_radius=precision,
        recall_at_radius=recall,
        map=float(counts.ap.mean()),
        pr_curve=curve,
        radius=radius,
        per_query=counts.ap,
    )


@dataclass(frozen=True)
class BiasDiagnostics:
    """Grids and traces behind the code-fitting error identity.

    With K = X^T (X X^T)^{-1} X (an orthogonal projection) and P the
    least-squares projection, ||B - P^T X||^2 = Tr(B^T B) - Tr(B K B^T).
    When B holds per-class codes over label-sorted samples, B^T B is
    block-diagonal and the trace can be regrouped into sums of K entries
    over same-label pairs; both evaluations are carried and must agree.
    """

    k_matrix: np.ndarray    # (N, N) projection grid, for heatmap export
    btb_matrix: np.ndarray  # (N, N) code Gram grid
    trace_value: float      # Tr(B K B^T), direct evaluation
    trace_grouped: float    # same trace via the grouped label-block sum
    bias_value: float       # Tr(B^T B) - Tr(B K B^T)


def bias_term_diagnostics(features: np.ndarray, codes: np.ndarray,
                          labels: np.ndarray) -> BiasDiagnostics:
    """Materialize the projection grid K and code Gram B^T B.

    Expects samples sorted by label and per-class codes, so the grouped-sum
    evaluation of Tr(B K B^T) is valid; the direct and grouped values are
    asserted to agree. N x N grids are materialized, so sample count is
    capped.
    """
    x = np.asarray(features, dtype=np.float64)
    b = np.asarray(codes, dtype=np.float64)
    n = x.shape[1]
    if n > BIAS_DIAGNOSTICS_MAX_SAMPLES:
        raise ValueError(
            f"sample count {n} exceeds the {BIAS_DIAGNOSTICS_MAX_SAMPLES} guard "
            f"for materializing N x N grids"
        )
    if b.shape[1] != n:
        raise ValueError("features and codes must agree on sample count")
    labels = class_labels(labels, "labels", count=n)
    if np.any(np.diff(labels) < 0):
        raise ValueError("samples must be sorted by label")

    gram = x.T @ np.linalg.solve(x @ x.T, x)
    btb = b.T @ b
    trace_direct = float(np.einsum("ln,nm,lm->", b, gram, b))
    bits = b.shape[0]

    # Grouped form: L * sum_i sum_over_classes (row sum of K within class)^2.
    grouped = 0.0
    for cls in np.unique(labels):
        cols = labels == cls
        grouped += float((gram[:, cols].sum(axis=1) ** 2).sum())
    grouped *= bits

    if abs(trace_direct - grouped) > 1e-9 * max(1.0, abs(trace_direct)):
        raise ValueError(
            f"grouped trace {grouped!r} disagrees with direct trace {trace_direct!r}; "
            f"codes are not per-class constants"
        )
    return BiasDiagnostics(
        k_matrix=gram,
        btb_matrix=btb,
        trace_value=trace_direct,
        trace_grouped=grouped,
        bias_value=float(np.trace(btb)) - trace_direct,
    )


@dataclass(frozen=True)
class LossRow:
    """Classification and code-fitting losses of a paired training run."""

    bits: int
    sdh_w_loss: float
    sdh_p_loss: float
    fsdh_w_loss: float
    fsdh_p_loss: float


def loss_table(sdh_state: SdhState, fsdh_model: HashModel, features: np.ndarray,
               labels: np.ndarray) -> LossRow:
    """W-loss ||Y - W^T B||^2 and P-loss ||B - P^T X||^2 for both trainers.

    The closed-form model's P^T X is scored as encode scores it, C (S^T X).

    Both models must have been trained on the same kernel features and code
    length. For a like-for-like comparison the classifier entering each
    W-loss is the exact ridge solution recomputed from that method's final
    codes (at the closed-form codes B = C Y this is C diag(n_c / (L n_c + lambda))
    for class sizes n_c).
    """
    if fsdh_model.class_codes is None:
        raise ValueError("model has no class codes; train it with the closed-form trainer")
    x = np.asarray(features, dtype=np.float64)
    bits = sdh_state.codes.shape[0]
    if fsdh_model.bits != bits:
        raise ValueError(f"bit mismatch: {bits} vs {fsdh_model.bits}")
    if sdh_state.projection.shape[0] != x.shape[0] or fsdh_model.projection.shape[0] != x.shape[0]:
        raise ValueError("projection rows do not match the feature dimension")
    class_count = sdh_state.weights.shape[1]
    labels = class_labels(labels, "labels", class_count, x.shape[1])

    def losses(b: np.ndarray, projected: np.ndarray, lam: float) -> tuple[float, float]:
        y = one_hot(labels, class_count)
        w = w_step(b, labels, class_count, lam)
        w_loss = float(((y - w.T @ b) ** 2).sum())
        p_loss = float(((b - projected) ** 2).sum())
        return w_loss, p_loss

    b_sdh = sdh_state.codes.astype(np.float64)
    sdh_w, sdh_p = losses(b_sdh, sdh_state.projection.T @ x, sdh_state.lam)
    b_fsdh = expand_codes(fsdh_model.class_codes, labels).astype(np.float64)
    fsdh_w, fsdh_p = losses(b_fsdh, _scorer(fsdh_model)(x), fsdh_model.lam)
    return LossRow(bits=bits, sdh_w_loss=sdh_w, sdh_p_loss=sdh_p,
                   fsdh_w_loss=fsdh_w, fsdh_p_loss=fsdh_p)

