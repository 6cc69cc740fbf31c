"""Retrieval metrics, loss tables, and code-fitting diagnostics.

Precision and recall are computed per query against the labeled database at
a fixed Hamming radius; MAP averages precision over the full Hamming
ranking. Queries that retrieve nothing score precision 0 by default (the
conservative convention); a flag switches to skipping them for sensitivity
analysis since either reading is defensible.

Every retrieval metric comes from one streaming pass, `retrieval_counts`,
which computes each block of query distances once; `evaluate_retrieval`
reads precision and recall at a radius, MAP, the per-query average
precisions and the PR curve from it, so memory stays O(n_queries * bits +
block * database size) however many queries there are.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import expand_codes
from .index import CodeIndex, PackedCodes, hamming_matrix
from .model import HashModel
from .sdh import SdhState, one_hot, w_step

ZERO_RETRIEVAL_MODES = ("zero", "skip")
BIAS_DIAGNOSTICS_MAX_SAMPLES = 5000
# Scratch bytes one evaluation block may hold, and the bytes it holds per
# (query, database item) pair: distance, int64 ranking, ranked class id,
# relevance flag, and the kernel's uint64 XOR.
EVAL_BLOCK_BYTES = 8 << 20
EVAL_PAIR_BYTES = 24


@dataclass(frozen=True)
class EvalReport:
    precision_at_radius: float
    recall_at_radius: float
    map: float
    pr_curve: list[tuple[float, float]]  # (recall, precision) per threshold
    radius: int
    per_query: np.ndarray | None = None  # per-query average precision

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
    query_labels = np.asarray(query_labels, dtype=np.int64)
    if query_labels.shape != (queries.count,):
        raise ValueError(
            f"query label count {query_labels.shape} does not match {queries.count} queries"
        )
    return query_labels


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
    ap: np.ndarray           # (n_queries,) average precision of the full ranking

    def point(self, threshold: int, zero_retrieval: str) -> tuple[float, float]:
        """Mean (recall, precision) over queries at one distance threshold."""
        retrieved = self.retrieved[:, threshold]
        relevant = self.relevant[:, threshold]
        nonzero = retrieved > 0
        precision_per_query = np.zeros(retrieved.shape[0])
        precision_per_query[nonzero] = relevant[nonzero] / retrieved[nonzero]
        if zero_retrieval == "skip":
            precision = float(precision_per_query[nonzero].mean()) if nonzero.any() else 0.0
        else:
            precision = float(precision_per_query.mean())
        recall = float((relevant / self.class_sizes).mean())
        return recall, precision

    def curve(self, zero_retrieval: str) -> list[tuple[float, float]]:
        """`point` at every threshold 0..L."""
        return [self.point(t, zero_retrieval) for t in range(self.retrieved.shape[1])]


def retrieval_counts(index: CodeIndex, queries: PackedCodes,
                     query_labels: np.ndarray) -> RetrievalCounts:
    """Score every query against the database in one streaming pass.

    Queries go through in blocks sized so that a block's distances, ranking
    and relevance masks stay within EVAL_BLOCK_BYTES; memory is
    O(n_queries * bits + block * count). Each block's distances are computed
    once, ranked by a stable sort (ties by ascending database id), and the
    ranks of the relevant items give both average precision and the
    relevant counts at every threshold.
    """
    query_labels = _check_query_inputs(index, queries, query_labels)
    classes, db_class, class_counts = np.unique(
        index.labels, return_inverse=True, return_counts=True)
    slot = np.minimum(np.searchsorted(classes, query_labels), classes.size - 1)
    present = classes[slot] == query_labels
    if not present.all():
        bad = int(query_labels[np.argmin(present)])
        raise ValueError(f"query label {bad} absent from database")
    # Narrow class ids keep the per-block gather of ranked labels small.
    db_class = db_class.astype(np.min_scalar_type(classes.size - 1))
    query_class = slot.astype(db_class.dtype)
    class_sizes = class_counts[slot]

    count, bits = index.codes.count, index.codes.bits
    retrieved = np.empty((queries.count, bits + 1), dtype=np.int64)
    relevant = np.empty_like(retrieved)
    ap = np.empty(queries.count)
    block = max(1, EVAL_BLOCK_BYTES // (EVAL_PAIR_BYTES * count))
    for start in range(0, queries.count, block):
        rows = PackedCodes(words=queries.words[start:start + block], bits=queries.bits)
        dist = hamming_matrix(index.codes, rows)
        order = np.argsort(dist, axis=1, kind="stable")
        hit = db_class[order] == query_class[start:start + block, None]
        # Relevant positions in each ranking, 0-based, row after row.
        flat = np.flatnonzero(hit)
        end = 0
        for row in range(rows.count):
            qi = start + row
            total = int(class_sizes[qi])
            positions = flat[end:end + total] - row * count
            end += total
            ap[qi] = float((np.arange(1, total + 1) / (positions + 1)).sum() / total)
            retrieved[qi] = np.cumsum(np.bincount(dist[row], minlength=bits + 1))
            # Within threshold t lie exactly the first retrieved[t] ranks.
            relevant[qi] = np.searchsorted(positions, retrieved[qi])
    return RetrievalCounts(retrieved=retrieved, relevant=relevant,
                           class_sizes=class_sizes, ap=ap)


def evaluate_retrieval(index: CodeIndex, queries: PackedCodes,
                       query_labels: np.ndarray, radius: int = 2,
                       zero_retrieval: str = "zero") -> EvalReport:
    """Precision/recall at the given radius, MAP, and the full PR curve.

    Everything comes from one `retrieval_counts` pass. The PR curve holds
    the mean (recall, precision) at every Hamming threshold 0..L; its recall
    is non-decreasing and reaches 1 at L. Precision and recall at radius r
    are point min(r, L) of it. `per_query` holds each query's average
    precision along the full ranking, ties broken by ascending database id.
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
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[1]
    if n > BIAS_DIAGNOSTICS_MAX_SAMPLES:
        raise ValueError(
            f"sample count {n} exceeds the {BIAS_DIAGNOSTICS_MAX_SAMPLES} guard "
            f"for materializing N x N grids"
        )
    if b.shape[1] != n or labels.shape[0] != n:
        raise ValueError("features, codes, and labels must agree on sample count")
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

    Both models must have been trained on the same kernel features and code
    length. For a like-for-like comparison the classifier entering each
    W-loss is the exact ridge solution recomputed from that method's final
    codes (with one sample per class this is exactly the closed-form
    classifier of `optimal_weights`).
    """
    if fsdh_model.class_codes is None:
        raise ValueError("model has no class codes; train it with the closed-form trainer")
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    bits = sdh_state.codes.shape[0]
    if fsdh_model.bits != bits:
        raise ValueError(f"bit mismatch: {bits} vs {fsdh_model.bits}")
    if sdh_state.projection.shape[0] != x.shape[0] or fsdh_model.projection.shape[0] != x.shape[0]:
        raise ValueError("projection rows do not match the feature dimension")
    class_count = sdh_state.weights.shape[1]

    def losses(b: np.ndarray, projection: np.ndarray, lam: float) -> tuple[float, float]:
        y = one_hot(labels, class_count)
        w = w_step(b, labels, class_count, lam)
        w_loss = float(((y - w.T @ b) ** 2).sum())
        p_loss = float(((b - projection.T @ x) ** 2).sum())
        return w_loss, p_loss

    b_sdh = sdh_state.codes.astype(np.float64)
    sdh_w, sdh_p = losses(b_sdh, sdh_state.projection, sdh_state.lam)
    b_fsdh = expand_codes(fsdh_model.class_codes, labels).astype(np.float64)
    fsdh_w, fsdh_p = losses(b_fsdh, fsdh_model.projection, fsdh_model.lam)
    return LossRow(bits=bits, sdh_w_loss=sdh_w, sdh_p_loss=sdh_p,
                   fsdh_w_loss=fsdh_w, fsdh_p_loss=fsdh_p)


def write_summary(path: str | Path, values: dict[str, object]) -> None:
    """Plain metric=value lines, one per entry."""
    with open(path, "w") as f:
        for key, value in values.items():
            f.write(f"{key}={value}\n")


def write_pr_curve_csv(path: str | Path, curve: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["threshold", "recall", "precision"])
        for t, (recall, precision) in enumerate(curve):
            writer.writerow([t, repr(recall), repr(precision)])


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Dense numeric grid as CSV rows, for heatmap rendering elsewhere."""
    np.savetxt(path, np.asarray(matrix), delimiter=",")
