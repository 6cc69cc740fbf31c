"""Alternating-optimization trainer for supervised discrete hashing.

Minimizes ||Y - W^T B||^2 + lambda*||W||^2 + nu*||B - P^T X||^2 over the
binary codes B, classifier W, and projection P by cycling through three
conditional minimizations: a least-squares projection step, a ridge
classifier step, and a per-sample binary quadratic program. The code step is
pluggable between greedy coordinate descent, exhaustive search, and
branch-and-bound.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from . import biqp

DEFAULT_LAMBDA = 1.0
DEFAULT_NU = 1e-5
DEFAULT_MAX_ITERS = 5
DEFAULT_SWEEPS = 3


@dataclass
class SdhState:
    """Mutable optimizer state: codes, classifier, projection, and weights."""

    codes: np.ndarray       # (bits, samples) int8 in {-1, +1}
    weights: np.ndarray     # (bits, classes)
    projection: np.ndarray  # (features, bits)
    lam: float
    nu: float
    iteration: int = 0


@dataclass(frozen=True)
class ObjectiveBreakdown:
    classification_term: float  # ||Y - W^T B||^2
    regularizer: float          # lambda * ||W||^2
    bias_term: float            # nu * ||B - P^T X||^2
    total: float
    p_loss: float               # unweighted ||B - P^T X||^2

    def __post_init__(self):
        parts = (self.classification_term, self.regularizer, self.bias_term)
        if any(p < 0 for p in parts):
            raise ValueError("objective terms must be non-negative")
        if abs(self.total - sum(parts)) > 1e-9:
            raise ValueError("total must equal the sum of the three terms")


@dataclass(frozen=True)
class MagnitudeReport:
    """Relative size of the classification and bias contributions to the
    code-step linear term; a large ratio justifies dropping the bias."""

    classification_magnitude: float  # ||W Y||^2
    bias_magnitude: float            # nu * ||P^T X||^2


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """(class_count, N) one-hot matrix with column i selecting labels[i]."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(f"label out of range [0, {class_count})")
    y = np.zeros((class_count, labels.shape[0]))
    y[labels, np.arange(labels.shape[0])] = 1.0
    return y


def _cho_factor(a: np.ndarray, context: str) -> tuple[np.ndarray, bool]:
    """Cholesky factor of a symmetric positive definite system matrix.

    Raises ValueError naming `context` when the matrix is singular or so
    ill-conditioned that the factor cannot be trusted.
    """
    try:
        factor = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"{context}: system matrix is singular "
                         f"(not positive definite): {exc}") from None
    # The factorization can slip past exactly singular matrices when rounding
    # leaves a tiny positive pivot; the squared pivot ratio estimates rcond.
    pivots = np.abs(np.diag(factor[0]))
    if (pivots.min() / pivots.max()) ** 2 < 1e-14:
        raise ValueError(f"{context}: system matrix is numerically singular")
    return factor


def w_step(codes: np.ndarray, labels: np.ndarray, class_count: int,
           lam: float) -> np.ndarray:
    """Exact ridge classifier: solve (B B^T + lam*I) W = B Y^T."""
    b = np.asarray(codes, dtype=np.float64)
    y = one_hot(labels, class_count)
    lhs = b @ b.T + lam * np.eye(b.shape[0])
    return scipy.linalg.cho_solve(_cho_factor(lhs, "classifier step"), b @ y.T)


def default_jitter(features: np.ndarray) -> float:
    """1e-8 * trace(X X^T) / rows; kernel features are near-collinear, so the
    projection solve gets a small diagonal by default."""
    x = np.asarray(features)
    return 1e-8 * float((x * x).sum()) / x.shape[0]


class ProjectionSolver:
    """Least-squares projections onto one feature matrix X.

    Builds X X^T + jitter*I and factors it once; every `solve` then costs a
    single (M, N) x (N, k) product and two triangular solves. The factor does
    not depend on the targets, so the alternating trainer reuses it across
    iterations and the closed-form trainer solves against its C class
    indicators instead of the L-bit codes. `jitter=None` uses
    `default_jitter(X)`; a singular system raises ValueError at construction.
    """

    def __init__(self, features: np.ndarray, jitter: float | None = None):
        x = np.asarray(features, dtype=np.float64)
        if jitter is None:
            jitter = default_jitter(x)
        lhs = x @ x.T
        if jitter:
            lhs = lhs + jitter * np.eye(x.shape[0])
        self._features = x
        self._factor = _cho_factor(lhs, "projection step")

    def solve(self, targets: np.ndarray) -> np.ndarray:
        """(M, k) projection P solving (X X^T + jitter*I) P = X T^T for a
        (k, N) target matrix T."""
        t = np.asarray(targets, dtype=np.float64)
        return scipy.linalg.cho_solve(self._factor, self._features @ t.T)


def b_step(state: SdhState, labels: np.ndarray, solver: str = "dcc", *,
           projected: np.ndarray, sweeps: int = DEFAULT_SWEEPS,
           budget_nodes: int | None = None) -> tuple[np.ndarray, bool]:
    """Update the binary codes with W and P fixed, given P^T X (`projected`).

    Sample i's problem has Q = W W^T and linear term f_i =
    -2*(W y_i + nu * P^T x_i), and all of them go to one `biqp.solve_batch`
    call. With nu = 0 the linear term depends on the label only, so one
    problem per class present is solved, started from the code of its first
    sample, and broadcast to every sample of that class. Returns
    (codes, exact).
    """
    labels = np.asarray(labels, dtype=np.int64)
    w = state.weights
    if state.nu == 0.0:
        classes, first, problem_of = np.unique(labels, return_index=True,
                                               return_inverse=True)
        linear = -2.0 * w[:, classes]
        init = state.codes[:, first]
    else:
        problem_of = np.arange(labels.shape[0])
        linear = -2.0 * (w @ one_hot(labels, w.shape[1]) + state.nu * projected)
        init = state.codes
    codes, exact = biqp.solve_batch(w @ w.T, linear, init, solver,
                                    max_sweeps=sweeps, budget_nodes=budget_nodes)
    # np.take returns C order; a Fortran-ordered code matrix would change the
    # rounding of every later sum over it.
    return np.take(codes, problem_of, axis=1), exact


def objective(state: SdhState, labels: np.ndarray, *,
              projected: np.ndarray) -> ObjectiveBreakdown:
    """Evaluate every term of the training objective at the current state,
    given P^T X (`projected`)."""
    b = state.codes.astype(np.float64)
    y = one_hot(labels, state.weights.shape[1])
    classification = float(((y - state.weights.T @ b) ** 2).sum())
    regularizer = state.lam * float((state.weights ** 2).sum())
    p_loss = float(((b - projected) ** 2).sum())
    bias = state.nu * p_loss
    return ObjectiveBreakdown(
        classification_term=classification,
        regularizer=regularizer,
        bias_term=bias,
        total=classification + regularizer + bias,
        p_loss=p_loss,
    )


def magnitude_report(state: SdhState, features: np.ndarray,
                     labels: np.ndarray) -> MagnitudeReport:
    y = one_hot(labels, state.weights.shape[1])
    wy = state.weights @ y
    px = state.projection.T @ np.asarray(features, dtype=np.float64)
    return MagnitudeReport(
        classification_magnitude=float((wy ** 2).sum()),
        bias_magnitude=state.nu * float((px ** 2).sum()),
    )


def train_sdh(features: np.ndarray, labels: np.ndarray, class_count: int,
              bits: int, lam: float = DEFAULT_LAMBDA, nu: float = DEFAULT_NU,
              max_iters: int = DEFAULT_MAX_ITERS, seed: int = 0,
              solver: str = "dcc", *, sweeps: int = DEFAULT_SWEEPS,
              jitter: float | None = None,
              budget_nodes: int | None = None) -> tuple[SdhState, list[ObjectiveBreakdown]]:
    """Run the alternating optimization from a random code initialization.

    Each iteration runs the projection step, the classifier step, and the
    code step in that order, then records an objective breakdown. The
    projection system depends on the features only, so it is factored once
    before the first iteration. The run is deterministic for a fixed seed,
    and different seeds generally reach different local minima.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if lam < 0 or nu < 0:
        raise ValueError("lambda and nu must be non-negative")
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[1]
    if labels.shape[0] != n:
        raise ValueError(f"label count {labels.shape[0]} does not match {n} samples")

    rng = np.random.default_rng(seed)
    codes = (2 * rng.integers(0, 2, size=(bits, n)) - 1).astype(np.int8)
    state = SdhState(
        codes=codes,
        weights=np.zeros((bits, class_count)),
        projection=np.zeros((x.shape[0], bits)),
        lam=float(lam),
        nu=float(nu),
    )
    projection_solver = ProjectionSolver(x, jitter)
    trajectory: list[ObjectiveBreakdown] = []
    for it in range(max_iters):
        state.projection = projection_solver.solve(state.codes)
        state.weights = w_step(state.codes, labels, class_count, lam)
        # One P^T X per iteration feeds both the code step and the objective.
        projected = state.projection.T @ x
        state.codes, _ = b_step(state, labels, solver, projected=projected,
                                sweeps=sweeps, budget_nodes=budget_nodes)
        state.iteration = it + 1
        trajectory.append(objective(state, labels, projected=projected))
    return state, trajectory


def write_trajectory_csv(path: str | Path,
                         trajectory: list[ObjectiveBreakdown]) -> None:
    """One row per iteration: iteration, classification_term, regularizer,
    bias_term, total."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "classification_term", "regularizer",
                         "bias_term", "total"])
        for i, step in enumerate(trajectory, start=1):
            writer.writerow([i, repr(step.classification_term), repr(step.regularizer),
                             repr(step.bias_term), repr(step.total)])
