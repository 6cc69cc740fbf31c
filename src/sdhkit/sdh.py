"""Alternating-optimization trainer for supervised discrete hashing.

Minimizes ||Y - W^T B||^2 + lambda*||W||^2 + nu*||B - P^T X||^2 over the
binary codes B, classifier W, and projection P by cycling through three
conditional minimizations: a least-squares projection step, a ridge
classifier step, and a per-sample binary quadratic program. The code step is
pluggable between greedy coordinate descent and one exact search,
branch-and-bound, which the solver names "exhaustive" and
"branch_and_bound" both run at any code length.

Every step reads only the codes, so an iteration whose code step flips no
bit is a fixed point that each later iteration would replay bit for bit.
The trainer stops there: `max_iters` bounds the work, and a converged run
repeats its last objective breakdown to fill the trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import biqp
from .dataset import class_labels

DEFAULT_LAMBDA = 1.0
DEFAULT_NU = 1e-5
DEFAULT_MAX_ITERS = 5


@dataclass
class SdhState:
    """Mutable optimizer state: codes, classifier, projection, weights, and
    the number of code bits each iteration's code step flipped."""

    codes: np.ndarray       # (bits, samples) int8 in {-1, +1}
    weights: np.ndarray     # (bits, classes)
    projection: np.ndarray  # (features, bits)
    lam: float
    nu: float
    bits_flipped: list[int] = field(default_factory=list)  # one per iteration


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


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """(class_count, N) one-hot matrix with column i selecting labels[i]."""
    labels = class_labels(labels, "labels", class_count)
    y = np.zeros((class_count, labels.shape[0]))
    y[labels, np.arange(labels.shape[0])] = 1.0
    return y


class ProjectionSolver:
    """Ridge least-squares solutions against one matrix X: the projection
    step's (M, N) kernel features, or the classifier step's (L, N) codes.

    Builds X X^T + jitter*I and factors it once; every `solve` then costs a
    single (M, N) x (N, k) product and two triangular solves. The factor does
    not depend on the targets, so the alternating trainer reuses it across
    iterations and the closed-form trainer solves against its C class
    indicators instead of the L-bit codes. Kernel features are near-collinear,
    so `jitter=None` adds a small diagonal, 1e-8 * trace(X X^T) / M, read from
    the Gram's trace; the classifier step passes lambda as the jitter. A
    singular system raises ValueError at construction.
    """

    def __init__(self, features: np.ndarray, jitter: float | None = None):
        x = np.asarray(features, dtype=np.float64)
        lhs = x @ x.T
        if jitter is None:
            jitter = 1e-8 * float(np.trace(lhs)) / x.shape[0]
        if jitter:
            lhs.flat[::x.shape[0] + 1] += jitter
        # lhs is exactly symmetric, so its transpose is the same matrix, in the
        # Fortran order LAPACK factors in place without a copy.
        try:
            factor = scipy.linalg.cho_factor(lhs.T, overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"X X^T + jitter*I is singular "
                             f"(not positive definite): {exc}") from None
        # The factorization can slip past exactly singular matrices when rounding
        # leaves a tiny positive pivot; the squared pivot ratio estimates rcond.
        pivots = np.abs(np.diag(factor[0]))
        if (pivots.min() / pivots.max()) ** 2 < 1e-14:
            raise ValueError("X X^T + jitter*I is numerically singular")
        self._features = x
        self._factor = factor

    def solve(self, targets: np.ndarray) -> np.ndarray:
        """(M, k) projection P solving (X X^T + jitter*I) P = X T^T for a
        (k, N) target matrix T."""
        t = np.asarray(targets, dtype=np.float64)
        # T X^T, transposed, is X T^T with the long N axis contiguous in both
        # operands, a faster BLAS layout than X @ T^T.
        return scipy.linalg.cho_solve(self._factor, (t @ self._features.T).T)


def w_step(codes: np.ndarray, labels: np.ndarray, class_count: int,
           lam: float) -> np.ndarray:
    """Exact ridge classifier: solve (B B^T + lam*I) W = B Y^T."""
    labels = class_labels(labels, "labels", count=np.shape(codes)[1])
    return ProjectionSolver(codes, jitter=lam).solve(one_hot(labels, class_count))


def b_step(state: SdhState, labels: np.ndarray, solver: str = "dcc", *,
           projected: np.ndarray, sweeps: int = biqp.DEFAULT_SWEEPS) -> np.ndarray:
    """Update the binary codes with W and P fixed, given P^T X (`projected`).

    Sample i's problem has Q = W W^T and linear term f_i =
    -2*(W y_i + nu * P^T x_i), and all of them go to one `biqp.solve_batch`
    call, which takes W and builds Q itself. With nu = 0 the linear term
    depends on the label only, so one problem per class present is solved,
    started from the code of its first sample, and broadcast to every
    sample of that class. Returns the (bits, samples) int8 codes.
    """
    w = state.weights
    labels = class_labels(labels, "labels", w.shape[1], state.codes.shape[1])
    if state.nu == 0.0:
        classes, first, problem_of = np.unique(labels, return_index=True,
                                               return_inverse=True)
        linear = -2.0 * w[:, classes]
        init = state.codes[:, first]
    else:
        problem_of = np.arange(labels.shape[0])
        linear = -2.0 * (w[:, labels] + state.nu * projected)
        init = state.codes
    codes = biqp.solve_batch(w, linear, init, solver, max_sweeps=sweeps)
    # np.take returns C order; a Fortran-ordered code matrix would change the
    # rounding of every later sum over it.
    return np.take(codes, problem_of, axis=1)


def objective(state: SdhState, labels: np.ndarray, *,
              projected: np.ndarray) -> ObjectiveBreakdown:
    """Evaluate every term of the training objective at the current state,
    given P^T X (`projected`)."""
    b = state.codes.astype(np.float64)
    y = one_hot(class_labels(labels, "labels", count=b.shape[1]), state.weights.shape[1])
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


def train_sdh(features: np.ndarray, labels: np.ndarray, class_count: int,
              bits: int, lam: float = DEFAULT_LAMBDA, nu: float = DEFAULT_NU,
              max_iters: int = DEFAULT_MAX_ITERS, seed: int = 0,
              solver: str = "dcc", *,
              sweeps: int = biqp.DEFAULT_SWEEPS) -> tuple[SdhState, list[ObjectiveBreakdown]]:
    """Run the alternating optimization from a random code initialization.

    Each iteration runs the projection step, the classifier step, and the
    code step in that order, then records an objective breakdown and the
    number of code bits it flipped. The projection system depends on the
    features only, so it is factored once before the first iteration. The
    run is deterministic for a fixed seed, and different seeds generally
    reach different local minima.

    `max_iters` bounds the work. An iteration that flips no bit is a fixed
    point, so the run stops after it: the trajectory still holds `max_iters`
    breakdowns, the remaining ones copies of that iteration's, and the
    returned state, with 0 flips recorded per remaining iteration, is the one
    every later iteration would return.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if lam < 0 or nu < 0:
        raise ValueError("lambda and nu must be non-negative")
    if solver not in biqp.SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {biqp.SOLVERS}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[1]
    labels = class_labels(labels, "labels", class_count, n)

    rng = np.random.default_rng(seed)
    codes = (2 * rng.integers(0, 2, size=(bits, n)) - 1).astype(np.int8)
    state = SdhState(
        codes=codes,
        weights=np.zeros((bits, class_count)),
        projection=np.zeros((x.shape[0], bits)),
        lam=float(lam),
        nu=float(nu),
    )
    projection_solver = ProjectionSolver(x)
    trajectory: list[ObjectiveBreakdown] = []
    for _ in range(max_iters):
        state.projection = projection_solver.solve(state.codes)
        state.weights = w_step(state.codes, labels, class_count, lam)
        # One P^T X per iteration feeds both the code step and the objective.
        projected = state.projection.T @ x
        previous = state.codes
        state.codes = b_step(state, labels, solver, projected=projected, sweeps=sweeps)
        state.bits_flipped.append(int(np.count_nonzero(state.codes != previous)))
        trajectory.append(objective(state, labels, projected=projected))
        if not state.bits_flipped[-1]:
            break
    skipped = max_iters - len(trajectory)
    state.bits_flipped += [0] * skipped
    trajectory += trajectory[-1:] * skipped
    return state, trajectory

