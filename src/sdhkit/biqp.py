"""Solvers for the per-sample binary quadratic program.

Each problem asks for b in {-1,+1}^L minimizing b^T Q b + f^T b, with
Q = W W^T given by its (L, rank) factor W, so Q is positive semidefinite.
Three solvers are provided: greedy cyclic coordinate descent, exhaustive
search, and depth-first branch-and-bound with an absolute-mass interval
bound whose free-bit quadratic part is clipped at zero, which PSD Q allows.
The eigenvalue relaxation bound is useless here because Q is rank deficient
whenever L > rank, so its smallest eigenvalue is zero.
`solve_batch` is the one entry point: it builds Q once from W and solves
many problems sharing it with any of the three, as the alternating
trainer's code step does. DCC and exhaustive search take the whole set at
once; the enumeration computes b^T Q b once per assignment for all the
problems. Branch-and-bound seeds every incumbent with one DCC call, builds
its Q-only constants once, then searches the problems one at a time. Every
term must be finite.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import only_signs

SOLVERS = ("dcc", "exhaustive", "branch_and_bound")
EXHAUSTIVE_MAX_BITS = 24
_ENUM_CHUNK = 1 << 16
DEFAULT_SWEEPS = 3


def _checked_terms(factor, linear) -> tuple[np.ndarray, np.ndarray]:
    """Q = W W^T from the (bits, rank) factor W and `linear` as float64
    arrays, `linear` holding one problem per column. NaN or inf would void
    every comparison the solvers make, so they are rejected."""
    w = np.asarray(factor, dtype=np.float64)
    f = np.asarray(linear, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"factor must be 2-D (bits, rank), got shape {w.shape}")
    if f.ndim != 2 or f.shape[0] != w.shape[0]:
        raise ValueError(f"linear term shape {f.shape} does not match ({w.shape[0]}, problems)")
    if not (np.isfinite(w).all() and np.isfinite(f).all()):
        raise ValueError("factor and linear terms must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        q = w @ w.T
    if not np.isfinite(q).all():
        raise ValueError("W W^T must be finite; the factor's entries are too large")
    return q, f


def dcc_batch(quadratic: np.ndarray, linear: np.ndarray, init: np.ndarray,
              max_sweeps: int = DEFAULT_SWEEPS) -> np.ndarray:
    """Cyclic coordinate descent on many problems sharing one Q.

    `linear` and `init` hold one column per problem. Bit l is set to
    -sign(2 * sum_{i != l} Q_{i,l} b_i + f_l); a zero argument keeps the
    current bit, which preserves monotonicity of the objective. Stops early
    once a full sweep changes no bit anywhere.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    q = np.asarray(quadratic, dtype=np.float64)
    f = np.asarray(linear, dtype=np.float64)
    init = np.asarray(init)
    if not only_signs(init):
        raise ValueError("init must contain only -1 and +1")
    b = init.astype(np.float64)
    if b.shape != f.shape:
        raise ValueError(f"init shape {b.shape} does not match linear term shape {f.shape}")
    # The update sum skips i == l, so the diagonal never contributes.
    q_off = q - np.diag(np.diag(q))
    bits = q.shape[0]
    for _ in range(max_sweeps):
        changed = False
        for l in range(bits):
            arg = 2.0 * (q_off[l] @ b) + f[l]
            # b is +-1, so the product is exact: positive exactly where the
            # bit points along its argument and must flip.
            flips = arg * b[l] > 0
            if flips.any():
                np.negative(b[l], out=b[l], where=flips)
                changed = True
        if not changed:
            break
    return b.astype(np.int8)


def _signs(bits: int, idx: np.ndarray) -> np.ndarray:
    """Assignment number idx of the lexicographic {-1,+1}^bits enumeration
    (bit 0 most significant, -1 < +1), one column per entry of idx."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    flat = ((idx[None, :] >> shifts[:, None]) & 1).astype(np.float64)
    return 2.0 * flat - 1.0


@lru_cache(maxsize=4)
def _sign_columns(bits: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop of the enumeration. Cached because the code step
    solves many problem sets of one size; callers must not mutate it."""
    return _signs(bits, np.arange(start, stop, dtype=np.uint64))


def _enumerate(quadratic: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Global minimizer of every column's problem over all 2^bits assignments.

    All problems share Q, so b^T Q b is computed once per chunk of
    assignments; each problem adds its own f^T b and keeps the first
    minimum, which makes ties go to the lexicographically smallest
    assignment. Returns the (bits, problems) int8 minimizers.
    """
    bits, problems = linear.shape
    if bits > EXHAUSTIVE_MAX_BITS:
        raise ValueError(
            f"exhaustive search over {bits} bits exceeds the {EXHAUSTIVE_MAX_BITS}-bit budget"
        )
    best_val = [np.inf] * problems
    best_idx = np.zeros(problems, dtype=np.uint64)
    total = 1 << bits
    for start in range(0, total, _ENUM_CHUNK):
        cols = _sign_columns(bits, start, min(start + _ENUM_CHUNK, total))
        shared = np.einsum("ln,ln->n", cols, quadratic @ cols)
        for k in range(problems):
            vals = shared + linear[:, k] @ cols
            i = int(np.argmin(vals))
            if vals[i] < best_val[k]:
                best_val[k] = float(vals[i])
                best_idx[k] = start + i
    return _signs(bits, best_idx).astype(np.int8)


def _branch_and_bound_set(quadratic: np.ndarray, linear: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first search on every column's problem, fixing bits in order
    and pruning by a lower bound. Q must be positive semidefinite, as
    `solve_batch` makes it by building Q = W W^T from the factor.

    The bound for a partial assignment adds the exact value of the fixed
    prefix, -|f_l + coupling-to-fixed| for every free bit, and the free
    bits' quadratic part b_f^T Q_ff b_f bounded below by the free diagonal
    minus the |Q_lm| of every free-free pair, clipped at zero: Q_ff is a
    principal submatrix of a PSD Q, so the quadratic part is never negative.
    The bound is exact once Q has no free-free couplings, so separable
    problems solve in a single descent. Everything but f depends on Q alone
    and is built once for the set. Every incumbent starts from one
    `dcc_batch` call from all +1, and every search runs to completion, so
    each code is a global minimizer. Returns the (bits, problems) int8
    codes and the (problems,) node counts.
    """
    incumbents = dcc_batch(quadratic, linear, np.ones(linear.shape, dtype=np.int8))
    bits = quadratic.shape[0]
    diag = np.diag(quadratic)
    abs_q = np.abs(quadratic - np.diag(diag))
    # Per-depth constants, each built by the expression the bound would
    # otherwise evaluate at every node, so every bound rounds the same. The
    # free-pair mass (|Q_lm| over distinct free pairs, both orders) left once
    # bit d is fixed depends on the depth only.
    diag_at = [float(x) for x in diag]
    free_quadratic = []
    mass = float(abs_q.sum())
    for d in range(bits):
        mass -= float(2.0 * abs_q[d, d + 1:].sum())
        free_quadratic.append(max(0.0, float(diag[d + 1:].sum()) - mass))
    # Row 0 fixes bit d to -1, row 1 to +1.
    coupling_step = [np.array([[-2.0], [2.0]]) * quadratic[:, d] for d in range(bits)]
    shared = (quadratic, diag_at, free_quadratic, coupling_step)

    codes = np.empty(linear.shape, dtype=np.int8)
    nodes = np.empty(linear.shape[1], dtype=np.int64)
    for k in range(linear.shape[1]):
        codes[:, k], nodes[k] = _branch_and_bound(
            shared, np.ascontiguousarray(linear[:, k]), incumbents[:, k])
    return codes, nodes


def _branch_and_bound(shared: tuple, f: np.ndarray,
                      incumbent: np.ndarray) -> tuple[np.ndarray, int]:
    """One problem's search over the set's `shared` constants; returns
    (assignment, nodes)."""
    q, diag_at, free_quadratic, coupling_step = shared

    def objective(b: np.ndarray) -> float:
        b = np.asarray(b, dtype=np.float64)
        return float(b @ q @ b + f @ b)

    bits = f.shape[0]
    best_val = objective(incumbent)
    best_b = incumbent.copy()
    nodes = 0

    f_at = [float(x) for x in f]
    f_free = [f[d + 1:] for d in range(bits)]
    prefix = np.zeros(bits, dtype=np.int8)

    # coupling[l] = 2 * sum_{j fixed} Q_{l,j} b_j for free l; fixed_val is the
    # prefix's exact objective contribution.
    def visit(depth: int, fixed_val: float, coupling: np.ndarray) -> None:
        nonlocal nodes, best_val, best_b
        nodes += 1
        if depth == bits:
            val = objective(prefix)
            # Ties go to the lexicographically smallest assignment (-1 < +1).
            if val < best_val or (val == best_val and prefix.tolist() < best_b.tolist()):
                best_val = val
                best_b = prefix.copy()
            return
        base = fixed_val + diag_at[depth]
        pull = f_at[depth] + float(coupling[depth])
        child_coupling = coupling + coupling_step[depth]
        free_linear = np.abs(f_free[depth] + child_coupling[:, depth + 1:]).sum(axis=1).tolist()
        children = []
        for row, sign in enumerate((-1, 1)):
            child_fixed = base + sign * pull
            child_bound = child_fixed - free_linear[row] + free_quadratic[depth]
            children.append((child_bound, sign, child_fixed, child_coupling[row]))
        # The lower bound goes first; -1 wins a tie.
        if children[1][0] < children[0][0]:
            children.reverse()
        for child_bound, sign, child_fixed, child_coupling in children:
            if child_bound > best_val:
                continue
            prefix[depth] = sign
            visit(depth + 1, child_fixed, child_coupling)
        prefix[depth] = 0

    visit(0, 0.0, np.zeros(bits))
    return best_b, nodes


def solve_batch(factor: np.ndarray, linear: np.ndarray, init: np.ndarray,
                solver: str = "dcc", *, max_sweeps: int = DEFAULT_SWEEPS) -> np.ndarray:
    """Solve one problem per column of `linear`, all sharing Q = W W^T.

    `factor` is the (bits, rank) W, so Q is positive semidefinite by
    construction; any rank is allowed. Q is built once, as `w @ w.T`.

    DCC runs every problem at once from the columns of `init`. Exhaustive
    search enumerates the assignments once for the whole set, and
    branch-and-bound takes the problems one at a time after seeding every
    incumbent with one DCC call; both ignore `init`.
    Returns the (bits, problems) int8 solutions. Exhaustive search and
    branch-and-bound return global minimizers; DCC returns a local one.
    Terms that are non-finite or misshapen raise ValueError before any
    solver runs.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    quadratic, linear = _checked_terms(factor, linear)
    if solver == "dcc":
        return dcc_batch(quadratic, linear, init, max_sweeps=max_sweeps)
    if solver == "exhaustive":
        return _enumerate(quadratic, linear)
    return _branch_and_bound_set(quadratic, linear)[0]
