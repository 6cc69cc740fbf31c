"""Solvers for the per-sample binary quadratic program.

Each problem asks for b in {-1,+1}^L minimizing b^T Q b + f^T b, with
Q = W W^T given by its (L, rank) factor W, so Q is positive semidefinite.
Two solvers are provided: greedy cyclic coordinate descent, and one exact
search, branch-and-bound pruned by the larger of an absolute-mass
interval bound, whose free-bit quadratic part is clipped at zero, which PSD
Q allows, and a box bound in the rank-dimensional space of W^T b. The
solver names "exhaustive" and "branch_and_bound" both run that exact
search, at any code length.
The eigenvalue relaxation bound is useless here because Q is rank deficient
whenever L > rank, so its smallest eigenvalue is zero.
`solve_batch` is the one entry point: it builds Q once from W and solves
many problems sharing it, as the alternating trainer's code step does.
Both solvers take the whole set at once. Branch-and-bound seeds every
incumbent with one DCC call, then expands one frontier holding the nodes
of every problem, a depth at a time, by array operations. A node stores
only its problem, its prefix b_F, the residual r = t - W_F^T b_F of the
split f = -2 W t + f_perp, and f_perp_F^T b_F - ||t||^2; both bounds read
their inputs from r. Every term must be finite.
"""
from __future__ import annotations

import numpy as np

from .codes import only_signs

SOLVERS = ("dcc", "exhaustive", "branch_and_bound")
# Most nodes one branch-and-bound block holds; one pending block per depth.
_BLOCK = 1024
# A child's two bit values, -1 first.
_SIGNS = np.array([-1.0, 1.0])
DEFAULT_SWEEPS = 3


def _checked_terms(factor, linear) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, Q = W W^T from the (bits, rank) factor W, and `linear` as float64
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
    return w, q, f


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


def _objective(quadratic: np.ndarray, linear: np.ndarray, b: np.ndarray) -> float:
    """b^T Q b + f^T b for one assignment, the one expression every leaf and
    incumbent is scored by, so equal assignments score bitwise equal."""
    b = np.asarray(b, dtype=np.float64)
    return float(b @ quadratic @ b + linear @ b)


def _branch_and_bound_set(w: np.ndarray, quadratic: np.ndarray, linear: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Branch-and-bound on every column's problem at once, fixing bits in
    order and pruning by the larger of two lower bounds. Q = W W^T must be
    built from the factor `w`, as `solve_batch` builds it.

    The interval bound adds the exact value of the fixed prefix,
    -|f_l + coupling-to-fixed| for every free bit, and the free bits'
    quadratic part bounded below by the free diagonal minus the |Q_lm| of
    every free-free pair, clipped at zero: Q_ff is a principal submatrix of
    a PSD Q. The box bound splits f = -2 W t + f_perp by least squares, so
    the objective is ||W^T b - t||^2 - ||t||^2 + f_perp^T b; with c = W_F^T
    b_F over the fixed bits F, coordinate k of W^T b lies within
    s_k = sum_free |W_lk| of c_k, which bounds the first term by
    sum_k max(0, |t_k - c_k| - s_k)^2 and the last by f_perp_F^T b_F -
    sum_free |f_perp_l|. A child is kept while its bound, less a relative
    slack far above rounding, is at most its problem's best value, so
    rounding never prunes a tied optimum.

    A node holds its problem, its prefix, r = t - c and f_perp_F^T b_F -
    ||t||^2; the interval bound's inputs follow from these because Q = W W^T
    and f = -2 W t + f_perp. The prefix's value b_F^T Q_FF b_F + f_F^T b_F
    is ||r||^2 + f_perp_F^T b_F - ||t||^2, and free bit l's linear term
    f_l + 2 sum_F Q_li b_i is f_perp_l - 2 w_l . r, w_l being row l of W.

    The frontier holds nodes of every problem and is expanded one depth at
    a time by array operations, depth first in blocks of at most `_BLOCK`
    nodes: at most one block per depth waits, and the leaves of the most
    promising block tighten the incumbents before the others expand. Every
    incumbent starts from one `dcc_batch` call from all +1; every leaf kept
    is scored by `_objective` and replaces the best one when lower, or equal
    and lexicographically smaller (-1 < +1), so each code is the smallest
    global minimizer whatever order the leaves come in. Nodes are the root
    plus every child kept. Returns the (bits, problems) int8 codes and the
    (problems,) node counts.
    """
    bits, problems = linear.shape
    incumbents = dcc_batch(quadratic, linear, np.ones(linear.shape, dtype=np.int8))
    rows = np.ascontiguousarray(linear.T)
    best_val = np.array([_objective(quadratic, rows[k], incumbents[:, k])
                         for k in range(problems)])
    best = np.ascontiguousarray(incumbents.T)
    nodes = np.ones(problems, dtype=np.int64)

    # Interval bound constant: the free-pair mass (|Q_lm| over distinct free
    # pairs, both orders) left once bit d is fixed depends on the depth only.
    diag = np.diag(quadratic)
    abs_q = np.abs(quadratic - np.diag(diag))
    free_quadratic = []
    mass = float(abs_q.sum())
    for d in range(bits):
        mass -= float(2.0 * abs_q[d, d + 1:].sum())
        free_quadratic.append(max(0.0, float(diag[d + 1:].sum()) - mass))

    # Box bound constants: t and f_perp per problem, s and the free
    # sum_free |f_perp_l| per depth.
    t = np.linalg.lstsq(w, -0.5 * linear, rcond=None)[0]
    t_sq = (t * t).sum(axis=0)
    perp = linear + 2.0 * (w @ t)
    abs_w = np.abs(w)
    reach = [abs_w[d + 1:].sum(axis=0) for d in range(bits)]
    free_perp = np.array([np.abs(perp[d + 1:]).sum(axis=0) for d in range(bits)])
    # Every term a bound or a leaf value sums is at most this large.
    slack = 1e-9 * (1.0 + t_sq + np.abs(perp).sum(axis=0)
                    + np.abs(linear).sum(axis=0) + float((abs_w.sum(axis=0) ** 2).sum()))

    # A block: its depth, then per node the problem, the prefix, r = t - c
    # and f_perp_F^T b_F - ||t||^2.
    stack = []

    def push(depth, *nodes_at):
        # The first block ends up on top.
        for start in range(((len(nodes_at[0]) - 1) // _BLOCK) * _BLOCK, -1, -_BLOCK):
            stack.append((depth, *(a[start:start + _BLOCK] for a in nodes_at)))

    push(0, np.arange(problems), np.zeros((problems, bits), np.int8), t.T, -t_sq)
    while stack:
        d, prob, prefix, residual, fixed_perp = stack.pop()
        child_residual = residual[:, None, :] - _SIGNS[:, None] * w[d]
        child_perp = fixed_perp[:, None] + _SIGNS * perp[d, prob][:, None]
        # The interval bound's prefix value and free linear terms, read from
        # each child's residual by the two identities above.
        coupling = child_residual.reshape(-1, w.shape[1]) @ w[d + 1:].T
        free_linear = (perp[d + 1:, prob].T[:, None]
                       - 2.0 * coupling.reshape(len(prob), 2, bits - d - 1))
        interval = ((child_residual * child_residual).sum(axis=2) + child_perp
                    - np.abs(free_linear).sum(axis=2) + free_quadratic[d])
        gap = np.maximum(np.abs(child_residual) - reach[d], 0.0)
        box = (gap * gap).sum(axis=2) + child_perp - free_perp[d, prob][:, None]
        margin = np.maximum(interval, box) - (best_val + slack)[prob][:, None]
        node, side = np.nonzero(margin <= 0.0)
        # The most promising children go first, so the first block dives.
        order = np.argsort(margin[node, side], kind="stable")
        node, side = node[order], side[order]
        prob = prob[node]
        prefix = prefix[node]
        prefix[:, d] = _SIGNS[side]
        nodes += np.bincount(prob, minlength=problems)
        if d + 1 == bits:
            for k, b in zip(prob.tolist(), prefix):
                val = _objective(quadratic, rows[k], b)
                if val < best_val[k] or (val == best_val[k] and b.tolist() < best[k].tolist()):
                    best_val[k] = val
                    best[k] = b
            continue
        push(d + 1, prob, prefix, child_residual[node, side], child_perp[node, side])
    return np.ascontiguousarray(best.T), nodes


def solve_batch(factor: np.ndarray, linear: np.ndarray, init: np.ndarray,
                solver: str = "dcc", *, max_sweeps: int = DEFAULT_SWEEPS) -> np.ndarray:
    """Solve one problem per column of `linear`, all sharing Q = W W^T.

    `factor` is the (bits, rank) W, so Q is positive semidefinite by
    construction; any rank is allowed. Q is built once, as `w @ w.T`.

    DCC runs every problem at once from the columns of `init`. Any other
    solver name, "exhaustive" or "branch_and_bound", runs the one
    branch-and-bound search over every problem at once after seeding every
    incumbent with one DCC call, and ignores `init`.
    Returns the (bits, problems) int8 solutions. The exact search returns
    each problem's lexicographically smallest global minimizer; DCC returns
    a local one. Terms that are non-finite or misshapen raise ValueError
    before any solver runs.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    factor, quadratic, linear = _checked_terms(factor, linear)
    if solver == "dcc":
        return dcc_batch(quadratic, linear, init, max_sweeps=max_sweeps)
    return _branch_and_bound_set(factor, quadratic, linear)[0]
