"""Solvers for the per-sample binary quadratic program.

Each problem asks for b in {-1,+1}^L minimizing b^T Q b + f^T b. Three
solvers are provided: greedy cyclic coordinate descent, exhaustive search,
and depth-first branch-and-bound with an absolute-mass interval bound. The
eigenvalue relaxation bound is useless here because Q = W W^T is rank
deficient whenever L > C, so its smallest eigenvalue is zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXHAUSTIVE_MAX_BITS = 24
_ENUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class BiqpProblem:
    quadratic: np.ndarray  # (bits, bits) symmetric
    linear: np.ndarray     # (bits,)

    def __post_init__(self):
        q = np.asarray(self.quadratic, dtype=np.float64)
        f = np.asarray(self.linear, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"quadratic must be square, got shape {q.shape}")
        if f.shape != (q.shape[0],):
            raise ValueError(f"linear term shape {f.shape} does not match {q.shape[0]} bits")
        if q.size and np.abs(q - q.T).max() > 1e-12:
            raise ValueError("quadratic matrix must be symmetric within 1e-12")
        object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "linear", f)

    @property
    def bits(self) -> int:
        return self.linear.shape[0]


@dataclass(frozen=True)
class BiqpSolution:
    assignment: np.ndarray  # (bits,) int8 in {-1, +1}
    objective: float
    solver_tag: str         # dcc | exhaustive | branch_and_bound
    exact: bool
    nodes: int = 0          # branch-and-bound nodes visited (0 otherwise)


def objective_value(problem: BiqpProblem, assignment: np.ndarray) -> float:
    b = np.asarray(assignment, dtype=np.float64)
    return float(b @ problem.quadratic @ b + problem.linear @ b)


def _check_signs(b: np.ndarray, what: str) -> np.ndarray:
    b = np.asarray(b)
    if not np.isin(b, (-1, 1)).all():
        raise ValueError(f"{what} must contain only -1 and +1")
    return b.astype(np.int8)


def dcc_batch(quadratic: np.ndarray, linear: np.ndarray, init: np.ndarray,
              max_sweeps: int = 3) -> np.ndarray:
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
    b = _check_signs(init, "init").astype(np.float64).copy()
    # The update sum skips i == l, so the diagonal never contributes.
    q_off = q - np.diag(np.diag(q))
    bits = q.shape[0]
    for _ in range(max_sweeps):
        changed = False
        for l in range(bits):
            arg = 2.0 * (q_off[l] @ b) + f[l]
            new_row = np.where(arg > 0, -1.0, np.where(arg < 0, 1.0, b[l]))
            if not np.array_equal(new_row, b[l]):
                b[l] = new_row
                changed = True
        if not changed:
            break
    return b.astype(np.int8)


def solve_dcc(problem: BiqpProblem, init: np.ndarray,
              max_sweeps: int = 3) -> BiqpSolution:
    """Greedy per-bit descent from `init`; fast but only locally optimal."""
    init = _check_signs(init, "init")
    if init.shape != (problem.bits,):
        raise ValueError(f"init shape {init.shape} does not match {problem.bits} bits")
    b = dcc_batch(problem.quadratic, problem.linear[:, None], init[:, None],
                  max_sweeps=max_sweeps)[:, 0]
    return BiqpSolution(assignment=b, objective=objective_value(problem, b),
                        solver_tag="dcc", exact=False)


@lru_cache(maxsize=4)
def _sign_columns(bits: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop of the lexicographic {-1,+1}^bits enumeration
    (bit 0 most significant, -1 < +1). Cached because the code step solves
    many problems of one size; callers must not mutate the result."""
    idx = np.arange(start, stop, dtype=np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    flat = ((idx[None, :] >> shifts[:, None]) & 1).astype(np.float64)
    return 2.0 * flat - 1.0


def solve_exhaustive(problem: BiqpProblem) -> BiqpSolution:
    """Global minimum over all 2^bits assignments.

    Ties are broken by the lexicographically smallest assignment (-1 < +1).
    """
    bits = problem.bits
    if bits > EXHAUSTIVE_MAX_BITS:
        raise ValueError(
            f"exhaustive search over {bits} bits exceeds the {EXHAUSTIVE_MAX_BITS}-bit budget"
        )
    q = problem.quadratic
    f = problem.linear
    best_val = np.inf
    best_idx = -1
    total = 1 << bits
    for start in range(0, total, _ENUM_CHUNK):
        cols = _sign_columns(bits, start, min(start + _ENUM_CHUNK, total))
        vals = np.einsum("ln,ln->n", cols, q @ cols) + f @ cols
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = start + i
    assignment = _sign_columns(bits, best_idx, best_idx + 1)[:, 0].astype(np.int8)
    return BiqpSolution(assignment=assignment,
                        objective=objective_value(problem, assignment),
                        solver_tag="exhaustive", exact=True)


class _BudgetExhausted(Exception):
    pass


def solve_branch_and_bound(problem: BiqpProblem,
                           budget_nodes: int | None = None) -> BiqpSolution:
    """Depth-first search fixing bits in order, pruning by a lower bound.

    The bound for a partial assignment adds the exact value of the fixed
    prefix, -|f_l + coupling-to-fixed| for every free bit, and -|Q_lm| for
    every free-free pair (plus the constant free diagonal). It is loose but
    valid, and exact once Q has no free-free couplings, so separable
    problems solve in a single descent. The incumbent starts from a DCC
    solution; if the node budget runs out the incumbent is returned with
    exact=False.
    """
    if budget_nodes is not None and budget_nodes < 1:
        raise ValueError(f"budget_nodes must be >= 1, got {budget_nodes}")
    bits = problem.bits
    q = problem.quadratic
    f = problem.linear
    abs_q = np.abs(q - np.diag(np.diag(q)))
    diag = np.diag(q)

    incumbent = solve_dcc(problem, np.ones(bits, dtype=np.int8)).assignment
    best_val = objective_value(problem, incumbent)
    best_b = incumbent.copy()
    nodes = 0

    prefix = np.zeros(bits, dtype=np.int8)
    # coupling[l] = 2 * sum_{j fixed} Q_{l,j} b_j for free l; fixed_val is the
    # prefix's exact objective contribution; free_pair_mass = sum of |Q_lm|
    # over distinct free pairs (both orders).
    coupling = np.zeros(bits)
    free_pair_mass = float(abs_q.sum())

    def visit(depth: int, fixed_val: float, coupling: np.ndarray,
              free_pair_mass: float) -> None:
        nonlocal nodes, best_val, best_b
        if budget_nodes is not None and nodes >= budget_nodes:
            raise _BudgetExhausted
        nodes += 1
        if depth == bits:
            val = objective_value(problem, prefix)
            if val < best_val or (val == best_val and _lex_less(prefix, best_b)):
                best_val = val
                best_b = prefix.copy()
            return
        children = []
        for sign in (-1, 1):
            child_fixed = fixed_val + diag[depth] + sign * (f[depth] + coupling[depth])
            child_coupling = coupling + 2.0 * sign * q[:, depth]
            child_mass = free_pair_mass - 2.0 * abs_q[depth, depth + 1:].sum()
            child_bound = (child_fixed + diag[depth + 1:].sum()
                           - np.abs(f[depth + 1:] + child_coupling[depth + 1:]).sum()
                           - child_mass)
            children.append((child_bound, sign, child_fixed, child_coupling, child_mass))
        children.sort(key=lambda c: (c[0], c[1]))
        for child_bound, sign, child_fixed, child_coupling, child_mass in children:
            if child_bound > best_val:
                continue
            prefix[depth] = sign
            visit(depth + 1, child_fixed, child_coupling, child_mass)
        prefix[depth] = 0

    exact = True
    try:
        visit(0, 0.0, coupling, free_pair_mass)
    except _BudgetExhausted:
        exact = False
    return BiqpSolution(assignment=best_b, objective=float(best_val),
                        solver_tag="branch_and_bound", exact=exact, nodes=nodes)


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False
