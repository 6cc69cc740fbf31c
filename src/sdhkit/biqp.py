"""Solvers for the per-sample binary quadratic program.

Each problem asks for b in {-1,+1}^L minimizing b^T Q b + f^T b. Three
solvers are provided: greedy cyclic coordinate descent, exhaustive search,
and depth-first branch-and-bound with an absolute-mass interval bound. The
eigenvalue relaxation bound is useless here because Q = W W^T is rank
deficient whenever L > C, so its smallest eigenvalue is zero. `solve_batch`
solves many problems sharing one Q with any of the three, as the
alternating trainer's code step does. DCC and exhaustive search take the
whole set at once; the enumeration computes b^T Q b once per assignment
for all the problems. Branch-and-bound takes them one at a time. Every
term must be finite.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SOLVERS = ("dcc", "exhaustive", "branch_and_bound")
EXHAUSTIVE_MAX_BITS = 24
_ENUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class BiqpProblem:
    quadratic: np.ndarray  # (bits, bits) symmetric
    linear: np.ndarray     # (bits,)

    def __post_init__(self):
        q, f = _checked_terms(self.quadratic, self.linear, problems=False)
        object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "linear", f)

    @property
    def bits(self) -> int:
        return self.linear.shape[0]


@dataclass(frozen=True)
class BiqpSolution:
    assignment: np.ndarray  # (bits,) int8 in {-1, +1}
    objective: float
    exact: bool
    nodes: int = 0          # branch-and-bound nodes visited (0 otherwise)


def _checked_terms(quadratic, linear, *, problems: bool) -> tuple[np.ndarray, np.ndarray]:
    """Both terms as float64 arrays, `linear` holding one problem or, with
    `problems`, one per column. NaN or inf would void every comparison the
    solvers make, so they are rejected."""
    q = np.asarray(quadratic, dtype=np.float64)
    f = np.asarray(linear, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"quadratic must be square, got shape {q.shape}")
    if f.ndim != 1 + problems or f.shape[0] != q.shape[0]:
        raise ValueError(f"linear term shape {f.shape} does not match {q.shape[0]} bits")
    if not (np.isfinite(q).all() and np.isfinite(f).all()):
        raise ValueError("quadratic and linear terms must be finite")
    if q.size and np.abs(q - q.T).max() > 1e-12:
        raise ValueError("quadratic matrix must be symmetric within 1e-12")
    return q, f


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
    return BiqpSolution(assignment=b, objective=objective_value(problem, b), exact=False)


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


def solve_exhaustive(problem: BiqpProblem) -> BiqpSolution:
    """Global minimum over all 2^bits assignments.

    Ties are broken by the lexicographically smallest assignment (-1 < +1).
    """
    assignment = _enumerate(problem.quadratic, problem.linear[:, None])[:, 0]
    return BiqpSolution(assignment=assignment,
                        objective=objective_value(problem, assignment), exact=True)


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

    # Per-depth constants, each built by the expression the bound would
    # otherwise evaluate at every node, so every bound rounds the same.
    diag_at = [float(x) for x in diag]
    f_at = [float(x) for x in f]
    f_free = [f[d + 1:] for d in range(bits)]
    diag_free = [float(diag[d + 1:].sum()) for d in range(bits)]
    row_mass = [float(2.0 * abs_q[d, d + 1:].sum()) for d in range(bits)]
    coupling_step = [{sign: 2.0 * sign * q[:, d] for sign in (-1, 1)} for d in range(bits)]

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
        child_mass = free_pair_mass - row_mass[depth]
        base = fixed_val + diag_at[depth]
        pull = f_at[depth] + float(coupling[depth])
        children = []
        for sign in (-1, 1):
            child_fixed = base + sign * pull
            child_coupling = coupling + coupling_step[depth][sign]
            child_bound = (child_fixed + diag_free[depth]
                           - float(np.abs(f_free[depth] + child_coupling[depth + 1:]).sum())
                           - child_mass)
            children.append((child_bound, sign, child_fixed, child_coupling))
        # The lower bound goes first; -1 wins a tie.
        if children[1][0] < children[0][0]:
            children.reverse()
        for child_bound, sign, child_fixed, child_coupling in children:
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
    return BiqpSolution(assignment=best_b, objective=float(best_val), exact=exact,
                        nodes=nodes)


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def solve_batch(quadratic: np.ndarray, linear: np.ndarray, init: np.ndarray,
                solver: str = "dcc", *, max_sweeps: int = 3,
                budget_nodes: int | None = None) -> tuple[np.ndarray, bool]:
    """Solve one problem per column of `linear`, all sharing `quadratic`.

    DCC runs every problem at once from the columns of `init`. Exhaustive
    search enumerates the assignments once for the whole set, and
    branch-and-bound takes the problems one at a time; both ignore `init`.
    Returns the (bits, problems) int8 solutions and whether every one is
    proven optimal, which DCC never claims. Terms that are non-finite,
    misshapen or asymmetric raise ValueError before any solver runs.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    quadratic, linear = _checked_terms(quadratic, linear, problems=True)
    if solver == "dcc":
        return dcc_batch(quadratic, linear, init, max_sweeps=max_sweeps), False
    if solver == "exhaustive":
        return _enumerate(quadratic, linear), True
    codes = np.empty(linear.shape, dtype=np.int8)
    exact = True
    for k in range(codes.shape[1]):
        sol = solve_branch_and_bound(BiqpProblem(quadratic=quadratic, linear=linear[:, k]),
                                     budget_nodes=budget_nodes)
        codes[:, k] = sol.assignment
        exact = exact and sol.exact
    return codes, exact
