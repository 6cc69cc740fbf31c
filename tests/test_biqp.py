import numpy as np
import pytest

from sdhkit import biqp, sdh

import oracles


def random_psd_problem(rng, bits, rank=None):
    g = rng.standard_normal((bits, rank or max(1, bits // 2)))
    return biqp.BiqpProblem(quadratic=g @ g.T, linear=rng.standard_normal(bits))


class TestProblemValidation:
    def test_rejects_asymmetric(self):
        q = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            biqp.BiqpProblem(quadratic=q, linear=np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            biqp.BiqpProblem(quadratic=np.zeros((2, 2)), linear=np.zeros(3))

    @pytest.mark.parametrize("term", ["quadratic", "linear"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, term, value):
        # A NaN reads as symmetric and voids every comparison a solver makes.
        terms = {"quadratic": np.eye(3), "linear": np.ones(3)}
        terms[term] = terms[term].copy()
        terms[term][(1, 1) if term == "quadratic" else 1] = value
        with pytest.raises(ValueError, match="finite"):
            biqp.BiqpProblem(**terms)


class TestDcc:
    def test_zero_quadratic_reduces_to_sign_rule(self):
        problem = biqp.BiqpProblem(quadratic=np.zeros((2, 2)),
                                   linear=np.array([3.0, -2.0]))
        sol = biqp.solve_dcc(problem, np.ones(2, dtype=np.int8))
        assert np.array_equal(sol.assignment, [-1, 1])
        assert sol.objective == -5.0
        assert not sol.exact

    def test_diagonal_is_irrelevant(self):
        f = np.array([3.0, -2.0])
        plain = biqp.solve_dcc(biqp.BiqpProblem(quadratic=np.zeros((2, 2)), linear=f),
                               np.ones(2, dtype=np.int8))
        diag = biqp.solve_dcc(biqp.BiqpProblem(quadratic=np.eye(2), linear=f),
                              np.ones(2, dtype=np.int8))
        assert np.array_equal(plain.assignment, diag.assignment)

    def test_matches_step_by_step_simulator(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            problem = random_psd_problem(rng, 4)
            init = np.ones(4, dtype=np.int8)
            for sweeps in (1, 2, 3):
                fast = biqp.solve_dcc(problem, init, max_sweeps=sweeps)
                slow = oracles.dcc_simulator(problem.quadratic, problem.linear,
                                             init, sweeps)
                assert np.array_equal(fast.assignment, slow), trial

    def test_objective_non_increasing_in_sweeps(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            problem = random_psd_problem(rng, 6)
            init = (2 * rng.integers(0, 2, 6) - 1).astype(np.int8)
            start = biqp.objective_value(problem, init)
            objectives = [biqp.solve_dcc(problem, init, max_sweeps=s).objective
                          for s in (1, 2, 3, 4)]
            assert objectives[0] <= start + 1e-12
            assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(2)
        problem = random_psd_problem(rng, 5)
        linears = rng.standard_normal((5, 8))
        inits = (2 * rng.integers(0, 2, (5, 8)) - 1).astype(np.int8)
        batch = biqp.dcc_batch(problem.quadratic, linears, inits)
        for i in range(8):
            single = biqp.solve_dcc(
                biqp.BiqpProblem(quadratic=problem.quadratic, linear=linears[:, i]),
                inits[:, i])
            assert np.array_equal(batch[:, i], single.assignment)


class TestExhaustive:
    def test_separable(self):
        problem = biqp.BiqpProblem(quadratic=np.zeros((3, 3)), linear=np.ones(3))
        sol = biqp.solve_exhaustive(problem)
        assert np.array_equal(sol.assignment, [-1, -1, -1])
        assert sol.objective == -3.0
        assert sol.exact

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            problem = random_psd_problem(rng, 3)
            sol = biqp.solve_exhaustive(problem)
            expected_b, expected_val = oracles.biqp_brute_force(
                problem.quadratic, problem.linear)
            assert sol.objective == pytest.approx(expected_val, abs=1e-12)
            assert np.array_equal(sol.assignment, expected_b)

    def test_psd_zero_linear_matches_oracle(self):
        rng = np.random.default_rng(4)
        problem = biqp.BiqpProblem(
            quadratic=random_psd_problem(rng, 3).quadratic, linear=np.zeros(3))
        sol = biqp.solve_exhaustive(problem)
        _, expected_val = oracles.biqp_brute_force(problem.quadratic, problem.linear)
        assert sol.objective == pytest.approx(expected_val, abs=1e-12)

    def test_negating_f_negates_assignment(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        pos = biqp.solve_exhaustive(biqp.BiqpProblem(quadratic=np.zeros((6, 6)), linear=f))
        neg = biqp.solve_exhaustive(biqp.BiqpProblem(quadratic=np.zeros((6, 6)), linear=-f))
        assert np.array_equal(pos.assignment, -neg.assignment)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            biqp.solve_exhaustive(biqp.BiqpProblem(
                quadratic=np.zeros((25, 25)), linear=np.zeros(25)))

    def test_tie_break_is_lexicographic(self):
        # Every assignment has objective 0: the all-minus vector must win.
        problem = biqp.BiqpProblem(quadratic=np.zeros((4, 4)), linear=np.zeros(4))
        sol = biqp.solve_exhaustive(problem)
        assert np.array_equal(sol.assignment, [-1, -1, -1, -1])


def fig1_like_problems():
    """The fig1 study's first code step: random codes, one sample per
    class, W from the classifier step and f = -2 w_c (nu = 0). Q = W W^T is
    rank deficient at 12 and 16 bits with 10 classes (8 bits use 5)."""
    rng = np.random.default_rng(0)
    for bits, classes in ((8, 5), (12, 10), (16, 10)):
        b = (2 * rng.integers(0, 2, (bits, classes)) - 1).astype(np.int8)
        w = sdh.w_step(b, np.arange(classes), classes, 1.0)
        for c in range(classes):
            yield biqp.BiqpProblem(quadratic=w @ w.T, linear=-2.0 * w[:, c])


# (bits, nodes, assignment as its enumeration index) for each of
# fig1_like_problems(). Reassociating the bound's sum moves node counts here.
FIG1_LIKE_BB = [
    (8, 17, 0x00b7), (8, 30, 0x00bc), (8, 21, 0x00b8), (8, 11, 0x0036),
    (8, 12, 0x0074), (12, 84, 0x069e), (12, 68, 0x02e6), (12, 59, 0x021f),
    (12, 58, 0x0403), (12, 83, 0x07fc), (12, 82, 0x0df5), (12, 65, 0x0a99),
    (12, 60, 0x0f0b), (12, 88, 0x07bc), (12, 54, 0x0e40), (16, 889, 0xb0a1),
    (16, 1902, 0xf72d), (16, 1108, 0x6725), (16, 884, 0x6179), (16, 957, 0x7ab5),
    (16, 1066, 0xdebc), (16, 1012, 0x041c), (16, 1225, 0xb9b3), (16, 1004, 0x0dde),
    (16, 1476, 0x7604),
]


def enumeration_index(assignment):
    """Position in the lexicographic enumeration, bit 0 most significant."""
    return int("".join("1" if v > 0 else "0" for v in assignment), 2)


class TestBranchAndBound:
    def test_fig1_like_node_counts_are_pinned(self):
        problems = list(fig1_like_problems())
        assert len(problems) == len(FIG1_LIKE_BB)
        for problem, (bits, nodes, index) in zip(problems, FIG1_LIKE_BB):
            sol = biqp.solve_branch_and_bound(problem)
            assert problem.bits == bits
            assert sol.exact
            assert sol.nodes == nodes, (bits, index)
            assert enumeration_index(sol.assignment) == index
            assert np.array_equal(sol.assignment, biqp.solve_exhaustive(problem).assignment)

    def test_one_dcc_call_seeds_a_set_with_the_pinned_node_counts(self, monkeypatch):
        # Each code length's problems share one Q, as a code step's set does.
        calls = []
        dcc_batch = biqp.dcc_batch

        def record(*args, **kwargs):
            calls.append(args[1].shape[1])
            return dcc_batch(*args, **kwargs)

        monkeypatch.setattr(biqp, "dcc_batch", record)
        problems = list(fig1_like_problems())
        for bits in (8, 12, 16):
            group = [p for p in problems if p.bits == bits]
            linear = np.column_stack([p.linear for p in group])
            solutions = biqp._branch_and_bound_set(group[0].quadratic, linear, None)
            assert [(bits, s.nodes, enumeration_index(s.assignment)) for s in solutions] == [
                pinned for pinned in FIG1_LIKE_BB if pinned[0] == bits]
        assert calls == [5, 10, 10]

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(6)
        for bits in (2, 5, 8, 12):
            for _ in range(10):
                problem = random_psd_problem(rng, bits)
                exact = biqp.solve_exhaustive(problem)
                bnb = biqp.solve_branch_and_bound(problem)
                assert bnb.exact
                assert bnb.objective == exact.objective
                assert np.array_equal(bnb.assignment, exact.assignment)

    def test_separable_needs_no_backtracking(self):
        rng = np.random.default_rng(7)
        bits = 9
        f = rng.standard_normal(bits) + np.sign(rng.standard_normal(bits)) * 0.1
        problem = biqp.BiqpProblem(quadratic=np.zeros((bits, bits)), linear=f)
        sol = biqp.solve_branch_and_bound(problem)
        assert sol.nodes == bits + 1
        assert sol.objective == pytest.approx(-np.abs(f).sum(), abs=1e-12)

    def test_budget_of_one_returns_dcc_incumbent(self):
        rng = np.random.default_rng(8)
        problem = random_psd_problem(rng, 6)
        sol = biqp.solve_branch_and_bound(problem, budget_nodes=1)
        dcc = biqp.solve_dcc(problem, np.ones(6, dtype=np.int8))
        assert not sol.exact
        assert np.array_equal(sol.assignment, dcc.assignment)

    def test_budget_exhaustion_is_flagged_not_raised(self):
        rng = np.random.default_rng(9)
        problem = random_psd_problem(rng, 10, rank=10)
        sol = biqp.solve_branch_and_bound(problem, budget_nodes=5)
        assert not sol.exact
        assert sol.objective == biqp.objective_value(problem, sol.assignment)


def test_solution_objective_recomputes_from_assignment():
    rng = np.random.default_rng(10)
    problem = random_psd_problem(rng, 7)
    for sol in (biqp.solve_dcc(problem, np.ones(7, dtype=np.int8)),
                biqp.solve_exhaustive(problem),
                biqp.solve_branch_and_bound(problem)):
        assert sol.objective == pytest.approx(
            biqp.objective_value(problem, sol.assignment), abs=1e-9)


class TestSolveBatch:
    """One call solves every column's problem with the named solver."""

    def batch(self, rng, bits=6, problems=5):
        problem = random_psd_problem(rng, bits)
        linears = rng.standard_normal((bits, problems))
        inits = (2 * rng.integers(0, 2, (bits, problems)) - 1).astype(np.int8)
        return problem.quadratic, linears, inits

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_matches_one_solver_call_per_problem(self, solver):
        q, linears, inits = self.batch(np.random.default_rng(11))
        codes, exact = biqp.solve_batch(q, linears, inits, solver, max_sweeps=2)
        assert codes.dtype == np.int8 and codes.shape == linears.shape
        for k in range(linears.shape[1]):
            problem = biqp.BiqpProblem(quadratic=q, linear=linears[:, k])
            if solver == "dcc":
                expected = biqp.solve_dcc(problem, inits[:, k], max_sweeps=2)
            elif solver == "exhaustive":
                expected = biqp.solve_exhaustive(problem)
            else:
                expected = biqp.solve_branch_and_bound(problem)
            assert np.array_equal(codes[:, k], expected.assignment), k
        assert exact == (solver != "dcc")

    def test_exhausted_budget_clears_exact(self):
        q, linears, inits = self.batch(np.random.default_rng(12))
        _, exact = biqp.solve_batch(q, linears, inits, "branch_and_bound", budget_nodes=1)
        assert not exact

    def test_unknown_solver(self):
        q, linears, inits = self.batch(np.random.default_rng(13))
        with pytest.raises(ValueError, match="unknown solver 'dccc'"):
            biqp.solve_batch(q, linears, inits, "dccc")

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    @pytest.mark.parametrize("term", ["quadratic", "linear"])
    def test_rejects_non_finite(self, solver, term):
        q, linears, inits = self.batch(np.random.default_rng(14))
        if term == "quadratic":
            q = q.copy()
            q[2, 2] = np.inf
        else:
            linears[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            biqp.solve_batch(q, linears, inits, solver)

    def test_exhaustive_set_spans_enumeration_chunks(self):
        # 17 bits enumerate in two chunks; bit 0 is the most significant, so
        # the second chunk holds every assignment with b_0 = +1. Problem 0's
        # optimum lies there. Problem 1 has f = 0, so b and -b tie exactly,
        # one in each chunk, and the first chunk's must win.
        bits = 17
        assert 1 << bits == 2 * biqp._ENUM_CHUNK
        rng = np.random.default_rng(15)
        g = rng.standard_normal((bits, bits)) / bits
        q = g @ g.T
        second_chunk = rng.standard_normal(bits)
        second_chunk[0] = -20.0
        linears = np.column_stack([second_chunk, np.zeros(bits), rng.standard_normal(bits)])
        codes, exact = biqp.solve_batch(q, linears, None, "exhaustive")
        assert exact
        for k in range(linears.shape[1]):
            expected, _ = oracles.biqp_brute_force(q, linears[:, k])
            assert np.array_equal(codes[:, k], expected), k
        assert codes[0, 0] == 1
        assert codes[0, 1] == -1
        tied = biqp.BiqpProblem(quadratic=q, linear=linears[:, 1])
        assert (biqp.objective_value(tied, codes[:, 1])
                == biqp.objective_value(tied, -codes[:, 1]))

    def test_exhaustive_set_matches_one_call_per_problem(self):
        # One shared Q, and linear terms of several kinds: nu = 0 class
        # columns, perturbed ones, zeros (all ties), and terms much larger
        # and much smaller than Q.
        rng = np.random.default_rng(16)
        bits = 10
        w = rng.standard_normal((bits, 4))
        q = w @ w.T
        linears = np.column_stack([-2.0 * w, -2.0 * w[:, :2] + rng.standard_normal((bits, 2)),
                                   np.zeros(bits), 100.0 * rng.standard_normal(bits),
                                   rng.standard_normal((bits, 3)) * 1e-3])
        codes, exact = biqp.solve_batch(q, linears, None, "exhaustive")
        assert exact and codes.flags.c_contiguous
        for k in range(linears.shape[1]):
            alone = biqp.solve_exhaustive(biqp.BiqpProblem(quadratic=q, linear=linears[:, k]))
            assert np.array_equal(codes[:, k], alone.assignment), k

    def test_exhaustive_bit_guard_precedes_enumeration(self, monkeypatch):
        def enumerate_columns(*args):
            raise AssertionError("enumerated past the bit budget")

        monkeypatch.setattr(biqp, "_sign_columns", enumerate_columns)
        bits = biqp.EXHAUSTIVE_MAX_BITS + 1
        with pytest.raises(ValueError, match="budget"):
            biqp.solve_batch(np.zeros((bits, bits)), np.zeros((bits, 2)), None, "exhaustive")
