import numpy as np
import pytest

from sdhkit import biqp

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


class TestBranchAndBound:
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
