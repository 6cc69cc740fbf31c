import numpy as np
import pytest

from sdhkit import biqp, sdh

import oracles


def random_psd_problem(rng, bits, rank=None):
    """(Q, f) with Q positive semidefinite of the given rank."""
    g = rng.standard_normal((bits, rank or max(1, bits // 2)))
    return g @ g.T, rng.standard_normal(bits)


def solve_one(q, f, solver, init=None, **options):
    """One problem through `solve_batch`: its (bits,) codes and exact flag."""
    if init is not None:
        init = np.asarray(init)[:, None]
    codes, exact = biqp.solve_batch(q, np.asarray(f)[:, None], init, solver, **options)
    return codes[:, 0], exact


def branch_and_bound_one(q, f, budget_nodes=None):
    """One problem's (codes, exact, nodes) from `_branch_and_bound_set`."""
    codes, exact, nodes = biqp._branch_and_bound_set(q, f[:, None], budget_nodes)
    return codes[:, 0], bool(exact[0]), int(nodes[0])


class TestProblemValidation:
    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_rejects_asymmetric(self, solver):
        q = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            biqp.solve_batch(q, np.zeros((2, 1)), np.ones((2, 1)), solver)

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    @pytest.mark.parametrize("linear", [np.zeros((3, 1)), np.zeros(2)])
    def test_rejects_shape_mismatch(self, solver, linear):
        with pytest.raises(ValueError, match="does not match"):
            biqp.solve_batch(np.zeros((2, 2)), linear, np.ones((2, 1)), solver)

    @pytest.mark.parametrize("term", ["quadratic", "linear"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, term, value):
        # A NaN reads as symmetric and voids every comparison a solver makes.
        terms = {"quadratic": np.eye(3), "linear": np.ones((3, 1))}
        terms[term] = terms[term].copy()
        terms[term][1, 1 if term == "quadratic" else 0] = value
        with pytest.raises(ValueError, match="finite"):
            biqp.solve_batch(terms["quadratic"], terms["linear"], np.ones((3, 1)))


class TestDcc:
    def test_zero_quadratic_reduces_to_sign_rule(self):
        q, f = np.zeros((2, 2)), np.array([3.0, -2.0])
        b, exact = solve_one(q, f, "dcc", np.ones(2, dtype=np.int8))
        assert np.array_equal(b, [-1, 1])
        assert oracles.biqp_objective(q, f, b) == -5.0
        assert not exact

    def test_diagonal_is_irrelevant(self):
        f = np.array([3.0, -2.0])
        plain, _ = solve_one(np.zeros((2, 2)), f, "dcc", np.ones(2, dtype=np.int8))
        diag, _ = solve_one(np.eye(2), f, "dcc", np.ones(2, dtype=np.int8))
        assert np.array_equal(plain, diag)

    def test_matches_step_by_step_simulator(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            q, f = random_psd_problem(rng, 4)
            init = np.ones(4, dtype=np.int8)
            for sweeps in (1, 2, 3):
                fast, _ = solve_one(q, f, "dcc", init, max_sweeps=sweeps)
                slow = oracles.dcc_simulator(q, f, init, sweeps)
                assert np.array_equal(fast, slow), trial

    def test_objective_non_increasing_in_sweeps(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, f = random_psd_problem(rng, 6)
            init = (2 * rng.integers(0, 2, 6) - 1).astype(np.int8)
            start = oracles.biqp_objective(q, f, init)
            objectives = [oracles.biqp_objective(q, f, solve_one(q, f, "dcc", init,
                                                                 max_sweeps=s)[0])
                          for s in (1, 2, 3, 4)]
            assert objectives[0] <= start + 1e-12
            assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(2)
        q, _ = random_psd_problem(rng, 5)
        linears = rng.standard_normal((5, 8))
        inits = (2 * rng.integers(0, 2, (5, 8)) - 1).astype(np.int8)
        batch = biqp.dcc_batch(q, linears, inits)
        for i in range(8):
            single, _ = solve_one(q, linears[:, i], "dcc", inits[:, i])
            assert np.array_equal(batch[:, i], single)

    def test_rejects_init_of_another_shape(self):
        # One linear term with three init columns used to solve three
        # problems, all with that one term.
        q, f = random_psd_problem(np.random.default_rng(3), 6)
        with pytest.raises(ValueError, match=r"init shape \(6, 3\) does not match "
                                             r"linear term shape \(6, 1\)"):
            biqp.solve_batch(q, f[:, None], np.ones((6, 3), dtype=np.int8), "dcc")


class TestExhaustive:
    def test_separable(self):
        q, f = np.zeros((3, 3)), np.ones(3)
        b, exact = solve_one(q, f, "exhaustive")
        assert np.array_equal(b, [-1, -1, -1])
        assert oracles.biqp_objective(q, f, b) == -3.0
        assert exact

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q, f = random_psd_problem(rng, 3)
            b, _ = solve_one(q, f, "exhaustive")
            expected_b, expected_val = oracles.biqp_brute_force(q, f)
            assert oracles.biqp_objective(q, f, b) == pytest.approx(expected_val, abs=1e-12)
            assert np.array_equal(b, expected_b)

    def test_psd_zero_linear_matches_oracle(self):
        rng = np.random.default_rng(4)
        q, f = random_psd_problem(rng, 3)[0], np.zeros(3)
        b, _ = solve_one(q, f, "exhaustive")
        _, expected_val = oracles.biqp_brute_force(q, f)
        assert oracles.biqp_objective(q, f, b) == pytest.approx(expected_val, abs=1e-12)

    def test_negating_f_negates_assignment(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        pos, _ = solve_one(np.zeros((6, 6)), f, "exhaustive")
        neg, _ = solve_one(np.zeros((6, 6)), -f, "exhaustive")
        assert np.array_equal(pos, -neg)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            solve_one(np.zeros((25, 25)), np.zeros(25), "exhaustive")

    def test_tie_break_is_lexicographic(self):
        # Every assignment has objective 0: the all-minus vector must win.
        b, _ = solve_one(np.zeros((4, 4)), np.zeros(4), "exhaustive")
        assert np.array_equal(b, [-1, -1, -1, -1])


def fig1_like_problems():
    """The fig1 study's first code step: random codes, one sample per
    class, W from the classifier step and f = -2 w_c (nu = 0). Q = W W^T is
    rank deficient at 12 and 16 bits with 10 classes (8 bits use 5)."""
    rng = np.random.default_rng(0)
    for bits, classes in ((8, 5), (12, 10), (16, 10)):
        b = (2 * rng.integers(0, 2, (bits, classes)) - 1).astype(np.int8)
        w = sdh.w_step(b, np.arange(classes), classes, 1.0)
        for c in range(classes):
            yield w @ w.T, -2.0 * w[:, c]


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
        for (q, f), (bits, nodes, index) in zip(problems, FIG1_LIKE_BB):
            b, exact, visited = branch_and_bound_one(q, f)
            assert f.shape == (bits,)
            assert exact
            assert visited == nodes, (bits, index)
            assert enumeration_index(b) == index
            assert np.array_equal(b, solve_one(q, f, "exhaustive")[0])

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
            group = [(q, f) for q, f in problems if f.shape == (bits,)]
            linear = np.column_stack([f for _, f in group])
            codes, exact, nodes = biqp._branch_and_bound_set(group[0][0], linear, None)
            assert codes.shape == linear.shape and codes.dtype == np.int8
            assert exact.dtype == bool and exact.all()
            assert nodes.dtype == np.int64
            assert [(bits, int(n), enumeration_index(codes[:, k]))
                    for k, n in enumerate(nodes)] == [
                pinned for pinned in FIG1_LIKE_BB if pinned[0] == bits]
        assert calls == [5, 10, 10]

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(6)
        for bits in (2, 5, 8, 12):
            for _ in range(10):
                q, f = random_psd_problem(rng, bits)
                exact_b, _ = solve_one(q, f, "exhaustive")
                bnb_b, bnb_exact = solve_one(q, f, "branch_and_bound")
                assert bnb_exact
                assert oracles.biqp_objective(q, f, bnb_b) == oracles.biqp_objective(q, f, exact_b)
                assert np.array_equal(bnb_b, exact_b)

    def test_separable_needs_no_backtracking(self):
        rng = np.random.default_rng(7)
        bits = 9
        f = rng.standard_normal(bits) + np.sign(rng.standard_normal(bits)) * 0.1
        q = np.zeros((bits, bits))
        b, _, nodes = branch_and_bound_one(q, f)
        assert nodes == bits + 1
        assert oracles.biqp_objective(q, f, b) == pytest.approx(-np.abs(f).sum(), abs=1e-12)

    def test_tie_break_is_lexicographic(self):
        # Every assignment has objective 0 and the DCC incumbent is all plus;
        # the all-minus leaf ties with it and must replace it.
        b, exact, _ = branch_and_bound_one(np.zeros((4, 4)), np.zeros(4))
        assert exact
        assert np.array_equal(b, [-1, -1, -1, -1])

    def test_budget_of_one_returns_dcc_incumbent(self):
        rng = np.random.default_rng(8)
        q, f = random_psd_problem(rng, 6)
        b, exact, _ = branch_and_bound_one(q, f, budget_nodes=1)
        dcc, _ = solve_one(q, f, "dcc", np.ones(6, dtype=np.int8))
        assert not exact
        assert np.array_equal(b, dcc)

    def test_budget_exhaustion_is_flagged_not_raised(self):
        rng = np.random.default_rng(9)
        q, f = random_psd_problem(rng, 10, rank=10)
        b, exact, nodes = branch_and_bound_one(q, f, budget_nodes=5)
        dcc, _ = solve_one(q, f, "dcc", np.ones(10, dtype=np.int8))
        assert not exact
        assert nodes == 5
        assert oracles.biqp_objective(q, f, b) <= oracles.biqp_objective(q, f, dcc)

    def test_rejects_a_budget_below_one(self):
        q, f = random_psd_problem(np.random.default_rng(10), 4)
        with pytest.raises(ValueError, match="budget_nodes must be >= 1"):
            solve_one(q, f, "branch_and_bound", budget_nodes=0)


class TestSolveBatch:
    """One call solves every column's problem with the named solver."""

    def batch(self, rng, bits=6, problems=5):
        q, _ = random_psd_problem(rng, bits)
        linears = rng.standard_normal((bits, problems))
        inits = (2 * rng.integers(0, 2, (bits, problems)) - 1).astype(np.int8)
        return q, linears, inits

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_matches_one_solver_call_per_problem(self, solver):
        q, linears, inits = self.batch(np.random.default_rng(11))
        codes, exact = biqp.solve_batch(q, linears, inits, solver, max_sweeps=2)
        assert codes.dtype == np.int8 and codes.shape == linears.shape
        for k in range(linears.shape[1]):
            alone, alone_exact = biqp.solve_batch(q, linears[:, k:k + 1], inits[:, k:k + 1],
                                                  solver, max_sweeps=2)
            assert np.array_equal(codes[:, k], alone[:, 0]), k
            assert alone_exact == exact
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
        assert (oracles.biqp_objective(q, linears[:, 1], codes[:, 1])
                == oracles.biqp_objective(q, linears[:, 1], -codes[:, 1]))

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
            alone, _ = solve_one(q, linears[:, k], "exhaustive")
            assert np.array_equal(codes[:, k], alone), k

    def test_exhaustive_bit_guard_precedes_enumeration(self, monkeypatch):
        def enumerate_columns(*args):
            raise AssertionError("enumerated past the bit budget")

        monkeypatch.setattr(biqp, "_sign_columns", enumerate_columns)
        bits = biqp.EXHAUSTIVE_MAX_BITS + 1
        with pytest.raises(ValueError, match="budget"):
            biqp.solve_batch(np.zeros((bits, bits)), np.zeros((bits, 2)), None, "exhaustive")
