import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from sdhkit import biqp, sdh

import oracles


def random_psd_problem(rng, bits, rank=None):
    """(W, f): the (bits, rank) factor of Q = W W^T and a linear term."""
    w = rng.standard_normal((bits, rank or max(1, bits // 2)))
    return w, rng.standard_normal(bits)


def zero_factor(bits):
    """The factor of the all-zero Q."""
    return np.zeros((bits, 1))


def solve_one(w, f, solver, init=None, **options):
    """One problem through `solve_batch`: its (bits,) codes."""
    if init is not None:
        init = np.asarray(init)[:, None]
    return biqp.solve_batch(w, np.asarray(f)[:, None], init, solver, **options)[:, 0]


def branch_and_bound_set(w, linear):
    """(codes, nodes) from `_branch_and_bound_set` for W and its linear terms."""
    return biqp._branch_and_bound_set(w, w @ w.T, linear)


def branch_and_bound_one(w, f):
    """One problem's (codes, nodes) from `_branch_and_bound_set`."""
    codes, nodes = branch_and_bound_set(w, f[:, None])
    return codes[:, 0], int(nodes[0])


def per_sample_factors(bits, nu, samples=30, classes=10, seed=0):
    """A nu > 0 code step's set: W from the classifier step on random codes
    of `samples` samples, and one linear term -2 (W y_i + nu p_i) per sample,
    with P^T x_i the codes plus noise."""
    rng = np.random.default_rng(seed)
    labels = np.arange(samples) % classes
    b = (2 * rng.integers(0, 2, (bits, samples)) - 1).astype(np.int8)
    w = sdh.w_step(b, labels, classes, 1.0)
    projected = b + rng.standard_normal((bits, samples))
    return w, -2.0 * (w @ sdh.one_hot(labels, classes) + nu * projected)


class TestProblemValidation:
    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_rejects_a_factor_that_is_not_2d(self, solver):
        # Only a (bits, rank) matrix W gives a (bits, bits) Q = W W^T.
        for factor in (np.zeros(2), np.zeros((2, 2, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="factor must be 2-D"):
                biqp.solve_batch(factor, np.zeros((2, 1)), np.ones((2, 1)), solver)

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    @pytest.mark.parametrize("linear", [np.zeros((3, 1)), np.zeros(2)])
    def test_rejects_shape_mismatch(self, solver, linear):
        with pytest.raises(ValueError, match="does not match"):
            biqp.solve_batch(np.zeros((2, 5)), linear, np.ones((2, 1)), solver)

    @pytest.mark.parametrize("term", ["quadratic", "linear"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, term, value):
        # "quadratic" is the factor of Q; a NaN there voids every comparison
        # a solver makes.
        terms = {"quadratic": np.eye(3), "linear": np.ones((3, 1))}
        terms[term] = terms[term].copy()
        terms[term][1, 1 if term == "quadratic" else 0] = value
        with pytest.raises(ValueError, match="finite"):
            biqp.solve_batch(terms["quadratic"], terms["linear"], np.ones((3, 1)))


class TestDcc:
    def test_zero_quadratic_reduces_to_sign_rule(self):
        w, f = zero_factor(2), np.array([3.0, -2.0])
        b = solve_one(w, f, "dcc", np.ones(2, dtype=np.int8))
        assert np.array_equal(b, [-1, 1])
        assert oracles.biqp_objective(w @ w.T, f, b) == -5.0

    def test_diagonal_is_irrelevant(self):
        f = np.array([3.0, -2.0])
        plain = solve_one(zero_factor(2), f, "dcc", np.ones(2, dtype=np.int8))
        diag = solve_one(np.eye(2), f, "dcc", np.ones(2, dtype=np.int8))
        assert np.array_equal(plain, diag)

    def test_matches_step_by_step_simulator(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            w, f = random_psd_problem(rng, 4)
            init = np.ones(4, dtype=np.int8)
            for sweeps in (1, 2, 3):
                fast = solve_one(w, f, "dcc", init, max_sweeps=sweeps)
                slow = oracles.dcc_simulator(w @ w.T, f, init, sweeps)
                assert np.array_equal(fast, slow), trial

    def test_objective_non_increasing_in_sweeps(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w, f = random_psd_problem(rng, 6)
            q = w @ w.T
            init = (2 * rng.integers(0, 2, 6) - 1).astype(np.int8)
            start = oracles.biqp_objective(q, f, init)
            objectives = [oracles.biqp_objective(q, f, solve_one(w, f, "dcc", init,
                                                                 max_sweeps=s))
                          for s in (1, 2, 3, 4)]
            assert objectives[0] <= start + 1e-12
            assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(2)
        w, _ = random_psd_problem(rng, 5)
        linears = rng.standard_normal((5, 8))
        inits = (2 * rng.integers(0, 2, (5, 8)) - 1).astype(np.int8)
        batch = biqp.dcc_batch(w @ w.T, linears, inits)
        for i in range(8):
            single = solve_one(w, linears[:, i], "dcc", inits[:, i])
            assert np.array_equal(batch[:, i], single)

    def test_flip_mask_matches_the_three_way_rule(self):
        # Integer Q and even f make many arguments exactly zero, where the
        # three-way rule keeps the bit as it is.
        def three_way(q, f, init, sweeps):
            b = init.astype(np.float64)
            q_off = q - np.diag(np.diag(q))
            zeros = 0
            for _ in range(sweeps):
                for l in range(len(q)):
                    arg = 2.0 * (q_off[l] @ b) + f[l]
                    zeros += int((arg == 0).sum())
                    b[l] = np.where(arg > 0, -1.0, np.where(arg < 0, 1.0, b[l]))
            return b.astype(np.int8), zeros

        rng = np.random.default_rng(8)
        zeros = 0
        for bits, rank in ((4, 1), (8, 3), (16, 5)):
            w = rng.integers(-1, 2, (bits, rank)).astype(np.float64)
            f = 2.0 * rng.integers(-2, 3, (bits, 40))
            init = (2 * rng.integers(0, 2, (bits, 40)) - 1).astype(np.int8)
            for sweeps in (1, 2, 3):
                expected, found = three_way(w @ w.T, f, init, sweeps)
                zeros += found
                assert np.array_equal(biqp.dcc_batch(w @ w.T, f, init, sweeps), expected)
        assert zeros > 500

    @pytest.mark.parametrize("bad", [0, 2, 0.5, np.nan, np.int8(-128)])
    def test_rejects_init_entries_other_than_signs(self, bad):
        init = np.ones((3, 2), dtype=np.asarray(bad).dtype)
        init[1, 1] = bad
        with pytest.raises(ValueError, match="init must contain only -1 and \\+1"):
            biqp.dcc_batch(np.eye(3), np.ones((3, 2)), init)

    def test_peak_memory_is_one_float_copy_of_the_signs(self):
        # The sign check once took about 12 bytes per int8 sign on top of
        # the 8 of the float64 working copy.
        rng = np.random.default_rng(9)
        w, _ = random_psd_problem(rng, 64, 8)
        linear = rng.standard_normal((64, 20_000))
        init = (2 * rng.integers(0, 2, linear.shape) - 1).astype(np.int8)
        quadratic = w @ w.T
        tracemalloc.start()
        try:
            biqp.dcc_batch(quadratic, linear, init, max_sweeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * init.nbytes

    def test_rejects_init_of_another_shape(self):
        # One linear term with three init columns used to solve three
        # problems, all with that one term.
        w, f = random_psd_problem(np.random.default_rng(3), 6)
        with pytest.raises(ValueError, match=r"init shape \(6, 3\) does not match "
                                             r"linear term shape \(6, 1\)"):
            biqp.solve_batch(w, f[:, None], np.ones((6, 3), dtype=np.int8), "dcc")


def fig1_like_factors(shapes=((8, 5), (12, 10), (16, 10))):
    """The fig1 study's first code step: random codes from seed 0, one
    sample per class, W from the classifier step and f = -2 w_c (nu = 0).
    Yields each (bits, classes) shape's W and its (bits, classes) linear
    terms. Q = W W^T is rank deficient whenever bits > classes."""
    rng = np.random.default_rng(0)
    for bits, classes in shapes:
        b = (2 * rng.integers(0, 2, (bits, classes)) - 1).astype(np.int8)
        w = sdh.w_step(b, np.arange(classes), classes, 1.0)
        yield w, -2.0 * w


def fig1_like_problems():
    """One (W, f) per class problem of `fig1_like_factors()`."""
    for w, linear in fig1_like_factors():
        for c in range(linear.shape[1]):
            yield w, linear[:, c]


# (bits, nodes alone, nodes in its set, assignment as its enumeration index)
# for each of fig1_like_problems(); every assignment is the one exhaustive
# search returned. A node is the root or a child kept. In a set, a frontier
# wider than one block dives first where the bound is most promising, so
# the set's leaves tighten its problems' incumbents sooner.
# Reassociating a bound's sum moves the counts here, never the assignments.
FIG1_LIKE_BB = [
    (8, 11, 11, 0x00b7), (8, 17, 17, 0x00bc), (8, 40, 40, 0x00b8), (8, 9, 9, 0x0036),
    (8, 9, 9, 0x0074), (12, 322, 322, 0x069e), (12, 227, 227, 0x02e6),
    (12, 31, 31, 0x021f), (12, 125, 125, 0x0403), (12, 56, 56, 0x07fc),
    (12, 30, 30, 0x0df5), (12, 20, 20, 0x0a99), (12, 18, 18, 0x0f0b), (12, 75, 75, 0x07bc),
    (12, 14, 14, 0x0e40), (16, 703, 695, 0xb0a1), (16, 1006, 983, 0xf72d),
    (16, 1230, 1215, 0x6725), (16, 85, 85, 0x6179), (16, 108, 108, 0x7ab5),
    (16, 1217, 1209, 0xdebc), (16, 1125, 1113, 0x041c), (16, 318, 318, 0xb9b3),
    (16, 275, 275, 0x0dde), (16, 1434, 1405, 0x7604),
]

# The 20-bit fig1-like set's codes as enumeration indices, from exhaustive
# search over all 2^20 assignments. The enumeration is deleted: branch-and-
# bound returned the same codes on every set it was checked on.
FIG1_LIKE_20 = [0xd69eb, 0xe2e6f, 0xe21f6, 0x54036, 0x47fc7, 0x7df5d, 0x6a990, 0x4f0bb,
                0x67bc0, 0xee407]

# The 32-bit fig1-like set's codes from the recursive search this one
# replaced (892,950 nodes, about 7 s), as enumeration indices. Exhaustive
# search never reached 32 bits.
FIG1_LIKE_32 = [0xd69eb0a1, 0xe2e6f72d, 0xe21f6725, 0x54036179, 0x47fc7ab5,
                0x7df5debc, 0x6a99041c, 0x4f0bb9b3, 0x67bc0dde, 0xee407604]

# Every fig1-like set's codes from exhaustive search, as enumeration indices
# in the order fig1_like_factors(shapes) yields them. The shapes share one
# generator, so a shape's set depends on the shapes drawn before it.
FIG1_LIKE_SETS = {
    ((8, 5), (12, 10), (16, 10)): [index for *_, index in FIG1_LIKE_BB],
    ((20, 10),): FIG1_LIKE_20,
    ((16, 10), (20, 10)): [
        0xd69e, 0xe2e6, 0xe21f, 0x5403, 0x47fc, 0x7df5, 0x6a99, 0x4f0b, 0x67bc, 0xee40,
        0xb0a12, 0xf72d1, 0x67256, 0x61793, 0x7ab57, 0xdebc5, 0x041c5, 0xb9b3d, 0x0dde9,
        0x7604f],
}

# sha256 of each per_sample_factors(bits, nu) set's (bits, 30) int8 codes
# from exhaustive search.
PER_SAMPLE_SHA256 = {
    (16, 1e-5): "3daaeb8dcba71644f8ba560ce82da02516ca636a137210d74c7b5b50fa39b1fd",
    (16, 1.0): "f76c7d06453cbecd9bfbf5fa2bcf39cf3c708938d56c660cc32f5cd3248b53e5",
    (20, 1.0): "7376697d48395570d51b44c581e02e0f9d61c67411a0ea520aa19545a84487cf",
    (20, 1e-5): "4179ddc2f5d78ea5927f30f6b1387e9c073d4bdfd559793ed9004d70f6b25d28",
}


def enumeration_index(assignment):
    """Position in the lexicographic enumeration, bit 0 most significant."""
    return int("".join("1" if v > 0 else "0" for v in assignment), 2)


def assert_per_sample_codes_pinned(codes, bits, nu):
    """The set's codes equal exhaustive search's, by their pinned sha256."""
    assert codes.shape == (bits, 30) and codes.dtype == np.int8
    assert hashlib.sha256(codes.tobytes()).hexdigest() == PER_SAMPLE_SHA256[bits, nu]


class TestBranchAndBound:
    def test_fig1_like_node_counts_are_pinned(self):
        problems = list(fig1_like_problems())
        assert len(problems) == len(FIG1_LIKE_BB)
        for (w, f), (bits, nodes, _, index) in zip(problems, FIG1_LIKE_BB):
            b, visited = branch_and_bound_one(w, f)
            assert f.shape == (bits,)
            assert visited == nodes, (bits, index)
            assert enumeration_index(b) == index

    def test_one_dcc_call_seeds_a_set_with_the_pinned_node_counts(self, monkeypatch):
        # Each code length's problems share one Q, as a code step's set does.
        calls = []
        dcc_batch = biqp.dcc_batch

        def record(*args, **kwargs):
            calls.append(args[1].shape[1])
            return dcc_batch(*args, **kwargs)

        monkeypatch.setattr(biqp, "dcc_batch", record)
        for w, linear in fig1_like_factors():
            bits = w.shape[0]
            codes, nodes = branch_and_bound_set(w, linear)
            assert codes.shape == linear.shape and codes.dtype == np.int8
            assert nodes.dtype == np.int64
            assert [(bits, int(n), enumeration_index(codes[:, k]))
                    for k, n in enumerate(nodes)] == [
                (b, in_set, index) for b, _, in_set, index in FIG1_LIKE_BB if b == bits]
        assert calls == [5, 10, 10]

    def test_reaches_thirty_two_bits(self):
        # The recursive search took 11,264 nodes (at most 2,231 for one
        # problem) at 20 bits and 892,950 at 32; the box bound and the
        # level-by-level search take 5,569 and 68,628.
        (w, linear), = fig1_like_factors(((20, 10),))
        codes, nodes = branch_and_bound_set(w, linear)
        assert nodes.max() == 3070
        assert nodes.sum() == 5569
        assert [enumeration_index(codes[:, k]) for k in range(10)] == FIG1_LIKE_20
        (w, linear), = fig1_like_factors(((32, 10),))
        codes, nodes = branch_and_bound_set(w, linear)
        assert nodes.sum() == 68_628
        assert [enumeration_index(codes[:, k]) for k in range(10)] == FIG1_LIKE_32

    @pytest.mark.parametrize("shapes", list(FIG1_LIKE_SETS))
    def test_matches_exhaustive_on_every_fig1_like_set(self, shapes):
        indices = [enumeration_index(b)
                   for w, linear in fig1_like_factors(shapes)
                   for b in biqp.solve_batch(w, linear, None, "branch_and_bound").T]
        assert indices == FIG1_LIKE_SETS[shapes]

    @pytest.mark.parametrize("bits", [6, 8, 10, 12])
    def test_ties_and_nu_terms_match_brute_force(self, bits):
        # Integer W makes many assignments tie exactly, so a slack too small
        # for rounding, or one that pruned a tied leaf, would change the code
        # the lexicographic tie rule picks. Each set mixes nu = 0 class terms,
        # dyadic nu terms that keep the ties exact, and random nu > 0 terms.
        rng = np.random.default_rng(200 + bits)
        w = rng.integers(-1, 2, (bits, 4)).astype(np.float64)
        p = rng.integers(-2, 3, (bits, 3)).astype(np.float64)
        linear = np.column_stack([-2.0 * w, -2.0 * (w[:, :3] + 0.5 * p),
                                  -2.0 * (w[:, :2] + 1e-5 * rng.standard_normal((bits, 2))),
                                  np.zeros(bits)])
        q = w @ w.T
        codes = biqp.solve_batch(w, linear, None, "branch_and_bound")
        tied = 0
        for k in range(linear.shape[1]):
            expected, value = oracles.biqp_brute_force(q, linear[:, k])
            assert np.array_equal(codes[:, k], expected), k
            values = [oracles.biqp_objective(q, linear[:, k], b)
                      for b in itertools.product((-1, 1), repeat=bits)]
            tied += values.count(value) > 1
        assert tied >= linear.shape[1] // 2

    @pytest.mark.parametrize("bits, nu", [(16, 1e-5), (16, 1.0), (20, 1.0)])
    def test_per_sample_sets_match_exhaustive(self, bits, nu):
        w, linear = per_sample_factors(bits, nu)
        assert_per_sample_codes_pinned(biqp.solve_batch(w, linear, None, "branch_and_bound"),
                                       bits, nu)

    def test_frontier_memory_stays_within_its_blocks(self, monkeypatch):
        # Weak pruning: nu = 1e-5 leaves the per-sample terms far from W's
        # span. A block holds each node's problem, prefix, residual t - c and
        # f_perp value. The frontier keeps at most one pending block per depth
        # plus the current block's children. One level-wide frontier peaked
        # at 54 MB, and nodes that also stored the prefix value and the free
        # linear terms at 5.66 MB, both above this bound.
        bits = 20
        w, linear = per_sample_factors(bits, 1e-5)
        quadratic = w @ w.T
        block_bytes = biqp._BLOCK * (bits + 8 * (w.shape[1] + 2))
        tracemalloc.start()
        try:
            codes, _ = biqp._branch_and_bound_set(w, quadratic, linear)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * bits * block_bytes
        assert_per_sample_codes_pinned(codes, bits, 1e-5)

    @pytest.mark.parametrize("bits, rank", [(6, 1), (8, 3), (10, 4), (12, 6), (16, 10)])
    def test_matches_brute_force_on_rank_deficient_factors(self, bits, rank):
        rng = np.random.default_rng(100 + bits)
        for _ in range(3 if bits < 16 else 1):
            w, f = random_psd_problem(rng, bits, rank=rank)
            q = w @ w.T
            b = solve_one(w, f, "branch_and_bound")
            expected_b, expected_val = oracles.biqp_brute_force(q, f)
            assert oracles.biqp_objective(q, f, b) == pytest.approx(expected_val, abs=1e-12)
            assert np.array_equal(b, expected_b)

    def test_all_zero_factor_matches_brute_force(self):
        f = np.random.default_rng(17).standard_normal(8)
        b = solve_one(np.zeros((8, 3)), f, "branch_and_bound")
        expected_b, _ = oracles.biqp_brute_force(np.zeros((8, 8)), f)
        assert np.array_equal(b, expected_b)

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(6)
        for bits in (2, 5, 8, 12):
            for _ in range(10):
                w, f = random_psd_problem(rng, bits)
                q = w @ w.T
                expected_b, expected_val = oracles.biqp_brute_force(q, f)
                b = solve_one(w, f, "branch_and_bound")
                assert oracles.biqp_objective(q, f, b) == expected_val
                assert np.array_equal(b, expected_b)

    @pytest.mark.parametrize("solver", ["exhaustive", "branch_and_bound"])
    def test_both_exact_names_match_brute_force(self, solver):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w, f = random_psd_problem(rng, 3)
            q = w @ w.T
            b = solve_one(w, f, solver)
            expected_b, expected_val = oracles.biqp_brute_force(q, f)
            assert oracles.biqp_objective(q, f, b) == pytest.approx(expected_val, abs=1e-12)
            assert np.array_equal(b, expected_b)

    def test_psd_zero_linear_matches_brute_force(self):
        rng = np.random.default_rng(4)
        w, f = random_psd_problem(rng, 3)[0], np.zeros(3)
        q = w @ w.T
        b = solve_one(w, f, "branch_and_bound")
        expected_b, expected_val = oracles.biqp_brute_force(q, f)
        assert oracles.biqp_objective(q, f, b) == pytest.approx(expected_val, abs=1e-12)
        assert np.array_equal(b, expected_b)

    def test_negating_f_negates_assignment(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        pos = solve_one(zero_factor(6), f, "branch_and_bound")
        neg = solve_one(zero_factor(6), -f, "branch_and_bound")
        assert np.array_equal(pos, -neg)

    def test_separable_needs_no_backtracking(self):
        rng = np.random.default_rng(7)
        bits = 9
        f = rng.standard_normal(bits) + np.sign(rng.standard_normal(bits)) * 0.1
        w = zero_factor(bits)
        b, nodes = branch_and_bound_one(w, f)
        assert nodes == bits + 1
        assert oracles.biqp_objective(w @ w.T, f, b) == pytest.approx(-np.abs(f).sum(),
                                                                       abs=1e-12)

    def test_tie_break_is_lexicographic(self):
        # Every assignment has objective 0 and the DCC incumbent is all plus;
        # the all-minus leaf ties with it and must replace it.
        b, _ = branch_and_bound_one(zero_factor(4), np.zeros(4))
        assert np.array_equal(b, [-1, -1, -1, -1])


class TestSolveBatch:
    """One call solves every column's problem with the named solver."""

    def batch(self, rng, bits=6, problems=5):
        w, _ = random_psd_problem(rng, bits)
        linears = rng.standard_normal((bits, problems))
        inits = (2 * rng.integers(0, 2, (bits, problems)) - 1).astype(np.int8)
        return w, linears, inits

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_matches_one_solver_call_per_problem(self, solver):
        w, linears, inits = self.batch(np.random.default_rng(11))
        codes = biqp.solve_batch(w, linears, inits, solver, max_sweeps=2)
        assert codes.dtype == np.int8 and codes.shape == linears.shape
        for k in range(linears.shape[1]):
            alone = biqp.solve_batch(w, linears[:, k:k + 1], inits[:, k:k + 1],
                                     solver, max_sweeps=2)
            assert np.array_equal(codes[:, k], alone[:, 0]), k

    def test_unknown_solver(self):
        w, linears, inits = self.batch(np.random.default_rng(13))
        with pytest.raises(ValueError, match="unknown solver 'dccc'"):
            biqp.solve_batch(w, linears, inits, "dccc")

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    @pytest.mark.parametrize("term", ["quadratic", "linear"])
    def test_rejects_non_finite(self, solver, term):
        w, linears, inits = self.batch(np.random.default_rng(14))
        if term == "quadratic":
            w = w.copy()
            w[2, 1] = np.inf
        else:
            linears[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            biqp.solve_batch(w, linears, inits, solver)

    @pytest.mark.parametrize("solver", biqp.SOLVERS)
    def test_rejects_a_factor_whose_product_overflows(self, solver):
        w, linears, inits = self.batch(np.random.default_rng(18))
        w = w.copy()
        w[2] = 1e300
        with pytest.raises(ValueError, match="finite"):
            biqp.solve_batch(w, linears, inits, solver)

    def test_quadratic_is_the_factor_product(self, monkeypatch):
        # Q is built once as `w @ w.T`, the expression the code step used
        # before it passed the factor, so every solver sees the same Q.
        w, linears, inits = self.batch(np.random.default_rng(19))
        seen = []
        dcc_batch = biqp.dcc_batch

        def record(quadratic, *args, **kwargs):
            seen.append(quadratic)
            return dcc_batch(quadratic, *args, **kwargs)

        monkeypatch.setattr(biqp, "dcc_batch", record)
        biqp.solve_batch(w, linears, inits, "dcc")
        biqp.solve_batch(w, linears, inits, "branch_and_bound")
        assert len(seen) == 2
        for quadratic in seen:
            assert np.array_equal(quadratic, w @ w.T)

    def test_exact_set_matches_one_call_per_problem(self):
        # One shared Q, and linear terms of several kinds: nu = 0 class
        # columns, perturbed ones, zeros (all ties), and terms much larger
        # and much smaller than Q. Each code is also the brute-force one.
        rng = np.random.default_rng(16)
        bits = 10
        w = rng.standard_normal((bits, 4))
        linears = np.column_stack([-2.0 * w, -2.0 * w[:, :2] + rng.standard_normal((bits, 2)),
                                   np.zeros(bits), 100.0 * rng.standard_normal(bits),
                                   rng.standard_normal((bits, 3)) * 1e-3])
        codes = biqp.solve_batch(w, linears, None, "branch_and_bound")
        assert codes.flags.c_contiguous
        for k in range(linears.shape[1]):
            alone = solve_one(w, linears[:, k], "branch_and_bound")
            assert np.array_equal(codes[:, k], alone), k
            expected, _ = oracles.biqp_brute_force(w @ w.T, linears[:, k])
            assert np.array_equal(alone, expected), k
