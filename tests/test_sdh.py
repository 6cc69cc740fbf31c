import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sdhkit import biqp, codes, dataset, kernelmap, sdh

import oracles


def toy_problem(rng, features=5, samples=8, classes=2, bits=4):
    x = rng.standard_normal((features, samples))
    labels = rng.integers(0, classes, samples)
    labels[:classes] = np.arange(classes)  # every class present
    return x, labels.astype(np.int64), classes, bits


def rank_deficient_features(rng, features=3, samples=12):
    x = rng.standard_normal((features, samples))
    x[-1] = x[0]  # a repeated row makes X X^T singular
    return x


def per_class_code_step(state, labels, solver):
    """The nu = 0 code step one class at a time: each class's problem goes to
    its own solver call (DCC starts from the class's first sample), and the
    solution is copied into a C-ordered code matrix."""
    codes = np.empty(state.codes.shape, dtype=np.int8, order="C")
    for cls in np.unique(labels):
        cols = np.flatnonzero(labels == cls)
        solution = biqp.solve_batch(state.weights, -2.0 * state.weights[:, cls:cls + 1],
                                    state.codes[:, cols[:1]], solver)
        codes[:, cols] = solution
    return codes


class TestWStep:
    def test_hadamard_codes_one_sample_per_class(self):
        bits, classes, lam = 16, 10, 1.0
        cc = codes.hadamard_codes(bits, classes)
        w = sdh.w_step(cc.codes, np.arange(classes), classes, lam)
        assert np.abs(w - cc.codes / (bits + lam)).max() < 1e-12

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(0)
        b = (2 * rng.integers(0, 2, (4, 6)) - 1).astype(np.int8)
        labels = np.array([0, 1, 0, 1, 0, 1])
        norms = [np.linalg.norm(sdh.w_step(b, labels, 2, lam))
                 for lam in (1.0, 1e3, 1e6)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-4

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        b = (2 * rng.integers(0, 2, (4, 6)) - 1).astype(np.float64)
        labels = rng.integers(0, 2, 6)
        lam = 1.0
        w = sdh.w_step(b, labels, 2, lam)
        y = sdh.one_hot(labels, 2)
        dense = np.linalg.solve(b @ b.T + lam * np.eye(4), b @ y.T)
        assert np.abs(w - dense).max() < 1e-10
        residual = (b @ b.T + lam * np.eye(4)) @ w - b @ y.T
        assert np.linalg.norm(residual) < 1e-10

    def test_normal_equation_residual_is_relative_small(self):
        rng = np.random.default_rng(2)
        b = (2 * rng.integers(0, 2, (8, 30)) - 1).astype(np.float64)
        labels = rng.integers(0, 3, 30)
        w = sdh.w_step(b, labels, 3, 1.0)
        y = sdh.one_hot(labels, 3)
        lhs = b @ b.T + np.eye(8)
        rel = np.linalg.norm(lhs @ w - b @ y.T) / np.linalg.norm(b @ y.T)
        assert rel < 1e-8

    def test_local_optimality_of_ridge_solution(self):
        rng = np.random.default_rng(3)
        b = (2 * rng.integers(0, 2, (4, 10)) - 1).astype(np.float64)
        labels = rng.integers(0, 2, 10)
        lam = 0.5
        w = sdh.w_step(b, labels, 2, lam)
        y = sdh.one_hot(labels, 2)

        def value(weights):
            return ((y - weights.T @ b) ** 2).sum() + lam * (weights ** 2).sum()

        base = value(w)
        for i, j in ((0, 0), (1, 1), (3, 0)):
            for delta in (1e-3, -1e-3):
                bumped = w.copy()
                bumped[i, j] += delta
                assert value(bumped) >= base

    def test_singular_at_lambda_zero(self):
        b = np.ones((3, 2))  # rank one
        with pytest.raises(ValueError, match="singular"):
            sdh.w_step(b, np.array([0, 1]), 2, 0.0)


class TestProjectionSolver:
    def test_identity_features(self):
        b = (2 * np.eye(4) - 1).astype(np.int8)
        p = sdh.ProjectionSolver(np.eye(4), jitter=0.0).solve(b)
        assert np.abs(p - b.T).max() < 1e-12

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 20))
        b = (2 * rng.integers(0, 2, (3, 20)) - 1).astype(np.float64)
        p = sdh.ProjectionSolver(x, jitter=0.0).solve(b)
        assert (np.linalg.norm(x @ x.T @ p - x @ b.T)
                < 1e-8 * np.linalg.norm(x @ b.T))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 8))
        b = (2 * rng.integers(0, 2, (3, 8)) - 1).astype(np.float64)
        p = sdh.ProjectionSolver(x, jitter=0.0).solve(b)
        dense = np.linalg.solve(x @ x.T, x @ b.T)
        assert np.abs(p - dense).max() < 1e-10

    def test_local_optimality(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 15))
        b = (2 * rng.integers(0, 2, (3, 15)) - 1).astype(np.float64)
        p = sdh.ProjectionSolver(x, jitter=0.0).solve(b)

        def fit(projection):
            return ((b - projection.T @ x) ** 2).sum()

        base = fit(p)
        for i, j in ((0, 0), (2, 1), (3, 2)):
            for delta in (1e-3, -1e-3):
                bumped = p.copy()
                bumped[i, j] += delta
                assert fit(bumped) >= base

    def test_singular_without_jitter(self):
        x = rank_deficient_features(np.random.default_rng(21))
        with pytest.raises(ValueError, match="singular"):
            sdh.ProjectionSolver(x, jitter=0.0).solve(np.ones((2, x.shape[1]), dtype=np.int8))

    def test_default_jitter_allocates_nothing_the_size_of_the_features(self):
        # The jitter is read from the Gram's trace, not from an M x N square of X.
        x = np.random.default_rng(22).standard_normal((50, 20_000))
        tracemalloc.start()
        try:
            sdh.ProjectionSolver(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 10

    @pytest.mark.parametrize("jitter", [None, 0.0, 0.5])
    def test_solution_equals_the_solve_on_a_fresh_jittered_gram(self, jitter):
        # Reference: the jittered Gram built beside X X^T and factored in a copy.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((40, 300))
        y = rng.standard_normal((3, 300))
        gram = x @ x.T
        diagonal = 1e-8 * float(np.trace(gram)) / x.shape[0] if jitter is None else jitter
        factor = scipy.linalg.cho_factor(gram + diagonal * np.eye(x.shape[0]))
        expected = scipy.linalg.cho_solve(factor, x @ y.T)
        assert np.array_equal(sdh.ProjectionSolver(x, jitter).solve(y), expected)

    def test_construction_holds_one_gram(self):
        # The jitter goes onto the Gram's diagonal and the factor overwrites
        # the Gram, so no second M x M matrix is built beside it.
        m = 1_000
        x = np.random.default_rng(25).standard_normal((m, 2 * m))
        tracemalloc.start()
        try:
            sdh.ProjectionSolver(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m * m * 8


class TestBStep:
    def test_zero_weights_reduce_to_projection_sign(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 12))
        p = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, 12)
        state = sdh.SdhState(codes=np.ones((4, 12), dtype=np.int8),
                             weights=np.zeros((4, 2)), projection=p,
                             lam=1.0, nu=0.5)
        b = sdh.b_step(state, labels, "dcc", projected=p.T @ x)
        assert np.array_equal(b, np.sign(p.T @ x).astype(np.int8))

    def test_nu_zero_yields_one_code_per_class(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 100))
        labels = rng.integers(0, 2, 100)
        state = sdh.SdhState(codes=(2 * rng.integers(0, 2, (8, 100)) - 1).astype(np.int8),
                             weights=rng.standard_normal((8, 2)),
                             projection=rng.standard_normal((6, 8)),
                             lam=1.0, nu=0.0)
        b = sdh.b_step(state, labels, "dcc", projected=state.projection.T @ x)
        assert len(np.unique(b.T, axis=0)) == 2
        for cls in (0, 1):
            block = b[:, labels == cls]
            assert np.all(block == block[:, :1])

    def test_exact_search_matches_per_column_oracle(self):
        rng = np.random.default_rng(9)
        bits, classes, samples = 8, 3, 12
        x = rng.standard_normal((5, samples))
        labels = np.arange(samples) % classes
        w = rng.standard_normal((bits, classes))
        p = rng.standard_normal((5, bits))
        state = sdh.SdhState(codes=np.ones((bits, samples), dtype=np.int8),
                             weights=w, projection=p, lam=1.0, nu=1e-3)
        b = sdh.b_step(state, labels, "branch_and_bound", projected=p.T @ x)
        assert b.dtype == np.int8
        q = w @ w.T
        y = sdh.one_hot(labels, classes)
        f_all = -2.0 * (w @ y + state.nu * (p.T @ x))
        for i in range(samples):
            expected, _ = oracles.biqp_brute_force(q, f_all[:, i])
            assert np.array_equal(b[:, i], expected), i

    def test_dcc_code_does_not_depend_on_batch(self, monkeypatch):
        # dcc_batch computes each bit's argument as one product over every
        # problem in the batch, which may round differently from a
        # one-column product. On trained problem sets (kernel features,
        # L = 64, nu > 0: one problem per sample) each problem solved alone
        # must still match its column of the batched solve.
        data = dataset.normalize(dataset.synth_blobs(10, 50, 32, 1.5, 7))
        kmap = kernelmap.fit_anchors(data, 100, 0.4, 0)
        features = kernelmap.transform(kmap, data.features)
        problem_sets = []
        solve_batch = biqp.solve_batch

        def record(factor, linear, init, solver, **options):
            problem_sets.append((factor @ factor.T, linear, init, options["max_sweeps"]))
            return solve_batch(factor, linear, init, solver, **options)

        monkeypatch.setattr(biqp, "solve_batch", record)
        sdh.train_sdh(features, data.labels, 10, 64, nu=1e-5, max_iters=2, solver="dcc")
        assert len(problem_sets) == 2
        for q, linear, init, sweeps in problem_sets:
            assert linear.shape == (64, 500)
            batched = biqp.dcc_batch(q, linear, init, max_sweeps=sweeps)
            for k in range(linear.shape[1]):
                alone = biqp.dcc_batch(q, linear[:, k:k + 1], init[:, k:k + 1],
                                       max_sweeps=sweeps)
                assert np.array_equal(alone[:, 0], batched[:, k]), k

    @pytest.mark.parametrize("solver", ["dcc", "branch_and_bound"])
    @pytest.mark.parametrize("nu", [0.0, 1e-2])
    def test_leaves_the_given_codes_untouched(self, solver, nu):
        # The trainer detects a fixed point by comparing the code step's
        # output with its input, which must not be the same array.
        rng = np.random.default_rng(26)
        x, labels, classes, bits = toy_problem(rng, features=6, samples=30, classes=3, bits=8)
        start = (2 * rng.integers(0, 2, (bits, 30)) - 1).astype(np.int8)
        state = sdh.SdhState(codes=start.copy(), weights=rng.standard_normal((bits, classes)),
                             projection=rng.standard_normal((6, bits)), lam=1.0, nu=nu)
        b = sdh.b_step(state, labels, solver, projected=state.projection.T @ x)
        assert np.array_equal(state.codes, start)
        assert not np.shares_memory(b, state.codes)
        assert not np.array_equal(b, start)

    def test_features_are_not_accepted_positionally(self):
        # P^T X is keyword-only: an (L, N) feature matrix passed where the
        # features used to go must not be read as P^T X.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 6))
        labels = np.array([0, 1, 0, 1, 0, 1])
        state = sdh.SdhState(codes=np.ones((4, 6), dtype=np.int8),
                             weights=rng.standard_normal((4, 2)),
                             projection=rng.standard_normal((4, 4)), lam=1.0, nu=1e-2)
        with pytest.raises(TypeError):
            sdh.objective(state, x, labels)
        with pytest.raises(TypeError):
            sdh.b_step(state, x, labels, "dcc")


class TestTrainSdh:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        x, labels, classes, bits = toy_problem(rng)
        a_state, a_traj = sdh.train_sdh(x, labels, classes, bits, seed=3)
        b_state, b_traj = sdh.train_sdh(x, labels, classes, bits, seed=3)
        assert np.array_equal(a_state.codes, b_state.codes)
        assert [t.total for t in a_traj] == [t.total for t in b_traj]

    def test_final_objectives_vary_across_seeds(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 10))
        labels = np.arange(10)
        finals = set()
        for seed in range(10):
            _, traj = sdh.train_sdh(x, labels, 10, 16, nu=0.0, seed=seed,
                                    solver="dcc")
            finals.add(round(traj[-1].total, 6))
        assert len(finals) > 1

    def test_second_iteration_does_not_increase_nu_zero_objective(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6))
        labels = np.array([0, 1, 2, 0, 1, 2])
        _, traj = sdh.train_sdh(x, labels, 3, 4, nu=0.0, max_iters=2,
                                seed=0, solver="branch_and_bound")
        assert traj[1].total <= traj[0].total + 1e-9

    def test_code_step_descends_at_fixed_weights(self):
        rng = np.random.default_rng(14)
        x, labels, classes, bits = toy_problem(rng, samples=10)
        state, _ = sdh.train_sdh(x, labels, classes, bits, nu=1e-3,
                                 max_iters=1, seed=1, solver="branch_and_bound")
        projected = state.projection.T @ x
        before = sdh.objective(state, labels, projected=projected)
        state.codes = sdh.b_step(state, labels, "branch_and_bound", projected=projected)
        after = sdh.objective(state, labels, projected=projected)
        assert after.total <= before.total + 1e-9

    def test_trajectory_is_recorded_per_iteration(self):
        rng = np.random.default_rng(15)
        x, labels, classes, bits = toy_problem(rng)
        _, traj = sdh.train_sdh(x, labels, classes, bits, max_iters=4, seed=0)
        assert len(traj) == 4

    @pytest.mark.parametrize("solver, sweeps, match", [
        ("branch_and_bound", 0, "sweeps must be >= 1, got 0"),
        ("exhaustive", -1, "sweeps must be >= 1, got -1"),
        ("dcc", 0, "sweeps must be >= 1, got 0"),
        ("nope", 3, "unknown solver 'nope'"),
    ])
    def test_checks_solver_and_sweeps_before_the_factor(self, monkeypatch, solver, sweeps,
                                                        match):
        # branch_and_bound with sweeps=0 returned normally, and an unknown
        # solver failed only after the Gram, the Cholesky and the first solve.
        rng = np.random.default_rng(16)
        x, labels, classes, bits = toy_problem(rng)

        def unreachable(*args, **kwargs):
            raise AssertionError("the M x M factor was built before the argument checks")

        monkeypatch.setattr(sdh, "ProjectionSolver", unreachable)
        with pytest.raises(ValueError, match=match):
            sdh.train_sdh(x, labels, classes, bits, solver=solver, sweeps=sweeps)

    # `fixed_at` is the first iteration whose code step flips no bit (None:
    # none within `iters`); the trainer stops there, the reference does not.
    @pytest.mark.parametrize("solver, nu, shape, iters, fixed_at", [
        pytest.param("dcc", 1e-2, (6, 30, 3, 8), 4, None, id="dcc"),
        pytest.param("branch_and_bound", 1e-2, (6, 30, 3, 8), 4, None, id="branch_and_bound"),
        # In this shape a code matrix in Fortran order changes the rounding
        # of the next classifier and projection steps.
        pytest.param("dcc", 0.0, (8, 24, 4, 12), 4, 2, id="dcc-nu0"),
        pytest.param("branch_and_bound", 0.0, (8, 24, 4, 12), 4, 2, id="branch_and_bound-nu0"),
        # The fig1 study's shape: one sample per class, L = 16, 20 iterations.
        # The random start is already a fixed point.
        pytest.param("dcc", 0.0, (10, 10, 10, 16), 20, 1, id="fig1-dcc"),
        pytest.param("branch_and_bound", 0.0, (10, 10, 10, 16), 20, 1,
                     id="fig1-branch_and_bound"),
        pytest.param("dcc", 0.1, (6, 30, 3, 8), 20, 10, id="dcc-nu0.1-stops-mid-run"),
    ])
    def test_matches_loop_that_refactors_every_iteration(self, solver, nu, shape, iters,
                                                         fixed_at):
        # Reference: the Gram matrix is rebuilt and factored in every
        # iteration, without the package's projection solver, and all `iters`
        # iterations run. At nu = 0 the code step does not go through
        # `b_step` either.
        features, samples, classes, bits = shape
        rng = np.random.default_rng(22)
        x, labels, classes, bits = toy_problem(rng, features=features, samples=samples,
                                               classes=classes, bits=bits)
        lam, seed = 1.0, 5
        state, trajectory = sdh.train_sdh(x, labels, classes, bits, lam=lam,
                                          nu=nu, max_iters=iters, seed=seed,
                                          solver=solver)

        init_rng = np.random.default_rng(seed)
        ref = sdh.SdhState(
            codes=(2 * init_rng.integers(0, 2, size=(bits, x.shape[1])) - 1).astype(np.int8),
            weights=np.zeros((bits, classes)),
            projection=np.zeros((x.shape[0], bits)), lam=lam, nu=nu)
        jitter = 1e-8 * float((x * x).sum()) / x.shape[0]
        ref_trajectory, ref_flips = [], []
        for _ in range(iters):
            gram = x @ x.T + jitter * np.eye(x.shape[0])
            factor = scipy.linalg.cho_factor(gram)
            ref.projection = scipy.linalg.cho_solve(
                factor, x @ ref.codes.astype(np.float64).T)
            ref.weights = sdh.w_step(ref.codes, labels, classes, lam)
            projected = ref.projection.T @ x
            previous = ref.codes.copy()
            if nu == 0.0:
                ref.codes = per_class_code_step(ref, labels, solver)
            else:
                ref.codes = sdh.b_step(ref, labels, solver, projected=projected)
            ref_flips.append(int((ref.codes != previous).sum()))
            ref_trajectory.append(sdh.objective(ref, labels, projected=projected))

        assert (ref_flips.index(0) + 1 if 0 in ref_flips else None) == fixed_at
        assert np.array_equal(state.projection, ref.projection)
        assert np.array_equal(state.weights, ref.weights)
        assert np.array_equal(state.codes, ref.codes)
        assert trajectory == ref_trajectory
        assert state.bits_flipped == ref_flips

    def test_a_fixed_point_start_runs_one_code_step(self, monkeypatch):
        # fig1's shape at nu = 0: the random start is a fixed point, so the
        # first code step flips nothing and ends the run.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 10))
        solve_batch = biqp.solve_batch
        calls = []

        def spy(*args, **options):
            calls.append(args[1].shape)
            return solve_batch(*args, **options)

        monkeypatch.setattr(biqp, "solve_batch", spy)
        state, trajectory = sdh.train_sdh(x, np.arange(10), 10, 16, nu=0.0, max_iters=20,
                                          seed=0, solver="branch_and_bound")
        assert calls == [(16, 10)]
        assert len(trajectory) == 20
        assert all(step == trajectory[0] for step in trajectory)
        assert state.bits_flipped == [0] * 20


class TestObjective:
    def test_zero_classifier(self):
        rng = np.random.default_rng(16)
        n = 9
        labels = rng.integers(0, 3, n)
        state = sdh.SdhState(codes=np.ones((4, n), dtype=np.int8),
                             weights=np.zeros((4, 3)),
                             projection=np.zeros((2, 4)), lam=1.0, nu=0.0)
        breakdown = sdh.objective(state, labels, projected=np.zeros((4, n)))
        assert breakdown.classification_term == pytest.approx(n)
        assert breakdown.total == pytest.approx(n)

    def test_fsdh_state_with_one_sample_per_class(self):
        bits, classes, lam = 16, 10, 1.0
        cc = codes.hadamard_codes(bits, classes)
        labels = np.arange(classes)
        x = np.eye(classes) * 0.5
        state = sdh.SdhState(
            codes=codes.expand_codes(cc, labels),
            weights=cc.codes / (bits + lam),
            projection=np.zeros((classes, bits)), lam=lam, nu=0.0)
        breakdown = sdh.objective(state, labels, projected=state.projection.T @ x)
        # The brute-force code oracle confirmed C*lam/(L+lam) as the optimum
        # of this quantity, not L/(L+lam).
        expected = classes * lam / (bits + lam)
        assert breakdown.classification_term + breakdown.regularizer == pytest.approx(
            expected, abs=1e-12)

    def test_total_is_nonnegative_sum(self):
        rng = np.random.default_rng(17)
        x, labels, classes, bits = toy_problem(rng)
        state, _ = sdh.train_sdh(x, labels, classes, bits, seed=0)
        breakdown = sdh.objective(state, labels, projected=state.projection.T @ x)
        assert breakdown.total >= 0
        assert breakdown.total == pytest.approx(
            breakdown.classification_term + breakdown.regularizer + breakdown.bias_term)
        assert breakdown.bias_term == pytest.approx(state.nu * breakdown.p_loss)


class TestMagnitudeReport:
    def test_trained_ratio_is_large_at_small_nu(self):
        from sdhkit import dataset, kernelmap

        data = dataset.normalize(dataset.synth_blobs(5, 60, 12, 0.3, seed=4))
        kmap = kernelmap.fit_anchors(data, 40, 0.4, seed=0)
        x = kernelmap.transform(kmap, data.features)
        state, _ = sdh.train_sdh(x, data.labels, 5, 16, nu=1e-5, seed=0)
        # A4: in the code step's linear term, the classification part W Y
        # dwarfs the bias part nu P^T X.
        classification = ((state.weights @ sdh.one_hot(data.labels, 5)) ** 2).sum()
        bias = state.nu * ((state.projection.T @ x) ** 2).sum()
        assert classification / bias > 100
