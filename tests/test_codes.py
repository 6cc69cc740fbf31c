import tracemalloc

import numpy as np
import pytest

from sdhkit import codes

import oracles


POWERS_OF_TWO = [1 << k for k in range(1, 13)]


class TestSylvesterOracle:
    def test_order_two(self):
        assert np.array_equal(oracles.sylvester(2), [[1, 1], [1, -1]])

    def test_order_four(self):
        expected = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert np.array_equal(oracles.sylvester(4), expected)

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 64, 256])
    def test_orthogonality_exact_in_integers(self, order):
        h = oracles.sylvester(order).astype(np.int64)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))


class TestHadamardCodes:
    @pytest.mark.parametrize("bits", POWERS_OF_TWO)
    def test_columns_match_the_block_recursion(self, bits):
        h = oracles.sylvester(bits)
        for classes in range(1, min(bits, 64) + 1):
            cc = codes.hadamard_codes(bits, classes)
            assert cc.codes.dtype == np.int8
            assert np.array_equal(cc.codes, h[:, :classes]), classes

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            codes.hadamard_codes(24, 2)

    @pytest.mark.parametrize("bits", [8192, 16384])
    def test_long_codes_match_popcount_parity(self, bits):
        # Entry (j, c) is (-1)^popcount(j & c), checked with Python ints at
        # sampled pairs, where the block-recursion oracle is too large.
        cc = codes.hadamard_codes(bits, 16)
        assert cc.codes.shape == (bits, 16)
        rng = np.random.default_rng(bits)
        for j, c in zip(rng.integers(0, bits, 200).tolist(), rng.integers(0, 16, 200).tolist()):
            assert cc.codes[j, c] == (-1) ** bin(j & c).count("1")

    def test_first_columns_of_h4(self):
        cc = codes.hadamard_codes(4, 2)
        assert np.array_equal(cc.codes[:, 0], [1, 1, 1, 1])
        assert np.array_equal(cc.codes[:, 1], [1, -1, 1, -1])
        assert oracles.hamming_loop(cc.codes[:, 0], cc.codes[:, 1]) == 2

    def test_all_columns_of_h8(self):
        cc = codes.hadamard_codes(8, 8)
        for i in range(8):
            for j in range(i + 1, 8):
                assert oracles.hamming_loop(cc.codes[:, i], cc.codes[:, j]) == 4

    def test_too_many_classes(self):
        with pytest.raises(ValueError, match="assumption A2"):
            codes.hadamard_codes(4, 5)

    def test_pairwise_orthogonality(self):
        cc = codes.hadamard_codes(16, 10)
        gram = cc.codes.astype(np.int64).T @ cc.codes.astype(np.int64)
        assert np.array_equal(gram, 16 * np.eye(10, dtype=np.int64))

    @pytest.mark.parametrize("bits,classes", [(2 ** k, 10) for k in range(4, 13)]
                             + [(64, 3), (64, 5), (256, 100)])
    def test_rows_repeat_with_the_class_count_period(self, bits, classes):
        # Entry (j, c) is (-1)^popcount(j & c), and for c < C that reads only
        # the low ceil(log2 C) bits of j: p = 2^ceil(log2 C) distinct rows,
        # tiled L / p times.
        period = 1 << (classes - 1).bit_length()
        cc = codes.hadamard_codes(bits, classes).codes
        assert len(np.unique(cc[:period], axis=0)) == period
        assert np.array_equal(cc, np.tile(cc[:period], (bits // period, 1)))
        assert codes.hadamard_codes(bits, classes).distinct_bits == period


class TestExpandCodes:
    def test_lines_up_by_label(self):
        cc = codes.hadamard_codes(2, 2)
        b = codes.expand_codes(cc, np.array([0, 1, 0]))
        assert np.array_equal(b[:, 0], cc.codes[:, 0])
        assert np.array_equal(b[:, 1], cc.codes[:, 1])
        assert np.array_equal(b[:, 2], cc.codes[:, 0])

    def test_empty_labels(self):
        cc = codes.hadamard_codes(4, 2)
        b = codes.expand_codes(cc, np.array([], dtype=np.int64))
        assert b.shape == (4, 0)

    def test_sorted_labels_give_block_gram(self):
        bits, classes, per_class = 8, 4, 3
        cc = codes.hadamard_codes(bits, classes)
        labels = np.repeat(np.arange(classes), per_class)
        b = codes.expand_codes(cc, labels).astype(np.int64)
        gram = b.T @ b
        expected = np.kron(np.eye(classes, dtype=np.int64),
                           np.full((per_class, per_class), bits, dtype=np.int64))
        assert np.array_equal(gram, expected)


class TestObjectiveOracle:
    def test_two_bits_one_class(self):
        report = oracles.fsdh_objective_oracle(2, 1, 1.0)
        assert report.brute_force_value == pytest.approx(1 / 3, abs=1e-12)
        # Attained by the constant-sign codes (every single column has
        # squared norm 2, so all four candidates tie).
        assert np.array([[1], [1]], dtype=np.int8).tobytes() in report.optimal_set
        assert np.array([[-1], [-1]], dtype=np.int8).tobytes() in report.optimal_set

    def test_four_bits_two_classes(self):
        report = oracles.fsdh_objective_oracle(4, 2, 1.0)
        assert report.brute_force_value == pytest.approx(2 / 5, abs=1e-9)
        assert report.analytic_value == pytest.approx(2 / 5, abs=1e-12)
        hadamard_pick = codes.hadamard_codes(4, 2)
        assert hadamard_pick.codes.tobytes() in report.optimal_set

    def test_lambda_zero_reaches_zero(self):
        report = oracles.fsdh_objective_oracle(4, 2, 0.0)
        assert report.brute_force_value == pytest.approx(0.0, abs=1e-12)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="enumeration budget"):
            oracles.fsdh_objective_oracle(6, 2, 1.0)

    @pytest.mark.parametrize("bits,classes", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 3)])
    def test_hadamard_submatrix_attains_the_minimum(self, bits, classes):
        for lam in (0.5, 1.0, 2.0):
            report = oracles.fsdh_objective_oracle(bits, classes, lam)
            pick = codes.hadamard_codes(bits, classes)
            value = oracles.ridge_classifier_objective(pick.codes, lam)
            assert abs(value - report.brute_force_value) < 1e-9
            assert abs(report.brute_force_value - report.analytic_value) < 1e-9

    @pytest.mark.parametrize("bits,classes", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 3)])
    def test_minimizer_set_is_lambda_invariant(self, bits, classes):
        sets = [oracles.fsdh_objective_oracle(bits, classes, lam).optimal_set
                for lam in (0.1, 1.0, 10.0)]
        assert sets[0] == sets[1] == sets[2]

    def test_uniform_allocation_minimizes_grid_search(self):
        # f(x) = lam/(x+lam) summed over three allocations constrained to a
        # fixed total: the grid minimum must sit at the uniform split.
        for bits, classes, lam in ((16, 3, 1.0), (4, 2, 0.5)):
            total = bits * classes
            step = 0.01 * total
            (x1, x2, x3), _ = oracles.grid_simplex_min_3(
                lambda x: lam / (x + lam), total, step)
            uniform = total / 3.0
            assert abs(x1 - uniform) <= step + 1e-12
            assert abs(x2 - uniform) <= step + 1e-12
            assert abs(x3 - uniform) <= step + 1e-12


class TestClassCodesValidation:
    def test_rejects_non_orthogonal(self):
        bad = np.array([[1, 1], [1, 1]], dtype=np.int8)
        with pytest.raises(ValueError, match="orthogonal"):
            codes.ClassCodes(codes=bad)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            codes.ClassCodes(codes=np.ones((3, 1), dtype=np.int8))

    @pytest.mark.parametrize("bad", [0, 2, 0.5, 1.5, np.nan, np.int8(-128)])
    def test_rejects_entries_other_than_signs(self, bad):
        # 1.5 once passed as the int8 1 it casts to.
        signs = np.array([[1, 1], [1, -1]], dtype=np.asarray(bad).dtype)
        signs[1, 1] = bad
        with pytest.raises(ValueError, match="-1 and \\+1"):
            codes.ClassCodes(codes=signs)

    def test_accepts_signs_of_any_dtype_and_stores_int8(self):
        expected = codes.hadamard_codes(16, 10).codes
        for dtype in (np.int8, np.int64, np.float64):
            stored = codes.ClassCodes(codes=expected.astype(dtype)).codes
            assert stored.dtype == np.int8 and np.array_equal(stored, expected)

    def test_sign_check_peak_is_a_small_multiple_of_the_codes(self):
        # The sign check once took about 12 bytes per int8 sign.
        signs = codes.hadamard_codes(512, 512).codes.copy()
        signs[-1, -1] = 0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="-1 and \\+1"):
                codes.ClassCodes(codes=signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * signs.nbytes

    def test_orthogonality_check_peak_is_one_int64_gram(self):
        # One int64 copy of the codes and one C x C int64 Gram, 16 bytes per
        # sign at C = L; two copies and a separate bits * I took 24 bytes.
        signs = codes.hadamard_codes(512, 512).codes.copy()
        tracemalloc.start()
        try:
            codes.ClassCodes(codes=signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * signs.nbytes
