import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhkit import index

import oracles


def random_signs(rng, bits, count):
    return (2 * rng.integers(0, 2, (bits, count)) - 1).astype(np.int8)


class TestPack:
    def test_layout_example(self):
        signs = np.array([[1], [-1], [1], [-1]], dtype=np.int8)
        packed = index.pack(signs)
        assert packed.words[0, 0] == 0b0101
        assert packed.bits == 4

    def test_sixty_five_bits_spill_into_second_word(self):
        signs = -np.ones((65, 1), dtype=np.int8)
        signs[64, 0] = 1
        packed = index.pack(signs)
        assert packed.words.shape == (1, 2)
        assert packed.words[0, 0] == 0
        assert packed.words[0, 1] == 1

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        signs = random_signs(rng, 128, 50)
        assert np.array_equal(index.unpack(index.pack(signs)), signs)

    @pytest.mark.parametrize("bits", [1, 63, 64, 65, 512])
    def test_matches_per_bit_definition(self, bits):
        signs = random_signs(np.random.default_rng(bits), bits, 7)
        packed = index.pack(signs)
        assert packed.words.dtype == np.uint64
        assert np.array_equal(packed.words, oracles.pack_loop(signs))

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValueError, match="-1 and \\+1"):
            index.pack(np.array([[0], [1]]))

    def test_tail_bits_validated(self):
        with pytest.raises(ValueError, match="tail bits"):
            index.PackedCodes(words=np.array([[0xFF]], dtype=np.uint64), bits=4)

    @given(bits=st.integers(1, 130), count=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, bits, count, seed):
        rng = np.random.default_rng(seed)
        signs = random_signs(rng, bits, count)
        assert np.array_equal(index.unpack(index.pack(signs)), signs)


class TestHamming:
    def test_identical_codes(self):
        packed = index.pack(random_signs(np.random.default_rng(1), 32, 1))
        assert index.hamming(packed.code(0), packed.code(0)) == 0

    def test_hand_count(self):
        a = index.pack(np.array([[-1], [1], [-1], [1]], dtype=np.int8))  # 0b1010
        b = index.pack(np.array([[-1], [1], [1], [-1]], dtype=np.int8))  # 0b0110
        assert index.hamming(a.code(0), b.code(0)) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            index.hamming(np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64))

    def test_against_bit_loop_oracle(self):
        rng = np.random.default_rng(2)
        signs = random_signs(rng, 70, 200)
        packed = index.pack(signs)
        for _ in range(1000):
            i, j = rng.integers(0, 200, 2)
            assert (index.hamming(packed.code(i), packed.code(j))
                    == oracles.hamming_loop(signs[:, i], signs[:, j]))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        signs = random_signs(rng, 48, 60)
        packed = index.pack(signs)
        for _ in range(300):
            i, j, k = rng.integers(0, 60, 3)
            dij = index.hamming(packed.code(i), packed.code(j))
            djk = index.hamming(packed.code(j), packed.code(k))
            dik = index.hamming(packed.code(i), packed.code(k))
            assert dik <= dij + djk


class TestSearch:
    def make_index(self, rng, bits=32, count=500):
        signs = random_signs(rng, bits, count)
        packed = index.pack(signs)
        labels = rng.integers(0, 5, count)
        return index.CodeIndex(codes=packed, labels=labels), signs

    def test_radius_zero_finds_exact_match(self):
        rng = np.random.default_rng(4)
        signs = random_signs(rng, 32, 40)
        # Make column 7 unique by construction.
        target = signs[:, 7].copy()
        for c in range(40):
            if c != 7 and np.array_equal(signs[:, c], target):
                signs[0, c] = -signs[0, c]
        packed = index.pack(signs)
        idx = index.CodeIndex(codes=packed, labels=np.zeros(40, dtype=np.int64))
        hits = index.radius_search(idx, packed.code(7), 0)
        assert hits == [(7, 0)]

    def test_radius_full_returns_everything(self):
        rng = np.random.default_rng(5)
        idx, _ = self.make_index(rng, bits=16, count=30)
        hits = index.radius_search(idx, idx.codes.code(0), 16)
        assert len(hits) == 30

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        idx, signs = self.make_index(rng, bits=32, count=500)
        for qi in range(20):
            expected = oracles.sign_distances(signs, signs[:, qi])
            hits = index.radius_search(idx, idx.codes.code(qi), 2)
            expected_ids = set(np.flatnonzero(expected <= 2))
            assert {i for i, _ in hits} == expected_ids
            assert all(d == expected[i] for i, d in hits)
            assert hits == sorted(hits, key=lambda t: (t[1], t[0]))

    def test_nested_in_radius(self):
        rng = np.random.default_rng(7)
        idx, _ = self.make_index(rng, bits=24, count=100)
        query = idx.codes.code(3)
        previous = set()
        for radius in range(0, 25, 4):
            current = {i for i, _ in index.radius_search(idx, query, radius)}
            assert previous <= current
            previous = current


class TestRankAll:
    def test_all_equal_codes_give_identity_permutation(self):
        signs = np.ones((8, 10), dtype=np.int8)
        idx = index.CodeIndex(codes=index.pack(signs),
                              labels=np.zeros(10, dtype=np.int64))
        order = index.rank_all(idx, idx.codes.code(0))
        assert np.array_equal(order, np.arange(10))

    def test_hand_built_distances(self):
        # Codes at distances (2, 0, 1) from the query.
        query_signs = np.array([1, 1, 1, 1], dtype=np.int8)
        signs = np.array([
            [-1, 1, 1],
            [-1, 1, 1],
            [1, 1, -1],
            [1, 1, 1],
        ], dtype=np.int8)
        idx = index.CodeIndex(codes=index.pack(signs),
                              labels=np.zeros(3, dtype=np.int64))
        query = index.pack(query_signs[:, None]).code(0)
        assert np.array_equal(index.rank_all(idx, query), [1, 2, 0])

    def test_matches_sort_oracle_and_is_permutation(self):
        rng = np.random.default_rng(8)
        signs = random_signs(rng, 32, 200)
        idx = index.CodeIndex(codes=index.pack(signs),
                              labels=np.zeros(200, dtype=np.int64))
        for qi in range(10):
            order = index.rank_all(idx, idx.codes.code(qi))
            assert np.array_equal(np.sort(order), np.arange(200))
            dist = oracles.sign_distances(signs, signs[:, qi])
            expected = np.lexsort((np.arange(200), dist))
            assert np.array_equal(order, expected)


def test_hamming_matrix_matches_pairwise():
    rng = np.random.default_rng(9)
    db = index.pack(random_signs(rng, 65, 40))
    queries = index.pack(random_signs(rng, 65, 7))
    matrix = index.hamming_matrix(db, queries, block=3)
    for qi in range(7):
        for di in range(40):
            assert matrix[qi, di] == index.hamming(queries.code(qi), db.code(di))
