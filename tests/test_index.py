import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhkit import evaluate, index

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
        for bad in (np.array([[0], [1]]), np.array([[1, 2]]), np.array([[1.0, 0.5]]),
                    np.array([[-1.0, np.nan]]), np.array([[1, -128]], dtype=np.int8),
                    np.array([[-1, 0]], dtype=np.int8)):
            with pytest.raises(ValueError, match="-1 and \\+1"):
                index.pack(bad)

    def test_accepts_any_dtype_holding_only_signs(self):
        signs = random_signs(np.random.default_rng(4), 70, 9)
        expected = oracles.pack_loop(signs)
        for dtype in (np.int8, np.int64, np.float64):
            assert np.array_equal(index.pack(signs.astype(dtype)).words, expected)

    def test_peak_memory_is_a_small_multiple_of_the_signs(self):
        # The sign check once took about 12 bytes per int8 sign.
        signs = random_signs(np.random.default_rng(5), 512, 10_300)
        tracemalloc.start()
        try:
            index.pack(signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * signs.nbytes

    @pytest.mark.parametrize("words", [np.array([[1.5]]), np.array([[1.0]]),
                                       np.array([[True]]), np.array([["1"]])])
    def test_rejects_words_that_are_not_integers(self, words):
        # Casting them would silently truncate 1.5 to the word 1.
        with pytest.raises(ValueError, match="words must be integers"):
            index.PackedCodes(words=words, bits=2)

    def test_signed_words_keep_their_bits(self):
        packed = index.PackedCodes(words=np.array([[-1, 5]], dtype=np.int64), bits=128)
        assert packed.words.dtype == np.uint64
        assert packed.words.tolist() == [[2**64 - 1, 5]]

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
        assert index.hamming_matrix(packed, packed)[0, 0] == 0

    def test_hand_count(self):
        a = index.pack(np.array([[-1], [1], [-1], [1]], dtype=np.int8))  # 0b1010
        b = index.pack(np.array([[-1], [1], [1], [-1]], dtype=np.int8))  # 0b0110
        assert index.hamming_matrix(a, b)[0, 0] == 2

    def test_against_bit_loop_oracle(self):
        rng = np.random.default_rng(2)
        signs = random_signs(rng, 70, 200)
        packed = index.pack(signs)
        dist = index.hamming_matrix(packed, packed)
        for _ in range(1000):
            i, j = rng.integers(0, 200, 2)
            assert dist[i, j] == oracles.hamming_loop(signs[:, i], signs[:, j])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        signs = random_signs(rng, 48, 60)
        packed = index.pack(signs)
        dist = index.hamming_matrix(packed, packed).astype(np.int64)
        for _ in range(300):
            i, j, k = rng.integers(0, 60, 3)
            assert dist[i, k] <= dist[i, j] + dist[j, k]


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
        hits = index.radius_search(idx, packed.words[7], 0)
        assert hits == [(7, 0)]

    def test_radius_full_returns_everything(self):
        rng = np.random.default_rng(5)
        idx, _ = self.make_index(rng, bits=16, count=30)
        hits = index.radius_search(idx, idx.codes.words[0], 16)
        assert len(hits) == 30

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        idx, signs = self.make_index(rng, bits=32, count=500)
        for qi in range(20):
            expected = oracles.sign_distances(signs, signs[:, qi])
            hits = index.radius_search(idx, idx.codes.words[qi], 2)
            expected_ids = set(np.flatnonzero(expected <= 2))
            assert {i for i, _ in hits} == expected_ids
            assert all(d == expected[i] for i, d in hits)
            assert hits == sorted(hits, key=lambda t: (t[1], t[0]))

    def test_nested_in_radius(self):
        rng = np.random.default_rng(7)
        idx, _ = self.make_index(rng, bits=24, count=100)
        query = idx.codes.words[3]
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
        order = index.rank_all(idx, idx.codes.words[0])
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
        query = index.pack(query_signs[:, None]).words[0]
        assert np.array_equal(index.rank_all(idx, query), [1, 2, 0])

    def test_matches_sort_oracle_and_is_permutation(self):
        rng = np.random.default_rng(8)
        signs = random_signs(rng, 32, 200)
        idx = index.CodeIndex(codes=index.pack(signs),
                              labels=np.zeros(200, dtype=np.int64))
        for qi in range(10):
            order = index.rank_all(idx, idx.codes.words[qi])
            assert np.array_equal(np.sort(order), np.arange(200))
            dist = oracles.sign_distances(signs, signs[:, qi])
            expected = np.lexsort((np.arange(200), dist))
            assert np.array_equal(order, expected)


def expected_lookups(signs, query_signs, radius):
    """Radius hits and full ranking from the unpacked signs, ordered by
    (distance, id) with `np.lexsort`."""
    dist = oracles.sign_distances(signs, query_signs)
    ids = np.arange(signs.shape[1])
    within = ids[dist <= radius]
    within = within[np.lexsort((within, dist[within]))]
    return within, dist[within], np.lexsort((ids, dist))


def assert_lookups_match(idx, signs, query_signs, radius):
    ids, distances, ranking = expected_lookups(signs, query_signs, radius)
    query = index.pack(query_signs[:, None]).words[0]
    hits = index.radius_search(idx, query, radius)
    assert hits.ids.dtype == np.int64 and np.array_equal(hits.ids, ids)
    assert hits.distances.dtype == np.min_scalar_type(signs.shape[0])
    assert np.array_equal(hits.distances, distances)
    order = index.rank_all(idx, query)
    assert order.dtype == np.int64 and np.array_equal(order, ranking)


# Code lengths with and without a partly used last word.
LOOKUP_BITS = [1, 16, 63, 64, 65, 130, 512]


class TestBucketedLookups:
    """Lookups on databases of few distinct codes, which the index scores
    once per bucket, and of distinct codes, one bucket per item."""

    @pytest.mark.parametrize("bits", LOOKUP_BITS)
    @pytest.mark.parametrize("seed", range(6))
    def test_few_codes_with_heavy_duplication(self, bits, seed):
        rng = np.random.default_rng([bits, seed])
        distinct, count = int(rng.integers(1, 7)), int(rng.integers(1, 81))
        codes = random_signs(rng, bits, distinct)
        signs = codes[:, rng.integers(0, distinct, count)]
        spread = rng.random()
        query = codes[:, 0] * np.where(rng.random(bits) < spread / 2, -1, 1).astype(np.int8)
        # The index buckets its items by (code, label), so labels of a few
        # classes split a code into several buckets.
        for labels in (np.zeros(count, dtype=np.int64), rng.integers(0, 3, count)):
            idx = index.CodeIndex(codes=index.pack(signs), labels=labels)
            pairs = np.unique(np.vstack([signs, labels]), axis=1).shape[1]
            assert idx._buckets.words.count == pairs
            for radius in (0, int(spread * bits), bits, bits + 3):
                assert_lookups_match(idx, signs, query, radius)

    @pytest.mark.parametrize("bits", LOOKUP_BITS[1:])
    @pytest.mark.parametrize("seed", range(3))
    def test_all_distinct_codes(self, bits, seed):
        rng = np.random.default_rng([bits, seed])
        signs = np.unique(random_signs(rng, bits, int(rng.integers(1, 81))), axis=1)
        signs = signs[:, rng.permutation(signs.shape[1])]
        idx = index.CodeIndex(codes=index.pack(signs),
                              labels=np.zeros(signs.shape[1], dtype=np.int64))
        buckets = idx._buckets
        assert buckets.words.count == signs.shape[1]
        assert np.array_equal(buckets.words.words[buckets.of_item], idx.codes.words)
        assert (buckets.sizes == 1).all()
        for radius in (0, bits // 2, bits):
            assert_lookups_match(idx, signs, random_signs(rng, bits, 1)[:, 0], radius)
            assert_lookups_match(idx, signs, signs[:, -1], radius)

    @pytest.mark.parametrize("bits", LOOKUP_BITS)
    def test_empty_index(self, bits):
        # No items and no buckets: lookups return nothing, and evaluation
        # refuses the database.
        nwords = -(-bits // index.WORD_BITS)
        idx = index.CodeIndex(codes=index.PackedCodes(
            words=np.zeros((0, nwords), dtype=np.uint64), bits=bits),
            labels=np.zeros(0, dtype=np.int64))
        assert idx._buckets.words.count == 0 and idx._buckets.of_item.size == 0
        query = index.pack(random_signs(np.random.default_rng(bits), bits, 1))
        for radius in (0, bits):
            hits = index.radius_search(idx, query.words[0], radius)
            assert hits == [] and hits.ids.dtype == np.int64
        ranking = index.rank_all(idx, query.words[0])
        assert ranking.shape == (0,) and ranking.dtype == np.intp
        with pytest.raises(ValueError, match="empty database"):
            evaluate.retrieval_counts(idx, query, [0])

    @pytest.mark.parametrize("bits", LOOKUP_BITS)
    def test_single_item(self, bits):
        signs = random_signs(np.random.default_rng(bits), bits, 1)
        idx = index.CodeIndex(codes=index.pack(signs), labels=[0])
        for radius in (0, bits):
            assert_lookups_match(idx, signs, signs[:, 0], radius)
            assert_lookups_match(idx, signs, -signs[:, 0], radius)

    @pytest.mark.parametrize("bits", LOOKUP_BITS)
    def test_empty_result_and_radius_past_the_code_length(self, bits):
        # One code and, past one bit, a second code one bit away from it;
        # the query is the first code's complement.
        rng = np.random.default_rng(bits)
        codes = random_signs(rng, bits, 1).repeat(2, axis=1)
        codes[0, 1] = codes[0, 1] if bits == 1 else -codes[0, 1]
        signs = codes[:, rng.integers(0, 2, 50)]
        signs[:, :2] = codes
        idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(50, dtype=np.int64))
        assert idx._buckets.words.count == (2 if bits > 1 else 1)
        far = -codes[:, 0]
        nearest = max(1, bits - 1)
        assert index.radius_search(idx, index.pack(far[:, None]).words[0], nearest - 1) == []
        for radius in (nearest - 1, nearest, bits, bits + 1, 10 * bits):
            assert_lookups_match(idx, signs, far, radius)


def test_hamming_matrix_matches_pairwise():
    rng = np.random.default_rng(9)
    db_signs = random_signs(rng, 65, 40)
    q_signs = random_signs(rng, 65, 7)
    matrix = index.hamming_matrix(index.pack(db_signs), index.pack(q_signs))
    for qi in range(7):
        for di in range(40):
            assert matrix[qi, di] == oracles.hamming_loop(q_signs[:, qi], db_signs[:, di])


@pytest.mark.parametrize("bits,dtype", [(1, np.uint8), (64, np.uint8), (255, np.uint8),
                                        (256, np.uint16), (512, np.uint16)])
def test_hamming_matrix_narrow_dtype_matches_sign_oracle(bits, dtype):
    rng = np.random.default_rng(bits)
    db_signs = random_signs(rng, bits, 50)
    q_signs = random_signs(rng, bits, 9)
    matrix = index.hamming_matrix(index.pack(db_signs), index.pack(q_signs))
    assert matrix.dtype == dtype
    for qi in range(9):
        assert np.array_equal(matrix[qi], oracles.sign_distances(db_signs, q_signs[:, qi]))


def test_hamming_matrix_rejects_other_code_lengths():
    db = index.pack(random_signs(np.random.default_rng(10), 64, 5))
    with pytest.raises(ValueError, match="code length mismatch"):
        index.hamming_matrix(db, index.pack(random_signs(np.random.default_rng(11), 32, 2)))


class TestQueryWordCount:
    """A query row with the wrong number of words used to broadcast against
    the database and return distances over the wrong bits."""

    def make_index(self, bits):
        signs = random_signs(np.random.default_rng(bits), bits, 30)
        return index.CodeIndex(codes=index.pack(signs), labels=np.zeros(30, dtype=np.int64))

    def test_two_words_against_a_64_bit_index(self):
        idx = self.make_index(64)
        query = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="code length mismatch"):
            index.radius_search(idx, query, 2)
        with pytest.raises(ValueError, match="code length mismatch"):
            index.rank_all(idx, query)

    def test_set_tail_bits_are_rejected(self):
        idx = self.make_index(255)
        query = idx.codes.words[0].copy()
        query[-1] |= np.uint64(1 << 63)
        with pytest.raises(ValueError, match="tail bits"):
            index.radius_search(idx, query, 2)

    @pytest.mark.parametrize("query", [np.array([3.7]), np.array([True])])
    def test_non_integer_query_words_are_rejected(self, query):
        # A float row used to be truncated and searched as the word 3.
        idx = self.make_index(64)
        with pytest.raises(ValueError, match="words must be integers"):
            index.radius_search(idx, query, 0)
        with pytest.raises(ValueError, match="words must be integers"):
            index.rank_all(idx, query)

    def test_one_word_against_a_128_bit_index(self):
        idx = self.make_index(128)
        query = idx.codes.words[0][:1]
        with pytest.raises(ValueError, match="code length mismatch"):
            index.radius_search(idx, query, 2)
        with pytest.raises(ValueError, match="code length mismatch"):
            index.rank_all(idx, query)


def test_search_at_sixteen_bit_distances_matches_oracle():
    rng = np.random.default_rng(12)
    signs = random_signs(rng, 300, 120)
    signs[:, 5] = signs[:, 0]
    signs[:40, 9] = -signs[:40, 0]
    signs[40:, 9] = signs[40:, 0]
    idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(120, dtype=np.int64))
    expected = oracles.sign_distances(signs, signs[:, 0])
    hits = index.radius_search(idx, idx.codes.words[0], 280)
    within = np.flatnonzero(expected <= 280)
    assert hits == sorted(((int(i), int(expected[i])) for i in within),
                          key=lambda hit: (hit[1], hit[0]))
    assert hits[:2] == [(0, 0), (5, 0)] and (9, 40) in hits
    assert all(type(i) is int and type(d) is int for i, d in hits)
    assert np.array_equal(index.rank_all(idx, idx.codes.words[0]),
                          np.lexsort((np.arange(120), expected)))


def test_retained_memory_of_an_all_distinct_index():
    # Every item is a bucket of its own: the index keeps a copy of the
    # 64-bit words in its buckets and, beside its labels, five arrays of
    # length N, 56 bytes per item.
    rng = np.random.default_rng(36)
    count = 20_000
    words = rng.integers(0, np.iinfo(np.uint64).max, (count, 1), dtype=np.uint64,
                         endpoint=True)
    assert np.unique(words).size == count
    codes = index.PackedCodes(words=words, bits=64)
    labels = rng.integers(0, 10, count)
    tracemalloc.start()
    try:
        idx = index.CodeIndex(codes=codes, labels=labels)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert idx._buckets.words.count == count
    assert retained < 64 * count


def test_lookup_does_not_copy_the_database():
    # The codes hold the layout the kernel scans from construction on, so even
    # the first lookup on a fresh index allocates only per-query rows.
    signs = random_signs(np.random.default_rng(13), 512, 10_000)
    idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(10_000, dtype=np.int64))
    query = idx.codes.words[17]
    tracemalloc.start()
    try:
        index.rank_all(idx, query)
        index.radius_search(idx, query, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < idx.codes.words.nbytes / 2


@pytest.mark.parametrize("bits", [64, 65, 130, 512])
def test_writes_to_the_source_array_do_not_reach_the_index(bits):
    # Neither a writable array nor a read-only view of one can change the
    # codes, and every index, packed ones too, scans a read-only, contiguous
    # row per word.
    rng = np.random.default_rng(bits)
    signs = random_signs(rng, bits, 60)
    source = oracles.pack_loop(signs)
    view = source.view()
    view.flags.writeable = False
    codes = [index.PackedCodes(words=source, bits=bits),
             index.PackedCodes(words=view, bits=bits), index.pack(signs)]
    indexes = [index.CodeIndex(codes=c, labels=np.zeros(60, dtype=np.int64)) for c in codes]
    query = indexes[0].codes.words[4].copy()
    source[:] = 0
    expected = oracles.sign_distances(signs, signs[:, 4])
    within = np.flatnonzero(expected <= bits // 2)
    for idx in indexes:
        assert np.array_equal(index.rank_all(idx, query), np.lexsort((np.arange(60), expected)))
        assert index.radius_search(idx, query, bits // 2) == sorted(
            ((int(i), int(expected[i])) for i in within), key=lambda hit: (hit[1], hit[0]))
        scanned = idx.codes.words.T
        assert scanned.shape == (-(-bits // 64), 60)
        assert scanned.flags.c_contiguous and not scanned.flags.writeable


class TestLabels:
    def test_caller_writes_do_not_reach_the_labels(self):
        labels = np.array([0, 1, 2, 1], dtype=np.int64)
        idx = index.CodeIndex(codes=index.pack(np.ones((8, 4), dtype=np.int8)), labels=labels)
        labels[:] = 7
        assert np.array_equal(idx.labels, [0, 1, 2, 1])
        assert idx.labels.dtype == np.int64 and not idx.labels.flags.writeable

    @pytest.mark.parametrize("labels", [
        [0.5, 1.7, 2.2],
        [0.0, np.nan, 1.0],
        [0.0, np.inf, 1.0],
        [0.0, 1.0, 2.0 ** 63],
        np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64),
        ["0", "1", "2"],
        [0, 1],
        [[0, 1, 2]],
    ])
    def test_rejects_labels_that_are_not_integers(self, labels):
        codes = index.pack(np.ones((8, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="labels must"):
            index.CodeIndex(codes=codes, labels=labels)

    def test_whole_floats_and_narrow_integers_keep_their_values(self):
        codes = index.pack(np.ones((8, 3), dtype=np.int8))
        for labels in ([0.0, 3.0, -2.0], np.array([0, 3, 254], dtype=np.uint8)):
            idx = index.CodeIndex(codes=codes, labels=labels)
            assert idx.labels.dtype == np.int64
            assert np.array_equal(idx.labels, np.asarray(labels).astype(np.int64))


class TestHits:
    @pytest.mark.parametrize("bits,dtype", [(32, np.uint8), (300, np.uint16)])
    def test_arrays_are_read_only_in_the_kernel_dtype(self, bits, dtype):
        signs = random_signs(np.random.default_rng(bits), bits, 50)
        idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(50, dtype=np.int64))
        hits = index.radius_search(idx, idx.codes.words[0], bits)
        assert hits.ids.dtype == np.int64 and hits.distances.dtype == dtype
        assert not hits.ids.flags.writeable and not hits.distances.flags.writeable
        assert len(hits) == 50

    def test_arrays_match_the_sign_oracle_in_distance_then_id_order(self):
        signs = random_signs(np.random.default_rng(14), 16, 400)
        idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(400, dtype=np.int64))
        for qi in range(5):
            expected = oracles.sign_distances(signs, signs[:, qi])
            within = np.flatnonzero(expected <= 5)
            within = within[np.lexsort((within, expected[within]))]
            hits = index.radius_search(idx, idx.codes.words[qi], 5)
            assert np.array_equal(hits.ids, within)
            assert np.array_equal(hits.distances, expected[within])

    def test_a_slice_is_hits(self):
        signs = random_signs(np.random.default_rng(15), 8, 40)
        idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(40, dtype=np.int64))
        hits = index.radius_search(idx, idx.codes.words[0], 3)
        head = hits[1:4]
        assert isinstance(head, index.Hits)
        assert head == list(hits)[1:4]
        assert hits[-1] == list(hits)[-1]

    def test_equality_with_lists_tuples_and_hits(self):
        hits = index.Hits(ids=np.array([4, 2]), distances=np.array([0, 1], dtype=np.uint8))
        assert hits == [(4, 0), (2, 1)]
        assert hits == ((4, 0), (2, 1))
        assert hits == index.Hits(ids=np.array([4, 2]),
                                  distances=np.array([0, 1], dtype=np.uint16))
        assert [(4, 0), (2, 1)] == hits
        assert hits != [(4, 0), (2, 2)]
        assert hits != [(4, 0)]
        assert hits.__eq__(np.array([[4, 0], [2, 1]])) is NotImplemented
        with pytest.raises(TypeError):
            hash(hits)

    def test_an_empty_result_equals_an_empty_list(self):
        signs = np.ones((64, 20), dtype=np.int8)
        idx = index.CodeIndex(codes=index.pack(signs), labels=np.zeros(20, dtype=np.int64))
        query = index.pack(-np.ones((64, 1), dtype=np.int8)).words[0]
        hits = index.radius_search(idx, query, 2)
        assert hits == [] and len(hits) == 0 and list(hits) == []
        assert hits.ids.dtype == np.int64


def test_search_allocates_no_object_per_hit():
    # Every code matches, so a result of tuples would hold 10,000 of them
    # (about 1.1 MB); the arrays take 90 kB.
    idx = index.CodeIndex(codes=index.pack(np.ones((64, 10_000), dtype=np.int8)),
                          labels=np.zeros(10_000, dtype=np.int64))
    query = idx.codes.words[0]
    index.radius_search(idx, query, 0)
    tracemalloc.start()
    try:
        hits = index.radius_search(idx, query, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hits) == 10_000
    assert peak < 400_000
