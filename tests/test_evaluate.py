import tracemalloc

import numpy as np
import pytest

from sdhkit import codes, dataset, evaluate, fsdh, index, kernelmap, sdh
from sdhkit.model import DatasetFingerprint, HashModel

import oracles


def pack_signs(signs):
    return index.pack(np.asarray(signs, dtype=np.int8))


def small_instance(rng, bits=16, count=60, classes=3):
    signs = (2 * rng.integers(0, 2, (bits, count)) - 1).astype(np.int8)
    labels = rng.integers(0, classes, count)
    labels[:classes] = np.arange(classes)
    idx = index.CodeIndex(codes=pack_signs(signs), labels=labels)
    return idx, signs, labels


class TestPrecisionRecall:
    def test_hand_example_three_of_four_match(self):
        # One query at distance <= 1 from four database codes, three sharing
        # its label.
        db_signs = np.array([
            [1, 1, 1, 1, -1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, -1, 1, 1, -1],
        ], dtype=np.int8)
        labels = np.array([0, 0, 0, 1, 0])
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=labels)
        query = pack_signs(np.array([[1], [1], [1], [1]]))
        report = evaluate.evaluate_retrieval(idx, query, np.array([0]), radius=1)
        assert report.precision_at_radius == pytest.approx(0.75)
        assert report.recall_at_radius == pytest.approx(3 / 4)

    def test_full_radius_gives_class_prior_and_recall_one(self):
        rng = np.random.default_rng(0)
        idx, _, labels = small_instance(rng)
        queries = index.PackedCodes(words=idx.codes.words[:10].copy(),
                                    bits=idx.codes.bits)
        qlabels = labels[:10]
        report = evaluate.evaluate_retrieval(idx, queries, qlabels, radius=idx.codes.bits)
        priors = np.array([(labels == l).mean() for l in qlabels])
        assert report.precision_at_radius == pytest.approx(priors.mean())
        assert report.recall_at_radius == 1.0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(1)
        idx, signs, labels = small_instance(rng)
        qsigns = (2 * rng.integers(0, 2, (16, 15)) - 1).astype(np.int8)
        qlabels = rng.integers(0, 3, 15)
        report = evaluate.evaluate_retrieval(idx, pack_signs(qsigns), qlabels, radius=5)
        precisions, recalls = [], []
        for qi in range(15):
            dist = oracles.sign_distances(signs, qsigns[:, qi])
            hits = np.flatnonzero(dist <= 5)
            matching = (labels[hits] == qlabels[qi]).sum()
            precisions.append(matching / len(hits) if len(hits) else 0.0)
            recalls.append(matching / (labels == qlabels[qi]).sum())
        assert report.precision_at_radius == pytest.approx(np.mean(precisions))
        assert report.recall_at_radius == pytest.approx(np.mean(recalls))

    def test_skip_mode_differs_when_queries_retrieve_nothing(self):
        db = pack_signs(np.ones((16, 4), dtype=np.int8))
        idx = index.CodeIndex(codes=db, labels=np.zeros(4, dtype=np.int64))
        far = pack_signs(-np.ones((16, 1), dtype=np.int8))
        near = pack_signs(np.ones((16, 1), dtype=np.int8))
        queries = index.PackedCodes(
            words=np.vstack([far.words, near.words]), bits=16)
        qlabels = np.zeros(2, dtype=np.int64)
        zero = evaluate.evaluate_retrieval(idx, queries, qlabels, 2, zero_retrieval="zero")
        skip = evaluate.evaluate_retrieval(idx, queries, qlabels, 2, zero_retrieval="skip")
        assert zero.precision_at_radius == pytest.approx(0.5)
        assert skip.precision_at_radius == pytest.approx(1.0)

    def test_empty_database(self):
        idx = index.CodeIndex(codes=index.PackedCodes(
            words=np.zeros((0, 1), dtype=np.uint64), bits=8),
            labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty database"):
            evaluate.evaluate_retrieval(
                idx, pack_signs(np.ones((8, 1), dtype=np.int8)),
                np.array([0]), 2)

    def test_empty_query_set(self):
        rng = np.random.default_rng(20)
        idx, _, _ = small_instance(rng)
        empty = index.PackedCodes(words=np.zeros((0, 1), dtype=np.uint64), bits=16)
        with pytest.raises(ValueError, match="no queries"):
            evaluate.evaluate_retrieval(idx, empty, np.zeros(0, dtype=np.int64), 2)


class TestMeanAveragePrecision:
    def test_all_relevant_gives_one(self):
        rng = np.random.default_rng(2)
        idx, signs, _ = small_instance(rng, classes=1)
        queries = pack_signs(signs[:, :5])
        assert evaluate.evaluate_retrieval(
            idx, queries, np.zeros(5, dtype=np.int64)).map == 1.0

    def test_hand_computed_ranking(self):
        # Distances 0, 1, 2 produce the rank order (relevant, irrelevant,
        # relevant) for a query of label 0.
        db_signs = np.array([
            [1, -1, -1],
            [1, 1, -1],
            [1, 1, 1],
            [1, 1, 1],
        ], dtype=np.int8)
        labels = np.array([0, 1, 0])
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=labels)
        query = pack_signs(np.array([[1], [1], [1], [1]]))
        value = evaluate.evaluate_retrieval(idx, query, np.array([0])).map
        assert value == pytest.approx((1 / 1 + 2 / 3) / 2)
        assert value == pytest.approx(
            oracles.average_precision_reference([True, False, True]))

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(3)
        idx, signs, labels = small_instance(rng, count=200)
        qsigns = (2 * rng.integers(0, 2, (16, 25)) - 1).astype(np.int8)
        qlabels = rng.integers(0, 3, 25)
        report = evaluate.evaluate_retrieval(idx, pack_signs(qsigns), qlabels)
        aps = []
        for qi in range(25):
            dist = oracles.sign_distances(signs, qsigns[:, qi])
            relevant = labels == qlabels[qi]
            aps.append(oracles.tie_average_precision(
                [((dist == d).sum(), (relevant & (dist == d)).sum()) for d in range(17)]))
        assert np.allclose(report.per_query, aps, rtol=0, atol=1e-12)
        assert report.map == pytest.approx(np.mean(aps), abs=1e-12)

    def test_invariant_to_permuting_the_database(self):
        # Four bits put 80 items on five distances, so every level mixes
        # relevant and irrelevant items; the codes move with their labels.
        rng = np.random.default_rng(4)
        idx, signs, labels = small_instance(rng, bits=4, count=80)
        queries = pack_signs(signs[:, :10])
        qlabels = labels[:10]
        base = evaluate.evaluate_retrieval(idx, queries, qlabels)
        base_counts = evaluate.retrieval_counts(idx, queries, qlabels)
        for _ in range(3):
            order = rng.permutation(80)
            moved = index.CodeIndex(codes=pack_signs(signs[:, order]), labels=labels[order])
            report = evaluate.evaluate_retrieval(moved, queries, qlabels)
            assert report.map == base.map
            assert np.array_equal(report.per_query, base.per_query)
            assert_counts_equal(evaluate.retrieval_counts(moved, queries, qlabels),
                                base_counts)

    def test_tie_free_ranking_matches_id_tiebreak_ap(self):
        # Item k differs from the query in its first k bits, so every
        # distance 0..L holds one item and the ranking has no ties.
        rng = np.random.default_rng(17)
        bits = 64
        for _ in range(5):
            query = (2 * rng.integers(0, 2, bits) - 1).astype(np.int8)
            flips = np.where(np.arange(bits)[:, None] < np.arange(bits + 1), -1, 1)
            order = rng.permutation(bits + 1)
            signs = (query[:, None] * flips)[:, order].astype(np.int8)
            labels = rng.integers(0, 3, bits + 1)
            labels[0] = 0
            idx = index.CodeIndex(codes=pack_signs(signs), labels=labels)
            report = evaluate.evaluate_retrieval(idx, pack_signs(query[:, None]),
                                                 np.array([0]))
            ranked = labels[np.argsort(oracles.sign_distances(signs, query))]
            expected = oracles.average_precision_reference(ranked == 0)
            assert abs(report.per_query[0] - expected) <= 1e-12
            assert abs(report.map - expected) <= 1e-12

    def test_absent_label_is_an_error(self):
        rng = np.random.default_rng(5)
        idx, _, _ = small_instance(rng, classes=2)
        query = pack_signs(np.ones((16, 1), dtype=np.int8))
        with pytest.raises(ValueError, match="absent from database"):
            evaluate.evaluate_retrieval(idx, query, np.array([7]))


class TestPrCurve:
    def test_final_threshold_has_recall_one(self):
        rng = np.random.default_rng(6)
        idx, signs, labels = small_instance(rng)
        curve = evaluate.evaluate_retrieval(idx, pack_signs(signs[:, :8]), labels[:8]).pr_curve
        assert len(curve) == idx.codes.bits + 1
        assert curve[-1][0] == 1.0

    def test_single_query_hand_computation(self):
        db_signs = np.array([
            [1, 1, -1, -1],
            [1, 1, 1, -1],
        ], dtype=np.int8)
        labels = np.array([0, 1, 0, 0])
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=labels)
        query = pack_signs(np.array([[1], [1]]))
        curve = evaluate.evaluate_retrieval(idx, query, np.array([0])).pr_curve
        # t=0: items {0,1} retrieved, 1 of the 3 relevant among them.
        assert curve[0] == (pytest.approx(1 / 3), pytest.approx(1 / 2))
        # t=1: items {0,1,2}: 2 relevant of 3 retrieved.
        assert curve[1] == (pytest.approx(2 / 3), pytest.approx(2 / 3))
        # t=2: everything: 3 relevant of 4 retrieved.
        assert curve[2] == (pytest.approx(1.0), pytest.approx(3 / 4))

    def test_recall_is_monotone(self):
        rng = np.random.default_rng(7)
        idx, signs, labels = small_instance(rng, count=120)
        curve = evaluate.evaluate_retrieval(idx, pack_signs(signs[:, :12]),
                                            labels[:12]).pr_curve
        recalls = [r for r, _ in curve]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    @pytest.mark.parametrize("bits", [16, 64, 512])
    @pytest.mark.parametrize("zero_retrieval", ["zero", "skip"])
    def test_curve_equals_one_mean_per_threshold(self, bits, zero_retrieval):
        # Every threshold's means, taken over that threshold's column alone.
        # The flip rate leaves some queries with nothing at small
        # thresholds, so "skip" averages over subsets of varying size.
        rng = np.random.default_rng(bits + 1)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, bits, 300, 160,
                                                                    flip=0.2)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        counts = evaluate.retrieval_counts(idx, pack_signs(q_signs), q_labels)
        expected = []
        for t in range(bits + 1):
            retrieved, relevant = counts.retrieved[:, t], counts.relevant[:, t]
            nonzero = retrieved > 0
            precision = np.zeros(len(retrieved))
            precision[nonzero] = relevant[nonzero] / retrieved[nonzero]
            if zero_retrieval == "zero":
                mean_precision = float(precision.mean())
            else:
                mean_precision = float(precision[nonzero].mean()) if nonzero.any() else 0.0
            expected.append((float((relevant / counts.class_sizes).mean()), mean_precision))
        found = (counts.retrieved > 0).sum(axis=0)
        assert np.unique(found[(found > 0) & (found < len(q_labels))]).size > 1
        assert counts.curve(zero_retrieval) == expected

    @pytest.mark.parametrize("thresholds", [1, 5, 64])
    @pytest.mark.parametrize("zero_retrieval", ["zero", "skip"])
    def test_curve_does_not_depend_on_the_threshold_block(self, thresholds, zero_retrieval,
                                                          monkeypatch):
        rng = np.random.default_rng(thresholds)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, 64, 300, 160,
                                                                    flip=0.2)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        counts = evaluate.retrieval_counts(idx, pack_signs(q_signs), q_labels)
        whole = counts.curve(zero_retrieval)
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES",
                            thresholds * evaluate.EVAL_CURVE_BYTES * len(q_labels))
        assert counts.curve(zero_retrieval) == whole

    def test_peak_memory_is_bounded_by_the_threshold_block(self):
        # The curve once made five (bits + 1) x queries copies of the counts
        # at once: 53.8 MB here against 29.4 MB for the pass that made them.
        rng = np.random.default_rng(40)
        query_count = 20_000
        words = rng.integers(0, np.iinfo(np.uint64).max, (query_count, 1), dtype=np.uint64,
                             endpoint=True)
        item = np.arange(1000)
        idx = index.CodeIndex(codes=index.PackedCodes(words=words[item % 50], bits=64),
                              labels=item % 10)
        queries = index.PackedCodes(words=words, bits=64)
        q_labels = rng.integers(0, 10, query_count)
        peaks = []
        for run in (evaluate.retrieval_counts, evaluate.evaluate_retrieval):
            tracemalloc.start()
            try:
                run(idx, queries, q_labels)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


def clustered_instance(rng, bits, count, query_count, classes=4, flip=0.08):
    """Codes scattered around one random prototype per class, so radius
    retrieval finds neighbours at every code length."""
    prototypes = 2 * rng.integers(0, 2, (bits, classes)) - 1
    labels = rng.integers(0, classes, count + query_count)
    labels[:classes] = np.arange(classes)
    flips = np.where(rng.random((bits, count + query_count)) < flip, -1, 1)
    signs = (prototypes[:, labels] * flips).astype(np.int8)
    return (signs[:, :count], labels[:count], signs[:, count:], labels[count:])


def limit_block(monkeypatch, idx, rows):
    """Make `retrieval_counts` score `rows` queries per block of `idx`: a
    block holds its weighted (query, bucket) pairs and its (query, class,
    distance) bins. A bucket is one distinct (word, label) pair of the
    index."""
    classes = np.unique(idx.labels)
    bins = classes.size * (idx.codes.bits + 1)
    row_bytes = (evaluate.EVAL_PAIR_BYTES * idx._buckets.words.count
                 + evaluate.EVAL_BIN_BYTES * bins)
    monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", row_bytes * rows)


def record_scoring(monkeypatch):
    """Wrap the evaluation's distance kernel; the returned list gets one
    (query rows, database rows) pair per call."""
    calls = []

    def recorded(database, queries):
        calls.append((queries.count, database.count))
        return index.hamming_matrix(database, queries)

    monkeypatch.setattr(evaluate, "hamming_matrix", recorded)
    return calls


def assert_counts_equal(found, expected):
    for name in ("retrieved", "relevant", "class_sizes", "ap"):
        a, b = getattr(found, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def unbucketed_counts(monkeypatch, idx, queries, labels):
    """`retrieval_counts` with every database item and every query scored
    on its own: against a copy of `idx` built with one bucket per item, and
    with one query group per query, each in its place."""
    def identity(codes, key):
        return (np.arange(codes.count),) * 2

    with monkeypatch.context() as patch:
        patch.setattr(index, "_groups", identity)
        patch.setattr(evaluate, "_groups", identity)
        flat = index.CodeIndex(codes=idx.codes, labels=idx.labels)
        assert flat._buckets.words.count == idx.codes.count
        return evaluate.retrieval_counts(flat, queries, labels)


def distinct_pairs(signs, labels):
    """The number of distinct (code, label) columns."""
    return np.unique(np.vstack([signs, labels]), axis=1).shape[1]


class TestStreamingPass:
    @pytest.mark.parametrize("bits", [1, 64, 255, 256, 512])
    @pytest.mark.parametrize("zero_retrieval", ["zero", "skip"])
    def test_bitwise_equal_to_three_pass_oracle(self, bits, zero_retrieval, monkeypatch):
        rng = np.random.default_rng(bits)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, bits, 150, 23)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        limit_block(monkeypatch, idx, 5)  # 23 queries: four full blocks and one of 3
        queries = pack_signs(q_signs)
        for radius in (0, max(1, bits // 10), bits, bits + 7):
            report = evaluate.evaluate_retrieval(idx, queries, q_labels, radius,
                                                 zero_retrieval)
            expected = oracles.retrieval_three_pass(db_signs, db_labels, q_signs, q_labels,
                                                    radius, zero_retrieval)
            assert report.precision_at_radius == expected["precision_at_radius"]
            assert report.recall_at_radius == expected["recall_at_radius"]
            assert report.pr_curve == expected["pr_curve"]
            # The oracle sums each query's average precision place by place.
            assert abs(report.map - expected["map"]) <= 1e-12
            assert np.allclose(report.per_query, expected["per_query"], rtol=0, atol=1e-12)
            assert report.radius == radius

    def test_absent_label_in_a_later_block_is_named(self, monkeypatch):
        rng = np.random.default_rng(31)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, 32, 80, 12)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        limit_block(monkeypatch, idx, 4)
        q_labels[9], q_labels[11] = 98, 99  # only the third block holds them
        with pytest.raises(ValueError, match="query label 98 absent from database"):
            evaluate.evaluate_retrieval(idx, pack_signs(q_signs), q_labels)
        with pytest.raises(ValueError, match="query label 98 absent from database"):
            oracles.retrieval_three_pass(db_signs, db_labels, q_signs, q_labels, 2)

    def test_rejects_bad_options_before_scoring(self):
        rng = np.random.default_rng(32)
        idx, signs, labels = small_instance(rng)
        queries = pack_signs(signs[:, :3])
        with pytest.raises(ValueError, match="non-negative"):
            evaluate.evaluate_retrieval(idx, queries, labels[:3], radius=-1)
        with pytest.raises(ValueError, match="zero_retrieval"):
            evaluate.evaluate_retrieval(idx, queries, labels[:3], zero_retrieval="none")

    def test_peak_memory_is_flat_in_the_query_count(self):
        # The default block budget against a database large enough that
        # the larger query set's Q x N distances alone would exceed it.
        rng = np.random.default_rng(33)
        count, bits = 20_000, 16
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, bits, count, 1280)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        queries = pack_signs(q_signs)

        def peak(query_count):
            subset = index.PackedCodes(words=queries.words[:query_count], bits=bits)
            tracemalloc.start()
            try:
                evaluate.evaluate_retrieval(idx, subset, q_labels[:query_count])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(80), peak(1280)
        assert large < 1.2 * small
        assert large < 1280 * count  # below even a uint8 Q x N distance matrix


def bucket_instance(rng, kind, bits, count=150, query_count=11, classes=3):
    """A database of `kind` with its queries, as sign matrices and labels.

    "repeats": `count` items drawn from a few codes, one of them carrying
    every label; "single": one code and one label, a single bucket;
    "distinct": no two items share both code and label.
    """
    if kind == "repeats":
        prototypes = 2 * rng.integers(0, 2, (bits, 6)) - 1
        pick = rng.integers(0, 6, count)
        pick[:classes] = 0
        labels = rng.integers(0, classes, count)
        labels[:classes] = np.arange(classes)
        signs = prototypes[:, pick]
    elif kind == "single":
        signs = np.repeat(2 * rng.integers(0, 2, (bits, 1)) - 1, count, axis=1)
        labels = np.zeros(count, dtype=np.int64)
    else:
        drawn = np.vstack([2 * rng.integers(0, 2, (bits, 3 * count)) - 1,
                           rng.integers(0, classes, 3 * count)])
        _, first = np.unique(drawn, axis=1, return_index=True)
        keep = np.sort(first)[:count]
        signs, labels = drawn[:bits, keep], drawn[bits, keep]
    q_signs = np.where(rng.random((bits, query_count)) < 0.1, -1, 1) * signs[
        :, rng.integers(0, signs.shape[1], query_count)]
    return (signs.astype(np.int8), labels, q_signs.astype(np.int8),
            rng.choice(labels, query_count))


class TestBuckets:
    @pytest.mark.parametrize("bits", [1, 16, 65, 130, 512])
    @pytest.mark.parametrize("kind", ["repeats", "single", "distinct"])
    @pytest.mark.parametrize("zero_retrieval", ["zero", "skip"])
    def test_bitwise_equal_to_oracle_and_to_scoring_every_item(self, bits, kind,
                                                               zero_retrieval, monkeypatch):
        rng = np.random.default_rng([bits, len(kind)])
        db_signs, db_labels, q_signs, q_labels = bucket_instance(rng, kind, bits)
        pairs = distinct_pairs(db_signs, db_labels)
        distinct = distinct_pairs(q_signs, q_labels)
        if kind == "repeats":
            shared = np.unique(db_labels[(db_signs == db_signs[:, :1]).all(axis=0)])
            assert shared.size >= 3 and pairs < 30
        else:
            assert pairs == (1 if kind == "single" else db_labels.size)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        queries = pack_signs(q_signs)
        every_item = unbucketed_counts(monkeypatch, idx, queries, q_labels)
        expected = {radius: oracles.retrieval_three_pass(db_signs, db_labels, q_signs,
                                                         q_labels, radius, zero_retrieval)
                    for radius in (0, max(1, bits // 10), bits, bits + 7)}
        for rows in (1, 5, None):
            with monkeypatch.context() as patch:
                if rows is not None:
                    limit_block(patch, idx, rows)
                calls = record_scoring(patch)
                assert_counts_equal(evaluate.retrieval_counts(idx, queries, q_labels),
                                    every_item)
                assert [n for _, n in calls] == [pairs] * len(calls)
                assert calls[0][0] == min(rows or queries.count, distinct)
                assert sum(q for q, _ in calls) == distinct
                for radius, oracle in expected.items():
                    report = evaluate.evaluate_retrieval(idx, queries, q_labels, radius,
                                                         zero_retrieval)
                    assert report.precision_at_radius == oracle["precision_at_radius"]
                    assert report.recall_at_radius == oracle["recall_at_radius"]
                    assert report.pr_curve == oracle["pr_curve"]
                    assert abs(report.map - oracle["map"]) <= 1e-12
                    assert np.allclose(report.per_query, oracle["per_query"], rtol=0,
                                       atol=1e-12)

    def test_scores_each_bucket_once_per_query(self, monkeypatch):
        # 2,000 items on 10 codes under 2 labels each: 20 buckets. Raw
        # labels enter the index's 64-bit fold, negative and wide ones too.
        rng = np.random.default_rng(35)
        prototypes = 2 * rng.integers(0, 2, (32, 10)) - 1
        pick = np.repeat(np.arange(10), 200)
        q_signs = np.where(rng.random((32, 40)) < 0.1, -1, 1) * prototypes[:, pick[:40]]
        queries = pack_signs(q_signs)
        for pair in ((3, 8), (-3, 2**32 + 8)):
            labels = np.tile(pair, 1000)
            idx = index.CodeIndex(codes=pack_signs(prototypes[:, pick]), labels=labels)
            with monkeypatch.context() as patch:
                calls = record_scoring(patch)
                counts = evaluate.retrieval_counts(idx, queries, labels[:40])
            assert idx._buckets.words.count == 20
            assert sum(q * n for q, n in calls) <= queries.count * 20
            assert_counts_equal(counts, unbucketed_counts(monkeypatch, idx, queries,
                                                          labels[:40]))

    def test_groups_only_the_queries(self, monkeypatch):
        # The database is grouped by (words, label) once, when the index is
        # built; a call reads those buckets and folds only the queries.
        rng = np.random.default_rng(41)
        db_signs, db_labels, q_signs, q_labels = bucket_instance(rng, "repeats", 32)
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        assert idx._buckets.words.count < db_labels.size
        queries = pack_signs(q_signs)
        grouped, groups = [], index._groups

        def spy(codes, key):
            grouped.append(codes)
            return groups(codes, key)

        with monkeypatch.context() as patch:
            patch.setattr(evaluate, "_groups", spy)
            patch.setattr(index, "_groups", spy)
            calls = record_scoring(patch)
            counts = evaluate.retrieval_counts(idx, queries, q_labels)
        assert len(grouped) == 1 and grouped[0] is queries
        assert [n for _, n in calls] == [distinct_pairs(db_signs, db_labels)] * len(calls)
        assert_counts_equal(counts, unbucketed_counts(monkeypatch, idx, queries, q_labels))

    def test_peak_memory_of_one_query_against_a_bucketed_database(self):
        # 20,000 items on 1,000 words in 10 classes, about 2,600 (word,
        # label) buckets. Reading the index's buckets as they are leaves the
        # table of N + 1 harmonic numbers as the one array of the database's
        # length, about 23 bytes per item; splitting the words by class with
        # an N-item unique per call peaked at about 41, and folding and
        # sorting all items again at about 57.
        rng = np.random.default_rng(40)
        count = 20_000
        prototypes = rng.integers(0, np.iinfo(np.uint64).max, (1000, 1), dtype=np.uint64,
                                  endpoint=True)
        word = rng.integers(0, 1000, count)
        labels = np.where(rng.random(count) < 0.1, rng.integers(0, 10, count), word % 10)
        idx = index.CodeIndex(codes=index.PackedCodes(words=prototypes[word], bits=64),
                              labels=labels)
        assert idx._buckets.words.count < count // 5 and np.unique(labels).size == 10
        queries = index.PackedCodes(words=prototypes[:1] ^ np.uint64(0b101), bits=64)
        tracemalloc.start()
        try:
            evaluate.retrieval_counts(idx, queries, labels[:1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * count

    def test_peak_memory_of_an_all_distinct_database(self):
        # Random 64-bit codes: every item is its own bucket, so only the
        # grouping's O(count * words) arrays come on top of the blocks.
        rng = np.random.default_rng(36)
        count = 20_000
        words = rng.integers(0, np.iinfo(np.uint64).max, (count, 1), dtype=np.uint64,
                             endpoint=True)
        assert np.unique(words).size == count
        idx = index.CodeIndex(codes=index.PackedCodes(words=words, bits=64),
                              labels=rng.integers(0, 10, count))
        queries = index.PackedCodes(words=words[:1280] ^ np.uint64(0b101), bits=64)
        tracemalloc.start()
        try:
            evaluate.evaluate_retrieval(idx, queries, idx.labels[:1280])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1280 * count


def query_instance(rng, kind, query_count=40):
    """A clustered 32-bit database with queries of `kind`: "repeated" draws
    every query from 4 (code, label) pairs; "distinct" shares no (code,
    label) pair; "single" is one query; "split_labels" gives each of 4
    codes to queries of all 4 labels, 16 pairs on 4 codes."""
    db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, 32, 200, 2 * query_count)
    # Queries drawn from a cluster may repeat; keep the first of each code.
    _, first = np.unique(q_signs, axis=1, return_index=True)
    keep = np.sort(first)[:query_count]
    q_signs, q_labels = q_signs[:, keep], q_labels[keep]
    if kind == "repeated":
        pick = rng.integers(0, 4, query_count)
        pick[:4] = np.arange(4)
        q_signs, q_labels = q_signs[:, pick], q_labels[pick]
    elif kind == "single":
        q_signs, q_labels = q_signs[:, :1], q_labels[:1]
    elif kind == "split_labels":
        q_signs = q_signs[:, np.repeat(np.arange(4), query_count // 4)]
        q_labels = np.tile(np.arange(4), query_count // 4)
    return db_signs, db_labels, q_signs, q_labels


class TestQueryGroups:
    @pytest.mark.parametrize("kind", ["repeated", "distinct", "single", "split_labels"])
    def test_bitwise_equal_to_scoring_every_query(self, kind, monkeypatch):
        rng = np.random.default_rng([38, len(kind)])
        db_signs, db_labels, q_signs, q_labels = query_instance(rng, kind)
        distinct = distinct_pairs(q_signs, q_labels)
        expected_distinct = {"repeated": 4, "distinct": q_labels.size, "single": 1,
                             "split_labels": 16}[kind]
        assert distinct == expected_distinct
        if kind == "split_labels":
            assert np.unique(q_signs, axis=1).shape[1] == 4
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        queries = pack_signs(q_signs)
        every_query = unbucketed_counts(monkeypatch, idx, queries, q_labels)
        for rows in (1, 5, None):
            with monkeypatch.context() as patch:
                if rows is not None:
                    limit_block(patch, idx, rows)
                calls = record_scoring(patch)
                assert_counts_equal(evaluate.retrieval_counts(idx, queries, q_labels),
                                    every_query)
            assert calls[0][0] == min(rows or distinct, distinct)
            assert sum(q for q, _ in calls) == distinct

    def test_peak_memory_of_an_all_distinct_query_set(self):
        # Random 64-bit codes: every query is a group of its own. The counts
        # are gathered back to the queries one array at a time, so only one
        # gathered copy, the grouping's O(queries * words) arrays and the
        # blocks come on top of the (queries, bits + 1) counts; gathering all
        # three at once went past the bound. `retrieval_counts` alone, since
        # the PR curve's own copies of the counts would hide a gather.
        rng = np.random.default_rng(39)
        query_count = 20_000
        words = rng.integers(0, np.iinfo(np.uint64).max, (query_count, 1), dtype=np.uint64,
                             endpoint=True)
        assert np.unique(words).size == query_count
        item = np.arange(1000)  # 1,000 items on 50 buckets
        idx = index.CodeIndex(codes=index.PackedCodes(words=words[item % 50], bits=64),
                              labels=item % 10)
        queries = index.PackedCodes(words=words, bits=64)
        q_labels = rng.integers(0, 10, query_count)
        tracemalloc.start()
        try:
            counts = evaluate.retrieval_counts(idx, queries, q_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (counts.retrieved.nbytes + counts.relevant.nbytes)


class TestQueryLabels:
    @pytest.mark.parametrize("bad", [[0.5, 1.0, 2.2], [0.0, np.nan, 1.0], ["0", "1", "2"],
                                     [0, 1], [[0, 1, 2]]])
    def test_rejects_labels_that_are_not_integers(self, bad):
        rng = np.random.default_rng(37)
        idx, signs, _ = small_instance(rng)
        with pytest.raises(ValueError, match="query labels must"):
            evaluate.retrieval_counts(idx, pack_signs(signs[:, :3]), bad)

    def test_whole_floats_read_as_their_integers(self):
        rng = np.random.default_rng(38)
        idx, signs, labels = small_instance(rng)
        queries = pack_signs(signs[:, :3])
        assert_counts_equal(
            evaluate.retrieval_counts(idx, queries, labels[:3].astype(np.float64)),
            evaluate.retrieval_counts(idx, queries, labels[:3]))


class TestBiasDiagnostics:
    def test_orthonormal_features_projection_is_identity(self):
        n, bits = 6, 4
        x = np.eye(n)
        cc = codes.hadamard_codes(bits, 2)
        labels = np.array([0, 0, 0, 1, 1, 1])
        b = codes.expand_codes(cc, labels)
        diag = evaluate.bias_term_diagnostics(x, b, labels)
        assert np.abs(diag.k_matrix - np.eye(n)).max() < 1e-12
        assert diag.trace_value == pytest.approx(bits * n)
        assert diag.bias_value == pytest.approx(0.0, abs=1e-9)

    def test_block_structure_of_code_gram(self):
        rng = np.random.default_rng(8)
        bits, classes, per_class = 8, 4, 3
        n = classes * per_class
        x = rng.standard_normal((5, n))
        labels = np.repeat(np.arange(classes), per_class)
        b = codes.expand_codes(codes.hadamard_codes(bits, classes), labels)
        diag = evaluate.bias_term_diagnostics(x, b, labels)
        expected = np.kron(np.eye(classes), np.full((per_class, per_class), bits))
        assert np.array_equal(diag.btb_matrix, expected)

    def test_trace_identity_matches_direct_fit_error(self):
        rng = np.random.default_rng(9)
        bits, classes, per_class = 4, 2, 6
        n = classes * per_class
        x = rng.standard_normal((5, n))
        labels = np.repeat(np.arange(classes), per_class)
        b = codes.expand_codes(codes.hadamard_codes(bits, classes), labels)
        diag = evaluate.bias_term_diagnostics(x, b, labels)
        p = sdh.ProjectionSolver(x, jitter=0.0).solve(b)
        direct = ((b - p.T @ x) ** 2).sum()
        assert diag.bias_value == pytest.approx(direct, rel=1e-9)
        assert diag.trace_grouped == pytest.approx(diag.trace_value, abs=1e-9)

    def test_sample_guard(self):
        x = np.zeros((2, 5001))
        with pytest.raises(ValueError, match="guard"):
            evaluate.bias_term_diagnostics(x, np.ones((2, 5001), dtype=np.int8),
                                           np.zeros(5001, dtype=np.int64))

    def test_requires_sorted_labels(self):
        x = np.random.default_rng(10).standard_normal((3, 4))
        cc = codes.hadamard_codes(2, 2)
        b = codes.expand_codes(cc, np.array([1, 0, 0, 1]))
        with pytest.raises(ValueError, match="sorted"):
            evaluate.bias_term_diagnostics(x, b, np.array([1, 0, 0, 1]))


class TestLossTable:
    def make_pair(self, rng, bits=16):
        data = dataset.normalize(dataset.synth_blobs(4, 25, 8, 0.3, seed=11))
        kmap = kernelmap.fit_anchors(data, 30, 0.4, seed=0)
        x = kernelmap.transform(kmap, data.features)
        state, _ = sdh.train_sdh(x, data.labels, 4, bits, seed=0)
        projection, class_codes = fsdh.train_fsdh(x, data.labels, 4, bits)
        model = HashModel(kernel=kmap, projection=projection,
                          class_codes=class_codes, lam=1.0,
                          trained_on=DatasetFingerprint(100, 8, 4, 0))
        return state, model, x, data

    def test_fsdh_w_loss_is_lower(self):
        rng = np.random.default_rng(12)
        state, model, x, data = self.make_pair(rng)
        row = evaluate.loss_table(state, model, x, data.labels)
        assert row.fsdh_w_loss <= row.sdh_w_loss

    def test_identical_models_give_identical_rows(self):
        rng = np.random.default_rng(13)
        state, model, x, data = self.make_pair(rng)
        a = evaluate.loss_table(state, model, x, data.labels)
        b = evaluate.loss_table(state, model, x, data.labels)
        assert a == b

    def test_fsdh_losses_are_reproducible(self):
        rng = np.random.default_rng(14)
        state, model, x, data = self.make_pair(rng)
        row1 = evaluate.loss_table(state, model, x, data.labels)
        projection, class_codes = fsdh.train_fsdh(x, data.labels, 4, 16)
        model2 = HashModel(kernel=model.kernel, projection=projection,
                           class_codes=class_codes, lam=1.0,
                           trained_on=model.trained_on)
        row2 = evaluate.loss_table(state, model2, x, data.labels)
        assert row1.fsdh_w_loss == pytest.approx(row2.fsdh_w_loss, abs=1e-9)
        assert row1.fsdh_p_loss == pytest.approx(row2.fsdh_p_loss, abs=1e-9)

    def test_bit_mismatch(self):
        rng = np.random.default_rng(15)
        state, model, x, data = self.make_pair(rng)
        state32, _ = sdh.train_sdh(x, data.labels, 4, 32, seed=0)
        with pytest.raises(ValueError, match="bit mismatch"):
            evaluate.loss_table(state32, model, x, data.labels)


def test_eval_report_bounds_are_enforced():
    with pytest.raises(ValueError, match="lie in"):
        evaluate.EvalReport(precision_at_radius=1.5, recall_at_radius=0.0,
                            map=0.0, pr_curve=[], radius=2)


def test_trace_of_code_gram_is_bits_times_samples():
    rng = np.random.default_rng(16)
    b = (2 * rng.integers(0, 2, (8, 33)) - 1).astype(np.int64)
    assert np.trace(b.T @ b) == 8 * 33
