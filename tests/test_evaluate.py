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
        fast = evaluate.evaluate_retrieval(idx, pack_signs(qsigns), qlabels).map
        aps = []
        for qi in range(25):
            dist = oracles.sign_distances(signs, qsigns[:, qi])
            order = np.lexsort((np.arange(200), dist))
            aps.append(oracles.average_precision_reference(
                labels[order] == qlabels[qi]))
        assert fast == pytest.approx(np.mean(aps), abs=1e-12)

    def test_invariant_to_permuting_ties(self):
        rng = np.random.default_rng(4)
        idx, signs, labels = small_instance(rng, count=80)
        qsigns = signs[:, :10]
        qlabels = labels[:10]
        base = evaluate.evaluate_retrieval(idx, pack_signs(qsigns), qlabels).map
        # Swap two database items that share label and code (hence distance).
        signs2 = signs.copy()
        signs2[:, 10] = signs[:, 11]
        signs2[:, 11] = signs[:, 10]
        labels2 = labels.copy()
        labels2[10], labels2[11] = labels[11], labels[10]
        signs2[:, 11] = signs2[:, 10]
        labels2[11] = labels2[10]
        idx2 = index.CodeIndex(codes=pack_signs(signs2), labels=labels2)
        idx_same = index.CodeIndex(codes=pack_signs(signs2), labels=labels2)
        assert (evaluate.evaluate_retrieval(idx2, pack_signs(qsigns), qlabels).map
                == evaluate.evaluate_retrieval(idx_same, pack_signs(qsigns), qlabels).map)

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


def clustered_instance(rng, bits, count, query_count, classes=4, flip=0.08):
    """Codes scattered around one random prototype per class, so radius
    retrieval finds neighbours at every code length."""
    prototypes = 2 * rng.integers(0, 2, (bits, classes)) - 1
    labels = rng.integers(0, classes, count + query_count)
    labels[:classes] = np.arange(classes)
    flips = np.where(rng.random((bits, count + query_count)) < flip, -1, 1)
    signs = (prototypes[:, labels] * flips).astype(np.int8)
    return (signs[:, :count], labels[:count], signs[:, count:], labels[count:])


def limit_block(monkeypatch, count, rows):
    """Make `retrieval_counts` score `rows` queries per block."""
    monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", evaluate.EVAL_PAIR_BYTES * count * rows)


class TestStreamingPass:
    @pytest.mark.parametrize("bits", [1, 64, 255, 256, 512])
    @pytest.mark.parametrize("zero_retrieval", ["zero", "skip"])
    def test_bitwise_equal_to_three_pass_oracle(self, bits, zero_retrieval, monkeypatch):
        rng = np.random.default_rng(bits)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, bits, 150, 23)
        limit_block(monkeypatch, 150, 5)  # 23 queries: four full blocks and one of 3
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
        queries = pack_signs(q_signs)
        for radius in (0, max(1, bits // 10), bits, bits + 7):
            report = evaluate.evaluate_retrieval(idx, queries, q_labels, radius,
                                                 zero_retrieval)
            expected = oracles.retrieval_three_pass(db_signs, db_labels, q_signs, q_labels,
                                                    radius, zero_retrieval)
            assert report.precision_at_radius == expected["precision_at_radius"]
            assert report.recall_at_radius == expected["recall_at_radius"]
            assert report.map == expected["map"]
            assert report.pr_curve == expected["pr_curve"]
            assert np.array_equal(report.per_query, expected["per_query"])
            assert report.radius == radius

    def test_absent_label_in_a_later_block_is_named(self, monkeypatch):
        rng = np.random.default_rng(31)
        db_signs, db_labels, q_signs, q_labels = clustered_instance(rng, 32, 80, 12)
        limit_block(monkeypatch, 80, 4)
        q_labels[9], q_labels[11] = 98, 99  # only the third block holds them
        idx = index.CodeIndex(codes=pack_signs(db_signs), labels=db_labels)
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


class TestBiasDiagnostics:
    def test_orthonormal_features_projection_is_identity(self):
        n, bits = 6, 4
        x = np.eye(n)
        cc = codes.pick_class_codes(codes.sylvester(bits), 2)
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
        b = codes.expand_codes(codes.pick_class_codes(codes.sylvester(bits), classes),
                               labels)
        diag = evaluate.bias_term_diagnostics(x, b, labels)
        expected = np.kron(np.eye(classes), np.full((per_class, per_class), bits))
        assert np.array_equal(diag.btb_matrix, expected)

    def test_trace_identity_matches_direct_fit_error(self):
        rng = np.random.default_rng(9)
        bits, classes, per_class = 4, 2, 6
        n = classes * per_class
        x = rng.standard_normal((5, n))
        labels = np.repeat(np.arange(classes), per_class)
        b = codes.expand_codes(codes.pick_class_codes(codes.sylvester(bits), classes),
                               labels)
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
        cc = codes.pick_class_codes(codes.sylvester(2), 2)
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


class TestReportFiles:
    def test_summary_and_curve(self, tmp_path):
        evaluate.write_summary(tmp_path / "summary.txt", {"map": 0.5, "n": 3})
        assert (tmp_path / "summary.txt").read_text() == "map=0.5\nn=3\n"
        evaluate.write_pr_curve_csv(tmp_path / "curve.csv", [(0.0, 1.0), (1.0, 0.5)])
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "threshold,recall,precision"
        assert lines[1].startswith("0,")

    def test_matrix_csv(self, tmp_path):
        evaluate.write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        grid = np.loadtxt(tmp_path / "m.csv", delimiter=",")
        assert np.array_equal(grid, np.eye(2))


def test_eval_report_bounds_are_enforced():
    with pytest.raises(ValueError, match="lie in"):
        evaluate.EvalReport(precision_at_radius=1.5, recall_at_radius=0.0,
                            map=0.0, pr_curve=[], radius=2)


def test_trace_of_code_gram_is_bits_times_samples():
    rng = np.random.default_rng(16)
    b = (2 * rng.integers(0, 2, (8, 33)) - 1).astype(np.int64)
    assert np.trace(b.T @ b) == 8 * 33
