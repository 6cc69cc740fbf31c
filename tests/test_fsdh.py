import numpy as np
import pytest
import scipy.linalg

from sdhkit import codes, dataset, fsdh, index, kernelmap, sdh

import oracles


def toy_model(rng, classes=3, per_class=20, dim=6, anchors=12, bits=8, seed=5):
    data = dataset.normalize(dataset.synth_blobs(classes, per_class, dim, 0.2, seed))
    kmap = kernelmap.fit_anchors(data, anchors, 0.4, seed)
    features = kernelmap.transform(kmap, data.features)
    projection, class_codes = fsdh.train_fsdh(features, data.labels,
                                              data.class_count, bits)
    model = fsdh.HashModel(
        kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
        trained_on=fsdh.DatasetFingerprint(data.sample_count, data.dim,
                                           data.class_count, seed))
    return model, data, features


class TestTrainFsdh:
    def test_identity_features(self):
        cc = codes.pick_class_codes(codes.sylvester(2), 2)
        b = codes.expand_codes(cc, np.array([0, 1])).astype(np.float64)
        projection, got = fsdh.train_fsdh(np.eye(2), np.array([0, 1]), 2, 2,
                                          jitter=0.0)
        assert np.array_equal(got.codes, cc.codes)
        assert np.abs(projection - b.T).max() < 1e-12

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="assumption A1"):
            fsdh.train_fsdh(np.eye(4), np.zeros(4, dtype=np.int64), 1, 24)

    def test_enough_bits_required(self):
        with pytest.raises(ValueError, match="assumption A2"):
            fsdh.train_fsdh(np.eye(4), np.arange(4), 4, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 30))
        labels = rng.integers(0, 3, 30)
        labels[:3] = [0, 1, 2]
        p1, _ = fsdh.train_fsdh(x, labels, 3, 8)
        p2, _ = fsdh.train_fsdh(x, labels, 3, 8)
        assert np.array_equal(p1, p2)

    def test_self_retrieval_on_blobs(self):
        data = dataset.normalize(dataset.synth_blobs(10, 100, 16, 0.3, seed=1))
        kmap = kernelmap.fit_anchors(data, 64, 0.4, seed=2)
        features = kernelmap.transform(kmap, data.features)
        projection, class_codes = fsdh.train_fsdh(features, data.labels, 10, 32)
        model = fsdh.HashModel(
            kernel=kmap, projection=projection, class_codes=class_codes,
            lam=1.0, trained_on=fsdh.DatasetFingerprint(1000, 16, 10, 2))
        packed = fsdh.encode(model, data.features)
        # Brute-force Hamming retrieval at radius 2 from the sign matrix.
        signs = index.unpack(packed)
        precisions = []
        for qi in range(0, 1000, 37):
            dist = oracles.sign_distances(signs, signs[:, qi])
            hits = np.flatnonzero(dist <= 2)
            precisions.append((data.labels[hits] == data.labels[qi]).mean())
        assert np.mean(precisions) > 0.95

    def test_classification_optimum_beats_alternating_runs(self):
        # One sample per class: the closed-form classification objective is
        # the global optimum, so no alternating run can do better.
        rng = np.random.default_rng(3)
        classes, bits, lam = 4, 8, 1.0
        x = rng.standard_normal((6, classes))
        labels = np.arange(classes)
        cc = codes.pick_class_codes(codes.sylvester(bits), classes)
        w = fsdh.optimal_weights(cc, lam)
        b = codes.expand_codes(cc, labels).astype(np.float64)
        y = sdh.one_hot(labels, classes)
        closed_form = ((y - w.T @ b) ** 2).sum() + lam * (w ** 2).sum()
        for seed in range(5):
            state, _ = sdh.train_sdh(x, labels, classes, bits, lam=lam,
                                     nu=0.0, seed=seed)
            run = sdh.objective(state, x, labels)
            assert closed_form <= run.classification_term + run.regularizer + 1e-9


class TestFactoredSolve:
    """train_fsdh solves against the class indicators and multiplies by the
    class codes; these compare it with the direct solve against the
    expanded (L, N) code matrix."""

    @staticmethod
    def direct_projection(x, labels, class_codes):
        jitter = 1e-8 * float((x * x).sum()) / x.shape[0]
        b = codes.expand_codes(class_codes, labels).astype(np.float64)
        return scipy.linalg.solve(x @ x.T + jitter * np.eye(x.shape[0]), x @ b.T)

    @staticmethod
    def blob_features():
        data = dataset.normalize(dataset.synth_blobs(10, 60, 16, 0.3, seed=3))
        kmap = kernelmap.fit_anchors(data, 100, 0.4, seed=4)
        held_out = np.arange(data.sample_count) % 6 == 0
        x = kernelmap.transform(kmap, data.features)
        return x[:, ~held_out], data.labels[~held_out], x[:, held_out]

    @pytest.mark.parametrize("bits", [32, 512])
    def test_matches_direct_solve(self, bits):
        x, labels, _ = self.blob_features()
        projection, class_codes = fsdh.train_fsdh(x, labels, 10, bits)
        direct = self.direct_projection(x, labels, class_codes)
        assert (np.linalg.norm(projection - direct)
                <= 1e-9 * np.linalg.norm(direct))

    @pytest.mark.parametrize("bits", [32, 512])
    def test_codes_match_direct_solve(self, bits):
        x, labels, held_out = self.blob_features()
        projection, class_codes = fsdh.train_fsdh(x, labels, 10, bits)
        direct = self.direct_projection(x, labels, class_codes)
        for samples in (x, held_out):
            assert np.array_equal(projection.T @ samples >= 0,
                                  direct.T @ samples >= 0)

    def test_singular_without_jitter(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 12))
        x[-1] = x[0]  # a repeated row makes X X^T singular
        with pytest.raises(ValueError, match="singular"):
            fsdh.train_fsdh(x, np.arange(12) % 2, 2, 4, jitter=0.0)


class TestOptimalWeights:
    def test_scaled_entries(self):
        cc = codes.pick_class_codes(codes.sylvester(16), 10)
        w = fsdh.optimal_weights(cc, 1.0)
        assert np.all(np.abs(w) == pytest.approx(1 / 17))

    def test_lambda_zero_inverts_exactly(self):
        cc = codes.pick_class_codes(codes.sylvester(8), 8)
        w = fsdh.optimal_weights(cc, 0.0)
        assert np.abs(w.T @ cc.codes - np.eye(8)).max() < 1e-12

    def test_satisfies_normal_equations(self):
        rng = np.random.default_rng(4)
        for bits, classes in ((4, 3), (16, 10), (64, 9)):
            lam = float(rng.uniform(0.1, 5.0))
            cc = codes.pick_class_codes(codes.sylvester(bits), classes)
            w = fsdh.optimal_weights(cc, lam)
            b = cc.codes.astype(np.float64)
            residual = (b @ b.T + lam * np.eye(bits)) @ w - b
            assert np.linalg.norm(residual) < 1e-12 * bits * classes


class TestEncode:
    def test_anchor_coincident_input_gets_class_code(self):
        # Invertible kernel features: the projection fits the codes exactly,
        # so a training sample reproduces its class code.
        data = dataset.normalize(dataset.synth_blobs(2, 1, 4, 0.0, seed=6))
        kmap = kernelmap.fit_anchors(data, 2, 0.4, seed=0)
        features = kernelmap.transform(kmap, data.features)
        projection, class_codes = fsdh.train_fsdh(features, data.labels, 2, 2,
                                                  jitter=0.0)
        model = fsdh.HashModel(kernel=kmap, projection=projection,
                               class_codes=class_codes, lam=1.0,
                               trained_on=fsdh.DatasetFingerprint(2, 4, 2, 0))
        packed = fsdh.encode(model, data.features)
        assert np.array_equal(index.unpack(packed),
                              codes.expand_codes(class_codes, data.labels))

    def test_identical_inputs_identical_codes(self):
        rng = np.random.default_rng(7)
        model, data, _ = toy_model(rng)
        sample = data.features[:, [3]]
        a = fsdh.encode(model, np.hstack([sample, sample]))
        assert np.array_equal(a.words[0], a.words[1])

    def test_matches_unpacked_sign_oracle(self):
        rng = np.random.default_rng(8)
        model, data, _ = toy_model(rng)
        samples = rng.standard_normal((data.dim, 100))
        packed = fsdh.encode(model, samples)
        scores = model.projection.T @ oracles.rbf_loop(
            model.kernel.anchors, samples, model.kernel.sigma)
        expected = np.where(scores >= 0, 1, -1).astype(np.int8)
        assert np.array_equal(index.unpack(packed), expected)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model, _, _ = toy_model(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fsdh.encode(model, np.zeros((99, 1)))

    def test_training_codes_close_to_targets(self):
        # The fit is not exact in general; record the distance, don't demand 0.
        rng = np.random.default_rng(10)
        model, data, features = toy_model(rng, per_class=30)
        packed = fsdh.encode(model, data.features)
        target = codes.expand_codes(model.class_codes, data.labels)
        mismatch = (index.unpack(packed) != target).mean()
        assert mismatch < 0.2


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        fsdh.save_model(model, path)
        loaded = fsdh.load_model(path)
        assert np.array_equal(loaded.projection, model.projection)
        assert np.array_equal(loaded.kernel.anchors, model.kernel.anchors)
        assert loaded.kernel.sigma == model.kernel.sigma
        assert np.array_equal(loaded.class_codes.codes, model.class_codes.codes)
        assert loaded.lam == model.lam
        assert loaded.trained_on == model.trained_on

    def test_round_trip_without_class_codes(self, tmp_path):
        rng = np.random.default_rng(12)
        model, _, _ = toy_model(rng)
        stripped = fsdh.HashModel(kernel=model.kernel, projection=model.projection,
                                  class_codes=None, lam=model.lam,
                                  trained_on=model.trained_on)
        path = tmp_path / "model.fsdh"
        fsdh.save_model(stripped, path)
        assert fsdh.load_model(path).class_codes is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic.*FSDH"):
            fsdh.load_model(path)

    def test_version_bump(self, tmp_path):
        import struct
        import zlib

        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        fsdh.save_model(model, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported version 99"):
            fsdh.load_model(path)

    def test_corruption_fails_checksum(self, tmp_path):
        rng = np.random.default_rng(14)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        fsdh.save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum failure"):
            fsdh.load_model(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(15)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        fsdh.save_model(model, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            fsdh.load_model(path)
