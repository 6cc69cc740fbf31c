import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from sdhkit import codes, dataset, fsdh, index, kernelmap, sdh
from sdhkit import model as model_module
from sdhkit.model import DatasetFingerprint, HashModel, encode, load_model, save_model

import oracles

# Model file fields after the magic: version, bits, classes, anchors, dim,
# sample count, seed, lambda, sigma, normalization mode; the class-code flag
# byte and the dim values of the mean follow.
HEADER = "<IIIIIQqddI"
# The same fields in versions 1 and 2, which stored no normalization.
OLD_HEADER = "<IIIIIQqdd"


def toy_model(rng, classes=3, per_class=20, dim=6, anchors=12, bits=8, seed=5):
    data = dataset.normalize(dataset.synth_blobs(classes, per_class, dim, 0.2, seed))
    kmap = kernelmap.fit_anchors(data, anchors, 0.4, seed)
    features = kernelmap.transform(kmap, data.features)
    projection, class_codes = fsdh.train_fsdh(features, data.labels,
                                              data.class_count, bits)
    model = HashModel(
        kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
        trained_on=DatasetFingerprint(data.sample_count, data.dim,
                                      data.class_count, seed))
    return model, data, features


def encode_peak(model, samples):
    """Peak traced allocation of encoding `samples`."""
    tracemalloc.start()
    try:
        encode(model, samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_crc(blob: bytearray) -> bytes:
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    return bytes(blob)


class TestTrainFsdh:
    def test_identity_features(self):
        # X = I, so the closed form is P = B^T / (1 + jitter) with the
        # default jitter 1e-8 * trace(X X^T) / M.
        cc = codes.hadamard_codes(2, 2)
        b = codes.expand_codes(cc, np.array([0, 1])).astype(np.float64)
        per_class, got = fsdh.train_fsdh(np.eye(2), np.array([0, 1]), 2, 2)
        jitter = 1e-8 * 2 / 2
        assert np.array_equal(got.codes, cc.codes)
        assert np.abs(per_class @ got.codes.T - b.T / (1 + jitter)).max() < 1e-12

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

    def test_solution_does_not_depend_on_bits(self):
        # A model keeps S and scores L bits through the class codes, so S
        # must be the same matrix for every code length.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 40))
        labels = np.arange(40) % 5
        solutions = [fsdh.train_fsdh(x, labels, 5, bits)[0] for bits in (16, 32, 512)]
        assert solutions[0].shape == (7, 5)
        for other in solutions[1:]:
            assert other.tobytes() == solutions[0].tobytes()

    def test_codes_tile_the_class_count_period(self):
        # Ten classes give Hadamard rows of period 16, so a 512-bit code is
        # its 16-bit code 32 times over and carries no more distinct bits.
        rng = np.random.default_rng(2)
        short, data, _ = toy_model(rng, classes=10, bits=16)
        long, _, _ = toy_model(rng, classes=10, bits=512)
        short_bits = index.unpack(encode(short, data.features))
        assert np.array_equal(index.unpack(encode(long, data.features)),
                              np.tile(short_bits, (32, 1)))

    def test_self_retrieval_on_blobs(self):
        data = dataset.normalize(dataset.synth_blobs(10, 100, 16, 0.3, seed=1))
        kmap = kernelmap.fit_anchors(data, 64, 0.4, seed=2)
        features = kernelmap.transform(kmap, data.features)
        projection, class_codes = fsdh.train_fsdh(features, data.labels, 10, 32)
        model = HashModel(
            kernel=kmap, projection=projection, class_codes=class_codes,
            lam=1.0, trained_on=DatasetFingerprint(1000, 16, 10, 2))
        packed = encode(model, data.features)
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
        b = codes.expand_codes(codes.hadamard_codes(bits, classes), labels).astype(np.float64)
        w = sdh.w_step(b, labels, classes, lam)
        y = sdh.one_hot(labels, classes)
        closed_form = ((y - w.T @ b) ** 2).sum() + lam * (w ** 2).sum()
        for seed in range(5):
            state, _ = sdh.train_sdh(x, labels, classes, bits, lam=lam,
                                     nu=0.0, seed=seed)
            run = sdh.objective(state, labels, projected=state.projection.T @ x)
            assert closed_form <= run.classification_term + run.regularizer + 1e-9


class TestFactoredSolve:
    """train_fsdh solves against the class indicators, giving P = S C^T;
    these compare it with the direct solve against the expanded (L, N) code
    matrix."""

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
        per_class, class_codes = fsdh.train_fsdh(x, labels, 10, bits)
        direct = self.direct_projection(x, labels, class_codes)
        assert (np.linalg.norm(per_class @ class_codes.codes.T - direct)
                <= 1e-9 * np.linalg.norm(direct))

    @pytest.mark.parametrize("bits", [32, 512])
    def test_codes_match_direct_solve(self, bits):
        x, labels, held_out = self.blob_features()
        per_class, class_codes = fsdh.train_fsdh(x, labels, 10, bits)
        direct = self.direct_projection(x, labels, class_codes)
        c = class_codes.codes.astype(np.float64)
        for samples in (x, held_out):
            assert np.array_equal(c @ (per_class.T @ samples) >= 0,
                                  direct.T @ samples >= 0)


class TestFixedPoint:
    """The closed form is a fixed point of SDH at B = C Y: the classifier step
    gives W = C diag(n_c / (L n_c + lambda)) for class sizes n_c, and with that
    W no code step leaves B. The closed form drops only SDH's bias term."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("classes", [3, 10])
    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_classifier_step_at_the_closed_form_codes(self, bits, classes, lam):
        # Class c holds c + 1 samples, in shuffled order.
        sizes = np.arange(1, classes + 1)
        labels = np.random.default_rng(bits + classes).permutation(
            np.repeat(np.arange(classes), sizes))
        class_codes = codes.hadamard_codes(bits, classes)
        w = sdh.w_step(codes.expand_codes(class_codes, labels), labels, classes, lam)
        expected = class_codes.codes * (sizes / (bits * sizes + lam))
        assert np.abs(w - expected).max() <= 1e-12

    @pytest.fixture(scope="class")
    def smoke_blobs(self):
        """Kernel features and labels of sdh-baseline's smoke-size blobs."""
        data = dataset.normalize(dataset.synth_blobs(10, 50, 32, 1.5, 7))
        kmap = kernelmap.fit_anchors(data, 100, 0.4, 3)
        return kernelmap.transform(kmap, data.features), data.labels

    @pytest.mark.parametrize("bits, nu, solver", [
        (16, 0.0, "dcc"), (32, 0.0, "dcc"), (64, 0.0, "dcc"),
        (16, 1e-5, "dcc"), (32, 1e-5, "dcc"), (64, 1e-5, "dcc"),
        (16, 0.0, "branch_and_bound"), (32, 0.0, "branch_and_bound"),
    ])
    def test_code_step_keeps_the_closed_form_codes(self, smoke_blobs, bits, nu, solver):
        x, labels = smoke_blobs
        b = codes.expand_codes(codes.hadamard_codes(bits, 10), labels)
        state = sdh.SdhState(codes=b, weights=sdh.w_step(b, labels, 10, 1.0),
                             projection=sdh.ProjectionSolver(x).solve(b), lam=1.0, nu=nu)
        kept = sdh.b_step(state, labels, solver, projected=state.projection.T @ x)
        assert np.array_equal(kept, b)


class TestEncode:
    def test_anchor_coincident_input_gets_class_code(self):
        # Invertible kernel features: the projection fits the codes up to
        # the jitter, so a training sample reproduces its class code.
        data = dataset.normalize(dataset.synth_blobs(2, 1, 4, 0.0, seed=6))
        kmap = kernelmap.fit_anchors(data, 2, 0.4, seed=0)
        features = kernelmap.transform(kmap, data.features)
        projection, class_codes = fsdh.train_fsdh(features, data.labels, 2, 2)
        model = HashModel(kernel=kmap, projection=projection,
                          class_codes=class_codes, lam=1.0,
                          trained_on=DatasetFingerprint(2, 4, 2, 0))
        packed = encode(model, data.features)
        assert np.array_equal(index.unpack(packed),
                              codes.expand_codes(class_codes, data.labels))

    def test_identical_inputs_identical_codes(self):
        rng = np.random.default_rng(7)
        model, data, _ = toy_model(rng)
        sample = data.features[:, [3]]
        a = encode(model, np.hstack([sample, sample]))
        assert np.array_equal(a.words[0], a.words[1])

    def test_matches_unpacked_sign_oracle(self):
        rng = np.random.default_rng(8)
        model, data, _ = toy_model(rng)
        samples = rng.standard_normal((data.dim, 100))
        packed = encode(model, samples)
        scores = (model.projection @ model.class_codes.codes.T).T @ oracles.rbf_loop(
            model.kernel.anchors, samples, model.kernel.sigma)
        expected = np.where(scores >= 0, 1, -1).astype(np.int8)
        assert np.array_equal(index.unpack(packed), expected)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model, _, _ = toy_model(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            encode(model, np.zeros((99, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        rng = np.random.default_rng(12)
        model, data, _ = toy_model(rng)
        samples = data.features[:, :5].copy()
        samples[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encode(model, samples)

    @pytest.mark.parametrize("dtype", [np.complex128, np.str_])
    def test_rejects_complex_and_text_samples(self, dtype):
        rng = np.random.default_rng(12)
        model, data, _ = toy_model(rng)
        with pytest.raises(ValueError, match="samples must be real numbers"):
            encode(model, data.features[:, :5].astype(dtype))

    @pytest.mark.parametrize("columns", [4, 8])
    def test_model_rejects_class_space_matrix_of_another_width(self, columns):
        # Three classes at 8 bits: neither 4 columns nor the (anchors, bits)
        # projection P = S C^T is a class-space matrix.
        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        with pytest.raises(ValueError, match=f"3 class codes but the class-space "
                                             f"projection has {columns} columns"):
            replace(model, projection=np.zeros((model.kernel.anchor_count, columns)))

    def test_model_rejects_class_codes_of_another_class_count(self):
        # The file header stores the fingerprint's class count, so such a model
        # used to save and then fail to load as a truncated file.
        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        with pytest.raises(ValueError, match="3 class codes but was trained on 4 classes"):
            replace(model, trained_on=replace(model.trained_on, class_count=4))

    def test_model_rejects_a_fingerprint_of_another_dimension(self):
        # The file stores one dim, written from the kernel map, so such a model
        # used to load back with a different fingerprint.
        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        dim = model.kernel.source_dim
        with pytest.raises(ValueError, match=f"takes {dim}-dimensional samples but the "
                                             f"model was trained on {dim + 1} dimensions"):
            replace(model, trained_on=replace(model.trained_on, dim=dim + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_model_rejects_non_finite_projection(self, bad):
        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        projection = model.projection.copy()
        projection[1, 2] = bad
        with pytest.raises(ValueError, match="projection contains non-finite"):
            replace(model, projection=projection)

    def test_several_blocks_with_ragged_tail_match_oracle(self):
        rng = np.random.default_rng(14)
        model, data, _ = toy_model(rng)
        count = 2 * kernelmap.BLOCK + 123
        samples = rng.standard_normal((data.dim, count))
        # The last block holds a sample equal to an anchor.
        samples[:, count - 7] = model.kernel.anchors[:, 4]
        packed = encode(model, samples)
        scores = (model.projection @ model.class_codes.codes.T).T @ oracles.rbf_loop(
            model.kernel.anchors, samples, model.kernel.sigma)
        signs = np.where(scores >= 0, 1, -1)
        assert packed.bits == model.bits
        assert np.array_equal(packed.words, oracles.pack_loop(signs))

    @pytest.mark.parametrize("bits", [8, 128])
    def test_no_samples_give_no_codes(self, bits):
        rng = np.random.default_rng(15)
        model, data, _ = toy_model(rng, bits=bits)
        packed = encode(model, np.zeros((data.dim, 0)))
        assert packed.words.shape == (0, -(-bits // 64)) and packed.bits == bits

    def test_memory_grows_only_by_the_codes(self):
        # Peak traced allocation over one block and over four: the growth is
        # the packed words of the extra samples, held twice at most (the
        # block-by-block result and the copy that `PackedCodes` keeps), not
        # their kernel features or a byte per bit.
        rng = np.random.default_rng(16)
        model, data, _ = toy_model(rng, anchors=40, bits=64)
        block = kernelmap.BLOCK
        growth = (encode_peak(model, rng.standard_normal((data.dim, 4 * block)))
                  - encode_peak(model, rng.standard_normal((data.dim, block))))
        assert growth <= 2 * 3 * block * 8

    def test_the_input_check_holds_no_mask_of_every_sample(self):
        # At 256 dimensions a finiteness mask of every sample value, a byte
        # each, once grew the peak by about 180 bytes per sample, 23 times
        # the packed words. The samples are one column broadcast to every
        # sample, so the test holds no 100 MB input of its own.
        rng = np.random.default_rng(17)
        model, data, _ = toy_model(rng, per_class=40, dim=256, anchors=100, bits=64)
        column = rng.standard_normal((data.dim, 1))
        block = kernelmap.BLOCK
        growth = (encode_peak(model, np.broadcast_to(column, (data.dim, 12 * block)))
                  - encode_peak(model, np.broadcast_to(column, (data.dim, 3 * block))))
        assert growth <= 2 * 9 * block * 8

    def test_each_sample_is_checked_once(self, monkeypatch):
        # `encode` used to check every sample, and then `transform` checked
        # each block again.
        rng = np.random.default_rng(18)
        model, data, _ = toy_model(rng)
        check = kernelmap._checked_samples
        checked = []

        def counting(kmap, samples):
            checked.append(np.shape(samples)[1])
            return check(kmap, samples)

        monkeypatch.setattr(kernelmap, "_checked_samples", counting)
        monkeypatch.setattr(model_module, "_checked_samples", counting)
        count = 2 * kernelmap.BLOCK + 5
        encode(model, rng.standard_normal((data.dim, count)))
        assert sum(checked) == count

    def test_training_codes_close_to_targets(self):
        # The fit is not exact in general; record the distance, don't demand 0.
        rng = np.random.default_rng(10)
        model, data, features = toy_model(rng, per_class=30)
        packed = encode(model, data.features)
        target = codes.expand_codes(model.class_codes, data.labels)
        mismatch = (index.unpack(packed) != target).mean()
        assert mismatch < 0.2


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.projection, model.projection)
        assert np.array_equal(loaded.kernel.anchors, model.kernel.anchors)
        assert loaded.kernel.sigma == model.kernel.sigma
        assert np.array_equal(loaded.class_codes.codes, model.class_codes.codes)
        assert loaded.lam == model.lam
        assert loaded.trained_on == model.trained_on

    def test_round_trip_without_class_codes(self, tmp_path):
        rng = np.random.default_rng(12)
        model, _, _ = toy_model(rng)
        stripped = HashModel(kernel=model.kernel, projection=model.projection,
                             class_codes=None, lam=model.lam,
                             trained_on=model.trained_on)
        path = tmp_path / "model.fsdh"
        save_model(stripped, path)
        assert load_model(path).class_codes is None

    @pytest.mark.parametrize("trainer", ["fsdh", "sdh"])
    def test_round_trip_encodes_the_same(self, tmp_path, trainer):
        model, data, features = toy_model(np.random.default_rng(16))
        columns = data.class_count
        if trainer == "sdh":
            state, _ = sdh.train_sdh(features, data.labels, data.class_count,
                                     model.bits, max_iters=2)
            model = replace(model, projection=state.projection, class_codes=None)
            columns = model.bits
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.projection.shape == (model.kernel.anchor_count, columns)
        assert loaded.projection.tobytes() == model.projection.tobytes()
        assert loaded.bits == model.bits == 8
        assert (loaded.class_codes is None) == (trainer == "sdh")
        assert np.array_equal(encode(loaded, data.features).words,
                              encode(model, data.features).words)

    def test_long_codes_round_trip_and_give_class_codes(self, tmp_path):
        # The closed form's cost does not grow with L, so fsdh takes any
        # power-of-two L, as SDH and loaded models do.
        model, data, _ = toy_model(np.random.default_rng(17), bits=8192)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.bits == 8192
        assert np.array_equal(index.unpack(encode(loaded, data.features)),
                              codes.expand_codes(loaded.class_codes, data.labels))

    def test_file_size_counts_the_class_space_matrix(self, tmp_path):
        rng = np.random.default_rng(17)
        model, data, _ = toy_model(rng, bits=128)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        anchors, classes = model.kernel.anchor_count, data.class_count
        header = 4 + struct.calcsize(HEADER) + 1 + data.dim * 8
        assert path.stat().st_size == (header + data.dim * anchors * 8
                                       + anchors * classes * 8
                                       + classes * (128 // 64) * 8 + 4)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_rejects_class_code_flag_other_than_0_or_1(self, tmp_path, flag):
        rng = np.random.default_rng(18)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        offset = 4 + struct.calcsize(HEADER)
        assert blob[offset] == 1
        blob[offset] = flag
        path.write_bytes(with_crc(blob))
        with pytest.raises(ValueError, match=f"flag byte at offset {offset} is {flag}, "
                                             f"expected 0 or 1"):
            load_model(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_ask_for_retraining(self, tmp_path, version):
        # Version 1 stored the (anchors, bits) product P = S C^T, from which
        # S cannot be recovered exactly. Version 2 stored S but not the
        # normalization, so `eval` normalized by its own config.
        rng = np.random.default_rng(19)
        model, _, _ = toy_model(rng)
        kmap, fp = model.kernel, model.trained_on
        blob = bytearray(b"FSDH" + struct.pack(
            OLD_HEADER, version, model.bits, fp.class_count, kmap.anchor_count,
            kmap.source_dim, fp.sample_count, fp.seed, model.lam, kmap.sigma))
        blob.append(1)
        blob += kmap.anchors.tobytes()
        projection = model.projection
        if version == 1:
            projection = projection @ model.class_codes.codes.T
        blob += projection.tobytes()
        blob += index.pack(model.class_codes.codes).words.tobytes()
        blob += bytes(4)
        path = tmp_path / "model.fsdh"
        path.write_bytes(with_crc(blob))
        with pytest.raises(ValueError, match=f"unsupported version {version}, expected 3; "
                                             "retrain the model"):
            load_model(path)

    @pytest.mark.parametrize("mode", dataset.NORMALIZE_MODES)
    def test_round_trip_keeps_the_normalization(self, tmp_path, mode):
        # Raw samples encode the same before and after the file, so a model
        # needs no normalization setting of its own at `eval`.
        rng = np.random.default_rng(20)
        data = dataset.synth_blobs(3, 20, 6, 0.2, seed=5)
        data = dataset.RawDataset(features=data.features + 2.0, labels=data.labels,
                                  class_count=3)
        kmap = kernelmap.fit_anchors(data, 12, 0.4, 5, normalize=mode)
        per_class, class_codes = fsdh.train_fsdh(kernelmap.transform(kmap, data.features),
                                                 data.labels, 3, 8)
        model = HashModel(kernel=kmap, projection=per_class, class_codes=class_codes, lam=1.0,
                          trained_on=DatasetFingerprint(60, 6, 3, 5))
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        loaded = load_model(path).kernel
        assert loaded.normalize == mode
        assert loaded.mean.tobytes() == kmap.mean.tobytes()
        assert loaded.mean.any() == (mode == "zero_mean_unit_norm")
        raw = rng.standard_normal((6, 50)) + 2.0
        assert np.array_equal(encode(load_model(path), raw).words, encode(model, raw).words)

    def test_rejects_an_unknown_normalization_code(self, tmp_path):
        model, _, _ = toy_model(np.random.default_rng(21))
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4 + struct.calcsize(HEADER) - 4, 3)
        path.write_bytes(with_crc(blob))
        with pytest.raises(ValueError, match="unknown normalization code 3"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic.*FSDH"):
            load_model(path)

    def test_version_bump(self, tmp_path):
        rng = np.random.default_rng(13)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        path.write_bytes(with_crc(blob))
        with pytest.raises(ValueError, match="unsupported version 99"):
            load_model(path)

    def test_corruption_fails_checksum(self, tmp_path):
        rng = np.random.default_rng(14)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum failure"):
            load_model(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(15)
        model, _, _ = toy_model(rng)
        path = tmp_path / "model.fsdh"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)
