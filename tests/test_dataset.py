import numpy as np
import pytest

from sdhkit import codes, dataset, evaluate, fsdh, kernelmap, sdh
from sdhkit.model import DatasetFingerprint, HashModel

import oracles


class TestIdxFiles:
    def test_round_trip_is_bitwise(self, idx_pair):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        images_path, labels_path = idx_pair(images, labels)
        assert np.array_equal(dataset.read_idx_images(images_path), images)
        assert np.array_equal(dataset.read_idx_labels(labels_path), labels)

    def test_reads_hand_written_bytes(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(bytes([0, 0, 8, 1, 0, 0, 0, 2, 3, 4]))
        assert np.array_equal(dataset.read_idx_labels(path), [3, 4])
        path.write_bytes(bytes([0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 5, 6]))
        assert np.array_equal(dataset.read_idx_images(path), [[[5, 6]]])

    def test_pixel_scaling_is_exact(self, idx_pair):
        images = np.array([[[0]], [[255]]], dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        data = dataset.load_mnist(*idx_pair(images, labels))
        assert data.features[0, 0] == 0.0
        assert data.features[0, 1] == 1.0

    def test_load_mnist_shapes(self, idx_pair):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(12, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=12, dtype=np.uint8)
        data = dataset.load_mnist(*idx_pair(images, labels), limit=10)
        assert data.dim == 9
        assert data.sample_count == 10
        assert data.class_count == 10
        assert np.array_equal(data.labels, labels[:10])

    def test_limit_zero_is_an_error(self, idx_pair):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError, match="empty dataset requested"):
            dataset.load_mnist(*idx_pair(images, labels), limit=0)

    def test_bad_magic_reports_offset(self, idx_pair, tmp_path):
        images_path, _ = idx_pair(np.zeros((1, 2, 2), dtype=np.uint8),
                                  np.zeros(1, dtype=np.uint8))
        blob = bytearray(images_path.read_bytes())
        blob[3] = 0x99
        bad = tmp_path / "bad"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic number at byte offset 0"):
            dataset.read_idx_images(bad)

    def test_truncated_file_reports_offset(self, idx_pair, tmp_path):
        images_path, _ = idx_pair(np.zeros((2, 2, 2), dtype=np.uint8),
                                  np.zeros(2, dtype=np.uint8))
        blob = images_path.read_bytes()[:-3]
        bad = tmp_path / "trunc"
        bad.write_bytes(blob)
        with pytest.raises(ValueError, match="truncated.*byte offset 16"):
            dataset.read_idx_images(bad)

    def test_count_mismatch(self, idx_pair, tmp_path):
        images_path, _ = idx_pair(np.zeros((3, 2, 2), dtype=np.uint8),
                                  np.zeros(3, dtype=np.uint8))
        other_labels = tmp_path / "other-labels"
        oracles.write_idx(other_labels, np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="count mismatch"):
            dataset.load_mnist(images_path, other_labels)

    def test_loaded_dataset_written_back_reloads_bitwise(self, idx_pair, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(9, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=9, dtype=np.uint8)
        data = dataset.load_mnist(*idx_pair(images, labels))
        # Features are k/255; scaling back and re-rounding recovers the bytes.
        back = np.round(data.features.T * 255.0).astype(np.uint8).reshape(9, 4, 4)
        out_images = tmp_path / "rt-images"
        out_labels = tmp_path / "rt-labels"
        oracles.write_idx(out_images, back)
        oracles.write_idx(out_labels, data.labels)
        again = dataset.load_mnist(out_images, out_labels)
        assert np.array_equal(again.features, data.features)
        assert np.array_equal(again.labels, data.labels)

    def test_gzipped_files_load(self, idx_pair, tmp_path):
        import gzip

        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        labels = np.array([3, 4], dtype=np.uint8)
        images_path, labels_path = idx_pair(images, labels)
        gz_images = tmp_path / "images.gz"
        gz_images.write_bytes(gzip.compress(images_path.read_bytes()))
        gz_labels = tmp_path / "labels.gz"
        gz_labels.write_bytes(gzip.compress(labels_path.read_bytes()))
        data = dataset.load_mnist(gz_images, gz_labels)
        assert np.array_equal(data.labels, [3, 4])


class TestLoadCsv:
    def test_small_matrix(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("1.0,2.0,3.0,4.0\n5,6,7,8\n-1,0,0.5,2e-3\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n1\n0\n")
        data = dataset.load_csv(features, labels)
        assert data.dim == 4
        assert data.sample_count == 3
        assert data.class_count == 2
        assert data.features[3, 2] == 2e-3

    # The class count is max(label) + 1, so labels that are all negative would
    # otherwise be reported against the empty range [0, 0) with no file name.
    @pytest.mark.parametrize("features_text, labels_text, message", [
        ("1,2,3\n4,5\n", "0\n0\n", r"features\.csv: row 2"),
        ("1,2\n3,oops\n", "0\n0\n", r"features\.csv: row 2.*'oops'"),
        ("1,2\n3,4\n", "-1\n-2\n", r"labels\.csv: labels must be non-negative, found -1$"),
    ], ids=["ragged_row", "non_numeric_cell", "negative_label"])
    def test_errors_name_the_file(self, tmp_path, features_text, labels_text, message):
        features = tmp_path / "features.csv"
        features.write_text(features_text)
        labels = tmp_path / "labels.csv"
        labels.write_text(labels_text)
        with pytest.raises(ValueError, match=message):
            dataset.load_csv(features, labels)


class TestSynthBlobs:
    def test_deterministic(self):
        a = dataset.synth_blobs(2, 5, 3, 0.1, seed=7)
        b = dataset.synth_blobs(2, 5, 3, 0.1, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_to_centers(self):
        data = dataset.synth_blobs(3, 4, 2, 0.0, seed=5)
        for cls in range(3):
            cols = data.features[:, data.labels == cls]
            assert np.all(cols == cols[:, :1])

    def test_blobs_are_nearest_neighbor_separable(self):
        data = dataset.synth_blobs(10, 100, 16, 0.3, seed=1)
        assert oracles.one_nn_accuracy(data.features, data.labels) > 0.9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dataset.synth_blobs(0, 5, 3, 0.1, seed=0)


class TestNormalize:
    def test_unit_norm_definition(self):
        data = dataset.RawDataset(features=np.array([[3.0], [4.0]]),
                                  labels=np.array([0]), class_count=1)
        out = dataset.normalize(data, "unit_norm")
        assert np.allclose(out.features[:, 0], [0.6, 0.8], atol=0)

    def test_unit_norm_columns(self):
        data = dataset.synth_blobs(3, 10, 5, 0.5, seed=2)
        out = dataset.normalize(data, "unit_norm")
        assert np.abs(np.linalg.norm(out.features, axis=0) - 1.0).max() < 1e-12

    def test_idempotent(self):
        data = dataset.synth_blobs(3, 10, 5, 0.5, seed=2)
        once = dataset.normalize(data, "unit_norm")
        twice = dataset.normalize(once, "unit_norm")
        assert np.abs(once.features - twice.features).max() < 1e-12

    def test_zero_mean_mode(self):
        data = dataset.synth_blobs(3, 10, 5, 0.5, seed=2)
        out = dataset.normalize(data, "zero_mean_unit_norm")
        assert np.abs(np.linalg.norm(out.features, axis=0) - 1.0).max() < 1e-12

    def test_zero_column_is_an_error(self):
        data = dataset.RawDataset(features=np.array([[0.0, 1.0], [0.0, 2.0]]),
                                  labels=np.array([0, 0]), class_count=1)
        with pytest.raises(ValueError, match="zero norm"):
            dataset.normalize(data, "unit_norm")


class TestRawDataset:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="label out of range"):
            dataset.RawDataset(features=np.zeros((2, 2)),
                               labels=np.array([0, 2]), class_count=2)

    def test_caller_writes_do_not_reach_the_labels(self):
        labels = np.array([0, 1, 1], dtype=np.int64)
        data = dataset.RawDataset(features=np.zeros((2, 3)), labels=labels, class_count=2)
        labels[:] = 0
        assert np.array_equal(data.labels, [0, 1, 1])
        assert not data.labels.flags.writeable

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            dataset.RawDataset(features=np.array([[np.nan, 0.0]]),
                               labels=np.array([0, 0]), class_count=1)

    def test_validate_training_labels(self):
        data = dataset.RawDataset(features=np.zeros((1, 2)),
                                  labels=np.array([0, 0]), class_count=2)
        with pytest.raises(ValueError, match="class 1"):
            dataset.validate_training_labels(data)

    def test_subset_takes_columns_in_the_given_order(self):
        data = dataset.synth_blobs(3, 4, 5, 0.1, seed=0)
        cols = np.array([7, 0, 7, 11])
        part = data.subset(cols)
        assert np.array_equal(part.features, data.features[:, cols])
        assert np.array_equal(part.labels, data.labels[cols])
        assert part.class_count == 3
        assert np.array_equal(data.subset(slice(5)).features, data.features[:, :5])

    @pytest.mark.parametrize("limit, message", [(0, "empty dataset requested"),
                                                (-1, "limit must be positive")])
    def test_truncate_rejects_a_limit_below_one(self, limit, message):
        data = dataset.synth_blobs(2, 3, 4, 0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            dataset.truncate(data, limit)



@pytest.fixture(scope="module")
def label_readers():
    """Every public function that takes labels, each as a call on 6 samples
    of 2 classes whose one argument is the labels."""
    rng = np.random.default_rng(0)
    good = np.array([0, 0, 0, 1, 1, 1])
    x = rng.standard_normal((5, 6))
    class_codes = codes.hadamard_codes(4, 2)
    b = codes.expand_codes(class_codes, good)
    state, _ = sdh.train_sdh(x, good, 2, 4, nu=1e-5, max_iters=1)
    data = dataset.synth_blobs(2, 3, 2, 0.1, seed=0)
    kmap = kernelmap.fit_anchors(data, 5, 0.4, seed=0)
    k = kernelmap.transform(kmap, data.features)
    s, _ = fsdh.train_fsdh(k, good, 2, 4)
    k_state, _ = sdh.train_sdh(k, good, 2, 4, max_iters=1)
    model = HashModel(kernel=kmap, projection=s, class_codes=class_codes, lam=1.0,
                      trained_on=DatasetFingerprint(6, 2, 2, 0))
    return {
        "RawDataset": lambda labels: dataset.RawDataset(features=x, labels=labels, class_count=2),
        "expand_codes": lambda labels: codes.expand_codes(class_codes, labels),
        "one_hot": lambda labels: sdh.one_hot(labels, 2),
        "w_step": lambda labels: sdh.w_step(b, labels, 2, 1.0),
        "b_step": lambda labels: sdh.b_step(state, labels, projected=state.projection.T @ x),
        "train_fsdh": lambda labels: fsdh.train_fsdh(x, labels, 2, 4),
        "train_sdh": lambda labels: sdh.train_sdh(x, labels, 2, 4, max_iters=1),
        "loss_table": lambda labels: evaluate.loss_table(k_state, model, k, labels),
        "bias_term_diagnostics": lambda labels: evaluate.bias_term_diagnostics(x, b, labels),
    }


READERS = ("RawDataset", "expand_codes", "one_hot", "w_step", "b_step", "train_fsdh",
           "train_sdh", "loss_table", "bias_term_diagnostics")
BAD_LABELS = {
    "non_whole": [0.0, 0.5, 0.2, 1.7, 1.0, 1.0],
    "nan": [0.0, 0.0, np.nan, 1.0, 1.0, 1.0],
    "count": [0, 0, 1, 1, 1],
}


# `one_hot` and `expand_codes` take no sample count, so any number of labels is valid.
@pytest.mark.parametrize("reader, bad", [
    (reader, bad) for reader in READERS for bad in BAD_LABELS
    if not (bad == "count" and reader in ("one_hot", "expand_codes"))])
def test_every_label_reader_rejects_what_is_not_one_label_per_sample(label_readers, reader, bad):
    with pytest.raises(ValueError, match="labels"):
        label_readers[reader](BAD_LABELS[bad])


@pytest.mark.parametrize("reader", ["RawDataset", "one_hot", "expand_codes"])
def test_out_of_range_error_names_the_first_offending_label(label_readers, reader):
    with pytest.raises(ValueError,
                       match=r"labels: label out of range \[0, 2\): found 7"):
        label_readers[reader]([0, 1, 7, -1, 1, 9])
