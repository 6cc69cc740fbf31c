import tracemalloc

import numpy as np
import pytest

from sdhkit import codes, dataset, kernelmap
from sdhkit.model import DatasetFingerprint, HashModel, encode

import oracles


def test_fit_anchors_exhaustive_case():
    data = dataset.synth_blobs(5, 1, 3, 0.1, seed=0)
    kmap = kernelmap.fit_anchors(data, 5, sigma=0.4, seed=11)
    # With M = N the anchors are a permutation of all samples.
    assert sorted(map(tuple, kmap.anchors.T)) == sorted(map(tuple, data.features.T))


def test_fit_anchors_deterministic():
    data = dataset.synth_blobs(4, 10, 6, 0.2, seed=0)
    a = kernelmap.fit_anchors(data, 7, sigma=1.0, seed=42)
    b = kernelmap.fit_anchors(data, 7, sigma=1.0, seed=42)
    assert np.array_equal(a.anchors, b.anchors)


def test_fit_anchors_rejects_oversampling():
    data = dataset.synth_blobs(2, 3, 4, 0.2, seed=0)
    with pytest.raises(ValueError, match="exceeds sample count"):
        kernelmap.fit_anchors(data, 7, sigma=1.0, seed=0)


def test_anchor_coincident_sample_maps_to_one():
    rng = np.random.default_rng(3)
    anchors = rng.standard_normal((6, 4))
    kmap = kernelmap.KernelMap(anchors=anchors, sigma=0.7)
    # The second sample lies within rounding of anchor 1, and the Gram
    # expansion puts its squared distance below zero. There is no clamp at
    # zero: the near-zero test must replace it by the direct difference.
    near = anchors[:, 1].copy()
    near[0] -= 3e-8
    samples = np.column_stack([anchors[:, 1], near])
    sq = (np.einsum("dm,dm->m", anchors, anchors)[:, None]
          + np.einsum("dk,dk->k", samples, samples)[None, :]) - 2.0 * (anchors.T @ samples)
    assert sq[1, 1] < 0.0
    out = kernelmap.transform(kmap, samples)
    assert out[1, 0] == 1.0
    diff = anchors[:, 1] - near
    assert out[1, 1] == np.exp(-(diff @ diff) / 0.7) and out[1, 1] <= 1.0


def test_coincident_small_anchor_beside_a_far_larger_one_maps_to_one():
    # Anchor 1's squared norm is 1e6 times anchor 0's, so the tolerance of
    # the column prefilter is set by anchor 0. The sample equal to anchor 1
    # must still map to exactly 1, also in the draws where the Gram
    # expansion alone leaves a positive rounding residue for it.
    residues = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        small = 5.0 * rng.standard_normal(4)
        large = rng.standard_normal(4)
        large *= np.sqrt(1e6 * (small @ small) / (large @ large))
        anchors = np.column_stack([large, small])
        samples = np.column_stack([rng.standard_normal(4), small])
        sq = (np.einsum("dm,dm->m", anchors, anchors)[:, None]
              + np.einsum("dk,dk->k", samples, samples)[None, :]) - 2.0 * (anchors.T @ samples)
        residues += sq[1, 1] > 0.0
        out = kernelmap.transform(kernelmap.KernelMap(anchors=anchors, sigma=0.5), samples)
        assert out[1, 1] == 1.0
    assert residues > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_samples(bad):
    kmap = kernelmap.KernelMap(anchors=np.ones((3, 2)), sigma=1.0)
    samples = np.zeros((3, 4))
    samples[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kernelmap.transform(kmap, samples)


@pytest.mark.parametrize("bad", [np.array([[1.0 + 2.0j], [0.0]]), np.array([["1"], ["0"]])])
def test_rejects_complex_and_text_input(bad):
    # A float cast would drop the imaginary part or parse the text.
    with pytest.raises(ValueError, match="anchors must be real numbers"):
        kernelmap.KernelMap(anchors=bad, sigma=1.0)
    kmap = kernelmap.KernelMap(anchors=np.ones((2, 3)), sigma=1.0)
    with pytest.raises(ValueError, match="samples must be real numbers"):
        kernelmap.transform(kmap, bad)


def test_bool_and_integer_samples_match_their_float_values():
    kmap = kernelmap.KernelMap(anchors=np.arange(6).reshape(2, 3), sigma=4.0)
    for samples in (np.array([[True, False], [False, True]]),
                    np.array([[3, -1], [0, 2]], dtype=np.int8),
                    np.array([[3, 1], [0, 2]], dtype=np.uint16)):
        assert np.array_equal(kernelmap.transform(kmap, samples),
                              kernelmap.transform(kmap, samples.astype(np.float64)))


def test_rejects_inputs_whose_squared_norms_overflow():
    # Finite inputs whose squared norms overflow once gave all-NaN features.
    with pytest.raises(ValueError, match="anchors' squared norms overflow"):
        kernelmap.KernelMap(anchors=np.full((2, 3), 1e154), sigma=1.0)
    kmap = kernelmap.KernelMap(anchors=np.full((2, 3), 9e153), sigma=1.0)
    for scale in (9e153, 1e154):
        with pytest.raises(ValueError, match="samples' squared norms plus the anchors'"):
            kernelmap.transform(kmap, np.full((2, 2), scale))
    # Large samples that are accepted: a + c is finite, and with it 2 a.x.
    out = kernelmap.transform(kmap, np.full((2, 2), 1e153))
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_unit_diagonal_on_anchor_matrix():
    rng = np.random.default_rng(4)
    kmap = kernelmap.KernelMap(anchors=rng.standard_normal((5, 8)), sigma=0.3)
    out = kernelmap.transform(kmap, kmap.anchors)
    assert np.all(np.diag(out) == 1.0)


def test_distance_sigma_gives_inverse_e():
    sigma = 0.9
    anchors = np.zeros((3, 1))
    kmap = kernelmap.KernelMap(anchors=anchors, sigma=sigma)
    sample = np.array([[np.sqrt(sigma)], [0.0], [0.0]])
    out = kernelmap.transform(kmap, sample)
    assert out[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    anchors = rng.standard_normal((3, 6))
    samples = rng.standard_normal((3, 4))
    kmap = kernelmap.KernelMap(anchors=anchors, sigma=0.4)
    fast = kernelmap.transform(kmap, samples)
    slow = oracles.rbf_loop(anchors, samples, 0.4)
    assert np.abs(fast - slow).max() < 1e-12


def test_outputs_in_unit_interval_and_monotone():
    rng = np.random.default_rng(6)
    kmap = kernelmap.KernelMap(anchors=rng.standard_normal((4, 5)), sigma=0.5)
    samples = rng.standard_normal((4, 50))
    out = kernelmap.transform(kmap, samples)
    assert np.all(out > 0.0) and np.all(out <= 1.0)
    # Monotone decreasing in squared distance: recover distances and compare.
    sq = -0.5 * np.log(out)
    order = np.argsort(sq[0])
    assert np.all(np.diff(out[0][order]) <= 0)


def test_blocked_transform_matches_unblocked(monkeypatch):
    rng = np.random.default_rng(7)
    kmap = kernelmap.KernelMap(anchors=rng.standard_normal((4, 6)), sigma=0.4)
    samples = rng.standard_normal((4, 23))
    whole = kernelmap.transform(kmap, samples)
    monkeypatch.setattr(kernelmap, "BLOCK", 5)  # four full blocks and one of 3
    assert np.array_equal(kernelmap.transform(kmap, samples), whole)


def test_uneven_row_tiles_match_one_tile(monkeypatch):
    # Eleven anchors in tiles of 3, 3, 3 and 2 rows. The last tile holds an
    # anchor that the samples repeat; the first holds one whose squared
    # norm is 1e6 times as large, which sets a one-tile prefilter's
    # tolerance but not the last tile's.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        anchors = rng.standard_normal((4, 11))
        anchors[:, 1] *= 1e3
        samples = np.column_stack([rng.standard_normal((4, 3)), anchors[:, 10],
                                   rng.standard_normal((4, 3))])
        kmap = kernelmap.KernelMap(anchors=anchors, sigma=0.5)
        whole = kernelmap.transform(kmap, samples)
        with monkeypatch.context() as patch:
            patch.setattr(kernelmap, "TILE_BYTES", 3 * 8 * samples.shape[1])
            tiled = kernelmap.transform(kmap, samples)
        assert np.array_equal(tiled, whole)
        assert tiled[10, 3] == 1.0


def test_row_tiles_of_a_short_last_block(monkeypatch):
    rng = np.random.default_rng(8)
    kmap = kernelmap.KernelMap(anchors=rng.standard_normal((5, 13)), sigma=0.6)
    samples = np.column_stack([rng.standard_normal((5, 17)), kmap.anchors[:, [12, 0]]])
    monkeypatch.setattr(kernelmap, "BLOCK", 6)  # blocks of 6, 6, 6 and 1
    blocked = kernelmap.transform(kmap, samples)
    monkeypatch.setattr(kernelmap, "TILE_BYTES", 5 * 8 * 6)  # tiles of 5, 5 and 3
    tiled = kernelmap.transform(kmap, samples)
    assert np.array_equal(tiled, blocked)
    assert tiled[12, 17] == 1.0 and tiled[0, 18] == 1.0


def test_empty_sample_set():
    kmap = kernelmap.KernelMap(anchors=np.ones((3, 2)), sigma=1.0)
    assert kernelmap.transform(kmap, np.zeros((3, 0))).shape == (2, 0)


@pytest.mark.parametrize("anchors, sigma, samples", [
    (np.full((2, 1), 8e153), 1.0, -np.full((2, 1), 2e153)),  # distance 2e308
    (np.zeros((2, 1)), 1e-310, np.ones((2, 1))),  # quotient 2e310
])
def test_an_overflow_past_float64_gives_zero_without_a_warning(anchors, sigma, samples):
    # The norms are finite, so the input is valid; the suite turns any
    # RuntimeWarning into an error.
    kmap = kernelmap.KernelMap(anchors=anchors, sigma=sigma)
    features = kernelmap.transform(kmap, samples)
    assert features.shape == (1, 1) and features[0, 0] == 0.0


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def thousand_anchor_map():
    rng = np.random.default_rng(9)
    return (kernelmap.KernelMap(anchors=rng.standard_normal((16, 1000)), sigma=8.0),
            rng.standard_normal((16, kernelmap.BLOCK)))


def test_transform_peak_is_its_output_and_one_tile():
    # The block's Gram matrix once sat beside the output, doubling it.
    kmap, samples = thousand_anchor_map()
    output_bytes = kmap.anchor_count * samples.shape[1] * 8
    assert traced_peak(lambda: kernelmap.transform(kmap, samples)) < output_bytes + (2 << 20)


def test_encode_peak_is_one_block_of_features_and_one_tile():
    kmap, samples = thousand_anchor_map()
    rng = np.random.default_rng(10)
    model = HashModel(kernel=kmap, projection=rng.standard_normal((kmap.anchor_count, 10)),
                      class_codes=codes.hadamard_codes(16, 10), lam=1.0,
                      trained_on=DatasetFingerprint(5000, kmap.source_dim, 10, 0))
    block_bytes = kmap.anchor_count * kernelmap.BLOCK * 8
    assert traced_peak(lambda: encode(model, samples)) < block_bytes + (2 << 20)


def test_dimension_mismatch():
    kmap = kernelmap.KernelMap(anchors=np.ones((3, 2)), sigma=1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernelmap.transform(kmap, np.ones((4, 1)))
