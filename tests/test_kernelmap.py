import numpy as np
import pytest

from sdhkit import dataset, kernelmap

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
    out = kernelmap.transform(kmap, anchors[:, [1]])
    assert out[1, 0] == 1.0


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


def test_dimension_mismatch():
    kmap = kernelmap.KernelMap(anchors=np.ones((3, 2)), sigma=1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernelmap.transform(kmap, np.ones((4, 1)))
