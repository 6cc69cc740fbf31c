"""RBF anchor feature map.

Original features are converted to M-dimensional kernel features: component m
of the transformed vector is exp(-||x - a_m||^2 / sigma) against anchor a_m,
where the anchors are training samples chosen uniformly at random.

Anchors and samples must be real (bool, integer or float), finite, and small
enough that their squared norms, and the largest sample's plus the largest
anchor's, do not overflow float64. Complex or text input, which a float cast
would silently truncate or parse, and inputs whose norms overflow, which
would turn every feature into NaN, raise ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import RawDataset

# Samples per block of `transform`, and of `model.encode`, which streams
# through it.
BLOCK = 4096
# Bytes per row tile of a block. `transform` runs its elementwise passes one
# tile at a time, so a tile and its scratch stay in a core's L2 cache.
TILE_BYTES = 1 << 20


def _real(values, what: str) -> np.ndarray:
    """`values` as float64, refusing dtypes that a cast would change silently:
    complex (drops the imaginary part), text (parsed as numbers) and objects."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {values.dtype}")
    return values.astype(np.float64, copy=False)


@dataclass(frozen=True)
class KernelMap:
    """Fitted anchor set; immutable after `fit_anchors`."""

    anchors: np.ndarray  # (source_dim, anchor_count) float64
    sigma: float

    def __post_init__(self):
        anchors = _real(self.anchors, "anchors")
        if anchors.ndim != 2 or anchors.shape[1] < 1:
            raise ValueError(f"anchors must be a (dim, count) matrix, got shape {anchors.shape}")
        if not np.isfinite(anchors).all():
            raise ValueError("anchors contain non-finite values")
        if not np.isfinite(np.einsum("dm,dm->m", anchors, anchors)).all():
            raise ValueError("anchors' squared norms overflow float64")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "anchors", anchors)

    @property
    def source_dim(self) -> int:
        return self.anchors.shape[0]

    @property
    def anchor_count(self) -> int:
        return self.anchors.shape[1]


def fit_anchors(dataset: RawDataset, anchor_count: int, sigma: float,
                seed: int) -> KernelMap:
    """Draw `anchor_count` distinct training samples as anchors.

    Sampling is uniform without replacement and deterministic for a fixed
    seed.
    """
    if anchor_count < 1:
        raise ValueError(f"anchor_count must be >= 1, got {anchor_count}")
    if anchor_count > dataset.sample_count:
        raise ValueError(
            f"anchor_count {anchor_count} exceeds sample count {dataset.sample_count}"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.sample_count, size=anchor_count, replace=False)
    return KernelMap(anchors=dataset.features[:, idx].copy(), sigma=float(sigma))


def _checked_samples(kmap: KernelMap, samples: np.ndarray) -> np.ndarray:
    """`samples` as a finite float64 (D, K) matrix of the kernel map's dimension.

    Finiteness is checked BLOCK samples at a time, so the check's mask
    holds at most D * BLOCK bytes however many samples there are.
    """
    samples = _real(samples, "samples")
    if samples.ndim != 2:
        raise ValueError(f"samples must be a (dim, count) matrix, got shape {samples.shape}")
    if samples.shape[0] != kmap.source_dim:
        raise ValueError(
            f"dimension mismatch: samples have dim {samples.shape[0]}, "
            f"kernel map expects {kmap.source_dim}"
        )
    if not all(np.isfinite(samples[:, start:start + BLOCK]).all()
               for start in range(0, samples.shape[1], BLOCK)):
        raise ValueError("samples contain non-finite values")
    return samples


def transform(kmap: KernelMap, samples: np.ndarray) -> np.ndarray:
    """Map (D, K) samples to (M, K) kernel features.

    Entry (m, k) is exp(-||x_k - a_m||^2 / sigma), so values lie in (0, 1]
    and a sample equal to anchor a_m maps to exactly 1 in component m.
    Squared distances use the Gram-matrix expansion (a + c) - 2G. Each
    block of BLOCK samples writes its 2G = (2A)^T X straight into its slice
    of the output, from anchors doubled once per call; doubling one operand
    is exact, so this is the doubled product bit for bit. Five elementwise
    passes then run over row tiles of TILE_BYTES, with one reused tile of
    scratch: a + c, the subtraction, the near-zero prefilter, the division
    by -sigma and exp. Memory is the output plus that scratch and the
    doubled anchors. Entries that land within rounding error of zero are
    recomputed by direct differencing so coincident pairs come out exactly
    zero. The test's tolerance is never negative, so it also catches every
    entry that rounded below zero, and no clamp at zero is needed. A
    squared distance, or its quotient by sigma, past float64's range gives
    the feature its true value, 0, with no warning.

    Samples are checked as the module says: samples that are not real or
    not finite, or whose largest squared norm plus the largest anchor's
    overflows float64, raise ValueError. That bound keeps 2G and its
    partial sums finite, since |2 a.x| <= a + c.
    """
    samples = _checked_samples(kmap, samples)
    anchors = kmap.anchors
    anchor_sq = np.einsum("dm,dm->m", anchors, anchors)
    largest_anchor_sq = float(anchor_sq.max())
    doubled_t = (2.0 * anchors).T
    count = samples.shape[1]
    out = np.empty((kmap.anchor_count, count))
    width = max(1, min(BLOCK, count))
    tile_rows = max(1, min(kmap.anchor_count, TILE_BYTES // (8 * width)))
    scratch = np.empty((tile_rows, width))
    for start in range(0, count, BLOCK):
        chunk = samples[:, start:start + BLOCK]
        chunk_sq = np.einsum("dk,dk->k", chunk, chunk)
        if not np.isfinite(largest_anchor_sq + float(chunk_sq.max())):
            raise ValueError("samples' squared norms plus the anchors' overflow float64")
        block = out[:, start:start + BLOCK]
        np.matmul(doubled_t, chunk, out=block)
        for top in range(0, kmap.anchor_count, tile_rows):
            sq = block[top:top + tile_rows]
            tile_sq = anchor_sq[top:top + tile_rows]
            sums = scratch[:sq.shape[0], :sq.shape[1]]
            np.add(tile_sq[:, None], chunk_sq[None, :], out=sums)
            # A squared distance past float64's range overflows to inf here,
            # and so does a quotient by a tiny sigma below; exp then gives
            # the feature's true value, 0, so neither overflow is a fault.
            with np.errstate(over="ignore"):
                np.subtract(sums, sq, out=sq)
            # Both tolerances are never negative, so the exact test selects
            # every entry that rounded below zero, and no clamp is needed. A
            # column's smallest entry bounds every entry's rounding test
            # from below, and the tile's largest anchor norm bounds its
            # tolerance from above, so these columns hold every entry the
            # exact test selects.
            cols = np.flatnonzero(sq.min(axis=0) <= 1e-12 * (tile_sq.max() + chunk_sq))
            hits, picks = np.nonzero(sq[:, cols] <= 1e-12 * (tile_sq[:, None] + chunk_sq[cols]))
            for m, k in zip(hits, cols[picks]):
                diff = anchors[:, top + m] - chunk[:, k]
                sq[m, k] = diff @ diff
            with np.errstate(over="ignore"):
                np.divide(sq, -kmap.sigma, out=sq)
            np.exp(sq, out=sq)
    return out
