"""Closed-form hash trainer.

The fast trainer skips alternating optimization entirely. Its model
assumptions are named throughout the package:

  A1: the code length L is a power of two,
  A2: L is at least the number of classes,
  A3: each sample carries a single label,
  A4: the code-fitting bias term is negligible (it is dropped).

Under A1-A3 the optimal class codes are columns of a Hadamard matrix, and
the code matrix is B = C Y for the (L, C) class codes C and the (C, N)
one-hot label matrix Y. Training therefore reduces to one regularized
least-squares solve against Y, independent of the code length L. The
projection factors as P = S C^T; the model keeps the (M, C) solution S and
the class codes, and `sdhkit.model` scores L bits through C at encode time.
"""
from __future__ import annotations

import numpy as np

from .codes import ClassCodes, hadamard_codes
from .dataset import class_labels
# Re-exported for callers that still read the model names from this module.
from .model import DatasetFingerprint, HashModel, load_model, save_model  # noqa: F401
from .sdh import DEFAULT_LAMBDA, ProjectionSolver, one_hot


def train_fsdh(features: np.ndarray, labels: np.ndarray, class_count: int,
               bits: int) -> tuple[np.ndarray, ClassCodes]:
    """Closed-form training on already kernel-transformed features.

    Builds the per-class Hadamard codes C and returns (S, C), where
    S = (X X^T + jitter*I)^-1 X Y^T is the (M, C) solution against the class
    indicators Y (assumption A3), with `ProjectionSolver`'s default jitter
    1e-8 * trace(X X^T) / M. The projection solving
    (X X^T + jitter*I) P = X B^T for the per-sample codes B = C Y is
    P = S C^T; it is never formed. S does not depend on L, so neither does
    the cost. No iteration and no randomness: repeated calls return
    bit-identical solutions.
    """
    # Checks assumptions A1 and A2 before any other input.
    class_codes = hadamard_codes(bits, class_count)
    x = np.asarray(features, dtype=np.float64)
    indicators = one_hot(class_labels(labels, "labels", count=x.shape[1]), class_count)
    return ProjectionSolver(x).solve(indicators), class_codes


def optimal_weights(class_codes: ClassCodes, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Ridge classifier for one sample per class: W = B' / (L + lambda).

    Satisfies (B' B'^T + lam*I) W = B' exactly because the class codes are
    orthogonal with squared norm L.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return class_codes.codes.astype(np.float64) / (class_codes.bits + lam)
