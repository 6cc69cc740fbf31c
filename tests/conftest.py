import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles

# MNIST IDX files are looked up here for the dataset-dependent tests; set
# SDHKIT_MNIST_DIR or drop the four standard files (optionally gzipped)
# into data/mnist/ at the repository root.
MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_mnist() -> dict[str, Path] | None:
    candidates = []
    if os.environ.get("SDHKIT_MNIST_DIR"):
        candidates.append(Path(os.environ["SDHKIT_MNIST_DIR"]))
    candidates.append(Path(__file__).parent.parent / "data" / "mnist")
    for root in candidates:
        found = {}
        for key, name in MNIST_FILES.items():
            for candidate in (root / name, root / (name + ".gz")):
                if candidate.exists():
                    found[key] = candidate
                    break
        if len(found) == len(MNIST_FILES):
            return found
    return None


@pytest.fixture(scope="session")
def mnist_paths():
    paths = _find_mnist()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found: set SDHKIT_MNIST_DIR or place "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz) "
            "under data/mnist/"
        )
    return paths


@pytest.fixture
def idx_pair(tmp_path):
    """Write a small IDX image/label pair and return the two paths."""

    def make(images: np.ndarray, labels: np.ndarray):
        images_path = tmp_path / "images-idx3-ubyte"
        labels_path = tmp_path / "labels-idx1-ubyte"
        oracles.write_idx(images_path, images)
        oracles.write_idx(labels_path, labels)
        return images_path, labels_path

    return make
