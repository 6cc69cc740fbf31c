"""Supervised discrete hashing toolkit.

Trains compact binary hash codes from labeled features, either by the
closed-form Hadamard-code solver or by the alternating-optimization
baseline, and evaluates retrieval with a packed-code Hamming engine.
"""

from .codes import ClassCodes, expand_codes, hadamard_codes
from .dataset import RawDataset, load_csv, load_mnist, normalize, synth_blobs
from .evaluate import EvalReport, bias_term_diagnostics, evaluate_retrieval, loss_table
from .fsdh import optimal_weights, train_fsdh
from .index import CodeIndex, Hits, PackedCodes, pack, radius_search, rank_all, unpack
from .kernelmap import KernelMap, fit_anchors, transform
from .model import DatasetFingerprint, HashModel, encode, load_model, save_model
from .sdh import (
    ObjectiveBreakdown,
    ProjectionSolver,
    SdhState,
    b_step,
    objective,
    train_sdh,
    w_step,
)

__version__ = "0.1.0"

__all__ = [
    "ClassCodes",
    "CodeIndex",
    "DatasetFingerprint",
    "EvalReport",
    "HashModel",
    "Hits",
    "KernelMap",
    "ObjectiveBreakdown",
    "PackedCodes",
    "ProjectionSolver",
    "RawDataset",
    "SdhState",
    "b_step",
    "bias_term_diagnostics",
    "encode",
    "evaluate_retrieval",
    "expand_codes",
    "fit_anchors",
    "hadamard_codes",
    "load_csv",
    "load_mnist",
    "load_model",
    "loss_table",
    "normalize",
    "objective",
    "optimal_weights",
    "pack",
    "radius_search",
    "rank_all",
    "save_model",
    "synth_blobs",
    "train_fsdh",
    "train_sdh",
    "transform",
    "unpack",
    "w_step",
]
