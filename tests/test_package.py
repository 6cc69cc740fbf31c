import types

import sdhkit

PUBLIC_NAMES = [
    "ClassCodes", "CodeIndex", "DatasetFingerprint",
    "EvalReport", "HashModel", "Hits", "KernelMap", "ObjectiveBreakdown", "PackedCodes",
    "ProjectionSolver", "RawDataset", "SdhState", "b_step", "bias_term_diagnostics",
    "encode", "evaluate_retrieval", "expand_codes", "fit_anchors", "hadamard_codes",
    "load_csv", "load_mnist", "load_model", "loss_table",
    "normalize", "objective", "pack",
    "radius_search", "rank_all", "save_model",
    "synth_blobs", "train_fsdh", "train_sdh", "transform", "unpack", "w_step",
]


def test_every_exported_name_resolves():
    assert [name for name in sdhkit.__all__ if not hasattr(sdhkit, name)] == []


def test_the_package_exports_exactly_its_public_names():
    # Adding or removing a public name is an API change: update PUBLIC_NAMES
    # with it. The package holds no public name outside __all__ but its
    # submodules.
    assert sorted(sdhkit.__all__) == PUBLIC_NAMES
    public = {name for name, value in vars(sdhkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_NAMES)
