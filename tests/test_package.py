import subprocess
import sys
import textwrap
import types
from pathlib import Path

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


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Reporting a failure, Hypothesis imports libcst, which subclasses the
    # deprecated mypy_extensions.TypedDict; under error::DeprecationWarning
    # that warning ended the session with an INTERNALERROR, so the tests
    # after the failing one never ran.
    (tmp_path / "test_session.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_runs_after_the_failure():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
