"""Tests of the benchmark itself: output schema, checks and tracer.

    python3 -m pytest perfbench -q

The smoke size runs every workload in a few seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from sdhkit import evaluate, fsdh, index  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_contract_line(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_gives_same_quality():
    lines = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "sdh-baseline", "--seed", "9", "--seconds", "0.1",
                         "--trace", "0", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        lines.append([line for line in proc.stdout.splitlines()
                      if line.strip().startswith(("map", "precision", "recall", "final"))])
    assert lines[0] and lines[0] == lines[1]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, "--workload", "eval-scale", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _small_index(seed=0, count=40, bits=70):
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random((bits, count)) < 0.5, -1, 1).astype(np.int8)
    return index.pack(signs), signs


def test_unpacked_signs_match_the_packed_layout():
    packed, signs = _small_index()
    assert np.array_equal(checks.unpacked_signs(packed.words, packed.bits), signs.T)


def test_lookup_check_accepts_right_and_flags_wrong_results():
    packed, _ = _small_index()
    code_index = index.CodeIndex(codes=packed, labels=np.zeros(packed.count, dtype=np.int64))
    query = packed.words[3]
    hits = index.radius_search(code_index, query, 30)
    ranking = index.rank_all(code_index, query)
    assert checks.check_lookups(packed.words, packed.words, packed.bits, 30,
                                [(3, hits, ranking)]) == []
    swapped = ranking.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    assert len(checks.check_lookups(packed.words, packed.words, packed.bits, 30,
                                    [(3, hits[1:], swapped)])) == 2


def test_pr_point_check_flags_a_mismatch():
    report = evaluate.EvalReport(precision_at_radius=0.5, recall_at_radius=0.25, map=0.5,
                                 pr_curve=[(0.1, 0.9), (0.2, 0.7), (0.25, 0.5)], radius=2)
    assert checks.check_pr_point(report) == []
    wrong = evaluate.EvalReport(precision_at_radius=0.5, recall_at_radius=0.3, map=0.5,
                                pr_curve=report.pr_curve, radius=2)
    assert checks.check_pr_point(wrong)


def test_round_trip_check_flags_a_changed_projection(tmp_path):
    from sdhkit import kernelmap
    kmap = kernelmap.KernelMap(anchors=np.eye(3), sigma=0.4)
    model = fsdh.HashModel(kernel=kmap, projection=np.ones((3, 4)), class_codes=None, lam=1.0,
                           trained_on=fsdh.DatasetFingerprint(3, 3, 2, 0))
    fsdh.save_model(model, tmp_path / "m")
    loaded = fsdh.load_model(tmp_path / "m")
    assert checks.check_model_round_trip(model, loaded) == []
    changed = fsdh.HashModel(kernel=kmap, projection=np.full((3, 4), 1.0 + 1e-16 * 4),
                             class_codes=None, lam=1.0, trained_on=model.trained_on)
    assert checks.check_model_round_trip(changed, loaded)


def test_tracer_restores_originals_and_reports_absent_targets():
    original = evaluate.hamming_matrix
    targets = [tracing.Target("sdhkit.evaluate", "hamming_matrix", "index.hamming_matrix"),
               tracing.Target("sdhkit.evaluate", "no_such_function", "evaluate.gone")]
    packed, _ = _small_index()
    with tracing.Tracer(targets) as tracer:
        assert evaluate.hamming_matrix is not original
        evaluate.hamming_matrix(packed, packed)
    assert evaluate.hamming_matrix is original
    assert tracer.absent == ["sdhkit.evaluate.no_such_function"]
    assert [s.name for s in tracer.spans] == ["index.hamming_matrix"]
    assert tracer.spans[0].seconds > 0
