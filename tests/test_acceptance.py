"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The two tests that need
the real MNIST IDX files skip with instructions when the files are absent
(see conftest.mnist_paths); everything else runs on synthetic or enumerated
inputs.
"""
import time

import numpy as np
import pytest

from sdhkit import biqp, codes, dataset, evaluate, fsdh, index, kernelmap, sdh
from sdhkit.model import DatasetFingerprint, HashModel, encode

import oracles


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def _train_eval_mnist_fsdh(mnist_paths, seed, bits=32, anchors=1000,
                           train_limit=30000, query_limit=1000):
    train = dataset.normalize(dataset.load_mnist(
        mnist_paths["train_images"], mnist_paths["train_labels"], limit=train_limit))
    test = dataset.normalize(dataset.load_mnist(
        mnist_paths["test_images"], mnist_paths["test_labels"], limit=query_limit))
    kmap = kernelmap.fit_anchors(train, anchors, 0.4, seed)
    features = kernelmap.transform(kmap, train.features)
    projection, class_codes = fsdh.train_fsdh(features, train.labels,
                                              train.class_count, bits)
    model = HashModel(
        kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
        trained_on=DatasetFingerprint(train.sample_count, train.dim,
                                      train.class_count, seed))
    idx = index.CodeIndex(codes=encode(model, train.features),
                          labels=train.labels)
    queries = encode(model, test.features)
    report = evaluate.evaluate_retrieval(idx, queries, test.labels, 2)
    return report.precision_at_radius, report.map


def test_criterion_1_mnist_reproduction(mnist_paths):
    target, tol = 0.929, 0.05
    results = []
    for seed in (0, 1, 2):
        precision, map_value = _train_eval_mnist_fsdh(mnist_paths, seed)
        results.append((seed, precision, map_value))
    ok = all(abs(p - target) <= tol and abs(m - target) <= tol
             for _, p, m in results)
    detail = "; ".join(f"seed {s}: precision@2={p:.4f} map={m:.4f}"
                       for s, p, m in results)
    _report(1, ok, f"target {target}+-{tol}; {detail}")
    assert ok


def test_criterion_2_bit_scalability():
    bits_list = (32, 64, 128, 256, 512)
    data = dataset.normalize(dataset.synth_blobs(10, 1030, 32, 0.3, seed=5))
    train_cols = np.concatenate([np.flatnonzero(data.labels == c)[30:] for c in range(10)])
    test_cols = np.concatenate([np.flatnonzero(data.labels == c)[:30] for c in range(10)])
    train = dataset.RawDataset(features=data.features[:, train_cols],
                               labels=data.labels[train_cols], class_count=10)
    test = dataset.RawDataset(features=data.features[:, test_cols],
                              labels=data.labels[test_cols], class_count=10)
    assert train.sample_count == 10000
    kmap = kernelmap.fit_anchors(train, 1000, 0.4, seed=0)
    features = kernelmap.transform(kmap, train.features)
    fsdh.train_fsdh(features, train.labels, 10, 32)  # BLAS warmup

    times, precisions = {}, {}
    for bits in bits_list:
        start = time.perf_counter()
        projection, class_codes = fsdh.train_fsdh(features, train.labels, 10, bits)
        times[bits] = time.perf_counter() - start
        model = HashModel(
            kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
            trained_on=DatasetFingerprint(10000, 32, 10, 0))
        idx = index.CodeIndex(codes=encode(model, train.features),
                              labels=train.labels)
        precisions[bits] = evaluate.evaluate_retrieval(
            idx, encode(model, test.features), test.labels, 2).precision_at_radius

    ratio = times[512] / times[32]
    spread = max(precisions.values()) - min(precisions.values())
    ok = ratio <= 4.0 and spread <= 0.03
    _report(2, ok, f"time(512)/time(32)={ratio:.2f} (limit 4); "
                   f"precision spread={spread:.4f} (limit 0.03); "
                   f"times={{{', '.join(f'{b}: {times[b]:.3f}s' for b in bits_list)}}}")
    assert ok


def test_criterion_3_bias_term_is_negligible(mnist_paths):
    train = dataset.normalize(dataset.load_mnist(
        mnist_paths["train_images"], mnist_paths["train_labels"], limit=2000))
    test = dataset.normalize(dataset.load_mnist(
        mnist_paths["test_images"], mnist_paths["test_labels"], limit=1000))
    kmap = kernelmap.fit_anchors(train, 300, 0.4, seed=0)
    features = kernelmap.transform(kmap, train.features)
    maps = {}
    for nu in (1e-5, 0.0):
        state, _ = sdh.train_sdh(features, train.labels, train.class_count, 32,
                                 lam=1.0, nu=nu, max_iters=5, seed=0, solver="dcc")
        model = HashModel(
            kernel=kmap, projection=state.projection, class_codes=None, lam=1.0,
            trained_on=DatasetFingerprint(2000, train.dim, 10, 0))
        idx = index.CodeIndex(codes=encode(model, train.features),
                              labels=train.labels)
        maps[nu] = evaluate.evaluate_retrieval(
            idx, encode(model, test.features), test.labels).map
    gap = abs(maps[1e-5] - maps[0.0])
    ok = gap <= 0.02
    _report(3, ok, f"map(nu=1e-5)={maps[1e-5]:.4f} map(nu=0)={maps[0.0]:.4f} "
                   f"gap={gap:.4f} (limit 0.02)")
    assert ok


def test_criterion_4_closed_form_oracle_equivalence():
    records = []
    ok = True
    for bits in (2, 4):
        for classes in range(1, min(bits, 3) + 1):
            for lam in (0.5, 1.0, 2.0):
                report = oracles.fsdh_objective_oracle(bits, classes, lam)
                pick = codes.hadamard_codes(bits, classes)
                hadamard_value = oracles.ridge_classifier_objective(pick.codes, lam)
                ok &= abs(hadamard_value - report.brute_force_value) <= 1e-9
                ok &= abs(report.brute_force_value - report.analytic_value) <= 1e-9
                records.append(report)
    sample = records[-1]
    _report(4, ok,
            f"confirmed minimum = C*lam/(L+lam) on all {len(records)} cases; "
            f"e.g. (L={sample.bits}, C={sample.classes}, lam={sample.lam}): "
            f"brute={sample.brute_force_value:.9f}, "
            f"stated L/(L+lam)={sample.ridge_fit_factor:.9f} recorded for the ledger")
    assert ok


def test_criterion_5_b_step_oracle_equivalence():
    rng = np.random.default_rng(42)
    strict = 0
    ok = True
    for trial in range(200):
        bits = int(rng.integers(2, 11))
        w = rng.standard_normal((bits, max(1, bits // 2)))
        q, f = w @ w.T, rng.standard_normal((bits, 1))
        exact, best = oracles.biqp_brute_force(q, f[:, 0])
        bnb = biqp.solve_batch(w, f, None, "branch_and_bound")
        ok &= bool(np.array_equal(bnb[:, 0], exact))
        ok &= oracles.biqp_objective(q, f[:, 0], bnb[:, 0]) == best
        init = (2 * rng.integers(0, 2, (bits, 1)) - 1).astype(np.int8)
        dcc = biqp.solve_batch(w, f, init, "dcc")
        greedy = oracles.biqp_objective(q, f[:, 0], dcc[:, 0])
        ok &= greedy >= best - 1e-9
        if greedy > best + 1e-9:
            strict += 1
    ok &= strict >= 1
    _report(5, ok, f"branch-and-bound matched brute-force enumeration on 200 instances; "
                   f"greedy descent strictly suboptimal on {strict}")
    assert ok


def test_criterion_6_retrieval_engine_oracle_equivalence():
    rng = np.random.default_rng(7)
    ok = True
    for bits in (32, 65, 128):
        db_signs = (2 * rng.integers(0, 2, (bits, 2000)) - 1).astype(np.int8)
        q_signs = (2 * rng.integers(0, 2, (bits, 1000)) - 1).astype(np.int8)
        db = index.pack(db_signs)
        queries = index.pack(q_signs)
        idx = index.CodeIndex(codes=db, labels=np.zeros(2000, dtype=np.int64))
        ids = np.arange(2000)
        for qi in range(1000):
            expected_dist = oracles.sign_distances(db_signs, q_signs[:, qi])
            hits = index.radius_search(idx, queries.words[qi], 2)
            expected_ids = np.flatnonzero(expected_dist <= 2)
            got_ids = np.array([i for i, _ in hits], dtype=np.int64)
            ok &= bool(np.array_equal(np.sort(got_ids), expected_ids))
            ok &= all(d == expected_dist[i] for i, d in hits)
            order = index.rank_all(idx, queries.words[qi])
            expected_order = np.lexsort((ids, expected_dist))
            ok &= bool(np.array_equal(order, expected_order))
        if not ok:
            break
    _report(6, ok, "packed popcount search and ranking match the per-bit "
                   "oracle on 1000 queries x {32, 65, 128} bits")
    assert ok


def test_criterion_7_fit_error_trace_identity():
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(m + 2, 25))
        bits = int(rng.integers(2, 7))
        x = rng.standard_normal((m, n))
        b = (2 * rng.integers(0, 2, (bits, n)) - 1).astype(np.float64)
        p = sdh.ProjectionSolver(x, jitter=0.0).solve(b)
        direct = ((b - p.T @ x) ** 2).sum()
        gram = x.T @ np.linalg.solve(x @ x.T, x)
        identity = np.trace(b.T @ b) - np.einsum("ln,nm,lm->", b, gram, b)
        rel = abs(direct - identity) / max(1.0, abs(direct))
        worst = max(worst, rel)
        ok &= rel <= 1e-8

    grouped_gap = 0.0
    for classes, per_class, bits in ((2, 6, 4), (3, 5, 8), (4, 4, 16)):
        n = classes * per_class
        x = rng.standard_normal((5, n))
        labels = np.repeat(np.arange(classes), per_class)
        b = codes.expand_codes(codes.hadamard_codes(bits, classes), labels)
        diag = evaluate.bias_term_diagnostics(x, b, labels)
        grouped_gap = max(grouped_gap, abs(diag.trace_value - diag.trace_grouped))
        ok &= abs(diag.trace_value - diag.trace_grouped) <= 1e-9
    _report(7, ok, f"trace identity worst relative error {worst:.2e} "
                   f"(limit 1e-8); grouped-sum gap {grouped_gap:.2e} (limit 1e-9)")
    assert ok


def _paired_w_losses(features, labels, class_count, bits_list, kmap, seed):
    rows = []
    for bits in bits_list:
        state, _ = sdh.train_sdh(features, labels, class_count, bits,
                                 lam=1.0, nu=1e-5, max_iters=5, seed=seed)
        projection, class_codes = fsdh.train_fsdh(features, labels,
                                                  class_count, bits)
        model = HashModel(
            kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
            trained_on=DatasetFingerprint(features.shape[1], kmap.source_dim,
                                          class_count, seed))
        rows.append(evaluate.loss_table(state, model, features, labels))
    return rows


def test_criterion_8_loss_dominance_synthetic():
    data = dataset.normalize(dataset.synth_blobs(10, 80, 16, 0.3, seed=2))
    kmap = kernelmap.fit_anchors(data, 100, 0.4, seed=0)
    features = kernelmap.transform(kmap, data.features)
    rows = _paired_w_losses(features, data.labels, 10, (16, 32, 64), kmap, seed=0)
    ok = all(row.fsdh_w_loss <= row.sdh_w_loss for row in rows)
    detail = "; ".join(f"L={r.bits}: fsdh={r.fsdh_w_loss:.3e} sdh={r.sdh_w_loss:.3e}"
                       for r in rows)
    _report(8, ok, f"synthetic pairs: {detail}")
    assert ok


def test_criterion_8_loss_dominance_mnist(mnist_paths):
    train = dataset.normalize(dataset.load_mnist(
        mnist_paths["train_images"], mnist_paths["train_labels"], limit=2000))
    kmap = kernelmap.fit_anchors(train, 300, 0.4, seed=0)
    features = kernelmap.transform(kmap, train.features)
    rows = _paired_w_losses(features, train.labels, 10, (16, 32, 64), kmap, seed=0)
    ok = all(row.fsdh_w_loss <= row.sdh_w_loss for row in rows)
    detail = "; ".join(f"L={r.bits}: fsdh={r.fsdh_w_loss:.3e} sdh={r.sdh_w_loss:.3e}"
                       for r in rows)
    _report(8, ok, f"mnist-subset pairs: {detail}")
    assert ok


def test_criterion_9_uniform_allocation_grid_check():
    ok = True
    details = []
    for bits, classes, lam in ((16, 3, 1.0), (4, 2, 0.5), (32, 2, 2.0)):
        total = float(bits * classes)
        step = 0.01 * total
        (x1, x2, x3), _ = oracles.grid_simplex_min_3(
            lambda x: lam / (x + lam), total, step)
        uniform = total / 3.0
        hit = max(abs(x1 - uniform), abs(x2 - uniform), abs(x3 - uniform))
        ok &= hit <= step + 1e-12
        details.append(f"LC={total:g}: offset {hit:.4f} <= step {step:.4f}")
    _report(9, ok, "; ".join(details))
    assert ok
