"""In-memory span recorder for traced benchmark runs.

The tracer replaces package functions with timing wrappers in the module
where their caller looks them up (for example `sdhkit.evaluate.hamming_matrix`,
which `evaluate` imported by name from `index`), and puts the originals back
when it is closed. A target that no longer exists is reported as absent.

Each call becomes a span: name, start, end, the span that was open when it
started (its parent), and optional counts. Spans stay in memory; the run
writes them out once it has finished. A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    group: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    peak_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: `module.attr`, recorded under `span`.

    `peak` asks for the span's memory high-water mark (via tracemalloc, which
    sees numpy's buffers). `counts(args, kwargs, result, parent_name)` returns
    work counts to attach to the span.
    """

    module: str
    attr: str
    span: str
    peak: bool = False
    counts: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.group = ""
        self.absent: list[str] = []
        self.installed: set[str] = set()  # span names with at least one wrapper
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._peak_stack: list[list] = []  # [span, base bytes, max seen] per open peak span
        self._owns_tracemalloc = False

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            qualified = f"{target.module}.{target.attr}"
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                if qualified not in self.absent:
                    self.absent.append(qualified)
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))
            self.installed.add(target.span)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, target)
            if target.counts is not None:
                parent = self.spans[span.parent].name if span.parent is not None else None
                span.counts.update(target.counts(args, kwargs, result, parent))
            return result
        return traced

    def _open(self, target: Target) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=target.span,
                    group=self.group, start=0.0)
        self.spans.append(span)
        self._stack.append(span)
        if target.peak:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True
            current, peak = tracemalloc.get_traced_memory()
            for entry in self._peak_stack:
                entry[2] = max(entry[2], peak)
            tracemalloc.reset_peak()
            self._peak_stack.append([span, current, current])
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, target: Target) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if target.peak:
            entry = self._peak_stack.pop()
            peak = tracemalloc.get_traced_memory()[1]
            span.peak_bytes = max(entry[2], peak) - entry[1]
            for outer in self._peak_stack:
                outer[2] = max(outer[2], peak)
            # tracemalloc slows every Python allocation, so it runs only
            # while a span that asks for its peak is open.
            if not self._peak_stack and self._owns_tracemalloc:
                tracemalloc.stop()
                self._owns_tracemalloc = False


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _transform_counts(args, kwargs, result, parent):
    kmap = _arg(args, kwargs, 0, "kmap")
    samples = _arg(args, kwargs, 1, "samples").shape[1]
    return {"samples": samples,
            "gflop": 2.0 * kmap.source_dim * kmap.anchor_count * samples / 1e9}


def _hamming_counts(args, kwargs, result, parent):
    database = _arg(args, kwargs, 0, "database")
    queries = _arg(args, kwargs, 1, "queries")
    pairs = database.count * queries.count
    return {"pairs": pairs, "bytes": pairs * database.words.shape[1] * 8}


def _save_counts(args, kwargs, result, parent):
    return {"model_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _exact_counts(args, kwargs, result, parent):
    return {"solves": 1, "exact_solves": int(result.exact), "nodes": result.nodes}


def _dcc_counts(args, kwargs, result, parent):
    # solve_dcc inside branch-and-bound only seeds the incumbent.
    return {"solves": 0 if parent == "biqp.solve_branch_and_bound" else 1}


def _dcc_batch_counts(args, kwargs, result, parent):
    if parent == "biqp.solve_dcc":
        return {"solves": 0}
    return {"solves": _arg(args, kwargs, 1, "linear").shape[1]}


def _train_fsdh_counts(args, kwargs, result, parent):
    return {"bits": _arg(args, kwargs, 3, "bits")}


# Each entry names the namespace the caller reads the function from. The
# benchmark calls the package's public names on `sdhkit`; inside the package,
# `fsdh.encode` reaches `transform` through its own module globals, and
# `evaluate` reaches `hamming_matrix` the same way.
TARGETS = [
    Target("sdhkit", "synth_blobs", "dataset.synth_blobs"),
    Target("sdhkit", "normalize", "dataset.normalize"),
    Target("sdhkit", "fit_anchors", "kernelmap.fit_anchors"),
    Target("sdhkit", "transform", "kernelmap.transform", True, _transform_counts),
    Target("sdhkit.fsdh", "transform", "kernelmap.transform", True, _transform_counts),
    Target("sdhkit.fsdh", "sylvester", "codes.sylvester"),
    Target("sdhkit.fsdh", "pick_class_codes", "codes.pick_class_codes"),
    Target("sdhkit.fsdh", "expand_codes", "codes.expand_codes"),
    Target("sdhkit", "train_fsdh", "fsdh.train_fsdh", counts=_train_fsdh_counts),
    Target("sdhkit", "encode", "fsdh.encode", True),
    Target("sdhkit", "save_model", "fsdh.save_model", counts=_save_counts),
    Target("sdhkit", "load_model", "fsdh.load_model"),
    Target("sdhkit.sdh", "f_step", "sdh.f_step"),
    Target("sdhkit.sdh", "w_step", "sdh.w_step"),
    Target("sdhkit.sdh", "b_step", "sdh.b_step"),
    Target("sdhkit.sdh", "objective", "sdh.objective"),
    Target("sdhkit.biqp", "dcc_batch", "biqp.dcc_batch", counts=_dcc_batch_counts),
    Target("sdhkit.biqp", "solve_dcc", "biqp.solve_dcc", counts=_dcc_counts),
    Target("sdhkit.biqp", "solve_exhaustive", "biqp.solve_exhaustive", counts=_exact_counts),
    Target("sdhkit.biqp", "solve_branch_and_bound", "biqp.solve_branch_and_bound",
           counts=_exact_counts),
    Target("sdhkit.index", "pack", "index.pack"),
    Target("sdhkit", "pack", "index.pack"),
    Target("sdhkit", "radius_search", "index.radius_search"),
    Target("sdhkit", "rank_all", "index.rank_all"),
    Target("sdhkit.evaluate", "hamming_matrix", "index.hamming_matrix", counts=_hamming_counts),
    Target("sdhkit.evaluate", "precision_recall_at_radius", "evaluate.precision_recall_at_radius"),
    Target("sdhkit.evaluate", "average_precisions", "evaluate.average_precisions"),
    Target("sdhkit.evaluate", "pr_curve", "evaluate.pr_curve"),
    Target("sdhkit", "evaluate_retrieval", "evaluate.evaluate_retrieval", True),
]
