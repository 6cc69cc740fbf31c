"""Per-layer metrics derived from the spans of one traced cycle.

Each metric names the span(s) it reads, so a metric whose spans were never
wrapped (the target is gone from the package) is reported as absent, and
one whose spans never ran in this workload as not exercised. `kind` tells a
timing from a counted quantity (calls, nodes, samples, bytes written) and
from a computed one (flops and bytes scanned, derived from array shapes).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from tracer import Span


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.child_seconds: dict[int, float] = defaultdict(float)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.child_seconds[span.parent] += span.seconds

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name[name])

    def self_time(self, name: str) -> float:
        return sum(s.seconds - self.child_seconds[s.id] for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.by_name[name])

    def peak_mb(self, name: str) -> float:
        return max((s.peak_bytes or 0 for s in self.by_name[name]), default=0) / 1e6

    def ran(self, name: str) -> bool:
        return bool(self.by_name[name])


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str                   # time | peak | counted | computed
    spans: tuple[str, ...]      # span names the value is read from
    value: Callable[[SpanIndex], float]
    setup: bool = False         # read from the set-up repeats, not the cycles


_SOLVERS = ("biqp.solve_exhaustive", "biqp.solve_branch_and_bound",
            "biqp.solve_dcc", "biqp.dcc_batch")
_CODES = ("codes.sylvester", "codes.pick_class_codes", "codes.expand_codes")


def _fsdh_bits(ix: SpanIndex, bits: int) -> float:
    return sum(s.seconds for s in ix.by_name["fsdh.train_fsdh"] if s.counts.get("bits") == bits)


def _exact_share(ix: SpanIndex) -> float:
    solves = sum(ix.count(n, "solves") for n in _SOLVERS)
    exact = sum(ix.count(n, "exact_solves") for n in _SOLVERS)
    return exact / solves if solves else 0.0


def _per_eval(ix: SpanIndex, name: str) -> float:
    evals = ix.calls("evaluate.evaluate_retrieval")
    return ix.calls(name) / evals if evals else 0.0


def _m(name, unit, kind, spans, value, setup=False):
    return LayerMetric(name, unit, kind, tuple(spans), value, setup)


METRICS = [
    _m("dataset.s", "s", "time", ["dataset.synth_blobs", "dataset.normalize"],
       lambda ix: ix.total("dataset.synth_blobs") + ix.total("dataset.normalize"), setup=True),
    _m("kernelmap.transform.s", "s", "time", ["kernelmap.transform"],
       lambda ix: ix.total("kernelmap.transform")),
    _m("kernelmap.transform.samples", "count", "counted", ["kernelmap.transform"],
       lambda ix: ix.count("kernelmap.transform", "samples")),
    _m("kernelmap.transform.gflop", "GFLOP", "computed", ["kernelmap.transform"],
       lambda ix: ix.count("kernelmap.transform", "gflop")),
    _m("kernelmap.transform.peak_mb", "MB", "peak", ["kernelmap.transform"],
       lambda ix: ix.peak_mb("kernelmap.transform")),
    _m("codes.s", "s", "time", _CODES, lambda ix: sum(ix.total(n) for n in _CODES)),
    _m("fsdh.train_fsdh.s.L32", "s", "time", ["fsdh.train_fsdh"], lambda ix: _fsdh_bits(ix, 32)),
    _m("fsdh.train_fsdh.s.L512", "s", "time", ["fsdh.train_fsdh"], lambda ix: _fsdh_bits(ix, 512)),
    _m("fsdh.encode.s", "s", "time", ["fsdh.encode"], lambda ix: ix.self_time("fsdh.encode")),
    _m("fsdh.encode.peak_mb", "MB", "peak", ["fsdh.encode"], lambda ix: ix.peak_mb("fsdh.encode")),
    _m("fsdh.save_model.s", "s", "time", ["fsdh.save_model"], lambda ix: ix.total("fsdh.save_model")),
    _m("fsdh.load_model.s", "s", "time", ["fsdh.load_model"], lambda ix: ix.total("fsdh.load_model")),
    _m("fsdh.model_bytes", "bytes", "counted", ["fsdh.save_model"],
       lambda ix: ix.count("fsdh.save_model", "model_bytes")),
    _m("sdh.f_step.s", "s", "time", ["sdh.f_step"], lambda ix: ix.total("sdh.f_step")),
    _m("sdh.f_step.calls", "count", "counted", ["sdh.f_step"], lambda ix: ix.calls("sdh.f_step")),
    _m("sdh.w_step.s", "s", "time", ["sdh.w_step"], lambda ix: ix.total("sdh.w_step")),
    _m("sdh.objective.s", "s", "time", ["sdh.objective"], lambda ix: ix.total("sdh.objective")),
    _m("sdh.b_step.s", "s", "time", ["sdh.b_step"], lambda ix: ix.self_time("sdh.b_step")),
    _m("biqp.dcc_batch.s", "s", "time", ["biqp.dcc_batch"], lambda ix: ix.total("biqp.dcc_batch")),
    _m("biqp.dcc_batch.calls", "count", "counted", ["biqp.dcc_batch"],
       lambda ix: ix.calls("biqp.dcc_batch")),
    _m("biqp.solve_exhaustive.s", "s", "time", ["biqp.solve_exhaustive"],
       lambda ix: ix.total("biqp.solve_exhaustive")),
    _m("biqp.solve_exhaustive.calls", "count", "counted", ["biqp.solve_exhaustive"],
       lambda ix: ix.calls("biqp.solve_exhaustive")),
    _m("biqp.solve_branch_and_bound.s", "s", "time", ["biqp.solve_branch_and_bound"],
       lambda ix: ix.total("biqp.solve_branch_and_bound")),
    _m("biqp.solve_branch_and_bound.calls", "count", "counted", ["biqp.solve_branch_and_bound"],
       lambda ix: ix.calls("biqp.solve_branch_and_bound")),
    _m("biqp.bb_nodes", "count", "counted", ["biqp.solve_branch_and_bound"],
       lambda ix: ix.count("biqp.solve_branch_and_bound", "nodes")),
    _m("biqp.exact_share", "ratio", "counted", _SOLVERS, _exact_share),
    _m("index.pack.s", "s", "time", ["index.pack"], lambda ix: ix.total("index.pack")),
    _m("index.hamming_matrix.s", "s", "time", ["index.hamming_matrix"],
       lambda ix: ix.total("index.hamming_matrix")),
    _m("index.hamming_matrix.calls", "count", "counted",
       ["index.hamming_matrix", "evaluate.evaluate_retrieval"],
       lambda ix: _per_eval(ix, "index.hamming_matrix")),
    _m("index.hamming_matrix.pairs", "count", "computed", ["index.hamming_matrix"],
       lambda ix: ix.count("index.hamming_matrix", "pairs")),
    _m("index.hamming_matrix.bytes", "bytes", "computed", ["index.hamming_matrix"],
       lambda ix: ix.count("index.hamming_matrix", "bytes")),
    _m("index.radius_search.s", "s", "time", ["index.radius_search"],
       lambda ix: ix.total("index.radius_search")),
    _m("index.rank_all.s", "s", "time", ["index.rank_all"], lambda ix: ix.total("index.rank_all")),
    _m("evaluate.precision_recall_at_radius.s", "s", "time",
       ["evaluate.precision_recall_at_radius"],
       lambda ix: ix.self_time("evaluate.precision_recall_at_radius")),
    _m("evaluate.average_precisions.s", "s", "time", ["evaluate.average_precisions"],
       lambda ix: ix.self_time("evaluate.average_precisions")),
    _m("evaluate.pr_curve.s", "s", "time", ["evaluate.pr_curve"],
       lambda ix: ix.self_time("evaluate.pr_curve")),
    _m("evaluate.evaluate_retrieval.peak_mb", "MB", "peak", ["evaluate.evaluate_retrieval"],
       lambda ix: ix.peak_mb("evaluate.evaluate_retrieval")),
]
