"""Measurement, checks and reporting for one benchmark run; see run.py."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import layers
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set-ups before the cycles: at least `repeats`, and more until `seconds`
# are spent; then 3 more, and more until `between` seconds, after each cycle.
SETUP = {"full": dict(repeats=9, seconds=1.0, between=0.2),
         "smoke": dict(repeats=3, seconds=0.0, between=0.0)}
MIN_CYCLES = 2           # measured cycles per untraced run, after the warmup


def code_digest() -> str:
    """Digest of the package and of the benchmark, which sets the work counts."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "sdhkit").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "BENCHMARK.json"]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "code_digest": code_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts operations and failures, and keeps the reference cycle."""

    def __init__(self, workload, params, seed, workdir):
        self.workload, self.params, self.seed, self.workdir = workload, params, seed, workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        self.inputs = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def setup(self, repeats: int, seconds: float = 0.0, tracer=None) -> list[float]:
        times = []
        while len(times) < repeats or sum(times) < seconds:
            if tracer is not None:
                tracer.group = f"setup{len(times)}"
            self.attempted += 1
            start = time.perf_counter()
            inputs = self.workload.setup(self.seed, self.params)
            times.append(time.perf_counter() - start)
            arrays = {f"{k}.{part}": getattr(v, part) for k, v in inputs.items()
                      for part in ("features", "labels")}
            if self.inputs is None:
                self.inputs, self._input_arrays = inputs, arrays
            else:
                self.failures += checks.check_same(self._input_arrays, arrays, "set-up input")
        return times

    def cycle(self):
        try:
            cycle = workloads.run_cycle(self.workload, self.inputs, self.params, self.seed,
                                        self.workdir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failures.append("cycle raised")
            return None
        if self.reference is None:
            self.reference = cycle
        ref_objectives = self.reference.objectives[0]
        failures = list(cycle.failures)
        for objectives in cycle.objectives:
            failures += checks.check_same(ref_objectives, objectives, "objective")
        # Passes come in the same order, with the same models, in every cycle.
        for ref_pass, search in zip(self.reference.passes, cycle.passes, strict=True):
            for r in search:
                failures += checks.check_pr_point(r.report)
                failures += checks.check_lookups(r.db_words, r.query_words, r.bits,
                                                 workloads.RADIUS, r.sampled)
            failures += checks.check_same(workloads.codes(ref_pass), workloads.codes(search),
                                          "codes")
            failures += checks.check_same(workloads.quality(ref_pass), workloads.quality(search),
                                          "quality")
        self.attempted += cycle.operations
        self.failures += failures[:cycle.operations]
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        if cycle is not self.reference:
            # Only timings are kept, so peak memory does not grow with the
            # number of cycles that fit in the run.
            for search in cycle.passes:
                for r in search:
                    r.db_words = r.query_words = r.report = None
                    r.sampled = []
        return cycle

    def cycles(self, seconds: float, minimum: int, tracer=None,
               setup_times: list[float] | None = None, setup_seconds: float = 0.0) -> list:
        """Cycles until `seconds` have passed. When `setup_times` is given,
        a few more set-ups run after each cycle and are appended to it:
        slow spells on a shared host come in bursts, and set-ups spread over
        the whole run sample them evenly."""
        done, last = [], 0.0
        start = time.perf_counter()
        # Another cycle starts only if it should end nearer the deadline
        # than stopping now, so a run takes `seconds` on average.
        while len(done) < minimum or time.perf_counter() - start + last / 2 < seconds:
            if tracer is not None:
                tracer.group = f"cycle{len(done)}"
            began = time.perf_counter()
            cycle = self.cycle()
            if cycle is None:
                break
            done.append(cycle)
            if setup_times is not None:
                setup_times += self.setup(3, setup_seconds)
            last = time.perf_counter() - began
        return done


def retrieval_work(cycle) -> dict[str, tuple[float, float]]:
    """(work, seconds) of each retrieval throughput in one cycle, summed over
    its models and its extra encodes."""
    done = [r for search in cycle.passes for r in search]
    return {
        "encode_sps": (sum(r.encoded for r in done) + sum(n for n, _ in cycle.extra_encodes),
                       sum(r.encode_s for r in done) + sum(t for _, t in cycle.extra_encodes)),
        "eval_qps": (sum(r.queries for r in done), sum(r.eval_s for r in done)),
        "lookup_qps": (sum(len(r.lookup_s) for r in done), sum(sum(r.lookup_s) for r in done)),
    }


def samples(setup_times: list[float], cycles: list) -> dict[str, list[float]]:
    """Every timed set-up and training, and each cycle's retrieval throughputs."""
    work = [retrieval_work(c) for c in cycles]
    return {
        "setup_s": setup_times,
        "train_s": [s for c in cycles for s in c.train_s],
        **{name: [w[name][0] / w[name][1] for w in work] for name in work[0]},
        "lookup_ms": [1e3 * s for c in cycles for search in c.passes for r in search
                      for s in r.lookup_s],
    }


def sample_stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"n": len(values), "min": min(values), "q1": float(q1), "median": float(median),
            "q3": float(q3), "max": max(values)}


def end_to_end(setup_times: list[float], cycles: list) -> dict[str, float]:
    """Medians of the set-up and training times. Each throughput is the work
    of the whole run over its time: a slow spell on a shared host can last
    much of a run, and the median of a few cycles then follows whichever
    speed held most of them, where the whole-run rate averages over both.
    Lookup percentiles are pooled over the run."""
    measured = samples(setup_times, cycles)
    work = [retrieval_work(c) for c in cycles]
    return {
        "setup_s": statistics.median(measured["setup_s"]),
        "train_s": statistics.median(measured["train_s"]),
        **{name: sum(w[name][0] for w in work) / sum(w[name][1] for w in work)
           for name in work[0]},
        "lookup_p50_ms": float(np.percentile(measured["lookup_ms"], 50)),
        "lookup_p99_ms": float(np.percentile(measured["lookup_ms"], 99)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, setup_groups: list[str], cycle_groups: list[str]) -> dict[str, dict]:
    """Median value of every layer metric over the traced set-ups or cycles,
    with its unit, kind or absence, and whether a count varied between cycles."""
    by_group: dict[str, list] = {}
    for span in tracer.spans:
        by_group.setdefault(span.group, []).append(span)
    rows = {}
    for metric in layers.METRICS:
        groups = setup_groups if metric.setup else cycle_groups
        indexes = [layers.SpanIndex(by_group.get(g, [])) for g in groups]
        values = [metric.value(ix) for ix in indexes]
        if not any(span in tracer.installed for span in metric.spans):
            status = "absent: target not in the package"
        elif not any(ix.ran(span) for ix in indexes for span in metric.spans) or (
                metric.kind == "time" and not any(values)):
            status = "not exercised by this workload"
        else:
            status = metric.kind
        rows[metric.name] = {
            "value": statistics.median(values), "unit": metric.unit, "status": status,
            "varies": metric.kind in ("counted", "computed") and len(set(values)) > 1}
    return rows


def compare_counts(out_dir: Path, key: str, digest: str, counts: dict) -> list[str]:
    """Counts that differ from an earlier traced run of the same code and inputs."""
    path = out_dir / f"counts-{key}.json"
    flagged = []
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier.get("code_digest") == digest:
            flagged = [k for k, v in counts.items() if earlier["counts"].get(k) != v]
    path.write_text(json.dumps({"code_digest": digest, "counts": counts}, indent=1))
    return flagged


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    params = workload.sizes[args.size]
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}-{args.size}-seed{args.seed}"
    setup = SETUP[args.size]
    traced = bool(args.trace)
    # A traced run measures a third of the time untraced and a third traced,
    # so that with its extra set-ups it takes about as long as an untraced run.
    budget = args.seconds / 3 if traced else args.seconds

    tracer = tracing.Tracer(tracing.TARGETS)
    traced_setup, traced_cycles = [], []
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        # The warmup runs the smoke size: it imports and fills caches on
        # every code path at a fraction of a full cycle's cost.
        warmup = Run(workload, workload.sizes["smoke"], args.seed, Path(workdir))
        warmup.setup(1)
        warmed = warmup.cycle() is not None
        run = Run(workload, params, args.seed, Path(workdir))
        run.attempted, run.failures = warmup.attempted, warmup.failures
        setup_times = run.setup(setup["repeats"], setup["seconds"])
        cycles = (run.cycles(budget, 1 if traced else MIN_CYCLES, setup_times=setup_times,
                             setup_seconds=setup["between"]) if warmed else [])
        if traced and cycles:
            rss_untraced = peak_rss_mb()
            with tracer:
                traced_setup = run.setup(setup["repeats"], setup["seconds"], tracer)
                traced_cycles = run.cycles(budget, 1, tracer)

    failed = min(run.failed, run.attempted)
    correct = failed == 0 and bool(cycles) and (bool(traced_cycles) or not traced)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"1 smoke-size warmup cycle, {len(setup_times)} set-ups, {len(cycles)} measured cycles"
          + (f", {len(traced_cycles)} traced cycles" if traced else ""))
    print(f"  error_rate = {failed / run.attempted:.6g} ({failed} failed of {run.attempted})")
    kind = "per_layer" if traced else "end_to_end"
    if not correct:
        metrics = {m["name"]: {"value": 0, "unit": m["unit"]} for m in spec[kind]}
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": max(failed, 1), "metrics": metrics}))
        return 1

    units = {"lookup_p50_ms": "ms", "lookup_p99_ms": "ms",
             **{m["name"]: m["unit"] for m in spec["end_to_end"]}}
    e2e = end_to_end(setup_times, cycles)
    quality = {**workloads.quality([r for search in cycles[0].passes for r in search]),
               **cycles[0].objectives[0]}
    result = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "attempted": run.attempted, "failed": failed,
              "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
              "quality": quality,
              "samples": {k: sample_stats(v) for k, v in samples(setup_times, cycles).items()}}
    for name, value in e2e.items():
        print(f"  {name} = {value!r} {units[name]}")
    for name, value in quality.items():
        if name not in e2e:
            print(f"  {name} = {value!r}")

    values = e2e
    if traced:
        e2e["peak_rss_mb"] = rss_untraced
        overhead = {k: v - e2e[k] for k, v in end_to_end(traced_setup, traced_cycles).items()}
        rows = per_layer(tracer, [f"setup{i}" for i in range(len(traced_setup))],
                         [f"cycle{i}" for i in range(len(traced_cycles))])
        counts = {k: r["value"] for k, r in rows.items() if r["status"] in ("counted", "computed")}
        differs = compare_counts(out_dir, key, env["code_digest"], counts)
        result.update(per_layer=rows, tracing_overhead=overhead, absent_targets=tracer.absent,
                      counts_differ_from_earlier_run=differs,
                      spans=[vars(s) for s in tracer.spans])
        print("  per layer (median over traced cycles):")
        for name, row in rows.items():
            flag = "; FLAG: differs between cycles" if row["varies"] else ""
            print(f"    {name} = {row['value']!r} {row['unit']} [{row['status']}{flag}]")
        print("  tracing overhead (traced minus untraced):")
        for name, value in overhead.items():
            print(f"    {name} {value:+.6g} {units[name]}")
        for name in differs:
            print(f"  FLAG: count {name} differs from an earlier run of the same code")
        for target in tracer.absent:
            print(f"  absent target: {target}")
        values = {k: r["value"] for k, r in rows.items()}

    (out_dir / f"{key}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0

