"""sdhkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size smoke]

Run from the root of a source checkout; the package is imported from its
`src/` directory. One workload runs in this single process with one
closed-loop client. A run makes its inputs from the seed, times set-up
several times, runs one smoke-size warmup cycle, then repeats measured
cycles for about the given number of seconds; the first one's outputs are
the reference for the checks. It reports the median set-up and training
times and the throughputs of the whole run. With `--trace 1` a third of
that time is measured untraced and a third with every layer wrapped, and
the per-layer metrics are reported together with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`, holding the
`end_to_end` metrics of BENCHMARK.json untraced and its `per_layer` metrics
traced. Full results, the environment and, when traced, all spans are
written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="sdhkit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    return parser.parse_args(argv)


def limit_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    On a small shared host a multi-threaded BLAS call waits for its slowest
    thread, so one contended core stalls it: small solves then varied by
    2x between runs with two threads and far less with one.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        print(f"error: {spec} is missing", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in json.loads(spec.read_text())["workloads"]])
    src = ROOT / "src" / "sdhkit"
    if not (src / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a source checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import sdhkit
    if Path(sdhkit.__file__).resolve().parent != src.resolve():
        print(f"error: imported sdhkit from {sdhkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
