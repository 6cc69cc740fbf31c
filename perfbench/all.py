"""Run every workload and print all its end-to-end metrics.

    python3 perfbench/all.py --seed N [--seconds S] [--runs 2] [--size smoke]

`--seconds` defaults to `run_seconds` of BENCHMARK.json.

Each workload runs `--runs` times, one process after another, untraced. For
every workload the script prints each end-to-end metric with its unit (the
first run's value), the error rate, and the quality figures. It checks that
the quality figures are identical across the runs. It exits nonzero if any
operation failed or any quality figure differed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"attempted": 1, "failed": 1, "end_to_end": {}, "quality": {}}
    path = HERE / "out" / f"{workload}-{args.size}-seed{args.seed}-trace0.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every workload and print its metrics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        results = [run_once(workload, args) for _ in range(args.runs)]
        first = results[0]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload} (seed {args.seed}, {args.runs} runs)")
        for name, metric in first["end_to_end"].items():
            print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'error_rate':24s} {failed / attempted:.6g} ({failed} of {attempted})")
        differs = sorted(k for r in results[1:] for k in first["quality"]
                         if r["quality"].get(k) != first["quality"][k])
        for name, value in first["quality"].items():
            print(f"  {name:24s} {value!r}")
        print(f"  quality identical across runs: {'no: ' + ', '.join(differs) if differs else 'yes'}")
        ok = ok and failed == 0 and not differs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
