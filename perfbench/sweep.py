"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--out summary.json]

It runs every workload of ``BENCHMARK.json``, untraced, for its
``run_seconds``.  For every workload and end-to-end metric (and the unscaled
wall-clock figures of the details line, as ``wall.*``) it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median.
``--out`` also writes the summary, with the machine facts, as JSON.  Each run
is a separate process, started and awaited one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    summary = {
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            details, result = run_once(workload, seed, seconds)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "reproducers": details["failure_reproducers"],
                "known_defect_inputs": details["known_defect_inputs"],
                "peak_rss_before_loop_mb": details["peak_rss_before_loop_mb"],
            })
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in details["wall"].items():  # unscaled, for comparison
                values.setdefault(f"wall.{name}", []).append(v)
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        stats = {name: summarise(v) for name, v in values.items()}
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f}", flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
