"""rect4 benchmark: one seeded workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_cli --seed 1 --seconds 15 --trace 0

The run sets the workload up several times (import rect4, build fields,
generate or load the inputs) and reports the median as ``setup_s``.  It then
issues operations back to back from a single thread, in input order, until
``--seconds`` of operation time have been measured and at least ``MIN_OPS``
operations are done; it starts over at the first input only if the inputs
run out.  Each answer is checked against its known answer between
operations, outside the timer.  Inputs that hit a known defect of the
program are set aside before the timed loop and reported (see
``workloads.HyperplaneMix.screen``).  With ``--trace 1`` the same operations
run once more under the tracer and the per-layer metrics are reported
instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
carries the details (input fingerprint, failure reproducers, answer quality).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20240901
MIN_OPS = 1000  # so that at least ten samples lie beyond the 99th percentile
SETUP_REPEATS = 3  # at least; cheap set-ups repeat for SETUP_MIN_S in all
SETUP_MIN_S = 1.0
PROBE_EVERY_S = 0.2  # of operation time between two reference probes
PROBE_REF_S = 0.008  # mean probe duration on the host of the recorded baseline
BENCH_MODULES = ("inputs", "workloads", "tracing")


def fresh_setup(name, seed):
    """Import rect4 from scratch and build the workload's inputs.

    Returns (seconds, probes, workload, inputs), with the reference probe
    timed just before and just after the set-up.
    """
    for mod in list(sys.modules):
        if mod == "rect4" or mod.startswith("rect4.") or mod in BENCH_MODULES:
            del sys.modules[mod]
    gc.collect()  # so no set-up pays for collecting the previous one's garbage
    probes = [probe()]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(ROOT, seed)
    elapsed = time.perf_counter() - t0
    probes.append(probe())
    return elapsed, probes, workload, inputs


def fingerprint(workload, inputs):
    h = hashlib.sha256()
    for inp in inputs:
        h.update(workload.key(inp).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Tally:
    """Known-answer verdicts of the operations of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.wrong = []
        self.failed = 0
        self.decided = 0
        self.flags = 0
        self.unknown_flags = 0
        self.reproducers = {}
        self.digests = []

    def add(self, inp, answer):
        w = self.workload
        self.attempted += 1
        if isinstance(answer, Exception):
            self.failed += 1
            error = f"{type(answer).__name__}: {answer}"
            self.reproducers.setdefault(type(answer).__name__, {"input": w.reproducer(inp), "error": error})
            self.digests.append(_hash(error))
            return
        c = w.check(inp, answer)
        self.digests.append(_hash(c.digest))
        if c.failed:
            self.failed += 1
            self.reproducers.setdefault("exit 3", {"input": w.reproducer(inp), "error": c.digest})
            return
        if c.wrong is not None:
            self.wrong.append({"input": w.reproducer(inp), "why": c.wrong})
        self.decided += c.decided
        self.flags += len(c.flags)
        self.unknown_flags += sum(v == "unknown" for v in c.flags)


def _hash(text):
    return hashlib.sha1(text.encode()).digest()


def run_operation(run, inp):
    try:
        return run(inp)
    except Exception as exc:  # a failed operation; the run goes on
        return exc


def probe():
    """Time a fixed reference computation independent of rect4.

    It allocates and does exact rational arithmetic the way rect4 does, with
    garbage collection off so that the program's heap cannot slow it down.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        for i in range(2000):
            d[(i, i + 1)] = Fraction(i, 7) + Fraction(1, 3)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_loop(workload, inputs, seconds):
    """Closed loop; returns (latencies, tally, probes) of the operations issued.

    Between operations, every PROBE_EVERY_S of operation time, the reference
    probe is timed so that the run records how fast the host was throughout.
    """
    run = workload.run
    clock = time.perf_counter
    tally = Tally(workload)
    latencies = []
    probes = [probe()]
    measured = since_probe = 0.0
    while measured < seconds or len(latencies) < MIN_OPS:
        inp = inputs[len(latencies) % len(inputs)]
        t0 = clock()
        answer = run_operation(run, inp)
        dt = clock() - t0
        latencies.append(dt)
        measured += dt
        tally.add(inp, answer)
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
    probes.append(probe())
    return latencies, tally, probes


def traced_replay(workload, inputs, attempted, untraced_s, untraced_digests):
    """The same operations again under the tracer: per-layer metrics."""
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    run = tracer.spanned(tracing.ROOT, workload.run)
    t0 = time.perf_counter()
    answers = [run_operation(run, inputs[k % len(inputs)]) for k in range(attempted)]
    traced_s = time.perf_counter() - t0
    metrics = tracing.layer_metrics(tracer)  # before checking, which calls rect4 too
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    tally = Tally(workload)
    for k, answer in enumerate(answers):
        tally.add(inputs[k % len(inputs)], answer)
    mismatches = sum(a != b for a, b in zip(tally.digests, untraced_digests))
    return metrics, tally, mismatches


def timings(latencies, scale=1.0):
    """Throughput and latency percentiles, with times multiplied by ``scale``."""
    q = statistics.quantiles(latencies, n=100)
    return (
        len(latencies) / (sum(latencies) * scale),
        statistics.median(latencies) * scale * 1e3,
        q[98] * scale * 1e3,
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, latencies, probes, tally):
    # reference time: wall time rescaled by how much slower than on the
    # reference host the probe ran, on average over the timed loop
    ops, p50, p99 = timings(latencies, PROBE_REF_S / statistics.fmean(probes))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_ref_s": (ops, "1/ref-s"),
        "latency_p50_ref_ms": (p50, "ref-ms"),
        "latency_p99_ref_ms": (p99, "ref-ms"),
        "decided_share": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def answer_quality(tally, workload, inputs, generated, defects):
    """Answer-quality figures: reported in the details, and per layer."""
    issued = inputs[: tally.attempted]
    distinct = len({workload.key(inp) for inp in issued})
    return {
        "answers.wrong_answers": (len(tally.wrong), "count"),
        "answers.failed_share": (tally.failed / tally.attempted, "ratio"),
        # generated inputs set aside before the timed loop because they hit
        # a known defect of the program (workloads.HyperplaneMix.screen)
        "answers.known_defect_share": (len(defects) / generated, "ratio"),
        "answers.unknown_flag_share": (
            tally.unknown_flags / tally.flags if tally.flags else 0.0,
            "ratio",
        ),
        # operations whose input already appeared earlier in the run
        "inputs.repeated_share": (1.0 - distinct / tally.attempted, "ratio"),
    }


def predictions(workload, metrics):
    """The call-count predictions stated for each workload, checked."""
    checks = {"groebner.groebner_basis.calls > 0": metrics["groebner.groebner_basis.calls"][0] > 0}
    if workload == "tame_round_trip":
        for name in ("factor.univariate_factor.calls", "bivariate.bivariate_irreducible.calls"):
            checks[f"{name} == 0"] = metrics[name][0] == 0
    return checks


def declared_metrics(trace):
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus_cli", "tame_round_trip", "hyperplane_mix"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rect4").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no rect4 checkout (src/rect4 and corpus/)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    setup_wall, setup_times, prints = [], [], set()
    while len(setup_times) < SETUP_REPEATS or sum(setup_wall) < SETUP_MIN_S:
        # release the previous set-up first, so that no two sets of inputs
        # are alive at once and inflate the peak resident memory
        workload = inputs = None
        elapsed, probes, workload, inputs = fresh_setup(args.workload, args.seed)
        setup_wall.append(elapsed)
        setup_times.append(elapsed * PROBE_REF_S / statistics.fmean(probes))
        prints.add(fingerprint(workload, inputs))
    generated = len(inputs)
    t0 = time.perf_counter()
    inputs, defects = workload.screen(inputs)
    screen_s = time.perf_counter() - t0
    # keep the inputs out of garbage collection: a user's process holds one
    # input, not thousands, so collections must not scan the benchmark's data
    gc.collect()
    gc.freeze()
    rss_before_loop = peak_rss_mb()

    latencies, tally, probes = timed_loop(workload, inputs, args.seconds)
    e2e = end_to_end(setup_times, latencies, probes, tally)
    ops, p50, p99 = timings(latencies)
    per_layer = answer_quality(tally, workload, inputs, generated, defects)
    correct = not tally.wrong and len(prints) == 1
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": tally.attempted,
        "generated_inputs": generated,
        "distinct_inputs": len(inputs),
        "known_defect_inputs": len(defects),
        "screen_s": screen_s,
        "known_defect_reproducers": [
            {"input": workload.reproducer(inp), "error": f"{type(exc).__name__}: {exc}"}
            for inp, exc in defects[:5]
        ],
        "fingerprint": sorted(prints),
        "fingerprint_stable": len(prints) == 1,
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_times,
        # peak before the timed loop: the loop set the peak if this is lower
        # than the end-to-end peak_rss_mb
        "peak_rss_before_loop_mb": rss_before_loop,
        "failure_reproducers": tally.reproducers,
        "wrong_examples": tally.wrong[:5],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "ops_per_s": ops,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
        },
        "probe_s": {
            "mean": statistics.fmean(probes),
            "min": min(probes),
            "max": max(probes),
            "count": len(probes),
        },
        "quality": {k: v for k, (v, _) in per_layer.items()},
    }

    metrics = e2e
    if args.trace:
        layer, traced, mismatches = traced_replay(
            workload, inputs, tally.attempted, sum(latencies), tally.digests
        )
        per_layer.update(layer)
        checks = predictions(args.workload, per_layer)
        correct = correct and mismatches == 0 and not traced.wrong and all(checks.values())
        details["traced_answer_mismatches"] = mismatches
        details["predictions"] = checks
        metrics = per_layer

    produced = {k: u for k, (_, u) in metrics.items()}
    if produced != declared_metrics(args.trace):
        print("error: the metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
