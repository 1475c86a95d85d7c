"""Print sha256 digests of the program's answers on the benchmark inputs.

A change that must not alter any answer prints the same line before and
after it.  For the seeds 3 and 5, from the seeded generators of
``perfbench/``:

* ``hyperplane_mix``: the reports of the first 1,200 inputs that the
  workload's screen keeps, as ``cli.analysis_to_json`` in insertion order;
* ``tame_round_trip``: every input's ``vartest`` status, reason and
  ``cli.certificate_to_json``;
* ``corpus_cli``: one corpus pass through ``cli.main``, as exit code,
  stdout and stderr.

Stdlib only, besides this checkout's ``src`` and ``perfbench``; it writes
nothing.  From anywhere:

    python3 tests/answer_digests.py

prints one JSON line, in about 15 s on one core of a 2-core x86-64 host.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (from perfbench, on the path just set)
from rect4 import cli  # noqa: E402
from rect4.plane_coordinates import vartest  # noqa: E402

SEEDS = (3, 5)
HYPERPLANE_REPORTS = 1200


def hyperplane_texts(seed):
    pool = workloads.HyperplaneMix.generate(ROOT, seed)
    kept = 0
    for inp in pool:
        if kept == HYPERPLANE_REPORTS:
            break
        if not workloads.HyperplaneMix.screen([inp])[0]:
            continue
        kept += 1
        _, a, F = inp[:3]
        yield json.dumps(cli.analysis_to_json(workloads.HyperplaneMix.run(inp), F.field, str(a), str(F)))


def tame_texts(seed):
    for _, f in workloads.TameRoundTrip.generate(ROOT, seed):
        outcome = vartest(f)
        cert = outcome.certificate
        yield json.dumps([outcome.status, outcome.reason, cert and cli.certificate_to_json(cert, f)])


def corpus_texts(seed):
    for inp in workloads.CorpusCli.generate(ROOT, seed):
        yield json.dumps(workloads.CorpusCli.run(inp))


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def main():
    # the corpus pass names its claim file relative to the repository root
    os.chdir(ROOT)
    sources = {"hyperplane_mix": hyperplane_texts, "tame_round_trip": tame_texts, "corpus_cli": corpus_texts}
    out = {name: {str(seed): digest(texts(seed)) for seed in SEEDS} for name, texts in sources.items()}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
