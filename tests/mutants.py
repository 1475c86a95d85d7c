"""Run the mutation ledger and print its kill matrix.

``mutants.json`` next to this file lists deliberately broken variants of the
package, one entry each:

* ``name``: a short label;
* ``file``: the file to change, relative to the repository root;
* ``old`` and ``new``: the text replaced, which must occur exactly once, and
  its replacement;
* ``tests``: the test files or node ids that should notice;
* ``expect``: ``"killed"`` or ``"survived"``.

For each mutant the repository is copied into a temporary directory outside
it, the change is applied there, and every named test runs in its own
``pytest`` process on the copy, under the suite's own 30 s cap per test.  A
test kills the mutant when it fails.  Stdlib only; from anywhere:

    python3 tests/mutants.py

runs every mutant of the ledger, prints one row per mutant (one column per
test: ``K`` killed, ``.`` survived) and exits 1 when any outcome differs from
its ``expect``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "mutants.json"
# wall-clock bound on one pytest process; each test inside it has 30 s
PROCESS_SECONDS = 300
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "*.egg-info")


def load():
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def mutate(copy, mutant):
    path = copy / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['name']}: the old text does not occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run_mutant(mutant):
    """{test: "killed" | "survived"} for one mutant, on a mutated copy of the
    repository."""
    with tempfile.TemporaryDirectory(prefix="rect4-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        mutate(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        outcome = {}
        for test in mutant["tests"]:
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
            try:
                proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=PROCESS_SECONDS)
                failed = proc.returncode != 0
            except subprocess.TimeoutExpired:
                failed = True
            outcome[test] = "killed" if failed else "survived"
        return outcome


def verdict(outcome):
    return "killed" if "killed" in outcome.values() else "survived"


def main():
    mutants = load()
    width = max(len(m["name"]) for m in mutants)
    mismatches = 0
    for m in mutants:
        outcome = run_mutant(m)
        got = verdict(outcome)
        mismatches += got != m["expect"]
        cells = " ".join("K" if outcome[t] == "killed" else "." for t in m["tests"])
        flag = "" if got == m["expect"] else f"   expected {m['expect']}"
        print(f"{m['name']:<{width}}  {got:<8}  {cells}  {' '.join(m['tests'])}{flag}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
