"""Replay ``tests/cli_golden.json`` through a command line, one process per
record, and compare exit code and stdout with each record.

Run from the repository root (records name corpus files by relative path),
with the launcher as arguments:

    python tests/replay_golden.py rect4
    python tests/replay_golden.py python -O -m rect4.cli

The comparison is explicit and needs no pytest, so it holds under
``python -O``, which strips ``assert`` statements (and pytest's assert
rewriting with them).  Exits 1 when a record differs.
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def main(launcher):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = 0
    for rec in records:
        proc = subprocess.run([*launcher, *rec["argv"]], capture_output=True, text=True, timeout=300)
        if (proc.returncode, proc.stdout) != (rec["exit"], rec["stdout"]):
            bad += 1
            print(f"mismatch (exit {proc.returncode}, golden {rec['exit']}):", *rec["argv"])
    print(f"{' '.join(launcher)}: {len(records) - bad} of {len(records)} golden records match")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
