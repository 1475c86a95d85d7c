"""Golden CLI outputs: stdout and exit code of the corpus commands.

``cli_golden.json`` pins, for every ``corpus/*.case``, ``analyze --json``,
text ``analyze``, ``factor`` on a(X) and ``gr-check --json``, and for every
``corpus/claims/*.json`` the text and ``--json`` forms of ``verify
--claim-file``, and the :data:`EXTRA` command lines.  Each is replayed
through ``cli.main`` and must match byte for byte.  After a deliberate
output change, regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from rect4 import cli

from conftest import load_case

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"
# command lines no corpus file reaches: a vartest whose inseparable extension
# is built over an extension field (the primitive-element search of
# fields.composite_extension)
EXTRA = [["vartest", "Z^2+s*T^2+T", "F2(s)[b]/(b^3+s)", "--json"]]


def commands():
    """The pinned command lines, with paths relative to the repository root."""
    out = []
    for path in sorted((ROOT / "corpus").glob("*.case")):
        case = load_case(path)
        a, F, field = case["a"], case["F"], case["field"]
        out += [
            ["analyze", a, F, field, "--json"],
            ["analyze", a, F, field],
            ["factor", a, field],
            ["gr-check", a, F, field, "--json"],
        ]
    for path in sorted((ROOT / "corpus" / "claims").glob("*.json")):
        rel = str(path.relative_to(ROOT))
        out += [["verify", "--claim-file", rel], ["verify", "--claim-file", rel, "--json"]]
    return out + EXTRA


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_every_command():
    assert [rec["argv"] for rec in _load()] == commands()


@pytest.mark.parametrize("rec", _load(), ids=lambda rec: " ".join(rec["argv"]))
def test_cli_output_matches_golden(rec, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(rec["argv"]) == rec


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [run(argv) for argv in commands()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}")
