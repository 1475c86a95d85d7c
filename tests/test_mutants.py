"""Self-check of the mutation ledger runner (``tests/mutants.py``)."""

from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_every_ledger_entry_applies_once():
    ledger = mutants.load()
    assert len({m["name"] for m in ledger}) == len(ledger)
    for m in ledger:
        assert m["expect"] in ("killed", "survived") and m["tests"], m["name"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["name"]


def test_runner_reports_a_killed_and_a_surviving_mutant():
    known = {m["name"]: m for m in mutants.load()}["pattern-multiplicities-dropped"]
    test = known["tests"][0]
    assert mutants.run_mutant(dict(known, tests=[test])) == {test: "killed"}
    noop = dict(known, name="no-op", new=known["old"], tests=[test])
    assert mutants.run_mutant(noop) == {test: "survived"}
