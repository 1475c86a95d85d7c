"""The answers on the benchmark inputs, pinned by their digests.

Each case recomputes one digest of ``answer_digests.py`` (one workload, one
seed) and compares it with the committed ``answer_digests.json``.  A change
that keeps every answer passes unchanged; after a deliberate answer change,
regenerate the file as that script's docstring says.
"""

import json
import pathlib

import pytest

import answer_digests

PINNED = json.loads((pathlib.Path(__file__).resolve().parent / "answer_digests.json").read_text(encoding="utf-8"))


def test_pinned_digests_cover_every_workload_and_seed():
    assert {name: sorted(seeds) for name, seeds in PINNED.items()} == {
        name: sorted(str(seed) for seed in answer_digests.SEEDS) for name in answer_digests.SOURCES
    }


@pytest.mark.parametrize("seed", answer_digests.SEEDS)
@pytest.mark.parametrize("workload", sorted(answer_digests.SOURCES))
def test_answers_match_the_pinned_digest(workload, seed, monkeypatch):
    monkeypatch.chdir(answer_digests.ROOT)
    assert answer_digests.digest(answer_digests.SOURCES[workload](seed)) == PINNED[workload][str(seed)]
