"""Fuzzing of the documents ``verify`` reads.

Each case takes a valid certificate, certificate bundle or claim document,
replaces one of its keys (or one key of a certificate step, or a whole step)
with an arbitrary JSON value, and runs ``cli.main`` on it.  The command must
answer with one of its exit codes, 0-3, and raise nothing.  The profile is
derandomized and keeps no example database, so every run draws the same
cases and needs neither network nor a writable cache.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rect4 import certificates, cli

from test_cli import CORPUS, _elementary_cert

# a case that runs past the deadline fails: the cap on one verification
DERANDOMIZED = settings(derandomize=True, database=None, max_examples=300, deadline=5000)

# values that parse, so that a replacement also reaches the checks behind
# the parser
PLAUSIBLE = st.sampled_from(
    ["Q", "F5", "F2(s)", "Z", "T", "X", "Z+T^2", "1", "0", "linear", "elementary", "U1", ""]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | PLAUSIBLE,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | PLAUSIBLE, children, max_size=3),
    max_leaves=6,
)


def _linear_cert():
    """A certificate over F5 for f = 2T + 1, with partner Z, whose one step
    is linear."""
    return _elementary_cert(
        field="F5",
        f="2*T+1",
        complement="Z",
        step_kind="linear",
        step_matrix=[["1", "0"], ["0", "2"]],
        step_translation=["0", "1"],
    )


def _claim():
    return json.loads((CORPUS / "claims" / "insep_binomial_quadric_claim.json").read_text())


def _replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` (a tuple of keys and
    list indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    return doc


def _paths(doc, prefix=()):
    """Every key path of ``doc`` into objects and lists, the document's own
    keys and those of the objects nested in it."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


CERT = _elementary_cert()
LINEAR = _linear_cert()
BUNDLE = {"schema": certificates.SCHEMA_CERT, "certificates": [CERT, None, LINEAR]}
CLAIM = _claim()

CASES = (
    [("--cert", CERT, p) for p in _paths(CERT)]
    + [("--cert", LINEAR, p) for p in _paths(LINEAR)]
    + [("--cert", BUNDLE, p) for p in _paths(BUNDLE)]
    + [("--claim-file", CLAIM, p) for p in _paths(CLAIM)]
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _verify(option, doc, path):
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", option, str(path)])


@pytest.mark.parametrize("option, doc", [("--cert", CERT), ("--cert", LINEAR), ("--cert", BUNDLE), ("--claim-file", CLAIM)])
def test_the_unfuzzed_documents_verify(doc_path, option, doc):
    assert _verify(option, doc, doc_path) == 0


@DERANDOMIZED
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_verify_answers_any_document_with_an_exit_code(doc_path, case, value):
    option, doc, key_path = case
    assert _verify(option, _replaced(doc, key_path, value), doc_path) in (0, 1, 2, 3)


@DERANDOMIZED
@given(option=st.sampled_from(["--cert", "--claim-file"]), value=JSON_VALUES)
def test_verify_answers_any_top_level_value_with_an_exit_code(doc_path, option, value):
    assert _verify(option, value, doc_path) in (0, 1, 2, 3)
