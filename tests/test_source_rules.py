"""Rules on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rect4"


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so a broken invariant would give a wrong
    # answer instead of an error; the package raises its own error types
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SRC.rglob("*.py"))) > 10
    assert found == []
