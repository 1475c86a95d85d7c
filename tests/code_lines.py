"""Count the code lines of the Python files under a directory.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function, found with :mod:`ast`) do not count.  Lines inside any
other multi-line string do.  Stdlib only.  From the repository root:

    python3 tests/code_lines.py [src]

prints the total, the figure ROADMAP tracks next to the benchmarks.
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    source = pathlib.Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = pathlib.Path(argv[0] if argv else "src")
    print(sum(code_lines(p) for p in sorted(root.rglob("*.py"))))


if __name__ == "__main__":
    main(sys.argv[1:])
