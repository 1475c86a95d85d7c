"""Run the reach ledger: every function under ``src/`` is reached by a
benchmark workload, or listed with its reason.

The runner traces a fixed seeded slice of the three workloads of
``perfbench/workloads.py`` (loaded from this checkout, never changed): for
each of the seeds 3 and 5, the set-up (importing ``rect4``, generating the
inputs, and screening the ``hyperplane_mix`` inputs it keeps) and then the
first ``SLICE[name]`` operations of each workload, each with its known-answer
check, in input order.  A call-level tracer (``sys.settrace`` that asks for
no line events) records every code object entered.

The functions under ``src/`` are read with :mod:`ast` and named by path and
qualified name, ``src/rect4/fields.py::Field.raw_add``; a code object maps to
a name by its file, first line and name, since ``co_qualname`` only exists
from Python 3.11.  Lambdas and comprehensions are not functions here: Python
3.12 inlines comprehensions (PEP 709), so counting them would make the set
depend on the interpreter.

``reach.json`` next to this file maps each function the slice does not reach
to the reason it may stay: the command or field that reaches it, a caller
outside ``src/``, or "error path", "abstract stub", "repr".  Stdlib only,
besides this checkout's ``src`` and ``perfbench``; it writes nothing.  From
anywhere:

    python3 tests/reach.py

prints the counts and exits 1 when a function is unreached without an entry,
or when an entry names a reached function or no function at all.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = Path(__file__).resolve().parent / "reach.json"
SEEDS = (3, 5)
# operations per seed and workload, after their set-up
SLICE = {"corpus_cli": 400, "tame_round_trip": 1500, "hyperplane_mix": 1500}


def functions(root, src):
    """{(absolute file name, first line, name): ledger name} of every
    ``def`` in the Python files under ``src``.  The first line is that of
    the first decorator, as in ``co_firstlineno``."""
    out = {}
    for path in sorted(Path(src).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        prefix = f"{path.relative_to(root).as_posix()}::"
        _collect(tree, str(path), prefix, out)
    return out


def _collect(node, filename, prefix, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, filename, f"{prefix}{child.name}.", out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            key = (filename, first, child.name)
            if key in out:
                raise ValueError(f"two functions share {key}")
            out[key] = f"{prefix}{child.name}"
            _collect(child, filename, f"{prefix}{child.name}.<locals>.", out)
        else:
            _collect(child, filename, prefix, out)


def trace(run):
    """The code objects of every Python frame entered while ``run()`` runs."""
    seen = set()
    add = seen.add

    def tracer(frame, event, arg):
        add(frame.f_code)  # and no line events for this frame

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def reached(defs, codes):
    """The ledger names of the functions among ``codes``."""
    keys = ((c.co_filename, c.co_firstlineno, c.co_name) for c in codes)
    return {defs[k] for k in keys if k in defs}


def audit(names, hit, ledger):
    """(unlisted, stale): the unreached functions with no entry, and the
    entries that name a reached function or no function at all."""
    unreached = set(names) - hit
    return sorted(unreached - set(ledger)), sorted(set(ledger) - unreached)


def run_slice():
    """The seeded slice of the three workloads, set-up included."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    os.chdir(ROOT)  # the corpus pass names its claim file relative to the root
    import workloads  # noqa: E402  (from perfbench, on the path just set)

    for seed in SEEDS:
        for name, count in SLICE.items():
            w = workloads.WORKLOADS[name]
            done = 0
            for inp in w.generate(ROOT, seed):
                if done == count:
                    break
                if not w.screen([inp])[0]:
                    continue
                w.check(inp, w.run(inp))
                done += 1


def main():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    defs = functions(ROOT, SRC)
    t0 = time.perf_counter()
    hit = reached(defs, trace(run_slice))
    elapsed = time.perf_counter() - t0
    names = set(defs.values())
    unlisted, stale = audit(names, hit, ledger)
    print(f"{len(names)} functions under src/, {len(hit)} reached, {len(names) - len(hit)} unreached; "
          f"{len(ledger)} ledger entries; slice traced in {elapsed:.1f} s")
    for name in unlisted:
        print(f"unreached without an entry: {name}")
    for name in stale:
        print(f"stale entry (reached, or no such function): {name}: {ledger[name]}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
