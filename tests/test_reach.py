"""Self-check of the reach ledger runner (``tests/reach.py``)."""

import importlib.util
import json

import reach

PLANTED = '''\
class Box:
    @property
    def size(self):
        return 1

    def unused(self):
        return 2


def used():
    def inner():
        return Box().size

    return [inner() for _ in range(2)]
'''


def _planted(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    path = src / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("rect4_reach_planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return reach.functions(tmp_path, src), module


def test_runner_names_a_reached_and_an_unreached_function(tmp_path):
    defs, module = _planted(tmp_path)
    names = set(defs.values())
    assert names == {
        "src/planted.py::Box.size",
        "src/planted.py::Box.unused",
        "src/planted.py::used",
        "src/planted.py::used.<locals>.inner",
    }
    hit = reach.reached(defs, reach.trace(module.used))
    # the decorated property counts by its decorator's line, as co_firstlineno does
    assert hit == names - {"src/planted.py::Box.unused"}
    assert reach.audit(names, hit, {}) == (["src/planted.py::Box.unused"], [])
    assert reach.audit(names, hit, {"src/planted.py::Box.unused": "error path"}) == ([], [])
    stale = {"src/planted.py::Box.unused": "error path", "src/planted.py::used": "repr", "src/planted.py::gone": "repr"}
    assert reach.audit(names, hit, stale) == ([], ["src/planted.py::gone", "src/planted.py::used"])


def test_every_ledger_entry_names_a_function_with_a_reason():
    ledger = json.loads(reach.LEDGER.read_text(encoding="utf-8"))
    names = set(reach.functions(reach.ROOT, reach.SRC).values())
    assert set(ledger) <= names
    assert all(isinstance(why, str) and why for why in ledger.values())
