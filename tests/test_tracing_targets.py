"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions and
methods of ``rect4`` by name.  Every name it lists must resolve, so that a
rename fails the test suite and not only the traced benchmark run."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("rect4_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, obj", [(m, o) for m, o, _ in tracing.SPANS + tracing.COUNTS]
)
def test_traced_object_resolves(module, obj):
    importlib.import_module(module)
    assert callable(tracing._lookup(module, obj))


def test_counted_raw_operations_resolve():
    fields = importlib.import_module("rect4.fields")
    for cls_name, _ in tracing.RAW_CLASSES:
        for op in tracing.RAW_OPS:
            assert callable(getattr(getattr(fields, cls_name), op))
