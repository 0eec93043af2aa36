"""The benchmark tracer's targets, checked against the package without patching.

`bench/tracer.py` wraps functions by name and raises `TraceError` at install
time when a target or an expected binding is gone.  These tests read the same
tables and make the same lookups, so a refactor that drops one fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"symfrieze.{name}")


def test_spanned_functions_exist_and_expected_modules_bind_them():
    tracer = _tracer()
    for home, fname in tracer.SPANNED:
        assert hasattr(_module(home), fname), f"{home}.{fname} is gone"
        orig = getattr(_module(home), fname)
        for binder in sorted(tracer.EXPECTED_BINDINGS.get((home, fname), ())):
            assert vars(_module(binder)).get(fname) is orig, f"{binder} no longer binds {fname}"


def test_counted_methods_exist():
    tracer = _tracer()
    for home, cls_name, meth in tracer.COUNTED:
        cls = getattr(_module(home), cls_name, None)
        assert cls is not None and meth in vars(cls), f"{home}.{cls_name}.{meth} is gone"
