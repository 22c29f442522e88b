"""The benchmark tracer wraps program functions by name.

`bench/tracing.py` lists them in `TARGETS` as (module, dotted attribute
path); a renamed function would otherwise only show up when the
benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, path, _, _ in tracing.TARGETS:
        obj = importlib.import_module(f"jhp_lab.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"jhp_lab.{module}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"jhp_lab.{module}.{path}"
