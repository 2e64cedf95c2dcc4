import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    """Every function perfbench's tracer wraps (perfbench/tracing.py,
    TRACED) is a callable at module level in its igpfix layer, so a
    --trace 1 run can install its spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"igpfix.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing, missing
