"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
name and only warns about a name it cannot find, leaving that layer's metrics
out. Every name it wraps must therefore still exist in the program."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(layer, name) for layer, name, _ in module.TARGETS]


def test_every_traced_function_exists():
    targets = _traced_names()
    assert targets
    missing = [f"multireg.{layer}.{name}" for layer, name in targets
               if not callable(getattr(importlib.import_module(f"multireg.{layer}"), name, None))]
    assert missing == []
