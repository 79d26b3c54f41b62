"""The benchmark's tracer wraps package functions by name; check they still exist."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # run_path compiles the file without writing a bytecode cache next to it.
    traced = runpy.run_path(str(TRACING))["TRACED"]
    missing = [
        f"entrobound.{module}.{function}"
        for module, function, _ in traced
        if not hasattr(importlib.import_module(f"entrobound.{module}"), function)
    ]
    assert not missing
