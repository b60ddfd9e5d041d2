"""The layers that the benchmark's tracer times name functions of the
program, so a renamed function fails here instead of showing up only as a
missing span in a traced run."""

import importlib
import inspect
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_traced_layers_resolve():
    layers = runpy.run_path(str(SPANS))["LAYERS"]  # compiled, nothing written
    missing = [
        f"gptforge.{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not inspect.isfunction(
            getattr(importlib.import_module(f"gptforge.{module}"), name, None))
    ]
    assert not missing
