"""The traced benchmark run (bench/tracing.py) wraps each function its
LAYERS table names, looked up by module and name at run time; a rename
or deletion in `veracity` would break traced runs without failing any
other test."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, function) for module, function, _, _ in tracing.LAYERS]
    targets.append(tracing.ROOT[:2])
    for module_name, function in targets:
        module = importlib.import_module(f"veracity.{module_name}")
        assert callable(getattr(module, function, None)), f"veracity.{module_name}.{function}"
