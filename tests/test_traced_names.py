"""The traced benchmark run wraps named package functions; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name,function", [
    (module_name, function)
    for module_name, functions in _wrapped().items() for function in functions
])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"commexp.{module_name}")
    assert callable(getattr(module, function, None))
