"""The traced benchmark run wraps named package functions; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,function", [
    (module_name, function)
    for module_name, functions in _tracing().WRAPPED.items() for function in functions
])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"commexp.{module_name}")
    assert callable(getattr(module, function, None))


def test_traced_counters_see_the_engine_calls():
    # every order check runs one scheme_log pass through the module name the
    # tracer wraps, so its counter cannot read 0, and takes the coordinates
    # from the pseudoinverse product alone, without lie_project's check
    from commexp import conditions
    from commexp.schemes import catalog_get

    scheme = catalog_get("NCP10_4")
    tracer = _tracing().Tracer().install()
    try:
        report = conditions.order_residuals(scheme, scheme.target, scheme.order)
    finally:
        tracer.uninstall()
    assert report.all_satisfied()
    spans = tracer.summarize()
    assert spans.calls("liealg.scheme_log") == 1
    assert spans.calls("liealg.lie_project") == 0
    assert spans.calls("conditions.order_residuals") == 1
