"""The benchmark's workload setup uses the package API; it must keep working."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from commexp import conditions
from commexp.schemes import catalog_get

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["series-catalog", "figures-small", "dense-random"])
def test_workload_command_lists_build(tmp_path, name):
    commands = _workloads().WORKLOADS[name](0, tmp_path)
    assert commands
    for command in commands:
        assert bool(command.argv) != (command.scheme is not None)


def test_perturbed_schemes_keep_their_mirror_pattern(tmp_path):
    # refine takes the mirrored path on exactly the catalog's mirrored schemes
    module = _workloads()
    refined = {c.ref: c.scheme for c in module.series_catalog(0, tmp_path) if c.scheme}
    assert sorted(refined) == sorted(f"refine:{name}" for name in module.REFINABLE)
    for ref, scheme in refined.items():
        assert scheme.is_cp == catalog_get(ref.removeprefix("refine:")).is_cp


def test_perturbed_refines_form_one_jacobian_each(tmp_path, monkeypatch):
    # the workload's starts lie 2e-5 from a root, where a Newton step cuts
    # max|g| by far more than 100x, so the Jacobian it formed serves the rest
    module = _workloads()
    kinds = []
    engines = {"_lie_rows": conditions._lie_rows, "_lie_jacobian": conditions._lie_jacobian}

    def spy(name):
        def call(generators, rows, truncation):
            kinds.append("J" if name == "_lie_jacobian" else rows.dtype.kind)
            return engines[name](generators, rows, truncation)
        return call

    for name in engines:
        monkeypatch.setattr(conditions, name, spy(name))
    starts = [c for c in module.series_catalog(0, tmp_path) if c.scheme is not None]
    assert len(starts) == len(module.REFINABLE) == 20
    for command in starts:
        kinds.clear()
        refined = conditions.refine(command.scheme, tol=module.REFINE_TOL)
        assert kinds.count("J") == 1 and "c" not in kinds, command.ref
        report = conditions.order_residuals(refined, refined.target, refined.order,
                                            module.REFINE_TOL)
        assert report.all_satisfied(), command.ref
