"""Tests of the benchmark itself (not of commexp).

    python3 -m pytest perfbench/test_perfbench.py

They run real workload batches, so they take a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

run.pin_blas()  # before tracing imports numpy

from tracing import BindingMissed, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _commands(workload: str, seed: int, work: Path):
    cmds = workloads.WORKLOADS[workload](seed, work)
    if workload == "dense-random":
        # some d=64 curves and a cost table, without the slow d=256 pairs
        cmds = [c for c in cmds if "random:64" in c.argv][::4]
    return cmds


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_at_minimum_size(workload):
    result = run.run(workload, seed=3, seconds=0.0, trace=False, count=1)
    report = result.pop("report")
    assert result["correct"] and result["failed"] == 0, report["failures"]
    prov = report["provenance"]
    assert result["attempted"] == prov["commands_per_batch"] == prov["latency_samples"]
    assert prov["setup_samples"] == run.SETUP_PER_BATCH
    # the tail has exactly TAIL_BEYOND commands beyond it, at or above the median
    assert prov["tail_percentile"] >= 50.0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical_and_self_time_within_wall(workload, tmp_path):
    cmds = _commands(workload, 4, tmp_path)
    refs = run.load_refs(workload)
    parts = speed.WORKLOAD_PARTS[workload]
    plain = run.Batch(cmds, refs, parts)
    traced = run.Batch(cmds, refs, parts, Tracer())
    assert not plain.failures and not traced.failures
    # exit codes, stdout and the bytes of every CSV / scheme file written
    assert traced.outputs == plain.outputs
    assert len(traced.spans.name) > 0
    assert 0.0 < traced.spans.self_total() <= traced.wall_s


def test_latencies_are_cpu_times_scaled_by_the_reference_kernel(tmp_path):
    cmds = _commands("dense-random", 5, tmp_path)
    parts = speed.WORKLOAD_PARTS["dense-random"]
    batch = run.Batch(cmds, run.load_refs("dense-random"), parts)
    # a kernel pass before each command and one after the last
    assert len(batch.ref) == len(batch.cpu) + 1 == len(cmds) + 1
    # one thread does the work: no command's CPU time exceeds its wall time
    for cpu, wall in zip(batch.cpu, batch.latencies):
        assert 0.0 < cpu <= wall * 1.01 + 1e-3
    nominal = sum(speed.PART_NOMINAL_S[p] for p in parts)
    for cpu, scaled in zip(batch.cpu, batch.scaled()):
        assert cpu * nominal / max(batch.ref) <= scaled <= cpu * nominal / min(batch.ref)


def test_tail_percentile_leaves_ten_commands_beyond():
    for n in (21, 40, 88):
        latencies = [float(i) for i in range(n)]
        tail = run.percentile(latencies, run.tail_percentile(n))
        assert sum(x > tail for x in latencies) == run.TAIL_BEYOND
    with pytest.raises(ValueError):
        run.tail_percentile(run.TAIL_BEYOND)


def test_batch_count_does_not_depend_on_speed():
    for workload in workloads.WORKLOADS:
        count = run.batch_count(workload, BENCHMARK["run_seconds"], trace=False)
        assert count >= run.MIN_BATCHES
        assert run.batch_count(workload, BENCHMARK["run_seconds"], trace=True) >= 2


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result = run.run("figures-small", seed=9, seconds=0.0, trace=True, count=1)
        assert result["correct"], result["report"]["failures"]
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if run.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["bench.gates_for_tolerance.evals_per_point"] > 0
    assert counts[0]["matform.expm.calls.d2"] > 0


def test_every_layer_metric_is_reported():
    result = run.run("series-catalog", seed=2, seconds=0.0, trace=True, count=1)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["matform.expm.calls.d2"] == 0
    assert metrics["conditions.refine.calls"] == len(workloads.REFINABLE)
    assert metrics["liealg.basis_build.s"] > 0


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    mapped = {m for entry in layer_map for m in entry["layer_metrics"]}
    assert mapped == {m["name"] for m in BENCHMARK["per_layer"]}


def test_tracer_patches_every_binding_and_restores_them():
    import commexp.cli
    import commexp.conditions
    import commexp.liealg
    import commexp.matform

    original = commexp.liealg.scheme_log
    tracer = Tracer().install()
    try:
        for binding in ("commexp.conditions.scheme_log", "commexp.conditions.lie_project",
                        "commexp.cli.effective_error", "commexp.cli.order_residuals",
                        "commexp.matform.basis_build", "commexp.liealg.series_mul",
                        "commexp.scheme_log"):
            assert binding in tracer.bindings
        assert commexp.conditions.scheme_log is not original
        assert commexp.conditions.scheme_log.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert commexp.conditions.scheme_log is original


def test_tracer_refuses_a_binding_it_cannot_patch(monkeypatch):
    import commexp.bench
    import commexp.matform

    # a reference held inside a container survives attribute patching
    monkeypatch.setattr(commexp.bench, "_HIDDEN", {"f": commexp.matform.expm}, raising=False)
    original = commexp.matform.expm
    with pytest.raises(BindingMissed, match="_HIDDEN"):
        Tracer().install()
    assert commexp.matform.expm is original


def _ref_csv(workload: str, key: str) -> dict:
    return run.load_refs(workload)[key]


def _replace_value(text: str, line_no: int, col: int, transform) -> str:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = data[line_no]
    cells = lines[i].split(",")
    cells[col] = transform(cells[col])
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_flags_a_corrupted_csv_value():
    ref = _ref_csv("figures-small", "fig1@11")
    assert checks.compare_csv(ref["csv"], ref) == []
    corrupted = _replace_value(ref["csv"], 3, 5, lambda v: repr(float(v) * 1.01))
    problems = checks.compare_csv(corrupted, ref)
    assert len(problems) == 1 and "line 4 error" in problems[0]


def test_checker_flags_a_corrupted_value_at_the_round_off_floor():
    ref = _ref_csv("figures-small", "fig1@11")
    lines = checks._data_lines(ref["csv"])
    # a fig1 error near 1e-10 at the end of a curve
    small = [i for i, line in enumerate(lines)
             if not line.startswith("scheme") and 1e-11 < float(line.split(",")[5]) < 1e-9]
    assert small
    corrupted = _replace_value(ref["csv"], small[0], 5, lambda v: repr(float(v) + 2e-9))
    problems = checks.compare_csv(corrupted, ref)
    assert len(problems) == 1 and f"line {small[0] + 1} error" in problems[0]


def test_checker_passes_round_off_level_deviations():
    ref = _ref_csv("dense-random", "custom:PCP26_6:random:64@140:1,4")
    shifted = ref["csv"]
    for line in range(1, 3):
        shifted = _replace_value(shifted, line, 5, lambda v: repr(float(v) * (1 + 1e-5)))
    assert shifted != ref["csv"]
    assert checks.compare_csv(shifted, ref) == []


def test_checker_allows_gate_counts_to_move_only_at_a_tolerance_boundary():
    ref = _ref_csv("figures-small", "fig5")
    rows = [r for r in checks._data_lines(ref["csv"])]
    boundary = [i for i, g in enumerate(ref["gates"]) if g and g[1] <= checks.BOUNDARY_RTOL]
    clear = [i for i, g in enumerate(ref["gates"]) if g and g[1] > checks.BOUNDARY_RTOL]
    assert boundary and clear
    for i, expect_ok in ((boundary[0], True), (clear[0], False)):
        slots = ref["gates"][i][0]
        moved = _replace_value(ref["csv"], i, 3, lambda v: str(int(v) + slots))
        assert (checks.compare_csv(moved, ref) == []) is expect_ok, rows[i]


def test_verify_checker_ignores_order_six_effective_error():
    ref = run.load_refs("series-catalog")["verify:PCP26_6"]
    changed = ref["stdout"].replace("E/s = 0.686427 (word-coefficient norm)", "E/s = 0.447061")
    changed = changed.replace("E = 17.8471", "E = 11.6236")
    assert changed != ref["stdout"]
    assert checks.check_verify(0, changed, ref) == []
    ref4 = run.load_refs("series-catalog")["verify:NCP10_4"]
    assert checks.check_verify(0, ref4["stdout"].replace("E = 6.06316", "E = 6.1"), ref4)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "figures-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
