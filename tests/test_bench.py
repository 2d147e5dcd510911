"""Tests for the experiment runners and CSV exports."""

import math

import numpy as np
import pytest

from commexp import bench, matform
from commexp.bench import (
    DEFAULT_N_CAP,
    DEFAULT_N_GRID,
    BenchResult,
    error_curve,
    export_figure,
    gates_for_tolerance,
    single_step_errors,
    slope_fit,
)
from commexp.schemes import catalog_get


def composed_error(scheme, pair, t_total, n):
    k = scheme.target.min_degree
    T = matform.target_matrix(scheme.target, pair, t_total ** (1.0 / k))
    U = matform.evaluate_scheme(scheme, pair, (t_total / n) ** (1.0 / k))
    return matform.two_norm(np.linalg.matrix_power(U, n) - T)


def test_default_grid_constants():
    assert DEFAULT_N_GRID == tuple(2 ** k for k in range(13))
    assert DEFAULT_N_CAP == 10 ** 6


def test_bench_result_rejects_negative_error():
    with pytest.raises(ValueError):
        BenchResult("x", 1, 1, 1.0, -1e-3, "pauli")


# ---------------------------------------------------------------------------
# error_curve
# ---------------------------------------------------------------------------


def test_error_curve_gate_accounting(pauli_pair):
    results = error_curve("strang", pauli_pair, 0.5, (1, 2, 4))
    assert [r.gates for r in results] == [3, 6, 12]
    assert [r.n for r in results] == [1, 2, 4]
    assert all(r.scheme == "strang" and r.pair == "pauli" for r in results)
    assert all(r.t_total == 0.5 for r in results)


def test_error_curve_matches_direct_computation(pauli_pair):
    scheme = catalog_get("NCP6_3")
    (result,) = error_curve(scheme, pauli_pair, 0.25, (8,))
    assert result.error == pytest.approx(
        composed_error(scheme, pauli_pair, 0.25, 8), rel=1e-12)


def test_error_curve_sum_splitting_decay(pauli_pair):
    # second-order splitting of a degree-1 target: error ~ n^-2
    results = error_curve("strang", pauli_pair, 0.5, (8, 16, 32, 64))
    slope = slope_fit([(r.n, r.error) for r in results])
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_error_curve_commutator_decay(pauli_pair):
    # order-4 commutator scheme: error ~ n^-(r-1)/2 = n^-1.5
    results = error_curve("NCP10_4", pauli_pair, 1.0, (16, 32, 64, 128, 256))
    slope = slope_fit([(r.n, r.error) for r in results])
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_error_curve_rejects_bad_step_count(pauli_pair):
    with pytest.raises(ValueError):
        error_curve("strang", pauli_pair, 1.0, (0,))


# ---------------------------------------------------------------------------
# slope_fit
# ---------------------------------------------------------------------------


def test_slope_fit_recovers_power_law():
    ts = [0.1, 0.2, 0.4, 0.8]
    points = [(t, 0.003 * t ** 4) for t in ts]
    assert slope_fit(points) == pytest.approx(4.0, abs=1e-12)


def test_slope_fit_ignores_points_outside_window():
    ts = [0.1, 0.2, 0.4]
    points = [(t, 0.003 * t ** 3) for t in ts]
    # saturated and round-off-floor points must not drag the fit
    points.append((10.0, 0.9))
    points.append((1e-9, 1e-16))
    assert slope_fit(points) == pytest.approx(3.0, abs=1e-12)


def test_slope_fit_needs_three_usable_points():
    with pytest.raises(ValueError):
        slope_fit([(0.1, 1e-3), (0.2, 1e-2), (0.3, 0.9)])


# ---------------------------------------------------------------------------
# single_step_errors
# ---------------------------------------------------------------------------


def test_single_step_errors_match_direct(pauli_pair):
    scheme = catalog_get("strang")
    ((t, err),) = single_step_errors(scheme, pauli_pair, [0.3])
    U = matform.evaluate_scheme(scheme, pauli_pair, 0.3)
    T = matform.target_matrix(scheme.target, pauli_pair, 0.3)
    assert t == 0.3
    assert err == pytest.approx(matform.two_norm(U - T), rel=1e-12)


def test_single_step_slope_is_order_plus_one(pauli_pair):
    t_grid = np.exp2(np.linspace(-6.0, -3.0, 9))
    points = single_step_errors("NCP6_3", pauli_pair, t_grid)
    assert slope_fit(points) == pytest.approx(4.0, abs=0.15)


def test_unit_coefficient_formula_gains_an_order_on_pauli(pauli_pair):
    # companion to the vanishing-bracket check in the matrix tests: with the
    # leading error bracket collapsing, one step improves from t^4 to t^5
    t_grid = np.exp2(np.linspace(-6.0, -3.0, 9))
    pauli_slope = slope_fit(single_step_errors("fap8", pauli_pair, t_grid))
    assert pauli_slope == pytest.approx(5.0, abs=0.2)
    generic = matform.make_pair("random", dim=16, seed=0)
    generic_slope = slope_fit(single_step_errors("fap8", generic, t_grid))
    assert generic_slope == pytest.approx(4.0, abs=0.2)


# ---------------------------------------------------------------------------
# gates_for_tolerance
# ---------------------------------------------------------------------------


def test_gates_for_tolerance_finds_minimal_step_count(pauli_pair):
    scheme = catalog_get("NCP6_3")
    ((x, gates),) = gates_for_tolerance(scheme, pauli_pair, [0.5], 1e-5)
    assert gates is not None and gates % scheme.slot_count == 0
    n = gates // scheme.slot_count
    assert composed_error(scheme, pauli_pair, 0.25, n) <= 1e-5
    if n > 1:
        assert composed_error(scheme, pauli_pair, 0.25, n - 1) > 1e-5


def test_gates_for_tolerance_monotone_in_strength(pauli_pair):
    results = gates_for_tolerance("NCP6_3", pauli_pair, [0.2, 0.4, 0.6, 0.8], 1e-4)
    gates = [g for _, g in results]
    assert all(g is not None for g in gates)
    assert gates == sorted(gates)


def test_gates_for_tolerance_cap_sentinel(pauli_pair):
    ((_, gates),) = gates_for_tolerance("NCP6_3", pauli_pair, [0.9], 1e-14, n_cap=2)
    assert gates is None


def test_gates_for_tolerance_rejections(pauli_pair):
    with pytest.raises(ValueError):
        gates_for_tolerance("NCP6_3", pauli_pair, [0.5], 0.0)
    with pytest.raises(ValueError):
        gates_for_tolerance("NCP6_3", pauli_pair, [1.5], 1e-4)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_gates_for_tolerance_rejects_nonfinite_tol(pauli_pair, tol):
    with pytest.raises(ValueError):
        gates_for_tolerance("NCP6_3", pauli_pair, [0.5], tol)


# ---------------------------------------------------------------------------
# figure exports
# ---------------------------------------------------------------------------


def test_export_figure_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        export_figure("fig9", tmp_path / "x.csv")


def test_export_figure_names():
    assert sorted(bench.FIGURES) == ["fig1", "fig2", "fig3", "fig5", "fig6"]


def test_fig1_layout(tmp_path):
    out = tmp_path / "fig1.csv"
    export_figure("fig1", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert len(comments) == 2
    header_at = len(comments)
    assert lines[header_at] == "scheme,pair,t_total,n,gates,error"
    rows = lines[header_at + 1:]
    # two pairs x six schemes x thirteen step counts
    assert len(rows) == 2 * 6 * 13
    first = rows[0].split(",")
    assert first[0] == "NCP6_3"
    assert first[1] == "pauli"
    assert int(first[4]) == int(first[3]) * 6


def test_fig5_layout_and_monotonicity(tmp_path):
    out = tmp_path / "fig5.csv"
    export_figure("fig5", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("omitted" in c for c in comments)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "scheme,x,tol,gates"
    rows = [l.split(",") for l in data[1:]]
    assert len(rows) == 6 * 9 * 2
    by_key: dict[tuple[str, str], list] = {}
    for scheme, x, tol, gates in rows:
        by_key.setdefault((scheme, tol), []).append(gates)
    for gates in by_key.values():
        numeric = [int(g) for g in gates if g != "not reached"]
        assert numeric == sorted(numeric)


def test_fig6_two_section_layout(tmp_path):
    out = tmp_path / "fig6.csv"
    export_figure("fig6", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "method,t,error"
    cost_header = lines.index("method,gates,error")
    step_rows = [l for l in lines[3:cost_header] if not l.startswith("#")]
    cost_rows = lines[cost_header + 1:]
    assert len(step_rows) == 3 * 13
    assert len(cost_rows) == 3 * 11
    methods = {row.split(",")[0] for row in step_rows}
    assert methods == {"yoshida4", "suzuki4", "zass_sym22"}


def test_fig6_export_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_figure("fig6", first)
    export_figure("fig6", second)
    assert first.read_bytes() == second.read_bytes()
