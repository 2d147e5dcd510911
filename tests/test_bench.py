"""Tests for the experiment runners and CSV exports."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commexp
from commexp import bench, matform
from commexp.bench import (
    DEFAULT_N_CAP,
    DEFAULT_N_GRID,
    BenchResult,
    cost_table,
    curve_table,
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


@pytest.mark.parametrize("n_list", [[1, 2.5, 2], [2.0], [np.float64(4.0)], [0], [-3], [True]])
def test_error_curve_refuses_step_counts_that_are_not_integers(n_list):
    # n = 2.5 used to be powered as int(2.5): its error was that of U(t_2.5)^2
    pair = matform.make_pair("random", 4, 1)
    with pytest.raises(ValueError, match="integers >= 1"):
        error_curve("NCP10_4", pair, 1.0, n_list)
    with pytest.raises(ValueError, match="integers >= 1"):
        curve_table(["NCP10_4"], [pair], 1.0, n_list)


def test_error_curve_takes_numpy_integer_step_counts(pauli_pair):
    assert (error_curve("NCP10_4", pauli_pair, 1.0, np.array([1, 3, 8]))
            == error_curve("NCP10_4", pauli_pair, 1.0, [1, 3, 8]))


@pytest.mark.parametrize("t_total", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_error_curve_rejects_bad_total_time(pauli_pair, t_total):
    # a negative t_total made the step time (t_total / n)^(1/2) complex
    with pytest.raises(ValueError, match="t_total"):
        error_curve("NCP6_3", pauli_pair, t_total, (1, 2))


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
    for n_cap in (0, -3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n_cap"):
            gates_for_tolerance("NCP6_3", pauli_pair, [0.5], 1e-4, n_cap=n_cap)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_gates_for_tolerance_rejects_nonfinite_tol(pauli_pair, tol):
    with pytest.raises(ValueError):
        gates_for_tolerance("NCP6_3", pauli_pair, [0.5], tol)


def _sequential_gates(scheme, pair, x_grid, tol, n_cap):
    """The one-x-at-a-time doubling and bisection search, one probe per call:
    the reference the guided search replaced."""
    scheme = _resolve(scheme)
    k = scheme.target.min_degree
    out = []
    for x in x_grid:
        def err(n):
            return composed_error(scheme, pair, x ** k, n)

        n = 1
        while n <= n_cap and err(n) > tol:
            n *= 2
        if n > n_cap:
            out.append((x, None))
            continue
        lo, hi = n // 2, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if err(mid) <= tol:
                hi = mid
            else:
                lo = mid
        out.append((x, hi * scheme.slot_count))
    return out


def _resolve(scheme):
    # "order1:<name>" claims order 1 for a degree-2 scheme: p = 0, no model
    if not isinstance(scheme, str):
        return scheme
    if scheme.startswith("order1:"):
        return dataclasses.replace(catalog_get(scheme.split(":")[1]), order=1)
    return catalog_get(scheme)


def _pair(kind):
    return matform.make_pair("pauli") if kind == "pauli" else matform.make_pair("random", 4, 9)


_SEARCH_CASES = dict(
    scheme=st.sampled_from(["NCP6_3", "NCP10_4", "PCP16_5", "strang", "fap8", "order1:S2_chen"]),
    pair_kind=st.sampled_from(["pauli", "random"]),
    x_grid=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5),
    tol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]),
    n_cap=st.sampled_from([1, 3, 64, 5000, DEFAULT_N_CAP]),
)


@settings(max_examples=25, deadline=None)
@given(**_SEARCH_CASES)
@example(scheme="NCP6_3", pair_kind="pauli", x_grid=[0.9, 0.1, 0.9], tol=1e-5, n_cap=64)
def test_lockstep_search_matches_sequential_search(scheme, pair_kind, x_grid, tol, n_cap):
    # every x probes the step counts of its own search, so the lockstep rounds
    # give what the same guided rule gives run one x at a time
    scheme, pair = _resolve(scheme), _pair(pair_kind)
    assert (gates_for_tolerance(scheme, pair, x_grid, tol, n_cap)
            == [gates_for_tolerance(scheme, pair, [x], tol, n_cap)[0] for x in x_grid])


@settings(max_examples=25, deadline=None)
@given(**_SEARCH_CASES)
@example(scheme="NCP6_3", pair_kind="pauli", x_grid=[0.4], tol=1e-7, n_cap=DEFAULT_N_CAP)
@example(scheme="NCP6_3", pair_kind="pauli", x_grid=[0.5], tol=1e-7, n_cap=DEFAULT_N_CAP)
@example(scheme="PCP16_5", pair_kind="pauli", x_grid=[0.5815713892231057], tol=1e-9,
         n_cap=5000)
def test_search_counts_carry_a_one_step_certificate(scheme, pair_kind, x_grid, tol, n_cap):
    # each count n satisfies err(n) <= tol < err(n - 1), and None means that
    # the largest power of two <= n_cap still misses, by independent evaluations
    scheme, pair = _resolve(scheme), _pair(pair_kind)
    k, top = scheme.target.min_degree, 2 ** int(math.log2(n_cap))
    for x, gates in gates_for_tolerance(scheme, pair, x_grid, tol, n_cap):
        if gates is None:
            assert composed_error(scheme, pair, x ** k, top) > tol
            continue
        n, rest = divmod(gates, scheme.slot_count)
        assert rest == 0 and 1 <= n <= top
        assert composed_error(scheme, pair, x ** k, n) <= tol
        if n > 1:
            assert composed_error(scheme, pair, x ** k, n - 1) > tol


@settings(max_examples=25, deadline=None)
@given(**_SEARCH_CASES)
@example(scheme="order1:S2_chen", pair_kind="pauli", x_grid=[0.3], tol=1e-2, n_cap=5000)
@example(scheme="PCP16_5", pair_kind="pauli", x_grid=[0.5815713892231057], tol=1e-9,
         n_cap=5000)
def test_search_matches_bisection_below_4096_steps(scheme, pair_kind, x_grid, tol, n_cap):
    # where one step moves the error C n^-p by p tol / n, far more than the
    # round-off of n steps, the curve falls monotonically through tol, so the
    # one-step bracket is unique and bisection finds it too.  Below 2^12 steps
    # that holds unless tol is near round-off: PCP16_5 on pauli at tol 1e-9
    # has err(3556) < tol < err(3557), err(3558), err(3559), and bisection
    # reports 3556 steps where the guided search reports 3560, both certified
    scheme, pair = _resolve(scheme), _pair(pair_kind)
    p = (scheme.order + 1) / scheme.target.min_degree - 1
    guided = gates_for_tolerance(scheme, pair, x_grid, tol, n_cap)
    reference = _sequential_gates(scheme, pair, x_grid, tol, n_cap)
    for (x, g), (_, r) in zip(guided, reference):
        n = min(g or math.inf, r or math.inf) / scheme.slot_count
        if n < 2 ** 12 and (p <= 0 or p * tol / n > 64 * n * np.finfo(float).eps):
            assert g == r, x


def test_search_without_a_model_doubles_then_bisects(pauli_pair):
    # p = (r + 1)/k - 1 = 0 for an order-1 claim on a degree-2 target: the
    # probes are the reference's doubling and bisection, whatever the curve
    scheme = _resolve("order1:S2_chen")
    x_grid = [0.1 * k for k in range(1, 10)]
    for tol in (1e-3, 1e-6):
        assert (gates_for_tolerance(scheme, pauli_pair, x_grid, tol)
                == _sequential_gates(scheme, pauli_pair, x_grid, tol, DEFAULT_N_CAP))


def _synthetic_search(scheme, err, tol, n_cap=DEFAULT_N_CAP):
    """gates_for_tolerance on a made-up error curve err(n), and its rounds."""
    rounds = []

    def errors(pair, jobs):
        rounds.append(sum(len(job.ns) for job in jobs))
        return [[err(n) for n in job.ns] for job in jobs]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_errors", errors)
        ((_, gates),) = gates_for_tolerance(scheme, matform.make_pair("pauli"), [0.5], tol, n_cap)
    return gates, len(rounds)


#: doubling to 2^19 and bisecting the last doubling each take 19 rounds and
#: the n = 1 probe one; every step that fails the model is followed by one
#: that doubles n or halves the bracket
_ROUND_BOUND = 2 * (19 + 19) + 1


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["NCP10_4", "PCP26_6", "order1:S2_chen"]),
       crossing=st.integers(min_value=1, max_value=2 ** 19),
       excess=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
@example(scheme="NCP10_4", crossing=2 ** 19, excess=1e-12)
@example(scheme="NCP10_4", crossing=2 ** 18 + 1, excess=1e-12)
@example(scheme="NCP10_4", crossing=3 * 2 ** 16, excess=1e-12)
def test_search_ends_on_a_flat_curve(scheme, crossing, excess):
    # an error stuck just above tol defeats every prediction of the model;
    # the doubling and bisection steps still find the crossing in few rounds
    scheme = _resolve(scheme)
    gates, rounds = _synthetic_search(
        scheme, lambda n: 1e-6 * (1 + excess) if n < crossing else 5e-7, 1e-6)
    assert gates == crossing * scheme.slot_count
    assert rounds <= _ROUND_BOUND


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["NCP6_3", "NCP10_4", "order1:S2_chen"]),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       wobble=st.sampled_from([0.0, 1e-3, 0.3]),
       tol=st.sampled_from([1e-4, 1e-7, 1e-10]),
       n_cap=st.sampled_from([1, 100, DEFAULT_N_CAP]))
def test_search_certifies_noisy_power_laws(scheme, scale, wobble, tol, n_cap):
    # C n^-p times a wobble that makes the curve non-monotone: every count
    # carries its bracket on the curve, None means err(top) > tol
    scheme = _resolve(scheme)
    p = max((scheme.order + 1) / 2 - 1, 0.25)

    def err(n):
        return scale * n ** -p * (1 + wobble * math.sin(3.7 * n))

    gates, rounds = _synthetic_search(scheme, err, tol, n_cap)
    top = 2 ** int(math.log2(n_cap))
    if gates is None:
        assert err(top) > tol
    else:
        n = gates // scheme.slot_count
        assert err(n) <= tol and (n == 1 or err(n - 1) > tol)
    assert rounds <= _ROUND_BOUND


def _count_rounds(monkeypatch):
    rounds = []
    errors = bench._errors

    def spy(pair, jobs):
        rounds.append(sum(len(job.steps) for job in jobs))
        return errors(pair, jobs)

    monkeypatch.setattr(bench, "_errors", spy)
    return rounds


@pytest.mark.parametrize("pair, x_grid, tol, most", [
    (("random", 64, 160), [0.3], 1e-6, 5),  # 12 rounds with doubling and bisection
    (("pauli",), [round(0.1 * k, 1) for k in range(1, 10)], 1e-7, 8),  # fig5's table: 32
])
def test_guided_search_takes_few_rounds(monkeypatch, pair, x_grid, tol, most):
    pair = matform.make_pair(*pair)
    rounds = _count_rounds(monkeypatch)
    results = gates_for_tolerance("NCP10_4", pair, x_grid, tol)
    assert all(g is not None for _, g in results)
    assert len(rounds) <= most
    assert rounds[0] == len(x_grid)  # one stack per round over the unfinished x


def test_lockstep_search_reaches_the_cap_as_none(pauli_pair):
    # x = 0.9 misses 1e-5 at 64 steps while x = 0.1 still searches on
    results = gates_for_tolerance("NCP6_3", pauli_pair, [0.1, 0.9], 1e-5, n_cap=64)
    assert results[1] == (0.9, None) and results[0][1] is not None
    assert results == _sequential_gates("NCP6_3", pauli_pair, [0.1, 0.9], 1e-5, 64)


def _unitary_stack(seed, k, d):
    g = np.random.default_rng(seed)
    Z = g.standard_normal((k, d, d)) + 1j * g.standard_normal((k, d, d))
    return np.linalg.qr(Z)[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    d=st.integers(min_value=1, max_value=5),
    n_list=st.lists(st.one_of(st.integers(min_value=1, max_value=40),
                              st.integers(min_value=DEFAULT_N_CAP - 2000,
                                          max_value=DEFAULT_N_CAP)),
                    min_size=1, max_size=8),
)
@example(seed=0, d=3, n_list=[1, 2, 3, 4, 3, 1, DEFAULT_N_CAP])
@example(seed=1, d=2, n_list=[5, 5, 5])
def test_stacked_powers_match_matrix_power(seed, d, n_list):
    # unitary matrices keep every power at norm 1, so n near the cap is safe
    U = _unitary_stack(seed, len(n_list), d)
    powers = bench._matrix_powers(U.copy(), n_list)
    assert powers.shape == U.shape
    for power, M, n in zip(powers, U, n_list):
        np.testing.assert_array_equal(power, np.linalg.matrix_power(M, n))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    d=st.integers(min_value=1, max_value=6),
    real=st.booleans(),
    n_list=st.lists(st.one_of(st.sampled_from([1, 2, 3]),
                              st.integers(min_value=1, max_value=300),
                              st.integers(min_value=DEFAULT_N_CAP - 5000,
                                          max_value=DEFAULT_N_CAP)),
                    min_size=1, max_size=12),
    repeat=st.booleans(),
)
@example(seed=2, d=2, real=False, n_list=[3, 1, 2, 3, 4096, 5, 1, 7], repeat=True)
@example(seed=3, d=4, real=True, n_list=[DEFAULT_N_CAP, 3, DEFAULT_N_CAP - 1], repeat=False)
def test_stacked_powers_are_matrix_power_bit_for_bit(seed, d, real, n_list, repeat):
    # unsorted n with repeats, n = 1, 2, 3 and n near the cap, on orthogonal
    # (float64) and unitary (complex128) stacks: every entry has the bytes
    # of its own matrix_power, signed zeros included
    if repeat:
        n_list = n_list + n_list[::-1]
    U = _unitary_stack(seed, len(n_list), d)
    if real:
        U = np.linalg.qr(np.random.default_rng(seed).standard_normal(U.shape))[0]
    powers = bench._matrix_powers(U.copy(), n_list)
    assert powers.dtype == U.dtype
    for power, M, n in zip(powers, U, n_list):
        assert power.tobytes() == np.linalg.matrix_power(M, n).tobytes()


def test_stacked_powers_leave_first_powers_alone():
    U = _unitary_stack(4, 3, 3)
    assert bench._matrix_powers(U, [1, 1, 1]) is U
    np.testing.assert_array_equal(bench._matrix_powers(U.copy(), [1, 1, 1]), U)


def test_grids_build_their_targets_in_one_call(monkeypatch, random_pair):
    calls = []
    target_matrix = matform.target_matrix

    def spy(target, pair, t):
        calls.append(np.shape(t))
        return target_matrix(target, pair, t)

    monkeypatch.setattr(matform, "target_matrix", spy)
    gates_for_tolerance("NCP10_4", random_pair, [0.2, 0.4, 0.6, 0.8], 1e-6)
    single_step_errors("NCP10_4", random_pair, [0.1, 0.05, 0.2])
    error_curve("NCP10_4", random_pair, 1.0, [1, 2, 4])
    assert calls == [(4,), (3,), ()]


@pytest.mark.parametrize("run", [
    lambda pair: gates_for_tolerance("NCP10_4", pair, [0.5, 0.7], 1e-6),
    lambda pair: single_step_errors("NCP10_4", pair, [0.1, 0.2]),
    lambda pair: error_curve("NCP10_4", pair, 1.0, [1, 2]),
], ids=["gates_for_tolerance", "single_step_errors", "error_curve"])
def test_overflowing_pair_is_one_value_error(random_pair, run):
    # the targets overflow while their element matrices are built: one
    # ValueError and no numpy warning
    big = matform.OperatorPair(1e160 * random_pair.A, 1e160 * random_pair.B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            run(big)


def test_long_grids_run_as_several_stacks(monkeypatch, random_pair):
    # a budget of three d = 16 entries splits each 8-point grid into stacks
    # of 3, 3 and 2; every value stays what the whole stack gives
    n_grid, t_grid = [1, 2, 3, 5, 8, 13, 21, 34], [0.4 / k for k in range(1, 9)]
    whole = (error_curve("NCP10_4", random_pair, 1.0, n_grid),
             single_step_errors("NCP10_4", random_pair, t_grid),
             gates_for_tolerance("NCP10_4", random_pair, [0.1 * k for k in range(1, 9)], 1e-6))
    sizes = []
    evaluate = matform.evaluate_scheme

    def spy(scheme, pair, t):
        sizes.append(len(t))
        return evaluate(scheme, pair, t)

    monkeypatch.setattr(matform, "evaluate_scheme", spy)
    monkeypatch.setattr(bench, "_STACK_BYTES", 3 * 16 * 16 ** 2)
    assert error_curve("NCP10_4", random_pair, 1.0, n_grid) == whole[0]
    assert single_step_errors("NCP10_4", random_pair, t_grid) == whole[1]
    assert sizes == [3, 3, 2] * 2
    assert gates_for_tolerance("NCP10_4", random_pair,
                               [0.1 * k for k in range(1, 9)], 1e-6) == whole[2]
    assert max(sizes) == 3


def test_stacked_errors_match_one_step_count_at_a_time(pauli_pair):
    scheme = catalog_get("PCP16_5")
    curve = error_curve(scheme, pauli_pair, 1.0, [7, 1, 4096, 3, 2])
    assert [r.error for r in curve] == [composed_error(scheme, pauli_pair, 1.0, n)
                                        for n in (7, 1, 4096, 3, 2)]


# ---------------------------------------------------------------------------
# tables: the unit of stacking
# ---------------------------------------------------------------------------


def _curve_rows_one_at_a_time(names, pairs, t_total, n_grid):
    """curve_table's rows, one error_curve per scheme: the reference for the
    stacked table."""
    return [(r.scheme, r.pair, r.t_total, r.n, r.gates, r.error)
            for pair in pairs for name in names for r in error_curve(name, pair, t_total, n_grid)]


def _cost_rows_one_at_a_time(names, pair, x_grid, tols):
    """cost_table's rows, one gates_for_tolerance per scheme and tolerance."""
    return [(name, x, tol, gates) for tol in tols for name in names
            for x, gates in gates_for_tolerance(name, pair, x_grid, tol)]


def _bits(rows):
    """Rows with every float as its bytes, so that equality is bit for bit."""
    return [tuple(np.float64(v).tobytes() if isinstance(v, float) else v for v in row)
            for row in rows]


_TABLE_PAIRS = {"pauli": matform.make_pair("pauli"),
                "random:16": matform.make_pair("random", 16, 11)}
# commutator schemes, a complex one, and degree-1 (strang, yoshida4) and
# degree-3 (aor4_opt) targets
_TABLE_SCHEMES = st.lists(st.sampled_from(["NCP6_3", "NCP10_4", "PCP16_5", "PCP6_3_imaginary",
                                           "strang", "yoshida4", "aor4_opt"]),
                          min_size=1, max_size=4)


@settings(max_examples=20, deadline=None)
@given(pair=st.sampled_from(sorted(_TABLE_PAIRS)), names=_TABLE_SCHEMES,
       n_grid=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
       t_total=st.sampled_from([0.3, 1.0, 4.0]), tiny=st.booleans())
@example(pair="random:16", names=["NCP10_4", "PCP6_3_imaginary", "strang", "NCP10_4"],
         n_grid=[1, 7, 2, 64], t_total=1.0, tiny=True)
def test_curve_table_rows_equal_one_curve_at_a_time(pair, names, n_grid, t_total, tiny):
    # repeated names, real and complex products and targets of different
    # degree share one table; a tiny budget cuts it into stacks of 3 that
    # straddle the curves
    pair = _TABLE_PAIRS[pair]
    reference = _curve_rows_one_at_a_time(names, [pair], t_total, n_grid)
    with pytest.MonkeyPatch.context() as mp:
        if tiny:
            mp.setattr(bench, "_STACK_BYTES", 3 * 16 * pair.dim ** 2)
        header, rows = curve_table(names, [pair], t_total, n_grid)
    assert header == ("scheme", "pair", "t_total", "n", "gates", "error")
    assert _bits(rows) == _bits(reference)


@settings(max_examples=15, deadline=None)
@given(pair=st.sampled_from(sorted(_TABLE_PAIRS)), names=_TABLE_SCHEMES,
       x_grid=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=3),
       tols=st.lists(st.sampled_from([1e-3, 1e-5, 1e-8]), min_size=1, max_size=3),
       tiny=st.booleans())
@example(pair="random:16", names=["PCP6_3_imaginary", "NCP10_4", "strang", "NCP10_4"],
         x_grid=[0.3, 0.9], tols=[1e-5, 1e-3, 1e-5], tiny=True)
def test_cost_table_rows_equal_one_search_at_a_time(pair, names, x_grid, tols, tiny):
    pair = _TABLE_PAIRS[pair]
    reference = _cost_rows_one_at_a_time(names, pair, x_grid, tols)
    with pytest.MonkeyPatch.context() as mp:
        if tiny:
            mp.setattr(bench, "_STACK_BYTES", 3 * 16 * pair.dim ** 2)
        header, rows = cost_table(names, pair, x_grid, tols)
    assert header == ("scheme", "x", "tol", "gates")
    assert rows == reference


def test_one_tolerance_cost_table_is_the_plain_float_case(pauli_pair):
    assert (cost_table(["NCP10_4"], pauli_pair, [0.3, 0.6], 1e-6)
            == cost_table(["NCP10_4"], pauli_pair, [0.3, 0.6], [1e-6]))


def test_an_empty_x_grid_gives_no_rows(pauli_pair):
    assert gates_for_tolerance("NCP10_4", pauli_pair, [], 1e-6) == []
    assert cost_table(["NCP10_4", "strang"], pauli_pair, [], [1e-6, 1e-3])[1] == []


def _spy(monkeypatch, module, name, record):
    """Replace module.name by a pass-through that calls record(args, result)."""
    fn = getattr(module, name)

    def spy(*args):
        result = fn(*args)
        record(args, result)
        return result

    monkeypatch.setattr(module, name, spy)


def test_figures_build_each_target_once(monkeypatch, tmp_path):
    # one commutator target per pair for fig1's six schemes, one x grid for
    # fig5's six schemes and two tolerances, and for fig6 one t grid and one
    # t_total for its three sum-splitting schemes
    calls = []
    _spy(monkeypatch, matform, "target_matrix", lambda args, _: calls.append(args[2]))
    for figure, expected in (("fig1", 2), ("fig5", 1), ("fig6", 2)):
        calls.clear()
        export_figure(figure, tmp_path / f"{figure}.csv")
        assert len(calls) == expected, figure


def test_curve_table_takes_one_norm_call_per_pair(monkeypatch, pauli_pair, random_pair):
    calls = []
    _spy(monkeypatch, matform, "two_norms", lambda args, _: calls.append(args[0].shape))
    curve_table(bench._FIG1_SCHEMES, [pauli_pair, random_pair], 1.0, DEFAULT_N_GRID)
    entries = len(bench._FIG1_SCHEMES) * len(DEFAULT_N_GRID)
    assert calls == [(entries, 2, 2), (entries, 16, 16)]


def test_curve_table_keeps_real_products_real(monkeypatch, random_pair):
    # PCP6_3_imaginary's complex products are normed apart, and the real
    # ones are not widened to complex128
    dtypes = []
    _spy(monkeypatch, matform, "two_norms", lambda args, _: dtypes.append(args[0].dtype))
    curve_table(["NCP10_4", "PCP6_3_imaginary", "strang"], [random_pair], 1.0, [1, 4])
    assert sorted(map(str, dtypes)) == ["complex128", "float64"]


def test_fig5_rounds_evaluate_each_probe_once(monkeypatch, tmp_path):
    rounds = []
    _spy(monkeypatch, bench, "_errors", lambda args, _: rounds.append(args[1]))
    export_figure("fig5", tmp_path / "fig5.csv")
    for jobs in rounds:
        names = [job.scheme.name for job in jobs]
        assert len(names) == len(set(names))
        for job in jobs:
            # the step time x / sqrt(n) and n give x and n back
            probes = list(zip(job.steps, job.ns))
            assert len(probes) == len(set(probes))
    # both tolerances start every x at n = 1: one shared probe each
    assert sum(len(job.ns) for job in rounds[0]) == len(bench._FIG5_SCHEMES) * 9
    # one lockstep: as many rounds as the longest of the twelve searches alone
    lockstep = len(rounds)
    longest = 0
    for tol in bench._FIG5_TOLS:
        for name in bench._FIG5_SCHEMES:
            rounds.clear()
            gates_for_tolerance(name, matform.make_pair("pauli"), bench._FIG5_X_GRID, tol)
            longest = max(longest, len(rounds))
    assert lockstep == longest


def test_one_scheme_tables_power_the_products_themselves(monkeypatch, random_pair):
    # a one-scheme table hands _matrix_powers the evaluate_scheme array
    # itself, with no copy, and subtracts the targets from it in place
    produced, powered, normed = [], [], []
    _spy(monkeypatch, matform, "evaluate_scheme", lambda args, U: produced.append(U))
    _spy(monkeypatch, bench, "_matrix_powers", lambda args, _: powered.append(args[0]))
    _spy(monkeypatch, matform, "two_norms", lambda args, _: normed.append(args[0]))
    error_curve("NCP10_4", random_pair, 1.0, [1, 2, 4])
    gates_for_tolerance("NCP10_4", random_pair, [0.2, 0.6], 1e-6)
    single_step_errors("NCP10_4", random_pair, [0.1, 0.2])
    curve_table(["PCP16_5"], [random_pair], 1.0, [3, 5])
    cost_table(["PCP16_5"], random_pair, [0.5], [1e-4, 1e-6])
    assert len(produced) == len(powered) == len(normed) > 5
    assert all(U is P is N for U, P, N in zip(produced, powered, normed))


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
    # description, pairs, then the provenance of each pair and the versions
    assert len(comments) == 6
    assert comments[2:] == ["# pauli: eigenbasis path, complex128 arithmetic",
                            "# random:16: taylor path, powers to Y^14, float64 arithmetic",
                            f"# commexp {commexp.__version__}",
                            f"# numpy {np.__version__}"]
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
    assert lines[2:5] == ["# pauli: eigenbasis path, complex128 arithmetic",
                          f"# commexp {commexp.__version__}",
                          f"# numpy {np.__version__}"]
    assert lines[5] == "method,t,error"
    cost_header = lines.index("method,gates,error")
    step_rows = [l for l in lines[6:cost_header] if not l.startswith("#")]
    cost_rows = lines[cost_header + 1:]
    assert len(step_rows) == 3 * 13
    assert len(cost_rows) == 3 * 11
    methods = {row.split(",")[0] for row in step_rows}
    assert methods == {"yoshida4", "suzuki4", "zass_sym22"}


def test_write_csv_sections_and_parent_directory(tmp_path):
    out = tmp_path / "sub" / "dir" / "t.csv"
    written = bench._write_csv(out, [(["first"], ("a", "b"), [(1, 0.1), ("x", None)]),
                                     ([], ("c",), [(2,)])])
    assert written == 5  # the lines that are not comments
    assert out.read_text(encoding="utf-8") == (
        "# first\na,b\n1,0.10000000000000001\nx,not reached\nc\n2\n")


def test_fig5_export_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_figure("fig5", first)
    export_figure("fig5", second)
    assert first.read_bytes() == second.read_bytes()


def test_fig5_names_the_probed_reach(tmp_path):
    # no probe goes past the largest power of two under the step cap
    out = tmp_path / "fig5.csv"
    export_figure("fig5", out)
    text = out.read_text(encoding="utf-8")
    assert "step counts probed up to 524288" in text and "step cap" not in text


def test_fig6_export_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_figure("fig6", first)
    export_figure("fig6", second)
    assert first.read_bytes() == second.read_bytes()
