"""Order conditions, effective error, CP machinery, refinement, optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp.conditions import (
    CP_INDEPENDENT,
    _complex_step_jacobian,
    _cp_residual,
    _general_residual,
    combined_target,
    commutator_target,
    cp_condition_counts,
    cp_expand,
    cp_half_closure,
    cp_identities,
    cp_independent_positions,
    effective_error,
    empirical_order,
    nested_aab_target,
    nested_aaab_target,
    optimize_free_parameter,
    order_residuals,
    refine,
    sum_plus_commutator_target,
    sum_target,
    target_from_name,
)
from commexp.liealg import Generator
from commexp.schemes import ExponentSlot, Scheme, catalog_get, third_order_family

A, B = Generator.A, Generator.B


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def test_target_vectors_and_min_degree():
    t = sum_plus_commutator_target(1.5)
    np.testing.assert_allclose(t.vector(1), [1.0, 1.0])
    np.testing.assert_allclose(t.vector(2), [2.25])
    assert t.min_degree == 1
    assert commutator_target().min_degree == 2
    assert nested_aab_target().min_degree == 3
    assert nested_aaab_target().min_degree == 4


def test_target_coefficient_defaults_to_zero():
    assert commutator_target().coefficient(3, 1) == 0.0


def test_target_rejects_out_of_range_terms():
    from commexp.conditions import TargetPolynomial

    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(7, 1): 1.0})
    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(2, 2): 1.0})


def test_sum_plus_commutator_rejects_zero_weight():
    with pytest.raises(ValueError):
        sum_plus_commutator_target(0.0)


@pytest.mark.parametrize("name", [
    "commutator", "sum", "nested_aab", "nested_aaab", "combined",
    "sum_plus_commutator(R=0.5)", "sum_plus_commutator(R=2)",
])
def test_target_from_name_roundtrip(name):
    t = target_from_name(name)
    assert t.name == name
    assert target_from_name(t.name).terms == t.terms


def test_target_from_name_unknown():
    with pytest.raises(KeyError):
        target_from_name("frobnicator")


# ---------------------------------------------------------------------------
# order residuals / effective error
# ---------------------------------------------------------------------------


def test_order_residuals_strang():
    strang = catalog_get("strang")
    report = order_residuals(strang, strang.target, 2)
    assert report.all_satisfied()
    assert report.verified_order == 2
    assert report.max_residual(1) < 1e-15
    assert report.leading_error_norm > 0.01  # genuine degree-3 defect


def test_order_residuals_flags_failure_degree():
    slots = (ExponentSlot(A, 0.5), ExponentSlot(B, 1.0), ExponentSlot(A, 0.5001))
    broken = Scheme("broken", slots, sum_target(), 2)
    report = order_residuals(broken, broken.target, 2)
    assert not report.all_satisfied()
    assert report.verified_order == 0
    assert report.max_residual(1) == pytest.approx(1e-4, rel=1e-6)


def test_order_residuals_truncation_ceiling():
    strang = catalog_get("strang")
    with pytest.raises(ValueError):
        order_residuals(strang, strang.target, 7)


def test_effective_error_definition():
    sch = catalog_get("NCP6_3")
    ee = effective_error(sch)
    assert ee.slot_count == 6
    assert ee.E == pytest.approx(6 * ee.leading_norm ** (1.0 / 3.0))
    assert ee.per_exponential == pytest.approx(ee.E / 6)
    assert not ee.word_norm_fallback
    assert ee.per_exponential == pytest.approx(0.475705, abs=5e-7)


def test_effective_error_word_norm_fallback_past_basis():
    ee = effective_error(catalog_get("PCP26_6"))
    assert ee.order == 6
    assert ee.word_norm_fallback


@pytest.mark.parametrize("name", ["NCP6_3", "PCP16_5", "PCP26_6", "combined5"])
def test_residual_report_carries_effective_error(name):
    sch = catalog_get(name)
    report = order_residuals(sch, sch.target, sch.order)
    assert report.effective_error == effective_error(sch)


def test_leading_error_figures_agree_when_target_has_the_next_degree():
    # combined's target has a term at degree 3, so at r = 2 the leading
    # error is the deviation from it, not the raw degree-3 norm (1.0)
    combined5 = catalog_get("combined5")
    report = order_residuals(combined5, combined5.target, 2)
    assert report.leading_error_norm < 1e-14
    assert report.effective_error.leading_norm == report.leading_error_norm
    assert effective_error(combined5, 2) == report.effective_error


def test_order_residuals_rejects_order_zero():
    with pytest.raises(ValueError):
        order_residuals(catalog_get("strang"), sum_target(), 0)


# ---------------------------------------------------------------------------
# counter-palindromic machinery
# ---------------------------------------------------------------------------


def test_cp_half_closure_cancels_degree_one():
    tail = [0.3, -1.2, 0.7]
    for sign in ("positive", "negative"):
        c0 = cp_half_closure(tail, sign)
        scheme = cp_expand([c0, *tail], sign)
        report = order_residuals(scheme, commutator_target(), 1, tol=1e-12)
        assert report.max_residual(1) < 1e-12


def test_cp_expand_structure():
    scheme = cp_expand([0.5, -0.25], "negative", name="toy", order=1)
    gens = [s.generator for s in scheme.slots]
    coeffs = [s.coefficient for s in scheme.slots]
    assert gens == [B, A, B, A]
    assert coeffs == [0.5, -0.25, 0.25, -0.5]
    assert scheme.family == "NCP"
    assert scheme.cp_half == (0.5, -0.25)
    assert scheme.is_cp


def test_cp_expand_positive_mirrors_verbatim():
    scheme = cp_expand([0.5, -0.25], "positive")
    assert [s.coefficient for s in scheme.slots] == [0.5, -0.25, -0.25, 0.5]
    assert scheme.family == "PCP"


def test_cp_expand_needs_two_coefficients():
    with pytest.raises(ValueError):
        cp_expand([1.0], "positive")


def test_cp_expand_rejects_unknown_sign():
    with pytest.raises(ValueError):
        cp_expand([1.0, 2.0], "sideways")


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_cp_identities_hold_on_random_patterns(sign, rng):
    for _ in range(5):
        half = rng.uniform(-1.5, 1.5, 7)
        checks = cp_identities(cp_expand(half, sign))
        assert all(c.satisfied for c in checks)
        assert len(checks) == 10


def test_cp_identities_fail_generically_off_pattern(rng):
    slots = tuple(
        ExponentSlot(B if i % 2 == 0 else A, c)
        for i, c in enumerate(rng.uniform(-1.5, 1.5, 6))
    )
    scheme = Scheme("loose", slots, commutator_target(), 1)
    checks = cp_identities(scheme, sign="positive")
    assert not all(c.satisfied for c in checks)


def test_cp_identities_need_a_sign():
    with pytest.raises(ValueError):
        cp_identities(catalog_get("strang"))


def test_cp_independent_positions_match_table():
    assert cp_independent_positions(4) == (0, 1)
    per_degree = {d: len(CP_INDEPENDENT[d]) for d in range(1, 7)}
    assert per_degree == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_cp_condition_counts_rank(sign):
    counts = cp_condition_counts(sign, samples=12)
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}


# ---------------------------------------------------------------------------
# empirical order
# ---------------------------------------------------------------------------


def test_empirical_order_strang(pauli_pair):
    slope = empirical_order(catalog_get("strang"), sum_target(), pauli_pair)
    assert slope == pytest.approx(3.0, abs=0.1)


def test_empirical_order_needs_points_above_floor(pauli_pair):
    sch = catalog_get("strang")
    with pytest.raises(ValueError):
        empirical_order(sch, sch.target, pauli_pair, t_grid=[1e-9, 2e-9, 4e-9])


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_cp_recovers_perturbed_tail():
    sch = catalog_get("NCP10_4")
    tail = np.array([float(c) for c in sch.cp_half[1:]])
    bumped = tail + 1e-6 * np.array([1.0, -1.0, 1.0, -1.0])
    half = [cp_half_closure(bumped, "negative"), *bumped]
    start = cp_expand(half, "negative", name="NCP10_4", order=4)
    polished = refine(start)
    recovered = np.array([float(c) for c in polished.cp_half[1:]])
    np.testing.assert_allclose(recovered, tail, rtol=0.0, atol=1e-12)
    assert polished.is_cp


def test_refine_fixed_point_returns_same_coefficients():
    sch = catalog_get("PCP12_4")
    polished = refine(sch, free_slots=range(1, 5))
    np.testing.assert_allclose(
        [float(c) for c in polished.cp_half],
        [float(c) for c in sch.cp_half],
        rtol=0.0, atol=1e-13,
    )


def test_refine_general_path():
    base = catalog_get("strang")
    slots = tuple(ExponentSlot(s.generator, s.coefficient + d)
                  for s, d in zip(base.slots, (1e-5, -1e-5, 1e-5)))
    start = Scheme("strang", slots, sum_target(), 2)
    polished = refine(start)
    report = order_residuals(polished, sum_target(), 2, tol=1e-12)
    assert report.all_satisfied()


def test_refine_rejects_underdetermined_free_set():
    with pytest.raises(ValueError):
        refine(catalog_get("NCP10_4"), free_slots=[0, 1])


def test_refine_rejects_bad_indices():
    with pytest.raises(ValueError):
        refine(catalog_get("NCP10_4"), free_slots=[0, 1, 2, 9])


def test_refine_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        refine(catalog_get("PCP6_3_imaginary"))


def test_refine_rejects_complex_target():
    from commexp.conditions import TargetPolynomial

    sch = catalog_get("NCP10_4")
    with pytest.raises(ValueError):
        refine(sch, TargetPolynomial("imaginary", {(2, 1): 1j}))


def _central_difference_jacobian(residual_of, v, h=1e-6):
    columns = []
    for i in range(len(v)):
        step = np.zeros_like(v)
        step[i] = h * max(1.0, abs(v[i]))
        columns.append((residual_of(v + step) - residual_of(v - step)) / (2 * step[i]))
    return np.column_stack(columns)


def _assert_jacobians_agree(residual_of, v):
    exact = _complex_step_jacobian(residual_of, v)
    approx = _central_difference_jacobian(residual_of, v)
    assert exact.dtype == np.float64
    assert np.max(np.abs(exact - approx)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))


_unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.lists(_unit_floats, min_size=2, max_size=6),
       st.sampled_from(["positive", "negative"]), st.integers(2, 5))
def test_complex_step_jacobian_matches_central_differences_cp(tail, sign, r):
    target = commutator_target()
    _assert_jacobians_agree(lambda x: _cp_residual(x, sign, target, r), np.array(tail))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([A, B]), _unit_floats), min_size=1, max_size=8),
       st.sampled_from([commutator_target(), sum_target(), combined_target()]),
       st.integers(1, 5))
def test_complex_step_jacobian_matches_central_differences_general(slots, target, r):
    generators = [g for g, _ in slots]
    _assert_jacobians_agree(lambda x: _general_residual(x, generators, target, r),
                            np.array([c for _, c in slots]))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_optimize_rejects_empty_range():
    with pytest.raises(ValueError):
        optimize_free_parameter(third_order_family, 3, (1.0, 1.0))


def test_optimize_flat_family_detected():
    fixed = catalog_get("NCP6_3")
    result = optimize_free_parameter(lambda p: fixed, 3, (0.0, 1.0), grid=17)
    assert result.flat
    assert result.E == pytest.approx(effective_error(fixed).E)


def test_optimize_locates_family_minimum():
    result = optimize_free_parameter(third_order_family, 3, (0.6, 1.0))
    assert not result.flat
    assert result.param == pytest.approx(math.sqrt(2.0 / (math.sqrt(5.0) + 1.0)),
                                         abs=1e-7)


def test_optimize_propagates_order_violations():
    def family(p):
        # claimed order 3 but genuinely order 2: conditions cannot hold
        return Scheme("junk",
                      (ExponentSlot(A, p), ExponentSlot(B, 1.0), ExponentSlot(A, -p)),
                      commutator_target(), 3)

    with pytest.raises(ValueError):
        optimize_free_parameter(family, 3, (0.5, 1.5), grid=9)


# ---------------------------------------------------------------------------
# closed-form cross-check
# ---------------------------------------------------------------------------


def test_ba_quadratic_coefficients_match_projection(rng):
    from commexp.conditions import ba_quadratic_coefficients
    from commexp.liealg import lie_project, scheme_log

    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        slots = tuple(
            ExponentSlot(B if i % 2 == 0 else A, c) for i, c in enumerate(coeffs)
        )
        scheme = Scheme("alt", slots, commutator_target(), 1)
        closed = ba_quadratic_coefficients(scheme)
        projected = lie_project(scheme_log(scheme.pairs(), 2))
        for (degree, pos), value in closed.items():
            assert projected.w(degree, pos) == pytest.approx(value, abs=1e-13)
