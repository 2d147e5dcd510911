"""Order conditions, effective error, CP machinery, refinement, optimizer."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp.conditions import (
    CP_INDEPENDENT,
    TargetPolynomial,
    _complex_step_jacobian,
    _mirror_sign,
    _residual,
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
    slot_runs,
    sum_plus_commutator_target,
    sum_target,
    target_from_name,
)
from commexp.liealg import Generator, lie_project, scheme_log
from commexp import matform, schemes
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
        TargetPolynomial("bad", {(8, 1): 1.0})
    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(7, 19): 1.0})
    assert TargetPolynomial("top", {(7, 18): 1.0}).vector(7)[-1] == 1.0
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
    assert ee.per_exponential == pytest.approx(0.475705, abs=5e-7)


def test_effective_error_order_six_in_basis():
    sch = catalog_get("PCP26_6")
    ee = effective_error(sch)
    assert ee.order == 6
    degree_seven = lie_project(scheme_log(sch.pairs(), 7)).vectors[7]
    assert ee.leading_norm == pytest.approx(float(np.linalg.norm(degree_seven)), rel=1e-14)


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
# runs
# ---------------------------------------------------------------------------


def test_slot_runs_lets_the_neighbours_of_a_cancelled_run_merge():
    assert slot_runs([(A, 1.0), (B, 1.0), (B, -1.0), (A, 1.0)]) == [(A, 2.0)]
    assert slot_runs([(A, 1.0), (A, -1.0), (B, 1.0)]) == [(B, 1.0)]
    assert slot_runs([(A, 0.5), (B, 0.0), (A, 0.25), (B, 2.0), (B, -2.0)]) == [(A, 0.75)]
    assert slot_runs([(A, 1.0), (A, -1.0)]) == []


_RUN_COEFFICIENTS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.25]),
                              st.floats(-1.5, 1.5, allow_nan=False))
_RUN_SLOTS = st.lists(st.tuples(st.sampled_from([A, B]), _RUN_COEFFICIENTS), max_size=4)


@st.composite
def cancelling_slot_lists(draw):
    """Slot lists with zero slots, repeated generators, and blocks followed by
    their inverse (reversed, negated), which cancel to the identity exactly."""
    slots = draw(_RUN_SLOTS)
    for _ in range(draw(st.integers(0, 3))):
        block = draw(_RUN_SLOTS)
        at = draw(st.integers(0, len(slots)))
        slots[at:at] = block + [(g, -c) for g, c in reversed(block)]
    return draw(st.integers(1, 7)), slots + draw(_RUN_SLOTS.filter(bool))


def _log_majorant(slots, truncation):
    """Bound on every term the log of the slot product sums, per degree j:
    S^j times the y^j coefficient of sum_k (e^y - 1)^k / k, S = sum |c| (the
    word sums of the log of the product of exp(|c| X) with every sign +)."""
    z = np.array([0.0] + [1.0 / math.factorial(k) for k in range(1, truncation + 1)])
    total, power = np.zeros_like(z), np.eye(1, len(z))[0]
    for k in range(1, truncation + 1):
        power = np.convolve(power, z)[:len(z)]
        total += power / k
    return total * sum(abs(c) for _, c in slots) ** np.arange(truncation + 1)


_PAIR8 = matform.make_pair("random", 8, 5)


@settings(max_examples=150, deadline=None)
@given(cancelling_slot_lists(), st.sampled_from([0.3, 1.0]))
def test_slot_runs_match_the_raw_slots(case, t):
    truncation, slots = case
    runs = slot_runs(slots)
    # the runs are normal: nonzero, and no two neighbours share a generator
    assert all(c != 0 for _, c in runs)
    assert all(g != h for (g, _), (h, _) in zip(runs, runs[1:]))
    # same log: both sides within the engine's round-off of the raw majorant
    scale = 1e-13 * max(1.0, float(np.max(_log_majorant(slots, truncation))))
    raw = scheme_log(slots, truncation)
    if runs:
        merged = scheme_log(runs, truncation)
        for j in range(1, truncation + 1):
            np.testing.assert_allclose(merged.degree_coefficients(j),
                                       raw.degree_coefficients(j), rtol=0.0, atol=scale)
    else:
        assert raw.norm() <= scale
    # same matrix product as scipy's exponential of every raw slot
    expected, norms = np.eye(8, dtype=np.complex128), 1.0
    for gen, coeff in slots:
        factor = scipy.linalg.expm(coeff * t * _PAIR8.matrix(gen))
        expected, norms = expected @ factor, norms * np.linalg.norm(factor, 2)
    error = np.linalg.norm(matform.evaluate_scheme(slots, _PAIR8, t) - expected, 2)
    assert error <= 1e-13 * (len(slots) + 2) * norms


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


def test_refine_takes_the_general_path_for_a_target_mirrors_cannot_meet():
    # B, A, B, A at 1/2 is a positive mirror pattern, but its target A + B
    # has a degree-1 part, which the mirrored path's closure would zero
    mirrored = Scheme("t", tuple(ExponentSlot(g, 0.5) for g in (B, A, B, A)),
                      sum_target(), 1)
    assert mirrored.cp_sign == "positive"
    assert refine(mirrored) == mirrored  # already order 1: no step taken
    polished = refine(mirrored, r=2)
    assert order_residuals(polished, sum_target(), 2, tol=1e-12).all_satisfied()


def test_mirror_path_only_for_targets_mirrors_can_meet():
    ncp = catalog_get("NCP10_4")
    assert _mirror_sign(ncp, commutator_target(), 4) == "negative"
    assert _mirror_sign(ncp, commutator_target(), 1) is None  # no independent condition
    assert _mirror_sign(ncp, commutator_target(), 7) is None  # past the identity table
    assert _mirror_sign(ncp, sum_target(), 4) is None  # degree-1 part
    # negative mirrors force w(3,1) = w(3,2), which [A,[A,B]] alone breaks
    assert _mirror_sign(ncp, nested_aab_target(), 4) is None
    both = TargetPolynomial("both", {(2, 1): 1.0, (3, 1): 0.5, (3, 2): 0.5})
    assert _mirror_sign(ncp, both, 3) == "negative"
    assert _mirror_sign(catalog_get("strang"), commutator_target(), 4) is None


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

    def mirrored_residual(x):
        # refine's mirrored residual: the half-pattern's tail x, closed and mirrored
        return _residual(cp_expand([cp_half_closure(x, sign), *x], sign).pairs(), target, r)

    _assert_jacobians_agree(mirrored_residual, np.array(tail))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([A, B]), _unit_floats), min_size=1, max_size=8),
       st.sampled_from([commutator_target(), sum_target(), combined_target()]),
       st.integers(1, 5))
def test_complex_step_jacobian_matches_central_differences_general(slots, target, r):
    generators = [g for g, _ in slots]
    _assert_jacobians_agree(lambda x: _residual(list(zip(generators, x)), target, r),
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


def test_optimize_flags_minimum_at_range_edge():
    # E of aor4 falls towards d2* = 0.302, below the range's lower end
    result = optimize_free_parameter(schemes.aor4, 4, (0.5, 2.0), grid=17)
    assert result.at_edge
    assert result.param == pytest.approx(0.5, abs=1e-10)
    inside = optimize_free_parameter(schemes.aor4, 4, (0.1, 0.6), grid=17)
    assert not inside.at_edge
    assert inside.param == pytest.approx(schemes.AOR4_OPTIMAL_D2, abs=1e-7)


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
