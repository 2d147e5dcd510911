"""Acceptance suite: the package's headline guarantees, one line per claim.

Each test name carries its criterion number so a verbose run reads as a
pass/fail report of the guarantees: verified orders, effective-error
values, family closed forms, mirror-pattern machinery, symmetry
invariances, convergence slopes, efficiency orderings, extension scheme
properties, the series-engine oracle, and Newton recovery.
"""

import math

import numpy as np
import pytest

from commexp.bench import empirical_order, error_curve, export_figure, slope_fit
from commexp.conditions import (
    commutator_target,
    cp_condition_counts,
    cp_expand,
    cp_half_closure,
    cp_identities,
    effective_error,
    optimize_free_parameter,
    order_residuals,
    refine,
)
from commexp.liealg import Generator, lie_project, scheme_log
from commexp.matform import make_pair
from commexp.schemes import (
    aor4,
    catalog_get,
    catalog_names,
    phi3,
    phi4,
    phi5,
    suzuki,
    third_order_family,
    third_order_rows,
    transform,
)
from series_oracle import TruncatedSeries

SQRT5 = math.sqrt(5.0)
OPTIMAL_C5 = math.sqrt(2.0 / (SQRT5 + 1.0))

TABULATED_CP = ("NCP6_3", "NCP10_4", "PCP16_5", "PCP26_6", "PCP12_4", "NCP18_5")

# per-exponential effective errors the tabulated schemes are selected for
REFERENCE_E_PER_SLOT = {
    "NCP10_4": 0.606,
    "PCP16_5": 0.505,
    "PCP12_4": 0.455,
    "NCP18_5": 0.395,
}

COMMUTATOR_SCHEMES = tuple(
    name for name in catalog_names()
    if catalog_get(name).target.name == "commutator"
)


# ---------------------------------------------------------------------------
# criterion 1: verified order equals claimed order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_criterion_01_catalog_order_verified(name):
    scheme = catalog_get(name)
    report = order_residuals(scheme, scheme.target, scheme.order, 1e-10)
    assert report.all_satisfied()
    assert report.verified_order == scheme.order


PHI_BUILDERS = [
    ("phi3", lambda R: phi3(R), 2),
    ("phi4", lambda R: phi4(R), 2),
    ("phi5-top", lambda R: phi5(R, "top"), 3),
    ("phi5-bottom", lambda R: phi5(R, "bottom"), 3),
]


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("label,builder,order",
                         PHI_BUILDERS, ids=[b[0] for b in PHI_BUILDERS])
def test_criterion_01_sum_plus_commutator_families_verified(label, builder, order, R):
    scheme = builder(R)
    report = order_residuals(scheme, scheme.target, order, 1e-10)
    assert report.all_satisfied()


@pytest.mark.parametrize("d2", [0.35, 0.7, 1.4])
def test_criterion_01_nested_family_verified(d2):
    scheme = aor4(d2)
    assert order_residuals(scheme, scheme.target, 4, 1e-10).all_satisfied()


# ---------------------------------------------------------------------------
# criterion 2: effective-error reproduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REFERENCE_E_PER_SLOT))
def test_criterion_02_effective_error_per_exponential(name):
    ee = effective_error(catalog_get(name))
    reference = REFERENCE_E_PER_SLOT[name]
    assert abs(ee.per_exponential - reference) / reference <= 0.005


@pytest.mark.xfail(
    strict=True,
    reason="reference value 0.473 is not reproducible: the Euclidean norm of "
           "the degree-4 error coefficients gives E/s = 0.4757 (0.57% off), "
           "confirmed by the closed-form family minimum; interpretation finding",
)
def test_criterion_02_six_exponential_printed_value():
    ee = effective_error(catalog_get("NCP6_3"))
    assert abs(ee.per_exponential - 0.473) / 0.473 <= 0.005


def test_criterion_02_order_six_printed_value():
    # the leading error sits at degree 7, sized in the degree-7 commutator basis
    ee = effective_error(catalog_get("PCP26_6"))
    assert abs(ee.per_exponential - 0.447) / 0.447 <= 0.005


# ---------------------------------------------------------------------------
# criterion 3: third-order family
# ---------------------------------------------------------------------------


def test_criterion_03_closed_forms_at_unit_parameter():
    for branch, sgn in (("top", 1.0), ("bottom", -1.0)):
        coeffs = [s.coefficient for s in third_order_family(1.0, branch).slots]
        assert coeffs[0] == pytest.approx((1.0 - sgn * SQRT5) / 2.0, abs=1e-15)
        assert coeffs[2] == pytest.approx(1.0, abs=1e-15)
        assert coeffs[5] == 1.0


def test_criterion_03_twenty_random_members_are_third_order():
    rng = np.random.default_rng(3)
    for i in range(20):
        c5 = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        branch = "top" if i % 2 == 0 else "bottom"
        scheme = third_order_family(float(c5), branch)
        assert order_residuals(scheme, scheme.target, 3, 1e-10).all_satisfied()


@pytest.mark.parametrize("prange,sign", [((0.4, 1.2), 1.0), ((-1.2, -0.4), -1.0)])
def test_criterion_03_optimizer_recovers_minimizer(prange, sign):
    result = optimize_free_parameter(third_order_rows, 3, prange)
    assert result.param == pytest.approx(sign * OPTIMAL_C5, abs=1e-6)


# ---------------------------------------------------------------------------
# criterion 4: mirror-pattern machinery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_criterion_04_identities_hold_on_random_half_patterns(sign):
    rng = np.random.default_rng(414243)
    for _ in range(100):
        half = rng.uniform(-1.5, 1.5, size=7)
        checks = cp_identities(cp_expand(half, sign), sign, tol=1e-10)
        assert len(checks) == 10
        assert all(c.satisfied for c in checks)


def _sampled_condition_counts(sign, r):
    """Dimension spanned per degree by the logs of 30 random mirrored
    patterns of 14 slots."""
    rng = np.random.default_rng(7)
    vectors = {d: [] for d in range(1, r + 1)}
    for _ in range(30):
        half = rng.uniform(-1.5, 1.5, size=7)
        coeffs, _ = lie_project(scheme_log(*zip(*cp_expand(half, sign).pairs()), r))
        for d in range(1, r + 1):
            vectors[d].append(coeffs[d])
    counts = {}
    for d in range(1, r + 1):
        stack = np.array(vectors[d])
        scale = np.max(np.abs(stack))
        counts[d] = int(np.linalg.matrix_rank(stack, tol=1e-8 * max(scale, 1.0)))
    return counts


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_criterion_04_cumulative_condition_counts(sign):
    counts = cp_condition_counts(sign)
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}
    cumulative = [sum(counts[d] for d in range(1, r + 1)) for r in (3, 4, 5, 6)]
    assert cumulative == [3, 5, 8, 13]
    assert cp_condition_counts(sign, 7) == _sampled_condition_counts(sign, 7)


# ---------------------------------------------------------------------------
# criterion 5: symmetry invariances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", TABULATED_CP + ("S3_chen",))
def test_criterion_05_negate_time_preserves_effective_error(name):
    scheme = catalog_get(name)
    before = effective_error(scheme).E
    after = effective_error(transform(scheme, "negate-time")).E
    assert abs(after - before) <= 1e-12 * max(1.0, before)


@pytest.mark.parametrize("name", TABULATED_CP)
def test_criterion_05_imaginary_rotation_preserves_leading_magnitudes(name):
    scheme = catalog_get(name)
    rotated = transform(scheme, "imaginary-rotation")
    degree = scheme.order + 1
    original, _ = lie_project(scheme_log(*zip(*scheme.pairs()), degree))
    image, _ = lie_project(scheme_log(*zip(*rotated.pairs()), degree))
    np.testing.assert_allclose(
        np.abs(image[degree]), np.abs(original[degree]),
        rtol=0.0, atol=1e-12)


def test_criterion_05_ab_swap_maps_u22_to_u21_exactly():
    swapped = transform(catalog_get("U22"), "ab-swap")
    u21 = catalog_get("U21")
    assert swapped.slots == u21.slots
    assert swapped.target.terms == u21.target.terms


# ---------------------------------------------------------------------------
# criterion 6: convergence slopes on the pauli pair
# ---------------------------------------------------------------------------

SINGLE_STEP_SCHEMES = tuple(n for n in catalog_names() if n != "fap8")


@pytest.fixture(scope="module")
def pauli():
    return make_pair("pauli")


@pytest.mark.parametrize("name", SINGLE_STEP_SCHEMES)
def test_criterion_06_single_step_slope(name, pauli):
    scheme = catalog_get(name)
    slope = empirical_order(scheme, pauli)
    assert slope == pytest.approx(scheme.order + 1, abs=0.15)


@pytest.mark.xfail(
    strict=True,
    reason="the 2x2 anti-Hermitian pair annihilates the formula's entire "
           "leading error bracket [A,[B,[B,A]]], so the measured slope is "
           "~5 instead of order+1 = 4; a generic dense pair shows 4.03",
)
def test_criterion_06_single_step_slope_unit_coefficient_formula(pauli):
    scheme = catalog_get("fap8")
    slope = empirical_order(scheme, pauli)
    assert slope == pytest.approx(scheme.order + 1, abs=0.15)


@pytest.mark.parametrize("name", COMMUTATOR_SCHEMES)
def test_criterion_06_multi_step_decay_exponent(name, pauli):
    scheme = catalog_get(name)
    n_grid = tuple(2 ** k for k in range(4, 11))
    results = error_curve(scheme, pauli, 1.0, n_grid)
    slope = slope_fit([(r.n, r.error) for r in results])
    assert slope == pytest.approx(-(scheme.order - 1) / 2.0, abs=0.1)


# ---------------------------------------------------------------------------
# criterion 7: efficiency-diagram orderings
# ---------------------------------------------------------------------------


def _read_curves(path):
    curves: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("scheme"):
            continue
        scheme, pair, _t, _n, gates, error = line.split(",")
        curves.setdefault((scheme, pair), []).append((int(gates), float(error)))
    for pts in curves.values():
        pts.sort()
    return curves


def _interp_error(curve, gates):
    xs = np.log([g for g, _ in curve])
    ys = np.log([max(e, 1e-300) for _, e in curve])
    return float(np.exp(np.interp(math.log(gates), xs, ys)))


@pytest.fixture(scope="module")
def figure_curves(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figures")
    data = {}
    for fig in ("fig1", "fig2", "fig3"):
        path = out_dir / f"{fig}.csv"
        export_figure(fig, path)
        data[fig] = _read_curves(path)
    return data


PAIRS = ("pauli", "random:16")


def test_criterion_07_order_six_most_efficient_above_260_gates(figure_curves):
    curves = figure_curves["fig1"]
    others = ("NCP6_3", "NCP10_4", "PCP16_5", "S2_chen", "S3_chen")
    for pair in PAIRS:
        for budget in (260 * 2 ** k for k in range(6)):
            best = _interp_error(curves[("PCP26_6", pair)], budget)
            for name in others:
                assert best <= _interp_error(curves[(name, pair)], budget)


def test_criterion_07_successors_beat_predecessors_above_240_gates(figure_curves):
    curves = figure_curves["fig2"]
    matchups = (("PCP12_4", "NCP10_4"), ("NCP18_5", "PCP16_5"))
    for pair in PAIRS:
        for newer, older in matchups:
            for budget in (240 * 2 ** k for k in range(7)):
                assert _interp_error(curves[(newer, pair)], budget) \
                    <= _interp_error(curves[(older, pair)], budget)


def test_criterion_07_long_time_ordering_at_large_budgets(figure_curves):
    curves = figure_curves["fig3"]
    others = ("NCP6_3", "NCP10_4", "PCP16_5", "S2_chen", "S3_chen")
    for pair in PAIRS:
        for budget in (1024 * 2 ** k for k in range(4)):
            best = _interp_error(curves[("PCP26_6", pair)], budget)
            for name in others:
                assert best <= _interp_error(curves[(name, pair)], budget)


def test_criterion_07_short_scheme_within_factor_two_of_baseline(figure_curves):
    # NCP6_3 and S3_chen have equal slot counts, so their gate grids align
    for fig in ("fig1", "fig3"):
        curves = figure_curves[fig]
        for pair in PAIRS:
            for (g1, e1), (g2, e2) in zip(curves[("NCP6_3", pair)],
                                          curves[("S3_chen", pair)]):
                assert g1 == g2
                assert e1 <= 2.0 * e2


def test_criterion_07_curves_decay_monotonically(figure_curves):
    for fig, curves in figure_curves.items():
        for pts in curves.values():
            for (_, e1), (_, e2) in zip(pts, pts[1:]):
                if 1e-12 < e1 < 0.5:
                    assert e2 <= e1 * 1.0001


# ---------------------------------------------------------------------------
# criterion 8: extension schemes
# ---------------------------------------------------------------------------


def test_criterion_08_extension_slot_counts():
    nested = catalog_get("nested4_50")
    assert nested.slot_count == 50
    gens = [s.generator for s in nested.slots]
    assert all(a != b for a, b in zip(gens, gens[1:]))  # merging cannot shrink it
    assert catalog_get("zass_sym22").slot_count == 22
    assert suzuki(2).slot_count == 20


def test_criterion_08_nested_scheme_slope(pauli):
    nested = catalog_get("nested4_50")
    slope = empirical_order(nested, pauli)
    assert slope == pytest.approx(5.0, abs=0.2)


@pytest.mark.parametrize("name", ["yoshida4", "suzuki4", "zass_sym22"])
def test_criterion_08_sum_splitting_single_step_slopes(name, pauli):
    scheme = catalog_get(name)
    slope = empirical_order(scheme, pauli)
    assert slope == pytest.approx(5.0, abs=0.15)


# ---------------------------------------------------------------------------
# criterion 9: series-engine oracle
# ---------------------------------------------------------------------------


def test_criterion_09_bch_degree_two_words():
    log = TruncatedSeries.from_flat(scheme_log([Generator.A, Generator.B], [1.0, 1.0], 2))
    assert log.coefficient("AB") == pytest.approx(0.5, abs=1e-14)
    assert log.coefficient("BA") == pytest.approx(-0.5, abs=1e-14)


def test_criterion_09_log_of_exponential_product_is_lie():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(1, 13))
        slots = [
            (Generator.A if rng.integers(2) == 0 else Generator.B,
             float(rng.uniform(-2.0, 2.0)))
            for _ in range(length)
        ]
        _, residuals = lie_project(scheme_log(*zip(*slots), 7))
        worst = max(worst, float(np.max(residuals)))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# criterion 10: Newton recovery of the tabulated coefficients
# ---------------------------------------------------------------------------

HELD_FIRST = {"PCP12_4", "NCP18_5"}  # families with a free parameter held at c1


@pytest.mark.parametrize("name", TABULATED_CP)
def test_criterion_10_perturbed_coefficients_recover(name):
    scheme = catalog_get(name)
    tail = np.array([float(c) for c in scheme.cp_half[1:]])
    rng = np.random.default_rng(20260814 + len(tail))
    bump = 1e-6 * rng.uniform(-1.0, 1.0, size=tail.size)
    if name in HELD_FIRST:
        bump[0] = 0.0
        free = range(1, tail.size)
    else:
        free = None
    perturbed = tail + bump
    half = [cp_half_closure(perturbed, scheme.cp_sign), *perturbed]
    start = cp_expand(half, scheme.cp_sign, name=name, order=scheme.order)
    polished = refine(start, free_slots=free)
    recovered = np.array([float(c) for c in polished.cp_half[1:]])
    np.testing.assert_allclose(recovered, tail, rtol=1e-12, atol=0.0)
