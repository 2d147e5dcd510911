"""Word algebra, series calculus and the Lie projection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commexp.liealg import (
    LIE_DIMS,
    MAX_LOG_COEFFICIENT,
    MAX_TRUNCATION,
    Generator,
    LieMembershipError,
    TruncatedSeries,
    Word,
    _lie_rows,
    _log_flat,
    _project_flat,
    _slot_product,
    basis_build,
    exp_slot,
    lie_project,
    scheme_log,
    series_exp,
    series_log,
    series_mul,
)

A, B = Generator.A, Generator.B


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,degree,index", [
    ("A", 1, 0),
    ("B", 1, 1),
    ("AB", 2, 1),
    ("BA", 2, 2),
    ("AAB", 3, 1),
    ("BBB", 3, 7),
    ("", 0, 0),
])
def test_word_index_roundtrip(text, degree, index):
    w = Word.from_string(text)
    assert w.degree == degree
    assert w.index == index
    assert Word.from_index(degree, index) == w
    assert str(w) == (text or "1")


def test_word_from_index_range_check():
    with pytest.raises(ValueError):
        Word.from_index(2, 4)


def test_word_degree_ceiling():
    with pytest.raises(ValueError):
        Word(tuple([A] * (MAX_TRUNCATION + 1)))


def test_unit_word_spellings():
    assert Word.from_string("") == Word.from_string("1") == Word(())


# ---------------------------------------------------------------------------
# series construction and arithmetic
# ---------------------------------------------------------------------------


def test_series_unit_and_zero():
    u = TruncatedSeries.unit(3)
    z = TruncatedSeries.zero(3)
    assert u.coefficient("1") == 1.0
    assert u.coefficient("A") == 0.0
    assert z.norm() == 0.0
    assert u.allclose(u + z)


def test_series_from_terms_and_coefficient():
    s = TruncatedSeries.from_terms(3, {"A": 2.0, "AB": -0.5})
    assert s.coefficient("A") == 2.0
    assert s.coefficient("AB") == -0.5
    assert s.coefficient("BA") == 0.0
    with pytest.raises(ValueError):
        s.coefficient("AAAA")


def test_series_truncation_bounds():
    with pytest.raises(ValueError):
        TruncatedSeries.zero(0)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(MAX_TRUNCATION + 1)


def test_series_mul_concatenates_words():
    a = TruncatedSeries.from_terms(3, {"A": 1.0})
    b = TruncatedSeries.from_terms(3, {"B": 1.0})
    ab = series_mul(a, b)
    assert ab.coefficient("AB") == 1.0
    assert ab.coefficient("BA") == 0.0


def test_series_mul_truncates_overflow():
    a = TruncatedSeries.from_terms(2, {"AB": 1.0})
    sq = series_mul(a, a)
    assert sq.norm() == 0.0  # degree 4 falls off a truncation-2 series


def test_series_linear_ops():
    s = TruncatedSeries.from_terms(2, {"A": 1.0, "B": 2.0})
    t = TruncatedSeries.from_terms(2, {"A": -1.0})
    assert (s + t).coefficient("A") == 0.0
    assert (s - t).coefficient("A") == 2.0
    assert (2.0 * s).coefficient("B") == 4.0
    assert (-s).coefficient("B") == -2.0


def test_series_truncation_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries.unit(2) + TruncatedSeries.unit(3)


def test_extended_and_truncated_views():
    s = TruncatedSeries.from_terms(2, {"AB": 1.5})
    up = s.extended(4)
    assert up.truncation == 4
    assert up.coefficient("AB") == 1.5
    down = up.truncated(1)
    assert down.truncation == 1
    with pytest.raises(ValueError):
        up.extended(2)


@st.composite
def small_series(draw):
    terms = {}
    for word in ("A", "B", "AB", "BA", "AAB"):
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
        if coeff:
            terms[word] = coeff
    return TruncatedSeries.from_terms(4, terms) if terms else TruncatedSeries.zero(4)


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_series_mul_is_associative_and_distributive(x, y, z):
    left = series_mul(series_mul(x, y), z)
    right = series_mul(x, series_mul(y, z))
    assert left.allclose(right, tol=1e-10)
    assert series_mul(x, y + z).allclose(series_mul(x, y) + series_mul(x, z), tol=1e-10)


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------


def test_exp_slot_matches_scalar_series():
    s = exp_slot(A, 0.5, 4)
    for k, word in enumerate(("1", "A", "AA", "AAA", "AAAA")):
        assert s.coefficient(word) == pytest.approx(0.5 ** k / math.factorial(k))


def test_exp_log_roundtrip():
    x = TruncatedSeries.from_terms(5, {"A": 0.3, "B": -0.7, "AB": 0.2, "BA": -0.2})
    assert series_log(series_exp(x)).allclose(x, tol=1e-13)


def test_series_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_log(TruncatedSeries.zero(3))


def test_series_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.unit(3))


def test_bch_degree_two_coefficients():
    prod = series_mul(exp_slot(A, 1.0, 3), exp_slot(B, 1.0, 3))
    log = series_log(prod)
    assert log.coefficient("A") == pytest.approx(1.0)
    assert log.coefficient("B") == pytest.approx(1.0)
    assert log.coefficient("AB") == pytest.approx(0.5)
    assert log.coefficient("BA") == pytest.approx(-0.5)
    # degree 3 of BCH: (1/12)[A,[A,B]] + (1/12)[B,[B,A]]
    assert log.coefficient("AAB") == pytest.approx(1.0 / 12.0)
    assert log.coefficient("ABB") == pytest.approx(1.0 / 12.0)
    assert log.coefficient("ABA") == pytest.approx(-1.0 / 6.0)


def test_scheme_log_inverse_product_cancels():
    slots = [(A, 0.9), (B, -0.4), (B, 0.4), (A, -0.9)]
    log = scheme_log(slots, 5)
    assert log.norm() < 1e-14


def test_scheme_log_single_slot():
    log = scheme_log([(B, 1.25)], 4)
    assert log.coefficient("B") == pytest.approx(1.25)
    assert log.norm() == pytest.approx(1.25)


def test_scheme_log_rejects_non_finite_powers():
    with pytest.raises(ValueError, match="non-finite powers"):
        scheme_log([(A, 0.5), (B, 1e200)], 3)
    with pytest.raises(ValueError, match="non-finite powers"):
        scheme_log([(A, float("nan"))], 2)


def test_scheme_log_rejects_oversized_log():
    # 1e60 has finite powers through degree 4, but the log's cancellation
    # leaves coefficients whose squares would overflow the projection norms
    with pytest.raises(ValueError, match="limit"):
        scheme_log([(B, 0.3), (A, 1e60), (B, -0.7)], 4)
    assert MAX_LOG_COEFFICIENT ** 2 * 2 ** MAX_TRUNCATION < np.finfo(float).max


# ---------------------------------------------------------------------------
# slot-append fast path against the series_mul reference
# ---------------------------------------------------------------------------


def _reference_product(slots, truncation):
    product = TruncatedSeries.unit(truncation, complex_=any(
        isinstance(c, complex) for _, c in slots))
    for g, c in slots:
        product = series_mul(product, exp_slot(g, c, truncation))
    return product


def _reference_log(s, sign: float = -1.0):
    """log(1 + z) = sum (-1)^(k+1) z^k / k with every power from series_mul.

    ``sign=+1`` sums ``z^k / k`` instead: applied to a product of the
    coefficients' magnitudes, that bounds every term the log adds up.
    """
    z = s - TruncatedSeries.unit(s.truncation, complex_=s.is_complex)
    out, power = z, z
    for k in range(2, s.truncation + 1):
        power = series_mul(power, z)
        out = out + (sign ** (k + 1) / k) * power
    return out


def _round_off_scales(slots, truncation):
    """Largest term the product and its log sum up, from |coefficients|."""
    majorant = _reference_product([(g, abs(c)) for g, c in slots], truncation)
    return (max(1.0, float(np.max(_flat(majorant)))),
            max(1.0, float(np.max(_flat(_reference_log(majorant, sign=1.0))))))


def _flat(s):
    return np.concatenate([s.degree_coefficients(j) for j in range(s.truncation + 1)])


_real_coefficients = st.one_of(st.just(0.0), st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def slot_lists(draw):
    coefficient = _real_coefficients
    if draw(st.booleans()):
        coefficient = st.builds(complex, _real_coefficients, _real_coefficients)
    slots = draw(st.lists(st.tuples(st.sampled_from([A, B]), coefficient),
                          min_size=1, max_size=8))
    return draw(st.integers(1, MAX_TRUNCATION)), slots


@settings(max_examples=150, deadline=None)
@given(slot_lists())
def test_slot_append_matches_series_mul_chain(case):
    # both sides round differently; 1e-13 of the largest summed term bounds that
    truncation, slots = case
    product_scale, log_scale = _round_off_scales(slots, truncation)
    reference = _reference_product(slots, truncation)
    generators = [g for g, _ in slots]
    complex_ = any(isinstance(c, complex) for _, c in slots)
    coefficients = np.array([[c for _, c in slots]], dtype=complex if complex_ else float)
    product = _slot_product(generators, coefficients, truncation)[0, :-1]
    np.testing.assert_allclose(product, _flat(reference), rtol=0.0,
                               atol=1e-13 * product_scale)

    log = _flat(scheme_log(slots, truncation))
    np.testing.assert_allclose(log, _flat(_reference_log(reference)), rtol=0.0,
                               atol=1e-13 * log_scale)
    assert np.iscomplexobj(log) == any(isinstance(c, complex) for _, c in slots)


def test_slot_append_repeated_generator_adds_exponents():
    log = scheme_log([(A, 0.25), (A, 0.5), (A, 0.0), (A, -1.0)], MAX_TRUNCATION)
    assert log.coefficient("A") == pytest.approx(-0.25)
    assert log.norm() == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, MAX_TRUNCATION), st.data())
def test_series_log_matches_series_mul_power_series(truncation, data):
    size = (2 << truncation) - 1
    flat = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                              min_size=size, max_size=size))
    flat[0] = 1.0
    s = TruncatedSeries(truncation, [
        np.array(flat[(1 << j) - 1:(2 << j) - 1]) for j in range(truncation + 1)])
    majorant = TruncatedSeries(truncation, [np.abs(b) for b in s._deg])
    scale = max(1.0, float(np.max(_flat(_reference_log(majorant, sign=1.0)))))
    np.testing.assert_allclose(_flat(series_log(s)), _flat(_reference_log(s)),
                               rtol=0.0, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def test_basis_dimensions():
    basis = basis_build()
    assert basis.dims() == LIE_DIMS == (2, 1, 2, 3, 6, 9, 18)
    for degree in range(1, MAX_TRUNCATION + 1):
        assert len(basis.degree_elements(degree)) == basis.dim(degree)


def test_basis_is_cached():
    assert basis_build() is basis_build()


def test_basis_atoms():
    basis = basis_build()
    assert basis.element(1, 1).series.coefficient("A") == 1.0
    assert basis.element(1, 2).series.coefficient("B") == 1.0
    e21 = basis.element(2, 1)
    assert e21.series.coefficient("AB") == 1.0
    assert e21.series.coefficient("BA") == -1.0


def test_basis_element_metadata():
    basis = basis_build()
    e43 = basis.element(4, 3)
    assert (e43.sign, e43.letter, e43.child) == (-1, B, (3, 2))
    assert e43.label == "E4,3"
    # every recipe element expands to its sign * [letter, child]
    for (j, l), elt in basis.elements.items():
        if elt.child is None:
            continue
        child = basis.element(*elt.child)
        letter = basis.element(1, 1 if elt.letter is A else 2)
        bracket = series_mul(letter.series, child.series) - series_mul(
            child.series, letter.series)
        assert elt.series.allclose(elt.sign * bracket, tol=1e-14)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_lie_project_recovers_basis_coordinates(rng):
    basis = basis_build()
    series = TruncatedSeries.zero(4)
    expected = {}
    for degree in range(1, 5):
        coeffs = rng.uniform(-1.0, 1.0, basis.dim(degree))
        expected[degree] = coeffs
        for pos, c in enumerate(coeffs, start=1):
            series = series + c * basis.element(degree, pos).series.truncated(4)
    out = lie_project(series)
    for degree in range(1, 5):
        np.testing.assert_allclose(out.vectors[degree], expected[degree], atol=1e-12)
        assert out.residuals[degree] < 1e-12


def test_lie_project_w_accessor():
    log = scheme_log([(A, 1.0), (B, 1.0), (A, -1.0), (B, -1.0)], 3)
    coeffs = lie_project(log)
    assert coeffs.w(2, 1) == pytest.approx(1.0)
    assert abs(coeffs.w(1, 1)) < 1e-15


def test_lie_project_rejects_non_lie_input():
    bad = TruncatedSeries.from_terms(3, {"AB": 1.0})  # AB alone is not a bracket
    with pytest.raises(LieMembershipError):
        lie_project(bad)
    loose = lie_project(bad, require_lie=False)
    assert loose.residuals[2] > 0.1


def test_lie_project_allows_the_round_off_of_large_slot_coefficients():
    # a degree-2 residual of 7e-10 fails the 1e-10 floor, but lies within
    # LOG_ROUND_OFF * S^2 / 2! once the slots' |c| sum to S = 200
    off = TruncatedSeries.from_terms(3, {"AB": 1e-9})
    with pytest.raises(LieMembershipError):
        lie_project(off)
    with pytest.raises(LieMembershipError):
        lie_project(off, coefficient_sum=20.0)
    assert lie_project(off, coefficient_sum=200.0).residuals[2] > 1e-10
    with pytest.raises(LieMembershipError):
        lie_project(TruncatedSeries.from_terms(3, {"AB": 1.0}), coefficient_sum=200.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e300])
def test_lie_project_rejects_non_finite_norms(value):
    series = TruncatedSeries.from_terms(3, {"A": 1.0, "AB": value, "BA": -value})
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite or too large"):
        lie_project(series)


def test_lie_project_rejects_constant_term():
    with pytest.raises(ValueError):
        lie_project(TruncatedSeries.unit(3))


def test_lie_project_degree_seven_in_basis():
    # the order-6 commutator scheme's leading error lives at degree 7
    from commexp.schemes import catalog_get

    log = scheme_log(catalog_get("PCP26_6").pairs(), MAX_TRUNCATION)
    coeffs = lie_project(log)
    assert coeffs.vectors[MAX_TRUNCATION].shape == (LIE_DIMS[MAX_TRUNCATION - 1],)
    assert coeffs.residuals[MAX_TRUNCATION] <= 1e-14
    assert np.linalg.norm(coeffs.vectors[MAX_TRUNCATION]) > 0.0


# ---------------------------------------------------------------------------
# the batch axis: each row of a batched pass is its own b = 1 pass
# ---------------------------------------------------------------------------


@st.composite
def coefficient_batches(draw, max_rows=12):
    """A truncation, a generator sequence and 1..max_rows coefficient rows on
    it, real or complex, each row scaled by 1 or 1e-6."""
    truncation = draw(st.integers(1, MAX_TRUNCATION))
    generators = draw(st.lists(st.sampled_from([A, B]), min_size=1, max_size=8))
    rows = draw(st.integers(1, max_rows))
    count = rows * len(generators)
    values = st.floats(-1.5, 1.5, allow_nan=False)
    coefficients = np.array(draw(st.lists(values, min_size=count, max_size=count)))
    if draw(st.booleans()):
        coefficients = coefficients + 1j * np.array(
            draw(st.lists(values, min_size=count, max_size=count)))
    scales = np.array(draw(st.lists(st.sampled_from([1.0, 1e-6]), min_size=rows,
                                    max_size=rows)))
    return truncation, generators, coefficients.reshape(rows, -1) * scales[:, None]


@settings(max_examples=120, deadline=None)
@given(coefficient_batches())
def test_batched_rows_equal_their_single_row_passes(case):
    truncation, generators, rows = case
    sums = np.abs(rows).sum(axis=1)
    product = _slot_product(generators, rows, truncation)
    log = _log_flat(product.copy(), truncation)
    vectors, residuals = _project_flat(log, sums, truncation)
    for i, row in enumerate(rows):
        one = _slot_product(generators, row[None], truncation)
        np.testing.assert_array_equal(product[i], one[0])
        one_log = _log_flat(one, truncation)
        np.testing.assert_array_equal(log[i], one_log[0])
        one_vectors, one_residuals = _project_flat(one_log, sums[i:i + 1], truncation)
        for j in vectors:
            np.testing.assert_array_equal(vectors[j][i], one_vectors[j][0])
        np.testing.assert_array_equal(residuals[i], one_residuals[0])
    # scheme_log and lie_project are the b = 1 case of the same kernels
    pairs = list(zip(generators, rows[-1].tolist()))
    coeffs = lie_project(scheme_log(pairs, truncation), coefficient_sum=float(sums[-1]))
    for j in vectors:
        np.testing.assert_array_equal(coeffs.vectors[j], vectors[j][-1])
    batched = _lie_rows(generators, rows, truncation)
    for j in vectors:
        np.testing.assert_array_equal(batched[j], vectors[j])


@settings(max_examples=40, deadline=None)
@given(coefficient_batches(max_rows=6), st.data(),
       st.sampled_from([(1e200, "non-finite powers"), (float("nan"), "non-finite powers")]))
def test_batch_names_the_row_with_non_finite_powers(case, data, bad):
    truncation, generators, rows = case
    rows = np.vstack([rows, rows])  # at least two rows, so errors name them
    row = data.draw(st.integers(0, len(rows) - 1))
    slot = data.draw(st.integers(0, len(generators) - 1))
    rows[row, slot] = bad[0]
    assume(truncation > 1 or np.isnan(bad[0]))  # at truncation 1 the only power is c
    with pytest.raises(ValueError, match=rf"^row {row}: slot {slot} .*{bad[1]}"):
        _lie_rows(generators, rows, truncation)


def test_batch_names_the_row_whose_log_is_too_large():
    rows = np.array([[0.3, 0.2, -0.7], [0.3, 1e60, -0.7], [0.3, 1e60, -0.7]])
    with pytest.raises(ValueError, match=r"^row 1: log of the slot product .*limit"):
        _lie_rows([B, A, B], rows, 4)


@settings(max_examples=40, deadline=None)
@given(coefficient_batches(max_rows=6), st.data())
def test_batch_names_the_row_that_is_not_lie(case, data):
    truncation, generators, rows = case
    assume(truncation > 1)  # every degree-1 series is a Lie element
    log = _log_flat(_slot_product(generators, np.vstack([rows, rows]), truncation),
                    truncation)
    row = data.draw(st.integers(0, len(log) - 1))
    log[row, 4] += 1.0  # the word AB alone, without -BA
    with pytest.raises(LieMembershipError, match=rf"^row {row}: degree-2 word"):
        _project_flat(log, np.abs(np.vstack([rows, rows])).sum(axis=1), truncation)
    lie = _project_flat(log, np.zeros(len(log)), truncation, require_lie=False)
    assert lie[1][row, 1] > 0.1  # the degree-2 residual
