"""The flat series engine, checked against the slow oracle in series_oracle
(whose own word algebra is tested here too), and the Lie projection."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from series_oracle import TruncatedSeries, Word, complex_step_jacobian, exp_slot, series_exp
from commexp import liealg
from commexp.liealg import (
    LIE_DIMS,
    LOG_ROUND_OFF,
    MAX_LOG_COEFFICIENT,
    MAX_TRUNCATION,
    Generator,
    LieMembershipError,
    _eulerian_idempotent,
    _lie_jacobian,
    _lie_rows,
    _rows_per_pass,
    _slot_product,
    basis_build,
    lie_project,
    scheme_log,
    series_log,
    series_mul,
)

A, B = Generator.A, Generator.B


def _block(degree):
    """Where one degree sits in a flat series."""
    return slice((1 << degree) - 1, (2 << degree) - 1)


def _coefficients(slots):
    """The coefficient row of ``(generator, coefficient)`` slots, complex
    when any coefficient is."""
    complex_ = any(isinstance(c, complex) for _, c in slots)
    return np.array([c for _, c in slots], dtype=complex if complex_ else float)


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
    # the engine's flat layout: degree j at offset 2**j - 1
    flat = s.flat()
    assert flat[_block(1)].tolist() == [2.0, 0.0] and flat[_block(2)][1] == -0.5
    assert TruncatedSeries.from_flat(flat).allclose(s, tol=0.0)


def test_series_truncation_bounds():
    with pytest.raises(ValueError):
        TruncatedSeries.zero(0)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(MAX_TRUNCATION + 1)
    for size in (1, 14, 16, (4 << MAX_TRUNCATION) - 1):
        with pytest.raises(ValueError, match="2\\*\\*\\(N\\+1\\) - 1 entries"):
            series_log(np.eye(1, size)[0])


def test_series_mul_concatenates_words():
    a = TruncatedSeries.from_terms(3, {"A": 1.0}).flat()
    b = TruncatedSeries.from_terms(3, {"B": 1.0}).flat()
    ab = TruncatedSeries.from_flat(series_mul(a, b))
    assert ab.coefficient("AB") == 1.0
    assert ab.coefficient("BA") == 0.0
    assert ab.norm() == 1.0


def test_series_mul_truncates_overflow():
    a = TruncatedSeries.from_terms(2, {"AB": 1.0}).flat()
    assert not series_mul(a, a).any()  # degree 4 falls off a truncation-2 series


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
    with pytest.raises(ValueError, match="truncation mismatch"):
        series_mul(TruncatedSeries.unit(2).flat(), TruncatedSeries.unit(3).flat())


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
    return TruncatedSeries.from_terms(4, terms).flat()


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_series_mul_is_associative_and_distributive(x, y, z):
    left = series_mul(series_mul(x, y), z)
    right = series_mul(x, series_mul(y, z))
    np.testing.assert_allclose(left, right, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(series_mul(x, y + z), series_mul(x, y) + series_mul(x, z),
                               rtol=0.0, atol=1e-10)
    # a batch of factors is each factor's product
    np.testing.assert_array_equal(series_mul(np.stack([x, y]), z),
                                  np.stack([series_mul(x, z), series_mul(y, z)]))


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------


def test_exp_slot_matches_scalar_series():
    s = exp_slot(A, 0.5, 4)
    for k, word in enumerate(("1", "A", "AA", "AAA", "AAAA")):
        assert s.coefficient(word) == pytest.approx(0.5 ** k / math.factorial(k))


def test_exp_log_roundtrip():
    x = TruncatedSeries.from_terms(5, {"A": 0.3, "B": -0.7, "AB": 0.2, "BA": -0.2})
    np.testing.assert_allclose(series_log(series_exp(x).flat()), x.flat(), rtol=0.0,
                               atol=1e-13)


def test_series_log_requires_unit_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        series_log(TruncatedSeries.zero(3).flat())
    unit = TruncatedSeries.unit(3).flat()
    with pytest.raises(ValueError, match="^row 1: series_log needs constant term 1"):
        series_log(np.stack([unit, 2.0 * unit, unit]))


def test_series_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.unit(3))


def test_bch_degree_two_coefficients():
    prod = series_mul(exp_slot(A, 1.0, 3).flat(), exp_slot(B, 1.0, 3).flat())
    log = TruncatedSeries.from_flat(series_log(prod))
    assert log.coefficient("A") == pytest.approx(1.0)
    assert log.coefficient("B") == pytest.approx(1.0)
    assert log.coefficient("AB") == pytest.approx(0.5)
    assert log.coefficient("BA") == pytest.approx(-0.5)
    # degree 3 of BCH: (1/12)[A,[A,B]] + (1/12)[B,[B,A]]
    assert log.coefficient("AAB") == pytest.approx(1.0 / 12.0)
    assert log.coefficient("ABB") == pytest.approx(1.0 / 12.0)
    assert log.coefficient("ABA") == pytest.approx(-1.0 / 6.0)


def test_scheme_log_inverse_product_cancels():
    log = scheme_log([A, B, B, A], [0.9, -0.4, 0.4, -0.9], 5)
    assert log.shape == (63,)
    assert np.linalg.norm(log) < 1e-14


def test_scheme_log_single_slot():
    log = TruncatedSeries.from_flat(scheme_log([B], [1.25], 4))
    assert log.coefficient("B") == pytest.approx(1.25)
    assert log.norm() == pytest.approx(1.25)


def test_scheme_log_rejects_non_finite_powers():
    with pytest.raises(ValueError, match="non-finite powers"):
        scheme_log([A, B], [0.5, 1e200], 3)
    with pytest.raises(ValueError, match="non-finite powers"):
        scheme_log([A], [float("nan")], 2)


def test_scheme_log_rejects_oversized_log():
    # 1e60 has finite powers through degree 4, but the log's cancellation
    # leaves coefficients whose squares would overflow the projection norms
    with pytest.raises(ValueError, match="limit"):
        scheme_log([B, A, B], [0.3, 1e60, -0.7], 4)
    assert MAX_LOG_COEFFICIENT ** 2 * 2 ** MAX_TRUNCATION < np.finfo(float).max


@pytest.mark.parametrize("generators,coefficients,message", [
    ([A, B], [1.0], "do not fit 2 slots"),
    ([A], [[[1.0]]], "do not fit 1 slots"),
    ([A], 1.0, "do not fit 1 slots"),
    ([], [], "at least one slot"),
])
def test_scheme_log_checks_the_coefficient_shape(generators, coefficients, message):
    with pytest.raises(ValueError, match=message):
        scheme_log(generators, coefficients, 3)


# ---------------------------------------------------------------------------
# the engine against the oracle
# ---------------------------------------------------------------------------


def _round_off_scales(slots, truncation):
    """Largest term the product and its log sum up, from |coefficients|."""
    majorant = oracle.slot_product([(g, abs(c)) for g, c in slots], truncation)
    return (max(1.0, float(np.max(majorant.flat()))),
            max(1.0, float(np.max(oracle.series_log(majorant, sign=1.0).flat()))))


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
    # both sides round differently; LOG_ROUND_OFF of the largest summed term bounds that
    truncation, slots = case
    product_scale, log_scale = _round_off_scales(slots, truncation)
    reference = oracle.slot_product(slots, truncation)
    product = _slot_product([g for g, _ in slots], _coefficients(slots)[None], truncation)
    np.testing.assert_allclose(product[0, :-1], reference.flat(), rtol=0.0,
                               atol=LOG_ROUND_OFF * product_scale)
    log = scheme_log([g for g, _ in slots], _coefficients(slots), truncation)
    np.testing.assert_allclose(log, oracle.series_log(reference).flat(), rtol=0.0,
                               atol=LOG_ROUND_OFF * log_scale)
    assert np.iscomplexobj(log) == any(isinstance(c, complex) for _, c in slots)


@settings(max_examples=100, deadline=None)
@given(slot_lists(), slot_lists())
def test_series_mul_matches_the_oracle(left, right):
    truncation, slots = left
    others = right[1]
    a, b = oracle.slot_product(slots, truncation), oracle.slot_product(others, truncation)
    scale = max(1.0, float(np.max(oracle.product(
        oracle.slot_product([(g, abs(c)) for g, c in slots], truncation),
        oracle.slot_product([(g, abs(c)) for g, c in others], truncation)).flat())))
    np.testing.assert_allclose(series_mul(a.flat(), b.flat()), oracle.product(a, b).flat(),
                               rtol=0.0, atol=LOG_ROUND_OFF * scale)


@settings(max_examples=100, deadline=None)
@given(slot_lists())
def test_series_log_matches_the_oracle(case):
    truncation, slots = case
    _, log_scale = _round_off_scales(slots, truncation)
    product = oracle.slot_product(slots, truncation)
    np.testing.assert_allclose(series_log(product.flat()), oracle.series_log(product).flat(),
                               rtol=0.0, atol=LOG_ROUND_OFF * log_scale)


@settings(max_examples=100, deadline=None)
@given(slot_lists())
def test_scheme_log_and_lie_project_match_the_oracle(case):
    truncation, slots = case
    _, log_scale = _round_off_scales(slots, truncation)
    log = scheme_log([g for g, _ in slots], _coefficients(slots), truncation)
    vectors, residuals = lie_project(log, _coefficients(slots))
    expected, expected_residuals = oracle.lie_project(oracle.scheme_log(slots, truncation))
    # every row of the basis pseudoinverses sums to at most 1 in magnitude,
    # so the coordinates inherit the logs' round-off bound
    for j in range(1, truncation + 1):
        np.testing.assert_allclose(vectors[j], expected[j], rtol=0.0,
                                   atol=2 * LOG_ROUND_OFF * log_scale)
        assert residuals[j] <= LOG_ROUND_OFF * log_scale
        assert expected_residuals[j] <= LOG_ROUND_OFF * log_scale
    assert residuals[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, MAX_TRUNCATION), st.data())
def test_series_log_matches_series_mul_power_series(truncation, data):
    size = (2 << truncation) - 1
    flat = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                              min_size=size, max_size=size))
    flat[0] = 1.0
    s = TruncatedSeries.from_flat(np.array(flat))
    scale = max(1.0, float(np.max(oracle.series_log(s.map(np.abs), sign=1.0).flat())))
    np.testing.assert_allclose(series_log(np.array(flat)), oracle.series_log(s).flat(),
                               rtol=0.0, atol=LOG_ROUND_OFF * scale)


def test_slot_append_repeated_generator_adds_exponents():
    log = TruncatedSeries.from_flat(scheme_log([A] * 4, [0.25, 0.5, 0.0, -1.0], MAX_TRUNCATION))
    assert log.coefficient("A") == pytest.approx(-0.25)
    assert log.norm() == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def _series(element):
    """A basis element as a homogeneous oracle series at MAX_TRUNCATION."""
    s = TruncatedSeries.zero(MAX_TRUNCATION)
    s._deg[element.degree][:] = element.vector
    return s


def test_basis_dimensions():
    basis = basis_build()
    assert basis.dims() == LIE_DIMS == (2, 1, 2, 3, 6, 9, 18)
    for degree in range(1, MAX_TRUNCATION + 1):
        assert len(basis.degree_elements(degree)) == basis.dim(degree)


def test_basis_is_cached():
    assert basis_build() is basis_build()


def test_basis_is_stored_once():
    # every per-degree array is a read-only view of the one block-diagonal
    # word map or of its pseudoinverse, which are zero off their blocks
    basis = basis_build()
    words, pinv, offsets = basis.words, basis.pinv, basis.offsets
    on_words = np.zeros(words.shape, bool)
    for degree in range(1, MAX_TRUNCATION + 1):
        on_words[_block(degree), offsets[degree - 1]:offsets[degree]] = True
        views = [(basis.matrices[degree], words), (basis.pinvs[degree], pinv)]
        views += [(element.vector, words) for element in basis.degree_elements(degree)]
        for view, store in views:
            assert np.shares_memory(view, store)
            assert not view.flags.writeable
    assert not (words.flags.writeable or pinv.flags.writeable or offsets.flags.writeable)
    assert (words[~on_words] == 0).all() and (pinv[~on_words.T] == 0).all()


def test_basis_atoms():
    basis = basis_build()
    assert _series(basis.element(1, 1)).coefficient("A") == 1.0
    assert _series(basis.element(1, 2)).coefficient("B") == 1.0
    e21 = _series(basis.element(2, 1))
    assert e21.coefficient("AB") == 1.0
    assert e21.coefficient("BA") == -1.0


def test_basis_element_metadata():
    basis = basis_build()
    e43 = basis.element(4, 3)
    assert (e43.sign, e43.letter, e43.child) == (-1, B, (3, 2))
    assert e43.label == "E4,3"
    # every recipe element expands to its sign * [letter, child], and is the
    # oracle's own walk down the commutator tree
    for (j, l), elt in basis.elements.items():
        assert _series(elt).allclose(oracle.basis_series(j, l), tol=0.0)
        if elt.child is None:
            continue
        child = _series(basis.element(*elt.child))
        letter = _series(basis.element(1, 1 if elt.letter is A else 2))
        bracket = oracle.product(letter, child) - oracle.product(child, letter)
        assert _series(elt).allclose(elt.sign * bracket, tol=1e-14)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_lie_project_recovers_basis_coordinates(rng):
    basis = basis_build()
    series = np.zeros(31)
    expected = {}
    for degree in range(1, 5):
        expected[degree] = rng.uniform(-1.0, 1.0, basis.dim(degree))
        series[_block(degree)] = basis.matrices[degree] @ expected[degree]
    vectors, residuals = lie_project(series)
    assert residuals.shape == (5,)
    for degree in range(1, 5):
        np.testing.assert_allclose(vectors[degree], expected[degree], atol=1e-12)
        assert residuals[degree] < 1e-12


def test_lie_project_w_accessor():
    # w_{j,l} is entry l - 1 of the degree-j coordinates
    log = scheme_log([A, B, A, B], [1.0, 1.0, -1.0, -1.0], 3)
    vectors, _ = lie_project(log)
    assert vectors[2][0] == pytest.approx(1.0)
    assert abs(vectors[1][0]) < 1e-15


def _named_residual(error) -> float:
    """The residual that a raised LieMembershipError names."""
    return float(re.search(r"\(residual (\S+) > ", str(error.value)).group(1))


def test_lie_project_rejects_non_lie_input():
    bad = TruncatedSeries.from_terms(3, {"AB": 1.0}).flat()  # AB alone is not a bracket
    with pytest.raises(LieMembershipError, match="degree-2 word") as error:
        lie_project(bad)
    assert _named_residual(error) > 0.1


def test_lie_project_allows_the_round_off_of_large_slot_coefficients():
    # a degree-2 residual of 7e-10 fails the 1e-10 floor, but lies within
    # LOG_ROUND_OFF * S^2 / 2! once the slots' |c| sum to S = 200
    off = TruncatedSeries.from_terms(3, {"AB": 1e-9}).flat()
    with pytest.raises(LieMembershipError):
        lie_project(off)
    with pytest.raises(LieMembershipError):
        lie_project(off, [20.0])
    assert lie_project(off, [200.0])[1][2] > 1e-10
    assert lie_project(off, [150.0, -50.0])[1][2] > 1e-10
    with pytest.raises(LieMembershipError):
        lie_project(TruncatedSeries.from_terms(3, {"AB": 1.0}).flat(), [200.0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e300])
def test_lie_project_rejects_non_finite_norms(value):
    series = TruncatedSeries.from_terms(3, {"A": 1.0, "AB": value, "BA": -value}).flat()
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite or too large"):
        lie_project(series)


def test_lie_project_rejects_constant_term():
    # degree 0 has no commutators: its residual is the whole constant term
    with pytest.raises(LieMembershipError, match="degree-0") as error:
        lie_project(TruncatedSeries.unit(3).flat())
    assert _named_residual(error) == 1.0


def test_lie_project_degree_seven_in_basis():
    # the order-6 commutator scheme's leading error lives at degree 7
    from commexp.schemes import catalog_get

    generators, coefficients = zip(*catalog_get("PCP26_6").pairs())
    vectors, residuals = lie_project(scheme_log(generators, coefficients, MAX_TRUNCATION))
    assert vectors[MAX_TRUNCATION].shape == (LIE_DIMS[MAX_TRUNCATION - 1],)
    assert residuals[MAX_TRUNCATION] <= 1e-14
    assert np.linalg.norm(vectors[MAX_TRUNCATION]) > 0.0


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
# the rows v + i h e_j, h = 1e-20, that the complex-step oracle's Jacobian sends
# through the engine as one batch
@example((MAX_TRUNCATION, [B, A] * 4, np.linspace(-0.9, 1.2, 8) + 1e-20j * np.eye(8)))
def test_batched_rows_equal_their_single_row_passes(case):
    truncation, generators, rows = case
    product = _slot_product(generators, rows, truncation)
    log = scheme_log(generators, rows, truncation)
    vectors, residuals = lie_project(log, rows)
    for i, row in enumerate(rows):
        one = _slot_product(generators, row[None], truncation)
        np.testing.assert_array_equal(product[i], one[0])
        one_log = scheme_log(generators, row, truncation)
        np.testing.assert_array_equal(log[i], one_log)
        one_vectors, one_residuals = lie_project(one_log, row)
        for j in vectors:
            np.testing.assert_array_equal(vectors[j][i], one_vectors[j])
        np.testing.assert_array_equal(residuals[i], one_residuals)
    # scheme_log is pi_1 of that product at every degree, the real and
    # imaginary parts of a row the two columns of one product
    for j in range(1, truncation + 1):
        for i in range(len(rows)):
            parts = product[i, _block(j)].view(np.float64).reshape(1 << j, -1)
            expected = (_eulerian_idempotent(j) @ parts).reshape(-1).view(product.dtype)
            np.testing.assert_array_equal(log[i, _block(j)], expected)
    np.testing.assert_array_equal(scheme_log(generators, rows[-1], truncation), log[-1])
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


@settings(max_examples=30, deadline=None)
@given(truncation=st.integers(2, MAX_TRUNCATION),
       generators=st.lists(st.sampled_from([A, B]), min_size=1, max_size=6),
       passes=st.integers(1, 3), fill=st.floats(0.0, 1.0),
       complex_rows=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(truncation=2, generators=[B, A, B], passes=3, fill=1.0, complex_rows=True, seed=1)
@example(truncation=7, generators=[A, B], passes=2, fill=0.0, complex_rows=False, seed=2)
def test_lie_rows_splits_a_long_batch_into_passes_bit_for_bit(truncation, generators, passes,
                                                              fill, complex_rows, seed):
    # b rows, the last of `passes` passes holding 1 to step of them:
    # ceil(b / step) scheme_log calls of step rows (the last shorter), and
    # every coordinate as the row's own call gives it
    step = _rows_per_pass(truncation)
    b = (passes - 1) * step + 1 + int(fill * (step - 1))
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (b, len(generators)))
    if complex_rows:
        rows = rows + 1j * rng.uniform(-1.0, 1.0, rows.shape)
    calls = []
    engine = liealg.scheme_log

    def spy(generators, coefficients, truncation):
        calls.append(len(coefficients))
        return engine(generators, coefficients, truncation)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liealg, "scheme_log", spy)
        batched = _lie_rows(generators, rows, truncation)
    assert calls == [min(step, b - lo) for lo in range(0, b, step)]
    ones = [_lie_rows(generators, row[None], truncation) for row in rows]
    for j, w in batched.items():
        expected = np.concatenate([one[j] for one in ones])
        assert w.dtype == expected.dtype and w.shape == (b, LIE_DIMS[j - 1])
        assert w.tobytes() == expected.tobytes()


def test_lie_rows_names_a_failing_row_by_its_index_in_the_whole_batch():
    # the failing row sits in a later pass, of several rows or of one
    step = _rows_per_pass(7)
    rows = np.full((2 * step + 1, 3), 0.1)
    rows[step + 2, 1] = 1e200
    with pytest.raises(ValueError, match=rf"^row {step + 2}: slot 1 coefficient 1e\+200 has"):
        _lie_rows([B, A, B], rows, 7)
    rows[step + 2, 1] = 0.1
    rows[2 * step, 0] = math.nan
    with pytest.raises(ValueError, match=rf"^row {2 * step}: slot 0 coefficient nan has"):
        _lie_rows([B, A, B], rows, 7)


@pytest.mark.parametrize("truncation", [4, 5, 7])
def test_lie_rows_keeps_the_failing_row_of_a_later_pass(truncation):
    # the first bad row lies in the second pass; the error's row attribute,
    # like its message, is that row's index in the whole batch
    step = _rows_per_pass(truncation)
    rows = np.full((2 * step + 1, 3), 0.1)
    rows[step + 1, 2] = 1e200
    rows[2 * step, 0] = 1e200  # a later bad row, in the third pass
    with pytest.raises(ValueError, match=rf"^row {step + 1}: slot 2 coefficient") as error:
        _lie_rows([B, A, B], rows, truncation)
    assert error.value.row == step + 1


@st.composite
def jacobian_batches(draw):
    """A truncation 2..7, a generator sequence and 1..4 real coefficient
    rows on it: a mirrored pattern (slots B, A, ..., A, the half reversed
    after it, kept or negated) or any sequence of up to 8 slots."""
    truncation = draw(st.integers(2, MAX_TRUNCATION))
    b = draw(st.integers(1, 4))
    values = st.floats(-1.5, 1.5, allow_nan=False)
    if draw(st.booleans()):
        m = draw(st.integers(2, 4))
        generators = [B if i % 2 == 0 else A for i in range(2 * m)]
        halves = np.array(draw(st.lists(values, min_size=b * m, max_size=b * m))).reshape(b, m)
        sign = draw(st.sampled_from([1.0, -1.0]))
        return truncation, generators, np.concatenate([halves, sign * halves[:, ::-1]], axis=1)
    generators = draw(st.lists(st.sampled_from([A, B]), min_size=1, max_size=8))
    count = b * len(generators)
    rows = np.array(draw(st.lists(values, min_size=count, max_size=count)))
    return truncation, generators, rows.reshape(b, -1)


@settings(max_examples=60, deadline=None)
@given(jacobian_batches())
def test_lie_jacobian_is_the_complex_step_derivative(case):
    # the coordinates are _lie_rows' bit for bit, every derivative column is
    # the complex step's within 1e-14 of its largest entry (at least 1, its
    # letter's degree-1 coordinate), and each row is its own one-row call
    truncation, generators, rows = case
    vectors, derivatives = _lie_jacobian(generators, rows, truncation)
    assert derivatives.shape == (len(rows), sum(LIE_DIMS[:truncation]), len(generators))
    for j, w in _lie_rows(generators, rows, truncation).items():
        assert vectors[j].dtype == w.dtype and vectors[j].tobytes() == w.tobytes()

    def coordinates(stepped):
        return np.concatenate(list(_lie_rows(generators, stepped, truncation).values()), axis=1)

    for row, jacobian, *values in zip(rows, derivatives, *vectors.values()):
        reference = complex_step_jacobian(coordinates, row)
        assert np.all(np.abs(jacobian - reference) <= 1e-14 * np.max(np.abs(reference), axis=0))
        one_vectors, one_derivatives = _lie_jacobian(generators, row[None], truncation)
        assert one_derivatives[0].tobytes() == jacobian.tobytes()
        for value, one in zip(values, one_vectors.values()):
            assert one[0].tobytes() == value.tobytes()


@pytest.mark.parametrize("bad,message", [
    (1e200, "slot 1 coefficient 1e+200 has non-finite"),
    (1e25, "log of the slot product has a round-off allowance"),
])
def test_lie_jacobian_refuses_the_rows_lie_rows_refuses(bad, message):
    # the same error, naming the same row, from a later pass too
    rows = np.full((9, 3), 0.1)
    rows[5, 1] = bad
    for engine in (_lie_rows, _lie_jacobian):
        with pytest.raises(ValueError) as error:
            engine([B, A, B], rows, 7)
        assert str(error.value).startswith(f"row 5: {message}")
        assert error.value.row == 5


@settings(max_examples=40, deadline=None)
@given(coefficient_batches(max_rows=6), st.data())
def test_batch_names_the_row_that_is_not_lie(case, data):
    truncation, generators, rows = case
    assume(truncation > 1)  # every degree-1 series is a Lie element
    rows = np.vstack([rows, rows])
    log = scheme_log(generators, rows, truncation)
    row = data.draw(st.integers(0, len(log) - 1))
    log[row, 4] += 1.0  # the word AB alone, without -BA
    with pytest.raises(LieMembershipError, match=rf"^row {row}: degree-2 word") as error:
        lie_project(log, rows)
    assert _named_residual(error) > 0.1  # the degree-2 residual


# ---------------------------------------------------------------------------
# the first Eulerian idempotent: the log of a slot product in one map
# ---------------------------------------------------------------------------


def _allowances(row, truncation):
    """LOG_ROUND_OFF * S^j / j! at j = 1..N, S the sum of |c_i| of the row,
    plus the smallest normal float: below it a float keeps no relative
    precision, so an underflowing product rounds by that much at most."""
    s = float(np.abs(row).sum())
    return [LOG_ROUND_OFF * s ** j / math.factorial(j) + np.finfo(float).tiny
            for j in range(1, truncation + 1)]


def _log_majorant(truncation):
    """[x^j] of -log(2 - e^x) = sum_k (e^x - 1)^k / k at j = 1..N: times
    S^j it bounds the sum of |terms| that series_log adds at degree j."""
    shifted = [0.0] + [1.0 / math.factorial(i) for i in range(1, truncation + 1)]  # e^x - 1
    power, total = [1.0] + [0.0] * truncation, [0.0] * (truncation + 1)
    for k in range(1, truncation + 1):
        power = [sum(power[i] * shifted[n - i] for i in range(n + 1)) for n in range(truncation + 1)]
        total = [t + p / k for t, p in zip(total, power)]
    return total[1:]


def _word(letters):
    """The packed index of a letter sequence, first letter most significant."""
    return sum(letter << i for i, letter in enumerate(reversed(letters)))


def _letters(word, degree):
    return [(word >> (degree - 1 - i)) & 1 for i in range(degree)]


@settings(max_examples=30, deadline=None)
@given(coefficient_batches(max_rows=3))
@example((MAX_TRUNCATION, [A], np.array([[0.11156489521608326]])))
def test_scheme_log_is_the_exact_log_within_its_round_off_allowance(case):
    # against the log of the same float coefficients in exact rationals:
    # within LOG_ROUND_OFF * S^j / j! at every degree, real or complex, one
    # row or a batch
    truncation, generators, rows = case
    log = scheme_log(generators, rows, truncation)
    for row, one in zip(rows, log):
        exact = oracle.exact_scheme_log(generators, row, truncation)
        for j, allowance in enumerate(_allowances(row, truncation), start=1):
            error = max(abs(complex(x) - y) for x, y in zip(exact[j], one[_block(j)]))
            assert error <= allowance


@settings(max_examples=100, deadline=None)
@given(coefficient_batches())
def test_scheme_log_matches_series_log_on_the_same_product(case):
    # the power series rounds worse: its terms sum to S^j times the log
    # majorant, and for one slot exp(c A) its degree-7 error reaches about
    # 20x LOG_ROUND_OFF * S^7 / 7!, so the two agree within both round-offs
    truncation, generators, rows = case
    log = scheme_log(generators, rows, truncation)
    reference = series_log(_slot_product(generators, rows, truncation)[:, :-1])
    for row, one, expected in zip(rows, log, reference):
        s = float(np.abs(row).sum())
        bounds = zip(_allowances(row, truncation), _log_majorant(truncation))
        for j, (allowance, majorant) in enumerate(bounds, start=1):
            gap = np.max(np.abs(one[_block(j)] - expected[_block(j)]))
            assert gap <= allowance + LOG_ROUND_OFF * majorant * s ** j


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_eulerian_idempotent_projects_onto_the_lie_elements(degree):
    pi = _eulerian_idempotent(degree)
    basis = basis_build()
    np.testing.assert_allclose(pi @ pi, pi, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(basis.matrices[degree] @ basis.pinvs[degree] @ pi, pi,
                               rtol=0.0, atol=1e-14)
    # a projector's trace is its rank: the whole commutator subspace
    assert round(float(np.trace(pi))) == LIE_DIMS[degree - 1]
    if degree > 1:  # the letter powers A^j and B^j are exact zeros
        assert not pi[:, [0, -1]].any()


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_eulerian_idempotent_is_one_division_of_an_exact_integer_product(degree):
    # psi^2 counted subset by subset, the product of (psi^2 - 2^k) in int64:
    # every entry stays below 2**53, so pi_1 rounds only in the division
    n = 1 << degree
    adams = np.zeros((n, n), np.int64)
    for w in range(n):
        letters = _letters(w, degree)
        for chosen in itertools.product((True, False), repeat=degree):
            head = [x for x, c in zip(letters, chosen) if c]
            tail = [x for x, c in zip(letters, chosen) if not c]
            adams[_word(head + tail), w] += 1
    product = np.eye(n, dtype=np.int64)
    for k in range(2, degree + 1):
        product = product @ (adams - (1 << k) * np.eye(n, dtype=np.int64))
    assert np.abs(product).max() < 2 ** 53
    denominator = math.prod(2 - (1 << k) for k in range(2, degree + 1))
    np.testing.assert_array_equal(_eulerian_idempotent(degree), product / denominator)


@pytest.mark.parametrize("degree", range(1, 6))
def test_eulerian_idempotent_is_solomons_permutation_sum(degree):
    # pi_1 = (1/j) sum over the place permutations sigma of
    # (-1)^d / C(j - 1, d) sigma, d the number of descents of sigma
    n = 1 << degree
    expected = np.zeros((n, n))
    for w in range(n):
        letters = _letters(w, degree)
        for sigma in itertools.permutations(range(degree)):
            d = sum(a > b for a, b in zip(sigma, sigma[1:]))
            expected[_word([letters[i] for i in sigma]), w] += (
                (-1) ** d / math.comb(degree - 1, d) / degree)
    np.testing.assert_allclose(_eulerian_idempotent(degree), expected, rtol=0.0, atol=1e-15)


def test_scheme_log_refuses_a_row_whose_round_off_allowance_is_too_large():
    # the log of one slot is the slot, 1e30 A, far inside the limit; but at
    # truncation 7 its allowance LOG_ROUND_OFF * 1e30^7 / 7! is not, so its
    # numbers would carry no bound
    log = scheme_log([A], [1e30], 5)
    assert log[1] == 1e30 and not np.delete(log, 1).any()
    with pytest.raises(ValueError, match=r"^log of the slot product has a round-off allowance "
                                         r"of 1\.98e\+193 at truncation 7 \(limit 1e\+150\)"):
        scheme_log([A], [1e30], 7)
    with pytest.raises(ValueError, match=r"^row 1: log of the slot product has a round-off"):
        _lie_rows([A], np.array([[1.0], [1e30]]), 7)


@pytest.mark.parametrize("rows,message", [
    ([{"A": 1.0, "AAB": math.inf, "ABA": -math.inf}], "^degree-3 coefficients are not finite"),
    ([{"A": 1.0}, {"B": 2.0, "ABBA": math.nan}], "^row 1: degree-4 coefficients are not finite"),
])
def test_lie_project_names_the_degree_that_is_not_finite(rows, message):
    # the block products carry a non-finite degree into the coordinates of
    # every degree of its row (0 * inf), but the error names its own degree
    series = np.array([TruncatedSeries.from_terms(4, terms).flat() for terms in rows])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        lie_project(series if len(series) > 1 else series[0])
