"""Order conditions, effective error, CP machinery, refinement, optimizer."""

import dataclasses
import math
import pickle
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from series_oracle import COMPLEX_STEP, complex_step_jacobian
from commexp.bench import empirical_order
from commexp import conditions
from commexp.conditions import (
    EffectiveError,
    TargetPolynomial,
    _mirror_map,
    _mirror_relation,
    _mirror_sign,
    _residual,
    combined_target,
    commutator_target,
    cp_condition_counts,
    cp_expand,
    cp_half_closure,
    cp_identities,
    effective_error,
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
from commexp.liealg import (
    LIE_DIMS,
    LIE_OFFSETS,
    MAX_TRUNCATION,
    Generator,
    lie_project,
    scheme_log,
)
from commexp import bench, liealg, matform, schemes
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


def test_target_vectors_are_built_once_and_read_only():
    # every degree's vector is a view of the one coordinate vector the
    # target built, so it is not rebuilt per call and cannot be written
    t = sum_target()
    assert t.vector(1).base is t.coordinates and t.vector(2).base is t.coordinates
    with pytest.raises(ValueError, match="read-only"):
        t.vector(1)[0] = 2.0
    assert t == sum_target() and repr(t) == repr(sum_target())


def test_target_coordinates_are_one_stacked_vector():
    # degree j sits at LIE_OFFSETS[j - 1]:LIE_OFFSETS[j] of one read-only
    # vector, and one complex term makes the whole vector complex: the
    # dtype is the target's, not a degree's
    t = TargetPolynomial("mixed", {(1, 2): 1j, (2, 1): 2.0, (7, 18): -1.0})
    coordinates = t.coordinates
    assert coordinates.shape == (LIE_OFFSETS[MAX_TRUNCATION],) == (sum(LIE_DIMS),)
    assert coordinates.dtype == np.complex128 and not coordinates.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        coordinates[0] = 1.0
    start = coordinates.__array_interface__["data"][0]
    for j in range(1, MAX_TRUNCATION + 1):
        view = t.vector(j)
        assert np.shares_memory(view, coordinates) and view.shape == (LIE_DIMS[j - 1],)
        assert view.__array_interface__["data"][0] == start + LIE_OFFSETS[j - 1] * view.itemsize
    assert t.vector(1).tolist() == [0.0, 1j]
    assert t.vector(2).dtype == np.complex128 and t.vector(2).tolist() == [2.0]
    assert t.vector(7)[-1] == -1.0 and not np.delete(coordinates, [1, 2, 40]).any()
    assert commutator_target().coordinates.dtype == np.float64


def test_target_coefficient_defaults_to_zero():
    assert commutator_target().coefficient(3, 1) == 0.0


#: A weight as one of several number types: (the spelling, the number it
#: reads as, a float or a complex of nonzero imaginary part).
_SPELLED_WEIGHTS = st.one_of(
    st.integers(-3, 3).map(lambda n: (n, float(n))),
    st.floats(-3.0, 3.0).flatmap(lambda x: st.sampled_from([
        (x, x), (np.float64(x), x), (Fraction(x), x + 0.0), (complex(x, 0.0), x)])),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    .filter(lambda z: z.imag != 0.0)
    .flatmap(lambda z: st.sampled_from([(z, z), (np.complex128(z), z)])))
_INTEGER_TYPES = st.sampled_from([int, np.int64, np.int32])
_TERM_KEYS = [(degree, position) for degree in range(1, 6)
              for position in range(1, LIE_DIMS[degree - 1] + 1)]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_TERM_KEYS),
                       st.tuples(_INTEGER_TYPES, _INTEGER_TYPES, _SPELLED_WEIGHTS),
                       min_size=1, max_size=4))
def test_a_target_holds_its_terms_as_read_whatever_their_number_types(drawn):
    # a target kept the caller's mapping: numpy keys and weight types made it
    # save and build other bytes than its canonical twin, and editing the
    # mapping changed its terms but not its coordinates
    raw = {(of_degree(degree), of_position(position)): spelling
           for (degree, position), (of_degree, of_position, (spelling, _)) in drawn.items()}
    target = TargetPolynomial("t", raw)
    twin = TargetPolynomial("t", {key: read for key, (*_, (_, read)) in drawn.items()})
    terms, coordinates = pickle.dumps(target.terms), target.coordinates.tobytes()
    assert target == twin and terms == pickle.dumps(twin.terms)
    _assert_same_bits(target.coordinates, twin.coordinates)
    with tempfile.TemporaryDirectory() as directory:
        files = [Path(directory) / f"{name}.scheme.json" for name in ("target", "twin")]
        for t, path in zip((target, twin), files):
            schemes.save_scheme(Scheme("x", [(A, 1.0)], t, 1), path)
        assert files[0].read_bytes() == files[1].read_bytes()
    for pair in (_RANDOM4, _PAULI):
        _assert_same_bits(matform.target_matrix(target, pair, 0.3),
                          matform.target_matrix(twin, pair, 0.3))
    for key in raw:
        raw[key] = 5.0
    raw[(7, 18)] = 1.0
    assert pickle.dumps(target.terms) == terms and target.coordinates.tobytes() == coordinates


def test_target_rejects_out_of_range_terms():
    from commexp.conditions import TargetPolynomial

    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(8, 1): 1.0})
    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(7, 19): 1.0})
    assert TargetPolynomial("top", {(7, 18): 1.0}).vector(7)[-1] == 1.0
    with pytest.raises(ValueError):
        TargetPolynomial("bad", {(2, 2): 1.0})


@pytest.mark.parametrize("terms, message", [
    # min_degree raised "min() arg is an empty sequence" once a target of no
    # terms reached a bench curve
    ({}, "target 'bad' has no terms"),
    # a bare unpacking error, or a TypeError for a key of no length
    ({2: 1.0}, "target 'bad': key 2 is not a (degree, position) pair"),
    ({(2, 1, 3): 1.0}, "target 'bad': key (2, 1, 3) is not a (degree, position) pair"),
], ids=["empty", "int-key", "3-tuple-key"])
def test_target_refuses_no_terms_and_a_key_that_is_no_pair(terms, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TargetPolynomial("bad", terms)


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
    degree_seven = lie_project(scheme_log(*zip(*sch.pairs()), 7))[0][7]
    assert ee.leading_norm == pytest.approx(float(np.linalg.norm(degree_seven)), rel=1e-14)


def test_effective_error_of_raw_slots_asks_for_the_order():
    # a raw slot list has no order to default r to; with r given it is sized
    # from zero, as the Scheme of the same slots is when it has no target
    slots = [(Generator.A, 1.0), (Generator.B, 1.0)]
    with pytest.raises(ValueError, match="needs r"):
        effective_error(slots)
    ee = effective_error(slots, r=1)
    assert ee.order == 1 and ee.slot_count == 2
    assert ee.leading_norm == pytest.approx(0.5)


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


@pytest.mark.parametrize("check", [
    lambda tol: order_residuals(catalog_get("NCP10_4"), commutator_target(), 4, tol),
    lambda tol: cp_identities(catalog_get("NCP10_4"), tol=tol),
])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_order_checks_reject_a_tolerance_that_is_not_positive_and_finite(
        check, tol, monkeypatch):
    # an infinite tol would verify any scheme, and nan or -1 none
    def no_evaluation(*args):
        raise AssertionError("evaluated before the tolerance was checked")

    monkeypatch.setattr(conditions, "_lie_rows", no_evaluation)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        check(tol)


_RANDOM4 = matform.make_pair("random", 4, 1)

#: Every place a scalar from a caller is read: each reads it through
#: liealg._read_number, so a value past the largest float is refused as inf
#: is.
_NUMBER_BOUNDARIES = {
    "ExponentSlot": lambda v: ExponentSlot(A, v),
    "slot_pairs": lambda v: conditions.slot_pairs([(A, v)]),
    "slot_runs": lambda v: slot_runs([(B, 0.5), (A, v)]),
    "order_residuals coefficient": lambda v: order_residuals([(A, v)], commutator_target(), 2),
    "order_residuals tol": lambda v: order_residuals(catalog_get("NCP6_3"), commutator_target(),
                                                     3, tol=v),
    "effective_error": lambda v: effective_error([(A, v), (B, 1.0)], 2),
    "cp_expand": lambda v: cp_expand([v, 1.0], "positive"),
    "cp_identities tol": lambda v: cp_identities(catalog_get("NCP6_3"), tol=v),
    "refine tol": lambda v: refine(catalog_get("NCP6_3"), tol=v),
    "optimize_free_parameter range": lambda v: optimize_free_parameter(
        schemes.third_order_rows, 3, (0.4, v)),
    "evaluate_scheme coefficient": lambda v: matform.evaluate_scheme([(A, v)], _RANDOM4, 0.1),
    "evaluate_scheme t": lambda v: matform.evaluate_scheme(catalog_get("NCP6_3"), _RANDOM4, v),
    "evaluate_scheme t array": lambda v: matform.evaluate_scheme(
        catalog_get("NCP6_3"), _RANDOM4, np.array([0.1, v], dtype=object)),
    "target_matrix t": lambda v: matform.target_matrix(commutator_target(), _RANDOM4, v),
    "error_curve t_total": lambda v: bench.error_curve("NCP6_3", _RANDOM4, v, (1, 2)),
    "error_curve step count": lambda v: bench.error_curve("NCP6_3", _RANDOM4, 1.0, (1, v)),
    "gates_for_tolerance tol": lambda v: bench.gates_for_tolerance("NCP6_3", _RANDOM4, [0.5], v),
    "gates_for_tolerance n_cap": lambda v: bench.gates_for_tolerance(
        "NCP6_3", _RANDOM4, [0.5], 1e-4, n_cap=v),
}


@pytest.mark.parametrize("boundary", list(_NUMBER_BOUNDARIES))
def test_every_boundary_refuses_a_number_past_float_range_as_inf(boundary):
    # an int or Fraction past the largest float raised OverflowError at all
    # of these but ExponentSlot
    check = _NUMBER_BOUNDARIES[boundary]
    with pytest.raises(ValueError) as refused:
        check(math.inf)
    for huge in (10 ** 400, Fraction(10 ** 400)):
        with pytest.raises(ValueError) as caught:
            check(huge)
        assert str(caught.value) == str(refused.value)


_PAULI = matform.make_pair("pauli")
_NCP10_4 = catalog_get("NCP10_4")

#: Every array and family parameter a caller gives: each is read by
#: liealg._float_array or liealg._read_number, so a value past the largest
#: float is read as the infinity of its sign.
_ARRAY_BOUNDARIES = {
    "series_mul": lambda v: liealg.series_mul([1.0, v, 0.0], [1.0, 1.0, 1.0]),
    "series_log": lambda v: liealg.series_log([1.0, v, 0.0]),
    "scheme_log": lambda v: scheme_log([A, B], [v, 1.0], 3),
    "scheme_log complex": lambda v: scheme_log([A, B], [v, 1j], 3),
    "lie_project": lambda v: lie_project([v, 1.0, 0.0]),
    "_lie_jacobian": lambda v: liealg._lie_jacobian([A, B], [[v, 1.0]], 3),
    "cp_half_closure": lambda v: cp_half_closure([v, 1.0], "negative"),
    "sum_plus_commutator_target R": sum_plus_commutator_target,
    "third_order_rows c5": lambda v: schemes.third_order_rows([0.5, v]),
    "aor4_rows d2": lambda v: schemes.aor4_rows([0.5, v]),
    "phi3 R": schemes.phi3,
    "phi4 R": schemes.phi4,
    "phi4 c3": lambda v: schemes.phi4(1.0, v),
    "phi5 R": schemes.phi5,
    "OperatorPair": lambda v: matform.OperatorPair([[v, 0], [0, 1]], np.eye(2)),
    "expm": lambda v: matform.expm([[v, 0.0], [0.0, 1.0]]),
    "two_norm": lambda v: matform.two_norm([[v, 0.0], [0.0, 1.0]]),
    "two_norms": lambda v: matform.two_norms([[[v, 0.0], [0.0, 1.0]]]),
    "evaluate_scheme pauli t": lambda v: matform.evaluate_scheme(_NCP10_4, _PAULI, [0.1, v]),
    "evaluate_scheme random:4 t": lambda v: matform.evaluate_scheme(_NCP10_4, _RANDOM4, [0.1, v]),
    "target_matrix t": lambda v: matform.target_matrix(commutator_target(), _RANDOM4, [0.1, v]),
    "single_step_errors t": lambda v: bench.single_step_errors("NCP6_3", _RANDOM4, [0.1, v]),
}


def _outcome(call, value):
    """What ``call(value)`` gives: the type and message of what it raises,
    or its result as an array."""
    try:
        return np.asarray(call(value))
    except Exception as error:  # a numpy warning raised as an error included
        return type(error), str(error)


def _assert_same_outcome(actual, expected):
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert isinstance(actual, np.ndarray) and actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("boundary", list(_ARRAY_BOUNDARIES))
def test_every_array_boundary_reads_a_number_past_float_range_as_inf(boundary):
    # an int or Fraction past the largest float raised OverflowError at every
    # boundary but the step times, or gave an object array
    call = _ARRAY_BOUNDARIES[boundary]
    for huge, inf in ((10 ** 400, math.inf), (-10 ** 400, -math.inf),
                      (Fraction(10 ** 400), math.inf)):
        _assert_same_outcome(_outcome(call, huge), _outcome(call, inf))


#: Every public boundary that reads a number: each reads it through
#: liealg._read_number or liealg._float_array, which refuse text.  The step
#: count of error_curve is left out: liealg._read_integer reads it, which
#: refuses any non-integer as not an integer.
_TEXT_BOUNDARIES = {
    **{name: call for name, call in _NUMBER_BOUNDARIES.items()
       if name != "error_curve step count"},
    **_ARRAY_BOUNDARIES,
    "Scheme": lambda v: Scheme("x", [(A, v)], commutator_target(), 1),
    "compose scale": lambda v: schemes.compose([(catalog_get("NCP6_3"), v)]),
    "TargetPolynomial": lambda v: TargetPolynomial("t", {(2, 1): v}),
}


@pytest.mark.parametrize("text", ["0.5", b"0.5"])
@pytest.mark.parametrize("boundary", list(_TEXT_BOUNDARIES))
def test_every_boundary_refuses_a_number_written_as_text(boundary, text):
    # complex() and float() parsed a numeric string, so that "0.5" read as
    # 0.5 wherever a number was read
    with pytest.raises((TypeError, ValueError), match=re.escape(" is text, not a number")):
        _TEXT_BOUNDARIES[boundary](text)


@pytest.mark.parametrize("value", [None, {"re": 1}], ids=["None", "dict"])
@pytest.mark.parametrize("boundary", list(_TEXT_BOUNDARIES))
def test_every_boundary_refuses_a_value_that_is_no_number_by_its_repr(boundary, value):
    # float() and complex() raised their own TypeError, whose message offers
    # a string, which every boundary refuses as text
    with pytest.raises((TypeError, ValueError), match=re.escape(f"{value!r} is not a number")):
        _TEXT_BOUNDARIES[boundary](value)


#: The text boundaries that read a number on its own, not as an entry of an
#: array: numpy reads a bytearray or memoryview entry as a row of its bytes.
_ONE_NUMBER_BOUNDARIES = [name for name in _TEXT_BOUNDARIES if name not in _ARRAY_BOUNDARIES
                          or name in ("sum_plus_commutator_target R", "phi3 R", "phi4 R",
                                      "phi4 c3", "phi5 R")]


@pytest.mark.parametrize("text", [bytearray(b"0.5"), memoryview(b"0.5")],
                         ids=["bytearray", "memoryview"])
@pytest.mark.parametrize("boundary", _ONE_NUMBER_BOUNDARIES)
def test_every_boundary_refuses_a_bytes_like_number_as_text(boundary, text):
    # float() parsed a bytearray or memoryview as it parsed b"0.5", so that
    # order_residuals verified at tol=bytearray(b"0.5"), and numpy read one as
    # the step times 48, 46 and 53
    with pytest.raises((TypeError, ValueError), match=re.escape(" is text, not a number")):
        _TEXT_BOUNDARIES[boundary](text)


@pytest.mark.parametrize("call", [
    conditions.slot_pairs,
    lambda slots: order_residuals(slots, commutator_target(), 2),
    lambda slots: effective_error(slots, 2),
    lambda slots: matform.evaluate_scheme(slots, _RANDOM4, 0.1),
], ids=["slot_pairs", "order_residuals", "effective_error", "evaluate_scheme"])
def test_a_string_is_no_slot_entry(call):
    # "A1" unpacked into the pair ("A", "1"), read as (A, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "composition: slot 0: 'A1' is neither a slot nor a (generator, coefficient) pair")):
        call(["A1", "B2"])


@pytest.mark.parametrize("order, message", [
    (2.5, "order must be an integer, got 2.5"),
    (np.float64(2.0), "order must be an integer, got np.float64(2.0)"),
    (True, "order must be an integer, got True"),
    ("2", "order must be an integer, got '2'"),
    (0, "order must be at least 1, got 0"),
])
@pytest.mark.parametrize("call", [
    lambda r: Scheme("x", [(A, 1.0), (B, 1.0)], commutator_target(), r),
    lambda r: order_residuals(catalog_get("NCP6_3"), commutator_target(), r),
    lambda r: effective_error(catalog_get("NCP6_3"), r),
    lambda r: refine(catalog_get("NCP6_3"), r=r),
    lambda r: cp_condition_counts("negative", r),
    lambda r: optimize_free_parameter(schemes.third_order_rows, r, (0.4, 0.6)),
], ids=["Scheme", "order_residuals", "effective_error", "refine", "cp_condition_counts",
        "optimize_free_parameter"])
def test_an_order_is_an_integer_of_at_least_one(call, order, message):
    # Scheme took 2.5 and True, and the engine then raised TypeError on them
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(order)


def test_a_numpy_integer_is_an_order():
    u21 = catalog_get("U21")
    scheme = Scheme("x", u21.slots, u21.target, np.int64(2))
    assert order_residuals(scheme, scheme.target, scheme.order).verified_order == 2
    assert effective_error(scheme) == effective_error(u21)


#: Every integer a caller gives, each read by liealg._read_integer: (what
#: its message calls it, the call, an integer the call takes).
_INTEGER_BOUNDARIES = [
    ("order", lambda r: Scheme("x", [(A, 1.0), (B, 1.0)], commutator_target(), r), 2),
    ("step count", lambda n: bench.error_curve("NCP6_3", _RANDOM4, 1.0, (1, n)), 2),
    ("truncation", lambda truncation: scheme_log([A, B], [0.5, 1.0], truncation), 2),
    ("target degree", lambda degree: TargetPolynomial("t", {(degree, 1): 1.0}), 2),
    ("target position", lambda position: TargetPolynomial("t", {(3, position): 1.0}), 2),
    ("dim", lambda dim: matform.make_pair("random", dim, 1), 2),
    ("seed", lambda seed: matform.make_pair("random", 4, seed), 2),
    ("k", schemes.yoshida, 2),
    ("k", schemes.suzuki, 2),
    ("free slot", lambda i: refine(catalog_get("NCP6_3"), free_slots=[0, i]), 1),
]


@pytest.mark.parametrize("what, call, valid", _INTEGER_BOUNDARIES,
                         ids=["order", "step count", "truncation", "target degree",
                              "target position", "dim", "seed", "yoshida k", "suzuki k",
                              "free slot"])
def test_every_integer_boundary_reads_an_integer_and_refuses_the_rest(what, call, valid):
    # 2.0 and np.float64(2.0) were read as 2 or raised a bare TypeError or
    # IndexError, True was read as 1, and a numpy integer was kept, so a
    # scheme file could not be written
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))
    for value in (2.0, 2.5, True, "2", np.float64(2.0)):
        message = f"{what} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("family", [schemes.third_order_rows, schemes.aor4_rows])
@pytest.mark.parametrize("value", [1j, 1 + 0j, np.complex128(0.5 + 1j), np.complex64(0.5)])
def test_a_complex_family_parameter_is_refused_not_cut_to_its_real_part(family, value):
    # a numpy complex parameter lost its imaginary part to a ComplexWarning
    with pytest.raises(TypeError):
        family([0.5, value])


@pytest.mark.parametrize("call, value", [
    (schemes.phi3, np.complex128(2 + 1j)),
    (schemes.phi3, np.complex64(2)),
    (lambda v: order_residuals(catalog_get("NCP6_3"), commutator_target(), 3, tol=v),
     np.complex128(1e-3 + 5j)),
], ids=["phi3 R", "phi3 R imaginary part 0", "order_residuals tol"])
def test_a_float_reading_refuses_a_numpy_complex_as_a_python_complex(call, value):
    # phi3 built phi3(R=2) and order_residuals verified at tol 1e-3, each with
    # only a ComplexWarning
    with pytest.raises(TypeError) as refused:
        call(complex(value))
    with pytest.raises(TypeError) as caught:
        call(value)
    assert str(caught.value) == str(refused.value)


def test_a_float_reading_names_a_complex_as_no_real_number():
    # float()'s own message offered a string, which the reader refuses as text
    with pytest.raises(TypeError, match=re.escape("(2+1j) is not a real number")):
        schemes.phi3(np.complex128(2 + 1j))


#: Exact numbers within float range: Python ints, ints past numpy's integer
#: types, numpy ints and Fractions.
_EXACT_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(2 ** 63, 2 ** 70) | st.integers(-2 ** 70, -2 ** 63 - 1),
    st.integers(-3, 3).map(np.int64),
    st.fractions(-2, 2, max_denominator=1000),
)

#: The array reads of the property below: how many numbers each takes, and
#: the call on a list of them.
_ARRAY_READS = {
    "series_mul": (7, lambda v: liealg.series_mul(v, v[::-1])),
    "series_log": (6, lambda v: liealg.series_log([1] + v)),
    "scheme_log": (4, lambda v: scheme_log([A, B, A, B], v, 4)),
    "lie_project": (3, lambda v: np.concatenate(
        [*lie_project([0, v[0], v[1], 0, v[2], -v[2], 0])[0].values()])),
    "cp_half_closure": (3, lambda v: cp_half_closure(v, "negative")),
    "two_norm": (4, lambda v: matform.two_norm(np.reshape(v, (2, 2)))),
    "expm": (4, lambda v: matform.expm(np.reshape(v, (2, 2)))),
    "evaluate_scheme pauli t": (3, lambda v: matform.evaluate_scheme(_NCP10_4, _PAULI, v)),
    "evaluate_scheme random:4 t": (3, lambda v: matform.evaluate_scheme(_NCP10_4, _RANDOM4, v)),
    "target_matrix pauli t": (3, lambda v: matform.target_matrix(commutator_target(), _PAULI, v)),
    "target_matrix random:4 t": (3, lambda v: matform.target_matrix(commutator_target(),
                                                                     _RANDOM4, v)),
}


@pytest.mark.parametrize("read", list(_ARRAY_READS))
@settings(max_examples=30, deadline=None)
@given(values=st.lists(_EXACT_NUMBERS, min_size=7, max_size=7))
@example(values=[Fraction(1, 3), 2 ** 64, np.int64(-2), Fraction(-1, 7), 1, 2 ** 65, 0])
def test_exact_numbers_in_arrays_give_their_floats_results_bit_for_bit(read, values):
    # object arrays passed through series_mul and series_log, and Fraction
    # step times raised TypeError; a value the call refuses is refused alike
    size, call = _ARRAY_READS[read]
    exact = values[:size]
    actual, expected = _outcome(call, exact), _outcome(call, [float(x) for x in exact])
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert not isinstance(actual, tuple), actual
        _assert_same_bits(actual, expected)
        assert actual.dtype in (np.float64, np.complex128)


@pytest.mark.parametrize("check", [
    lambda: order_residuals([], commutator_target(), 2),
    lambda: effective_error([], 2),
    lambda: cp_identities([], "positive"),
])
def test_an_empty_composition_has_no_log_to_check(check):
    with pytest.raises(ValueError, match="at least one slot"):
        check()


def test_exact_coefficients_are_read_as_the_engine_reads_them():
    # Fractions and ints become float64, as in scheme_log, not an object array
    exact = [(A, Fraction(1, 2)), (B, 1), (A, Fraction(1, 2))]
    floats = [(A, 0.5), (B, 1.0), (A, 0.5)]
    assert effective_error(exact, 2) == effective_error(floats, 2)
    assert order_residuals(exact, sum_target(), 2).verified_order == 2
    assert cp_identities(exact, "positive") == cp_identities(floats, "positive")


_SLOT_COEFFICIENTS = st.one_of(
    st.floats(-1.5, 1.5, allow_nan=False),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
_SLOT_LISTS = st.lists(st.tuples(st.sampled_from([A, B]), _SLOT_COEFFICIENTS),
                       min_size=1, max_size=8)


def _reference_log(slots, truncation):
    """The basis coordinates through the public engine boundary, one log of
    the slots as slot_pairs reads them (1+0j as 1.0), as every checker does."""
    generators, coefficients = zip(*conditions.slot_pairs(slots))
    return lie_project(scheme_log(generators, coefficients, truncation), coefficients)[0]


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _reference_error(deviation: np.ndarray, r: int, slot_count: int):
    norm = float(np.linalg.norm(deviation))
    E = slot_count * norm ** (1.0 / r)
    return EffectiveError(E, E / slot_count, slot_count, r, norm)


@settings(max_examples=60, deadline=None)
@given(_SLOT_LISTS, st.integers(1, MAX_TRUNCATION - 1),
       st.sampled_from([commutator_target(), sum_target(), combined_target()]))
@example(slots=[(A, 1.0), (B, 1 + 0j)], r=3, target=commutator_target())
def test_order_residuals_and_effective_error_match_the_engine_boundary(slots, r, target):
    # the batch-of-one coordinates are those scheme_log and lie_project give,
    # bit for bit, and so are the residuals, verified order and E read off them
    ref = _reference_log(slots, r + 1)
    report = order_residuals(slots, target, r, tol=1e-3)
    for degree in range(1, r + 1):
        _assert_same_bits(report.residuals[degree],
                          np.abs(ref[degree] - target.vector(degree)))
    assert report.verified_order == next(
        (d - 1 for d in range(1, r + 1) if report.max_residual(d) > 1e-3), r)
    assert report.effective_error == _reference_error(
        ref[r + 1] - target.vector(r + 1), r, len(slots))
    assert effective_error(slots, r) == _reference_error(ref[r + 1], r, len(slots))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_SLOT_LISTS,
                 st.builds(lambda half, sign: cp_expand(half, sign).pairs(),
                           st.lists(_SLOT_COEFFICIENTS, min_size=2, max_size=5),
                           st.sampled_from(["positive", "negative"]))),
       st.sampled_from(["positive", "negative"]))
@example(slots=[(A, 1.0), (B, 1 + 0j)], sign="positive")
def test_cp_identities_match_the_engine_boundary(slots, sign):
    ref = _reference_log(slots, 6)
    expected = []
    for degree in range(1, 7):
        sides = _mirror_relation(1 if sign == "positive" else -1, degree)
        for pick, row, lhs, rhs in zip(*sides, *(sides @ ref[degree]).tolist()):
            left = np.flatnonzero(pick).item() + 1
            pieces = " ".join(f"{row[j]:+g}*w({degree},{j + 1})" for j in np.flatnonzero(row))
            expected.append((f"w({degree},{left}) = {pieces}", lhs, rhs,
                             abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))))
    assert cp_identities(slots, sign) == expected


@pytest.mark.parametrize("name,expected", [
    ("PCP12_4", ["w(1,1) = +1*w(1,2)", "w(3,1) = -1*w(3,2)", "w(4,1) = -1*w(4,3)",
                 "w(5,1) = +1*w(5,6)", "w(5,2) = +1*w(5,5)", "w(5,3) = -1*w(5,4)",
                 "w(6,1) = -1*w(6,9)", "w(6,2) = -1*w(6,8)", "w(6,3) = -1*w(6,7)",
                 "w(6,5) = +0.333333*w(6,4) -1*w(6,6)"]),
    ("NCP10_4", ["w(1,1) = -1*w(1,2)", "w(3,1) = +1*w(3,2)", "w(4,1) = -1*w(4,3)",
                 "w(5,1) = -1*w(5,6)", "w(5,2) = -1*w(5,5)", "w(5,3) = +1*w(5,4)",
                 "w(6,1) = -1*w(6,9)", "w(6,2) = -1*w(6,8)", "w(6,3) = -1*w(6,7)",
                 "w(6,5) = +0.333333*w(6,4) -1*w(6,6)"]),
])
def test_cp_identities_describe_each_identity_by_its_positions(name, expected):
    # one positive and one negative catalog scheme, every identity met
    checks = cp_identities(catalog_get(name))
    assert [c.description for c in checks] == expected
    assert all(c.satisfied for c in checks)


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
    raw = scheme_log(*zip(*slots), truncation)
    if runs:
        merged = scheme_log(*zip(*runs), truncation)
        np.testing.assert_allclose(merged, raw, rtol=0.0, atol=scale)
    else:
        assert np.linalg.norm(raw) <= scale
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


@pytest.mark.parametrize("sign", ["positive", "negative"])
@pytest.mark.parametrize("tail", [[0.5, 0.25], [0.3, -1.2, 0.7], [0.5 + 0.5j, -0.25]])
def test_cp_half_closure_has_one_type_for_both_signs(tail, sign):
    # a 1-D tail gives a numpy scalar of the tail's dtype, never a 0-d array,
    # and a (b, n) batch a 1-D array of b closures, each Python's sum closure
    one = cp_half_closure(tail, sign)
    assert type(one) is np.result_type(*tail).type
    assert one == _columns_closure(tail, sign)
    batch = cp_half_closure(np.array([tail, tail[::-1]]), sign)
    assert isinstance(batch, np.ndarray) and batch.shape == (2,)
    assert batch.tolist() == [_columns_closure(tail, sign), _columns_closure(tail[::-1], sign)]


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


def _columns_closure(tail, sign):
    """The closure as a Python ``sum`` from 0 over the tail's entries, which
    are scalars or columns: the reference for the row closure."""
    if sign == "positive":
        return -sum(tail)
    return sum(c if j % 2 == 0 else -c for j, c in enumerate(tail))


def _columns_mirror(half, s):
    """The mirrored pattern as one coefficient (scalar or column) per slot,
    ``half`` then ``s * c`` of the reversed half: the reference for the
    one-gather row map."""
    return list(half) + [s * c for c in reversed(half)]


_MIRROR_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                            st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_MIRROR_ENTRIES, min_size=1, max_size=8).flatmap(
           lambda v: st.tuples(st.just(np.array(v)), st.integers(1, len(v) + 1),
                               st.lists(st.lists(_MIRROR_ENTRIES, min_size=len(v),
                                                 max_size=len(v)),
                                        min_size=len(v) + 1, max_size=len(v) + 1))),
       st.sampled_from(["positive", "negative"]), st.booleans())
def test_mirrored_rows_equal_the_column_lists_bit_for_bit(case, sign, complex_step):
    # _cp_rows' rows, real or the complex-step oracle's v + i h I, as the
    # per-column lists built them: closure first, summed from 0 in order,
    # then the mirror, signed zeros included
    from commexp.conditions import _cp_rows

    v, b, others = case
    n = len(v)
    if complex_step:
        tails = np.vstack([v + 1j * COMPLEX_STEP * np.eye(n), v.astype(complex)])[:b]
    else:
        tails = np.array(others)[:b]
    columns = list(tails.T)
    s = 1 if sign == "positive" else -1
    expected = np.stack(_columns_mirror([_columns_closure(columns, sign), *columns], s), axis=1)
    _assert_same_bits(_cp_rows(tails, sign), expected)
    # each row's closure is its one-tail closure, summed as Python sums floats
    for row in tails.tolist():
        one = cp_half_closure(row, sign)
        assert complex(one).real.hex() == complex(_columns_closure(row, sign)).real.hex()
        assert complex(one).imag.hex() == complex(_columns_closure(row, sign)).imag.hex()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_MIRROR_ENTRIES, st.complex_numbers(max_magnitude=2.0,
                                                               allow_nan=False)),
                min_size=2, max_size=7),
       st.sampled_from(["positive", "negative"]))
def test_cp_expand_mirrors_as_the_scalar_list_did(half, sign):
    s = 1 if sign == "positive" else -1
    scheme = cp_expand(half, sign)
    assert [slot.generator for slot in scheme.slots] == [B, A] * len(half)
    expected = [ExponentSlot(A, c).coefficient for c in _columns_mirror(half, s)]
    got = [slot.coefficient for slot in scheme.slots]
    assert [(complex(c).real.hex(), complex(c).imag.hex()) for c in got] == \
        [(complex(c).real.hex(), complex(c).imag.hex()) for c in expected]
    # the inverse reads the half back (a half of zeros reads as either sign)
    assert scheme.cp_sign is not None and scheme.cp_half == tuple(got[:len(half)])


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


# The mirror identities as the paper states them through degree 6: degree,
# left position, [(right position, factor for the positive pattern, factor
# for the negative pattern), ...].
PAPER_IDENTITIES = [
    (1, 1, [(2, 1.0, -1.0)]),
    (3, 1, [(2, -1.0, 1.0)]),
    (4, 1, [(3, -1.0, -1.0)]),
    (5, 1, [(6, 1.0, -1.0)]),
    (5, 2, [(5, 1.0, -1.0)]),
    (5, 3, [(4, -1.0, 1.0)]),
    (6, 1, [(9, -1.0, -1.0)]),
    (6, 2, [(8, -1.0, -1.0)]),
    (6, 3, [(7, -1.0, -1.0)]),
    (6, 4, [(5, 3.0, 3.0), (6, 3.0, 3.0)]),
]


def _identity_rows(sides):
    """The identities of a degree's :func:`_mirror_relation` as rows r with r . w = 0."""
    return sides[0] - sides[1]


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_paper_identities_lie_in_the_derived_row_space(sign):
    s = 1 if sign == "positive" else -1
    for degree, left, combo in PAPER_IDENTITIES:
        paper = np.zeros(LIE_DIMS[degree - 1])
        paper[left - 1] = 1.0
        for right, fpos, fneg in combo:
            paper[right - 1] -= fpos if s > 0 else fneg
        derived = _identity_rows(_mirror_relation(s, degree))
        coefficients, *_ = np.linalg.lstsq(derived.T, paper, rcond=None)
        assert np.max(np.abs(derived.T @ coefficients - paper)) <= 1e-12


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_mirrored_logs_are_odd_under_the_letter_involution(sign, rng):
    # H phi(H)^-1 has a log Z with phi(Z) = -Z, degree by degree
    s = 1 if sign == "positive" else -1
    for _ in range(5):
        half = rng.uniform(-1.5, 1.5, 5)
        vectors, _ = lie_project(scheme_log(*zip(*cp_expand(half, sign).pairs()),
                                            MAX_TRUNCATION))
        for degree in range(1, MAX_TRUNCATION + 1):
            z = vectors[degree]
            image = _mirror_map(s, degree) @ z
            assert np.max(np.abs(image + z)) <= 2e-12 * max(1.0, np.max(np.abs(z)))


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_mirror_identities_solve_for_their_own_position(sign):
    # each kept row of phi + I is read as w(j, l) = ... for its diagonal l,
    # so no two identities at one degree share a left-hand side
    s = 1 if sign == "positive" else -1
    for degree in range(1, MAX_TRUNCATION + 1):
        sides = _mirror_relation(s, degree)
        lefts = [np.flatnonzero(pick).item() for pick in sides[0]]
        assert len(set(lefts)) == len(lefts)
        assert all(row[left] == 0 for left, row in zip(lefts, sides[1]))
        assert np.linalg.matrix_rank(_identity_rows(sides)) == len(lefts)


def test_cp_condition_counts_derived():
    for sign in ("positive", "negative"):
        assert cp_condition_counts(sign) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}
        assert cp_condition_counts(sign, MAX_TRUNCATION)[MAX_TRUNCATION] == 9


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_cp_condition_counts_rank(sign):
    # the free components are the kernel of phi + I
    s = 1 if sign == "positive" else -1
    for degree, count in cp_condition_counts(sign, MAX_TRUNCATION).items():
        dim = LIE_DIMS[degree - 1]
        assert count == dim - np.linalg.matrix_rank(_mirror_map(s, degree) + np.eye(dim))


def test_cp_condition_counts_reject_orders_past_the_ceiling():
    with pytest.raises(ValueError):
        cp_condition_counts("positive", MAX_TRUNCATION + 1)


# ---------------------------------------------------------------------------
# empirical order
# ---------------------------------------------------------------------------


def test_empirical_order_strang(pauli_pair):
    slope = empirical_order(catalog_get("strang"), pauli_pair)
    assert slope == pytest.approx(3.0, abs=0.1)


def test_empirical_order_needs_points_above_floor(pauli_pair):
    sch = catalog_get("strang")
    with pytest.raises(ValueError):
        empirical_order(sch, pauli_pair, t_grid=[1e-9, 2e-9, 4e-9])


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
    assert _mirror_sign(ncp, commutator_target(), 7) == "negative"  # identities at any degree
    assert _mirror_sign(ncp, sum_target(), 4) is None  # degree-1 part
    # negative mirrors force w(3,1) = w(3,2), which [A,[A,B]] alone breaks
    assert _mirror_sign(ncp, nested_aab_target(), 4) is None
    both = TargetPolynomial("both", {(2, 1): 1.0, (3, 1): 0.5, (3, 2): 0.5})
    assert _mirror_sign(ncp, both, 3) == "negative"
    assert _mirror_sign(catalog_get("strang"), commutator_target(), 4) is None


@pytest.mark.parametrize("name", ["NCP10_4", "PCP16_5"])
def test_mirror_sign_cache_gives_the_uncached_answer(name):
    # the mirror relation's product with a target is taken once per sign,
    # target and r; each answer, first and repeated, is the uncached one,
    # for both signs, on targets that hold and break the identities
    scheme = catalog_get(name)
    uncached = conditions._mirror_holds.__wrapped__
    targets = [commutator_target(), sum_target(), nested_aab_target(), nested_aaab_target(),
               combined_target(), sum_plus_commutator_target(2.0),
               TargetPolynomial("both", {(2, 1): 1.0, (3, 1): 0.5, (3, 2): 0.5}),
               TargetPolynomial("complex", {(2, 1): 1.0 - 0.5j, (4, 2): 2j})]
    answers = set()
    for target in targets:
        for r in range(1, 8):
            w = target.coordinates
            expected = (scheme.cp_sign if r >= 2 and uncached(scheme.cp_sign, r, w.tobytes(),
                                                              w.dtype.str) else None)
            assert _mirror_sign(scheme, target, r) == expected
            assert _mirror_sign(scheme, target, r) == expected
            answers.add(expected)
    assert answers == {scheme.cp_sign, None}


def test_refine_counts_mirror_conditions_at_order_7():
    # the mirrored path needs 1 + 1 + 2 + 3 + 5 + 9 conditions from degree 2,
    # not the 41 basis components of the general path
    with pytest.raises(ValueError, match="12 free coefficients cannot satisfy 21 conditions"):
        refine(catalog_get("PCP26_6"), r=7)


@pytest.mark.parametrize("r", [0, -1, MAX_TRUNCATION + 1])
@pytest.mark.parametrize("check", [
    lambda scheme, r: order_residuals(scheme, scheme.target, r),
    lambda scheme, r: effective_error(scheme, r),
    lambda scheme, r: refine(scheme, r=r),
], ids=["order_residuals", "effective_error", "refine"])
def test_orders_out_of_range_raise_value_error(check, r):
    with pytest.raises(ValueError, match="order"):
        check(catalog_get("NCP10_4"), r)


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
        forward, backward = residual_of(np.array([v + step, v - step]))
        columns.append((forward - backward) / (2 * step[i]))
    return np.column_stack(columns)


def _columnwise_jacobian(residual_of, v):
    """The complex-step Jacobian one stepped point (one b = 1 call) per column."""
    columns = []
    for i in range(len(v)):
        stepped = v.astype(np.complex128)
        stepped[i] += 1j * COMPLEX_STEP
        columns.append(residual_of(stepped[None])[0].imag / COMPLEX_STEP)
    return np.column_stack(columns)


def _assert_jacobians_agree(residual_of, v):
    exact = complex_step_jacobian(residual_of, v)
    approx = _central_difference_jacobian(residual_of, v)
    assert exact.dtype == np.float64
    assert np.max(np.abs(exact - approx)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))
    # one batched call gives each column exactly as its own call does
    np.testing.assert_array_equal(exact, _columnwise_jacobian(residual_of, v))


def _mirrored_residual(sign, target, r):
    """refine's mirrored residual on rows of half-pattern tails: each tail
    closed, mirrored and projected."""
    def residual_of(tails):
        rows = [[c for _, c in cp_expand([cp_half_closure(x, sign), *x], sign).pairs()]
                for x in tails]
        generators = [B if i % 2 == 0 else A for i in range(len(rows[0]))]
        return _residual(generators, np.array(rows), target, r)

    return residual_of


_unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.lists(_unit_floats, min_size=2, max_size=6),
       st.sampled_from(["positive", "negative"]), st.integers(2, 5))
def test_complex_step_jacobian_matches_central_differences_cp(tail, sign, r):
    _assert_jacobians_agree(_mirrored_residual(sign, commutator_target(), r), np.array(tail))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([A, B]), _unit_floats), min_size=1, max_size=8),
       st.sampled_from([commutator_target(), sum_target(), combined_target()]),
       st.integers(1, 5))
def test_complex_step_jacobian_matches_central_differences_general(slots, target, r):
    generators = [g for g, _ in slots]
    _assert_jacobians_agree(lambda rows: _residual(generators, rows, target, r),
                            np.array([c for _, c in slots]))


def test_residual_maps_rows_to_rows():
    sch = catalog_get("NCP10_4")
    generators = [g for g, _ in sch.pairs()]
    row = np.array([c for _, c in sch.pairs()])
    rows = np.array([row, 1.1 * row, row])
    out = _residual(generators, rows, sch.target, 4)
    assert out.shape == (3, sum(LIE_DIMS[:4]))
    np.testing.assert_array_equal(out[0], out[2])
    np.testing.assert_array_equal(out[1], _residual(generators, rows[1:2], sch.target, 4)[0])
    assert np.max(np.abs(out[0])) < 1e-13 < np.max(np.abs(out[1]))


def test_refine_rejects_repeated_free_slots():
    # seven copies of one index are one unknown, not seven
    with pytest.raises(ValueError, match="repeats"):
        refine(catalog_get("NCP10_4"), free_slots=[0] * 7)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_refine_rejects_a_tolerance_that_is_not_positive_and_finite(tol, monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("evaluated before the tolerance was checked")

    monkeypatch.setattr(conditions, "_lie_rows", no_evaluation)
    monkeypatch.setattr(conditions, "_lie_jacobian", no_evaluation)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        refine(catalog_get("NCP10_4"), tol=tol)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _unevaluated_family(params):
    raise AssertionError("the family was called before the arguments were checked")


def test_optimize_rejects_empty_range():
    with pytest.raises(ValueError, match="^empty parameter range$"):
        optimize_free_parameter(_unevaluated_family, 3, (1.0, 1.0))


@pytest.mark.parametrize("r,message", [
    (0, "order must be at least 1, got 0"),
    (7, "order 7 needs degree 8 > ceiling 7"),
    (9, "order 9 needs degree 10 > ceiling 7"),
])
def test_optimize_rejects_an_order_outside_the_engine(r, message):
    with pytest.raises(ValueError, match=message):
        optimize_free_parameter(_unevaluated_family, r, (0.6, 1.0))


@pytest.mark.parametrize("prange", [(-math.inf, 1.0), (0.6, math.inf), (math.nan, 1.0),
                                    (0.6, math.nan)])
def test_optimize_rejects_a_range_that_is_not_finite(prange):
    with pytest.raises(ValueError, match="parameter range needs finite bounds"):
        optimize_free_parameter(_unevaluated_family, 3, prange)


def _member_E(member, r):
    return order_residuals(member, member.target, r).effective_error.E


def test_optimize_grid_pass_scores_each_member_as_its_probe():
    # the batched grid (split into passes of 102 and 42 rows) scores each
    # member as its own order check does, bit for bit
    from commexp.conditions import _grid_scores

    for rows, member, r, prange in ((schemes.third_order_rows, third_order_family, 3, (0.4, 1.2)),
                                    (schemes.aor4_rows, schemes.aor4, 4, (0.1, 0.6))):
        xs = np.linspace(*prange, 129)
        assert _grid_scores(rows, xs, r).tolist() == [_member_E(member(p), r) for p in xs]


def test_optimize_scores_rows_with_a_zero_coefficient_slot(monkeypatch):
    # a leading exp(0 A) is the same product on a seven-slot sequence: E
    # counts the seven slots, as the member's own order check does, and the
    # minimizer stays where it is
    from commexp.conditions import _grid_scores

    def family(c5):
        generators, target, rows = schemes.third_order_rows(c5)
        return (A, *generators), target, np.hstack([np.zeros((len(rows), 1)), rows])

    def member(c5):
        base = third_order_family(c5)
        return dataclasses.replace(base, slots=(ExponentSlot(A, 0.0), *base.slots))

    xs = np.linspace(0.6, 1.0, 17)
    assert _grid_scores(family, xs, 3).tolist() == [_member_E(member(p), 3) for p in xs]
    monkeypatch.setattr(conditions, "_GRID_POINTS", 17)
    result = optimize_free_parameter(family, 3, (0.6, 1.0))
    assert result.param == pytest.approx(math.sqrt(2.0 / (math.sqrt(5.0) + 1.0)), abs=1e-7)
    assert result.E == _member_E(member(result.param), 3)


def test_optimize_names_the_first_failing_member(monkeypatch):
    # non-finite powers in the grid pass name the first failing member by its
    # parameter, from the row the engine error carries: one engine call
    calls = []

    def spy(generators, coefficients, truncation):
        calls.append(len(coefficients))
        return liealg._lie_rows(generators, coefficients, truncation)

    monkeypatch.setattr(conditions, "_lie_rows", spy)
    with pytest.raises(ValueError, match=r"^family member at parameter 7\.8125e\+297: "
                                         r"slot 0 coefficient -3\.90625e\+297"):
        optimize_free_parameter(schemes.aor4_rows, 4, (0.1, 1e300))
    assert calls == [129]


@pytest.mark.parametrize("rows,prange,message", [
    (schemes.third_order_rows, (-1.0, 1.0), "^c5 must be nonzero$"),
    (schemes.third_order_rows, (1e-310, 1.0), "^slot coefficient must be finite$"),
    (schemes.aor4_rows, (-1.0, 1.0), "^d2 must be positive$"),
])
def test_optimize_reports_a_parameter_the_family_refuses(rows, prange, message):
    with pytest.raises(ValueError, match=message):
        optimize_free_parameter(rows, 3, prange)


def test_optimize_flat_family_detected(monkeypatch):
    fixed = catalog_get("NCP6_3")
    generators, row = zip(*fixed.pairs())

    def family(params):
        return generators, fixed.target, np.tile(row, (len(params), 1))

    monkeypatch.setattr(conditions, "_GRID_POINTS", 17)
    result = optimize_free_parameter(family, 3, (0.0, 1.0))
    assert result.flat
    assert result.E == pytest.approx(effective_error(fixed).E)
    assert result.scored == 17 + 1  # the grid and the midpoint


def test_optimize_locates_family_minimum():
    result = optimize_free_parameter(schemes.third_order_rows, 3, (0.6, 1.0))
    assert not result.flat
    assert result.param == pytest.approx(math.sqrt(2.0 / (math.sqrt(5.0) + 1.0)),
                                         abs=1e-7)


def test_optimize_flags_minimum_at_range_edge(monkeypatch):
    # E of aor4 falls towards d2* = 0.302, below the range's lower end
    monkeypatch.setattr(conditions, "_GRID_POINTS", 17)
    result = optimize_free_parameter(schemes.aor4_rows, 4, (0.5, 2.0))
    assert result.at_edge
    assert result.param == pytest.approx(0.5, abs=1e-10)
    inside = optimize_free_parameter(schemes.aor4_rows, 4, (0.1, 0.6))
    assert not inside.at_edge
    assert inside.param == pytest.approx(schemes.AOR4_OPTIMAL_D2, abs=1e-7)


def test_optimize_result_keeps_its_four_field_form():
    assert conditions.OptimizeResult(0.5, 1.0, False, True).scored == 0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(objective, lo, hi, param_tol):
    """The optimizer's search before Brent's method, kept as the reference:
    golden-section contraction of [lo, hi] to ``param_tol``, then one more
    probe at the midpoint.  Returns that midpoint, its value and the probe
    count."""
    probes = 0

    def f(p):
        nonlocal probes
        probes += 1
        return objective(p)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > param_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    best = 0.5 * (lo + hi)
    return best, f(best), probes


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(0.05, 20.0),
    negative=st.booleans(),
    a=st.floats(1e-3, 1e3),
    quartic=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    floor=st.floats(1.0, 4.0),
    width=st.floats(1e-6, 1.0),
    left=st.floats(0.01, 0.99),
)
def test_brent_search_against_the_golden_section_reference(m, negative, a, quartic, floor,
                                                           width, left):
    # a smooth unimodal objective with its minimizer m inside the bracket;
    # its minimum c >= a m^2 makes a step of 2 tol = 2 sqrt(eps) |m| raise it
    # by a few ulps of c at most, so the two searches' values compare in ulps
    from commexp.conditions import _SQRT_EPS, _brent_minimize

    m = -m if negative else m
    b, c = quartic * a, floor * a * m * m
    lo, hi = m - left * width * abs(m), m + (1.0 - left) * width * abs(m)
    assume(lo < m < hi)
    probes = 0

    def objective(p):
        nonlocal probes
        probes += 1
        return a * (p - m) ** 2 + b * (p - m) ** 4 + c

    x0 = 0.5 * (lo + hi)
    # the start point counts as a probe here, where no grid scored it
    x, fx = _brent_minimize(objective, lo, hi, x0, objective(x0))
    brent_probes = probes
    _, ref_fx, ref_probes = _golden_section(objective, lo, hi, 1e-10)
    assert lo <= x <= hi
    assert abs(x - m) <= 2.0 * (_SQRT_EPS * abs(x) + 1e-10)
    assert fx == objective(x)
    assert fx <= ref_fx + 8 * np.spacing(ref_fx)
    assert brent_probes <= ref_probes


_CLI_FAMILIES = [
    (schemes.third_order_rows, third_order_family, 3, (0.4, 1.2),
     math.sqrt(2.0 / (math.sqrt(5.0) + 1.0))),
    (schemes.aor4_rows, schemes.aor4, 4, (0.1, 0.6), schemes.AOR4_OPTIMAL_D2),
]


@pytest.mark.parametrize("rows,member,r,prange,reference", _CLI_FAMILIES,
                         ids=["third_order", "aor4"])
def test_optimize_matches_scipy_bounded_brent(rows, member, r, prange, reference):
    import scipy.optimize

    result = optimize_free_parameter(rows, r, prange)
    oracle = scipy.optimize.minimize_scalar(
        lambda p: effective_error(member(p)).E, bounds=prange, method="bounded",
        options={"xatol": 1e-10})
    assert oracle.success
    assert abs(result.param - oracle.x) <= 1e-8
    assert abs(result.param - reference) <= 1e-8
    assert result.E <= oracle.fun + 8 * np.spacing(oracle.fun)


@pytest.mark.parametrize("rows,member,r,prange,reference", _CLI_FAMILIES,
                         ids=["third_order", "aor4"])
def test_optimize_probe_count_and_returned_score(rows, member, r, prange, reference):
    result = optimize_free_parameter(rows, r, prange)
    # the golden-section search scored 129 + 42 and 129 + 41 members here
    assert 129 < result.scored <= 129 + 15
    assert not result.at_edge and abs(result.param - reference) <= 1e-8
    # E is the returned member's own score, bit for bit
    assert result.E == _member_E(member(result.param), r)


def test_optimize_edge_minimum_builds_no_more_members_than_golden_section():
    from commexp.conditions import _grid_scores

    result = optimize_free_parameter(schemes.aor4_rows, 4, (0.5, 2.0))
    assert result.at_edge and result.param == 0.5
    # the golden-section search on the grid's edge bracket, as it ran before
    xs = np.linspace(0.5, 2.0, 129)

    def objective(p):
        return _grid_scores(schemes.aor4_rows, [p], 4)[0]

    _, _, golden_probes = _golden_section(objective, xs[0], xs[1], 1e-10)
    assert result.scored <= 129 + golden_probes
    assert result.E == objective(0.5) == _member_E(schemes.aor4(0.5), 4)


def test_optimize_propagates_order_violations(monkeypatch):
    def family(params):
        # claimed order 3 but genuinely order 2: conditions cannot hold
        p = np.asarray(params)
        return (A, B, A), commutator_target(), np.column_stack([p, np.ones_like(p), -p])

    monkeypatch.setattr(conditions, "_GRID_POINTS", 9)
    with pytest.raises(ValueError, match="^family member at parameter 0.5 violates order 3"):
        optimize_free_parameter(family, 3, (0.5, 1.5))


@pytest.mark.parametrize("shift,fails", [(3e-10, False), (3e-9, False), (2e-8, True),
                                         (1e-6, True)])
def test_optimize_holds_every_member_to_the_order_slack(shift, fails):
    # the first slot moved by `shift` leaves a degree-1 residual of `shift`:
    # a member passes at any residual up to 1e-8, past the order check's
    # own 1e-10, and fails above it, whatever the degree
    from commexp.conditions import _grid_scores

    def family(params):
        generators, target, rows = schemes.third_order_rows(params)
        rows[:, 0] += shift
        return generators, target, rows

    xs = np.linspace(0.6, 1.0, 5)
    if fails:
        with pytest.raises(ValueError, match=r"^family member at parameter 0.6 violates order 3 "
                                             rf"\(residual {shift:.3e}\)$"):
            _grid_scores(family, xs, 3)
    else:
        assert np.all(np.isfinite(_grid_scores(family, xs, 3)))


def _engine_passes(monkeypatch):
    """Spy on the engine: the (rows, slots, truncation, kind) of each
    ``_lie_rows`` pass, kind its rows' dtype kind, and of each
    ``_lie_jacobian`` call, kind "J"."""
    passes = []
    engines = {"_lie_rows": conditions._lie_rows, "_lie_jacobian": conditions._lie_jacobian}

    def spy(name):
        def call(generators, rows, truncation):
            kind = "J" if name == "_lie_jacobian" else rows.dtype.kind
            passes.append((len(rows), rows.shape[1], truncation, kind))
            return engines[name](generators, rows, truncation)
        return call

    for name in engines:
        monkeypatch.setattr(conditions, name, spy(name))
    return passes


@pytest.mark.parametrize("rows,prange,r,grid_passes,probes", [
    (schemes.third_order_rows, (0.4, 1.2), 3, [102, 27], 7),
    (schemes.aor4_rows, (0.1, 0.6), 4, [42, 42, 42, 3], 7),
    (schemes.aor4_rows, (0.5, 2.0), 4, [42, 42, 42, 3], 15),
], ids=["third_order", "aor4", "aor4-edge"])
def test_optimize_makes_the_engine_passes_it_made_on_schemes(monkeypatch, rows, prange, r,
                                                             grid_passes, probes):
    # the counts the Scheme-per-member optimizer made: the grid in passes of
    # _rows_per_pass rows, which _lie_rows now splits itself, then one-row
    # probes; and no slot object is built
    passes = []
    engine = liealg.scheme_log

    def spy(generators, rows, truncation):
        passes.append((len(rows), rows.shape[1], truncation, rows.dtype.kind))
        return engine(generators, rows, truncation)

    monkeypatch.setattr(liealg, "scheme_log", spy)
    slots = []
    monkeypatch.setattr(ExponentSlot, "__post_init__", lambda slot: slots.append(slot))
    result = optimize_free_parameter(rows, r, prange)
    assert [b for b, *_ in passes] == grid_passes + [1] * probes
    assert {(s, N, kind) for _, s, N, kind in passes} == {(6 if r == 3 else 9, r + 1, "f")}
    assert result.scored == 129 + probes
    assert slots == []


def _bumped_ncp10_4(size=1e-6):
    tail = np.array([float(c) for c in catalog_get("NCP10_4").cp_half[1:]])
    bumped = tail + size * np.array([1.0, -1.0, 1.0, -1.0])
    return cp_expand([cp_half_closure(bumped, "negative"), *bumped], "negative", order=4)


def _bumped_strang():
    base = catalog_get("strang")
    return Scheme("strang", tuple(ExponentSlot(s.generator, s.coefficient + d)
                                  for s, d in zip(base.slots, (1e-5, -1e-5, 1e-5))),
                  sum_target(), 2)


_F, _J = (1, 10, 4, "f"), (1, 10, 4, "J")


@pytest.mark.parametrize("start,free,expected", [
    (_bumped_ncp10_4, None, [_J, _F, _F]),
    (_bumped_strang, None, [(1, 3, 2, "J"), (1, 3, 2, "f")]),
    (lambda: catalog_get("PCP12_4"), range(1, 5), [(1, 12, 4, "J")]),
    # max|g| 5.1e-2 -> 1.7e-3 -> 6.5e-5 -> 7.8e-9 -> 2.2e-12 -> 1.0e-15: the
    # first two steps cut it by less than 100x, so J is formed again after each
    (lambda: _bumped_ncp10_4(1e-2), None, [_J, _F, _J, _F, _J, _F, _F, _F]),
], ids=["NCP10_4", "strang", "PCP12_4", "NCP10_4-far"])
def test_refine_makes_the_engine_passes_it_made_on_column_lists(monkeypatch, start, free,
                                                                expected):
    # one Jacobian call, which also gives that iterate's residual, at the
    # start and after each step that cut max|g| by less than 100x, and one
    # real row per other residual: a step that cuts it more leaves the next
    # a chord step
    passes = _engine_passes(monkeypatch)
    refine(start(), free_slots=free)
    assert passes == expected


def test_refine_counts_a_chord_step_as_an_iteration(monkeypatch):
    # the bumped NCP10_4 takes a Newton step, then a chord step on its J
    monkeypatch.setattr(conditions, "_MAX_STEPS", 2)
    refine(_bumped_ncp10_4())
    monkeypatch.setattr(conditions, "_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="no convergence after 1 iterations"):
        refine(_bumped_ncp10_4())


def test_refine_reports_a_last_residual_that_is_not_a_number(monkeypatch):
    # a step that lands where the log is nan (inf - inf past an overflow)
    # has not converged, though nan > tol is false: the start's Jacobian call
    # gives finite numbers, the residual after the first step nan
    passes = _engine_passes(monkeypatch)
    engine = conditions._lie_rows

    def nan_after_the_first_step(generators, rows, truncation):
        return np.full_like(engine(generators, rows, truncation), np.nan)

    monkeypatch.setattr(conditions, "_lie_rows", nan_after_the_first_step)
    monkeypatch.setattr(conditions, "_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"no convergence after 1 iterations \(residual nan\)"):
        refine(_bumped_ncp10_4())
    assert passes == [_J, _F]


def _newton_problem(scheme):
    """refine's unknowns for ``scheme``, every slot coefficient or a
    mirrored scheme's half-pattern tail, as a start; and the maps from rows
    of unknowns to slot coefficient rows and to refine's own residual."""
    target, r = scheme.target, scheme.order
    generators = [g for g, _ in scheme.pairs()]
    v = np.array([float(c) for _, c in scheme.pairs()])
    sign = _mirror_sign(scheme, target, r)
    if sign is not None:
        v = v[1:len(v) // 2]

    def rows_of(values):
        return values if sign is None else conditions._cp_rows(values, sign)

    def residual_of(values):
        return _residual(generators, rows_of(values), target, r)

    return v, rows_of, residual_of


def _full_newton(scheme, tol=1e-13, max_iter=50):
    """The Newton loop refine ran before it kept its Jacobian: a fresh
    complex-step J at every step, on every unknown of refine's own residual,
    one engine pass of complex rows, after a one-row pass for the residual.
    The polished slot coefficients, or None when the loop fails."""
    v, rows_of, residual_of = _newton_problem(scheme)
    g = residual_of(v[None])[0]
    for _ in range(max_iter):
        if np.max(np.abs(g)) <= tol:
            break
        if not np.all(np.isfinite(g)) or np.max(np.abs(g)) > 1e6:
            return None
        step, *_ = np.linalg.lstsq(complex_step_jacobian(residual_of, v), -g, rcond=None)
        v = v + step
        g = residual_of(v[None])[0]
    return rows_of(v[None])[0] if np.max(np.abs(g)) <= tol else None


#: The catalog schemes refine takes: PCP6_3_imaginary has complex
#: coefficients and yoshida4 fewer coefficients than order-4 conditions.
_REFINABLE = tuple(n for n in schemes.catalog_names() if n not in ("PCP6_3_imaginary", "yoshida4"))


def _perturbed(name, size, noise):
    """The catalog scheme with each free coefficient (a mirrored scheme's
    half, any other's slots) scaled by 1 + size * noise[i]."""
    base = catalog_get(name)
    if base.is_cp:
        half = [c * (1.0 + size * e) for c, e in zip(base.cp_half, noise)]
        return dataclasses.replace(base, slots=cp_expand(half, base.cp_sign).slots)
    return dataclasses.replace(base, slots=tuple(
        ExponentSlot(s.generator, s.coefficient * (1.0 + size * e))
        for s, e in zip(base.slots, noise)))


def _is_square(scheme):
    """Whether refine has exactly as many unknowns as independent conditions."""
    r = scheme.order
    sign = _mirror_sign(scheme, scheme.target, r)
    if sign is None:
        return len(scheme.slots) == sum(LIE_DIMS[:r])
    counts = cp_condition_counts(sign, r)
    return len(scheme.slots) // 2 - 1 == sum(counts[d] for d in range(2, r + 1))


@st.composite
def _perturbed_starts(draw):
    name = draw(st.sampled_from(_REFINABLE))
    n = len(catalog_get(name).slots)
    noise = draw(st.lists(_unit_floats, min_size=n, max_size=n))
    return _perturbed(name, draw(st.floats(0.0, 1e-4)), noise)


@settings(max_examples=40, deadline=None)
@given(_perturbed_starts())
# a chord step that cuts max|g| 75x near tol, where a fresh Jacobian costs
# more rows than the chord steps still to go
@example(_perturbed("PCP26_6", 8.005170392279994e-05, [0.0] * 5 + [0.5] + [0.0] * 5 + [1.0]
                    + [0.0] * 14))
def test_refine_matches_full_newton_near_a_root(start):
    with pytest.MonkeyPatch.context() as patch:
        passes = _engine_passes(patch)
        polished = np.array([c for _, c in refine(start).pairs()])
        refine_passes = passes[:]
        del passes[:]
        expected = _full_newton(start)
    assert expected is not None

    def work(passes):
        # Jacobians (refine's calls, full Newton's complex-step passes) and
        # one-row residual passes, the only passes either loop makes
        jacobians = sum(kind in "Jc" for *_, kind in passes)
        ones = sum(b == 1 and kind == "f" for b, *_, kind in passes)
        assert jacobians + ones == len(passes)
        return jacobians, ones

    # the work a chord step saves: it forms no Jacobian, and a call that
    # forms one also gives the residual that full Newton takes in a pass;
    # refine's first call forms one even at a start that meets tol
    (refine_jacobians, refine_ones), (newton_jacobians, newton_ones) = map(
        work, (refine_passes, passes))
    assert refine_jacobians <= max(newton_jacobians, 1)
    assert refine_jacobians + refine_ones <= newton_jacobians + newton_ones
    tol = 1e-13  # both loops' tolerance on max|g|
    met = [dataclasses.replace(start, slots=tuple(
        ExponentSlot(g, c) for (g, _), c in zip(start.pairs(), coefficients)))
        for coefficients in (polished, expected)]
    for scheme in met:
        assert order_residuals(scheme, scheme.target, scheme.order, tol=tol).all_satisfied()
    if _is_square(start):
        # two endpoints whose m residual components are each within tol lie,
        # to first order, within ||J^+||_2 2 tol sqrt(m) of each other in
        # the unknowns, J the Jacobian there; lstsq's minimum-norm steps on
        # a system that is not square may end at other points of the
        # manifold
        (u, _, _), (v, _, residual_of) = (_newton_problem(scheme) for scheme in met)
        J = complex_step_jacobian(residual_of, v)
        spread = np.linalg.norm(np.linalg.pinv(J), 2) * 2 * tol * math.sqrt(len(J))
        assert np.linalg.norm(u - v) <= spread


@pytest.mark.parametrize("size", [1e-3, 1e-2, 5e-2])
def test_refine_solves_every_start_full_newton_solves(size):
    rng = np.random.default_rng(7)
    for name in _REFINABLE:
        for _ in range(2):
            start = _perturbed(name, size, rng.uniform(-1.0, 1.0, len(catalog_get(name).slots)))
            if _full_newton(start) is None:
                continue
            polished = refine(start)
            assert order_residuals(polished, polished.target, polished.order,
                                   tol=1e-13).all_satisfied(), (name, size)


# ---------------------------------------------------------------------------
# closed-form cross-check
# ---------------------------------------------------------------------------


def test_ba_quadratic_coefficients_match_projection(rng):
    from series_oracle import ba_quadratic_coefficients
    from commexp.liealg import lie_project, scheme_log

    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        slots = tuple(
            ExponentSlot(B if i % 2 == 0 else A, c) for i, c in enumerate(coeffs)
        )
        scheme = Scheme("alt", slots, commutator_target(), 1)
        closed = ba_quadratic_coefficients(scheme)
        projected, _ = lie_project(scheme_log(*zip(*scheme.pairs()), 2))
        for (degree, pos), value in closed.items():
            assert projected[degree][pos - 1] == pytest.approx(value, abs=1e-13)
