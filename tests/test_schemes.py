"""Tests for the composition catalog, parametrized families, and transforms."""

import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commexp import conditions
from commexp.conditions import (
    TargetPolynomial,
    commutator_target,
    cp_expand,
    cp_half_closure,
    order_residuals,
    refine,
    slot_runs,
    sum_target,
)
from commexp.liealg import MAX_TRUNCATION, Generator, letter_map
from commexp.schemes import (
    AOR4_OPTIMAL_D2,
    ExponentSlot,
    Scheme,
    aor4,
    aor4_rows,
    catalog_get,
    catalog_names,
    combined5,
    compose,
    load_scheme,
    nested4_50,
    phi3,
    phi4,
    phi5,
    resolve,
    save_scheme,
    suzuki,
    third_order_family,
    third_order_rows,
    transform,
    yoshida,
    zass_sym22,
)
from commexp.schemes import _LETTER_MAPS
from series_oracle import Word, basis_blocks

SQRT5 = math.sqrt(5.0)


def letter_sum(scheme, generator):
    return sum(s.coefficient for s in scheme.slots if s.generator == generator)


# ---------------------------------------------------------------------------
# slots and scheme basics
# ---------------------------------------------------------------------------


def test_slot_accepts_letter_strings():
    slot = ExponentSlot("A", 0.5)
    assert slot.generator is Generator.A


def test_slot_normalizes_real_valued_complex():
    slot = ExponentSlot(Generator.B, complex(0.25, 0.0))
    assert isinstance(slot.coefficient, float)
    assert slot.coefficient == 0.25


def test_slot_keeps_genuinely_complex_coefficients():
    slot = ExponentSlot(Generator.A, 0.5j)
    assert isinstance(slot.coefficient, complex)
    assert slot.coefficient.imag == 0.5


#: An int beyond the largest float, which complex() refuses by OverflowError.
_HUGE = 10 ** 400


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1, math.inf),
                                 pytest.param(_HUGE, id="huge-int"),
                                 pytest.param(-_HUGE, id="negative-huge-int")])
def test_slot_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        ExponentSlot(Generator.A, bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1, math.inf),
                                 pytest.param(_HUGE, id="huge-int")])
def test_target_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="^target coefficients must be finite$"):
        TargetPolynomial("bad", {(2, 1): bad})


def test_scheme_requires_slots():
    with pytest.raises(ValueError):
        Scheme("empty", (), commutator_target(), 2)


def test_scheme_requires_positive_order():
    with pytest.raises(ValueError):
        Scheme("flat", (ExponentSlot(Generator.A, 1.0),), sum_target(), 0)


def _slot_bits(scheme):
    """Each slot's letter and its coefficient's type and shortest repr, which
    tell every finite float apart, -0.0 from 0.0 too."""
    return [(s.generator, type(s.coefficient), repr(s.coefficient)) for s in scheme.slots]


#: Ways of writing one (generator, coefficient) pair that read as one slot.
PAIR_FORMS = st.tuples(
    st.sampled_from([lambda g, c: (g, c), lambda g, c: [g, c]]),
    st.sampled_from([lambda g: g, lambda g: g.name, lambda g: g.value]),
    st.sampled_from([lambda c: c, complex, np.complex128]),
)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(catalog_names()), data=st.data())
def test_scheme_reads_pairs_as_the_slots_they_came_from(name, data):
    # a scheme built from a catalog scheme's (generator, coefficient) pairs,
    # each a tuple or a list, its letter a Generator, a name or a value and
    # its coefficient as it is, a complex or a numpy complex, has the
    # catalog scheme's slots bit for bit
    scheme = catalog_get(name)
    entries = []
    for slot in scheme.slots:
        pair, letter, number = data.draw(PAIR_FORMS)
        entries.append(pair(letter(slot.generator), number(slot.coefficient)))
    rebuilt = Scheme(scheme.name, entries, scheme.target, scheme.order)
    assert rebuilt.slots == scheme.slots
    assert _slot_bits(rebuilt) == _slot_bits(scheme)
    assert (rebuilt.cp_half, rebuilt.cp_sign) == (scheme.cp_half, scheme.cp_sign)


NOT_A_SLOT = "is neither a slot nor a (generator, coefficient) pair"


@pytest.mark.parametrize("entry, message", [
    (("C", 1.0), "slot 1: unknown generator 'C'"),
    (1.0, f"slot 1: 1.0 {NOT_A_SLOT}"),
    (("A", 1.0, 2.0), "slot 1: too many values to unpack (expected 2)"),
    (("A", math.nan), "slot 1: slot coefficient must be finite"),
    # operator.index reads True as 1, and this slot was a B slot
    ((True, 1.0), "slot 1: unknown generator True"),
], ids=["letter-C", "bare-float", "3-tuple", "nan", "bool-letter"])
def test_scheme_refuses_a_slot_at_construction(entry, message):
    with pytest.raises(ValueError, match=f"^{re.escape('bad: ' + message)}$"):
        Scheme("bad", [(Generator.B, 1.0), entry], commutator_target(), 2)


#: Letters of either kind: what a slot reads as A or B, and what it refuses
#: (a float stood in for the integer it equals).
_LETTERS = st.sampled_from([Generator.A, Generator.B, "A", "B", 0, 1, np.int64(1),
                            1.0, np.float64(0.0), "C", "a", 2, None])

#: Coefficients of either kind: numbers, non-finite ones and text.
_COEFFICIENTS = st.one_of(
    st.floats(), st.complex_numbers(), st.integers(-3, 3), st.fractions(-2, 2),
    st.sampled_from([np.float64(0.5), np.complex128(1j), "0.5", b"0.5", "1e3", None]))

#: Slot entries of every kind: slots, pairs as tuples and lists, strings,
#: 3-tuples and bare numbers.
_ENTRIES = st.one_of(
    st.builds(ExponentSlot, st.sampled_from([Generator.A, Generator.B]),
              st.floats(-2.0, 2.0)),
    st.tuples(_LETTERS, _COEFFICIENTS),
    st.tuples(_LETTERS, _COEFFICIENTS).map(list),
    st.sampled_from(["A1", "B2", "AB"]) | st.text(max_size=3),
    st.tuples(_LETTERS, _COEFFICIENTS, _COEFFICIENTS),
    st.floats() | st.integers(-3, 3),
)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_ENTRIES, min_size=1, max_size=4))
def test_slot_pairs_and_scheme_read_an_entry_alike(entries):
    # one slot reader: a Scheme accepts exactly the entries slot_pairs reads,
    # as the same slots, and refuses the others with the same message; a
    # Scheme's slots give slot_pairs their fields as they are
    try:
        pairs = conditions.slot_pairs(entries)
    except ValueError as refused:
        with pytest.raises(ValueError) as caught:
            Scheme("composition", entries, commutator_target(), 1)
        assert str(caught.value) == str(refused)
        return
    scheme = Scheme("composition", entries, commutator_target(), 1)
    assert [(s.generator, type(s.coefficient), repr(s.coefficient)) for s in scheme.slots] == \
        [(g, type(c), repr(c)) for g, c in pairs]
    if all(isinstance(entry, ExponentSlot) for entry in entries):
        assert all(slot is entry for slot, entry in zip(scheme.slots, entries))
    assert all(g is s.generator and c is s.coefficient
               for (g, c), s in zip(conditions.slot_pairs(scheme), scheme.slots))


def test_pairs_lists_generator_coefficient_tuples():
    u21 = catalog_get("U21")
    assert u21.pairs() == [
        (Generator.A, 1.0),
        (Generator.B, 1.0),
        (Generator.A, -1.0),
        (Generator.B, -1.0),
    ]


def test_scaled_slots():
    strang = catalog_get("strang")
    scaled = strang.scaled_slots(2.0)
    assert [s.coefficient for s in scaled] == [1.0, 2.0, 1.0]
    assert [s.generator for s in scaled] == [s.generator for s in strang.slots]


def test_cp_metadata_present_on_tabulated_schemes():
    ncp = catalog_get("NCP6_3")
    assert ncp.is_cp
    assert ncp.cp_sign == "negative"
    assert len(ncp.cp_half) == 3
    assert not catalog_get("strang").is_cp


def test_scheme_stores_only_its_slots_and_labels():
    assert [f.name for f in dataclasses.fields(Scheme)] == [
        "name", "slots", "target", "order", "family", "note"]
    ncp = catalog_get("NCP6_3")
    with pytest.raises(AttributeError):
        ncp.cp_sign = "positive"
    with pytest.raises(TypeError):
        Scheme("x", ncp.slots, commutator_target(), 3, cp_sign="negative")


# mirrored catalog schemes and their sign
MIRRORED = {"U22": "positive", "NCP6_3": "negative", "NCP10_4": "negative",
            "PCP16_5": "positive", "PCP26_6": "positive", "PCP12_4": "positive",
            "NCP18_5": "negative", "PCP6_3_imaginary": "positive"}
FLIPPED = {"positive": "negative", "negative": "positive"}


@pytest.mark.parametrize("name", catalog_names())
def test_mirror_pattern_read_from_slots_across_transforms(name):
    scheme = catalog_get(name)
    sign = MIRRORED.get(name)
    assert scheme.is_cp == (sign is not None)
    assert scheme.cp_sign == sign
    if sign is None:
        assert scheme.cp_half is None
        expected = {"negate-time": None, "imaginary-rotation": None, "ab-swap": None}
    else:
        half = scheme.cp_half
        m = scheme.slot_count // 2
        assert half == tuple(s.coefficient for s in scheme.slots[:m])
        expected = {
            "negate-time": (tuple(-c for c in half), sign),
            "imaginary-rotation": (tuple(c * (1j if i % 2 == 0 else -1j)
                                         for i, c in enumerate(half)), FLIPPED[sign]),
            "ab-swap": None,
        }
    if name in ("U21", "S2_chen"):
        # A1 B1 A-1 B-1 swaps to B1 A-1 B-1 A1: the positive pattern (1, -1)
        expected["ab-swap"] = ((1.0, -1.0), "positive")
    for which, pattern in expected.items():
        image = transform(scheme, which)
        assert image.is_cp == (pattern is not None)
        assert (image.cp_half, image.cp_sign) == (pattern or (None, None))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG_TABLE = [
    ("U21", 2, 4),
    ("U22", 2, 4),
    ("S2_chen", 2, 4),
    ("S3_chen", 3, 6),
    ("NCP6_3", 3, 6),
    ("NCP10_4", 4, 10),
    ("PCP16_5", 5, 16),
    ("PCP26_6", 6, 26),
    ("PCP12_4", 4, 12),
    ("NCP18_5", 5, 18),
    ("PCP6_3_imaginary", 3, 6),
    ("strang", 2, 3),
    ("fap8", 3, 8),
    ("aor4_opt", 4, 9),
    ("combined5", 3, 5),
    ("phi3", 2, 3),
    ("phi4", 2, 4),
    ("phi5", 3, 5),
    ("yoshida4", 4, 7),
    ("suzuki4", 4, 20),
    ("zass_sym22", 4, 22),
    ("nested4_50", 4, 50),
]


def test_catalog_names_complete_and_ordered():
    assert catalog_names() == [row[0] for row in CATALOG_TABLE]


@pytest.mark.parametrize("name,order,slot_count", CATALOG_TABLE)
def test_catalog_entry_shape(name, order, slot_count):
    scheme = catalog_get(name)
    assert scheme.order == order
    assert scheme.slot_count == slot_count


def test_catalog_get_unknown_name():
    with pytest.raises(KeyError):
        catalog_get("nosuch")


def test_catalog_returns_fresh_objects():
    assert catalog_get("strang") is not catalog_get("strang")


def test_resolve_takes_a_scheme_a_catalog_name_or_a_scheme_file(tmp_path, monkeypatch):
    scheme = catalog_get("NCP10_4")
    assert resolve(scheme) is scheme
    assert resolve("NCP10_4") == scheme and resolve("NCP10_4") is not scheme
    path = tmp_path / "ncp10.scheme.json"
    save_scheme(scheme, path)
    # a file carries no note; all else reads back as the catalog entry
    assert resolve(str(path)) == dataclasses.replace(scheme, note="")
    # a catalog name wins over a file of that name
    monkeypatch.chdir(tmp_path)
    save_scheme(catalog_get("strang"), tmp_path / "NCP10_4")
    assert resolve("NCP10_4") == scheme


def test_resolve_refuses_an_unknown_name_and_a_malformed_file(tmp_path):
    with pytest.raises(KeyError) as info:
        resolve("nosuch")
    message = info.value.args[0]
    for phrase in ("unknown scheme 'nosuch'", "neither a catalog scheme nor a scheme file",
                   "schemes list"):
        assert phrase in message
    path = tmp_path / "bad.scheme.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: missing field 'name'"):
        resolve(str(path))


def test_s2_chen_shares_u21_slots():
    assert catalog_get("S2_chen").slots == catalog_get("U21").slots


# ---------------------------------------------------------------------------
# third-order family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("branch,sgn", [("top", 1.0), ("bottom", -1.0)])
def test_family_closed_form_at_unit_parameter(branch, sgn):
    scheme = third_order_family(1.0, branch)
    coeffs = [s.coefficient for s in scheme.slots]
    expected = [
        (1.0 - sgn * SQRT5) / 2.0,
        (-1.0 + sgn * SQRT5) / 2.0,
        1.0,
        (-1.0 - sgn * SQRT5) / 2.0,
        (-3.0 + sgn * SQRT5) / 2.0,
        1.0,
    ]
    np.testing.assert_allclose(coeffs, expected, rtol=0, atol=1e-15)
    gens = [s.generator for s in scheme.slots]
    assert gens == [Generator.B, Generator.A] * 3


def test_family_rejects_zero_parameter():
    with pytest.raises(ValueError):
        third_order_family(0.0)


def test_family_rejects_unknown_branch():
    with pytest.raises(ValueError):
        third_order_family(1.0, "sideways")


def test_family_reaches_tabulated_six_exponential_scheme():
    c5 = -math.sqrt(2.0 / (SQRT5 + 1.0))
    member = third_order_family(c5, "top")
    tabulated = catalog_get("NCP6_3")
    got = [s.coefficient for s in member.slots]
    want = [s.coefficient for s in tabulated.slots]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_family_order_three_spot_check():
    scheme = third_order_family(0.37, "bottom")
    report = order_residuals(scheme, scheme.target, 3)
    assert report.all_satisfied()


def _third_order_scalars(c5, branch):
    """The family's coefficients as Python float arithmetic forms them, or
    the ValueError message of a parameter that names no member."""
    if c5 == 0:
        return "c5 must be nonzero"
    sgn = 1.0 if branch == "top" else -1.0
    return [(1.0 - sgn * SQRT5) / (2.0 * c5), c5 * (-1.0 + sgn * SQRT5) / 2.0, 1.0 / c5,
            c5 * (-1.0 - sgn * SQRT5) / 2.0, (-3.0 + sgn * SQRT5) / (2.0 * c5), c5]


def _aor4_scalars(d2, branch):
    if d2 <= 0:
        return "d2 must be positive"
    sgn = 1.0 if branch == "top" else -1.0
    d = (-d2 / 2.0, sgn / math.sqrt(d2), d2, -sgn / math.sqrt(d2), -d2)
    return [d[0], d[1], d[2], d[3], d[4], d[3], d[2], d[1], d[0]]


def _scalar_member(reference, p, branch):
    expected = reference(p, branch)
    if isinstance(expected, list) and not all(map(math.isfinite, expected)):
        return "slot coefficient must be finite"
    return expected


_FAMILY_PARAMETERS = st.one_of(
    st.floats(0.05, 2.0), st.floats(-2.0, -0.05),  # inside the CLI ranges, and mirrored
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf,
                     math.nan]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(third_order_rows, third_order_family, _third_order_scalars),
                        (aor4_rows, aor4, _aor4_scalars)]),
       st.lists(_FAMILY_PARAMETERS, min_size=1, max_size=5),
       st.sampled_from(["top", "bottom"]))
def test_family_rows_equal_the_scalar_coefficients(family, params, branch):
    # rows and constructor alike give the coefficients Python's float
    # arithmetic forms, bit for bit, or the constructor's ValueError
    rows_of, constructor, reference = family
    expected = [_scalar_member(reference, p, branch) for p in params]
    for p, member in zip(params, expected):
        if isinstance(member, str):
            with pytest.raises(ValueError, match=f"^{member}$"):
                constructor(p, branch)
            continue
        scheme = constructor(p, branch)
        assert [s.coefficient.hex() for s in scheme.slots] == [c.hex() for c in member]
        generators, target, rows = rows_of([p], branch)
        assert [s.generator for s in scheme.slots] == list(generators)
        assert target == scheme.target
    errors = [m for m in expected if isinstance(m, str)]
    if errors:
        # the parameter check comes before the finiteness check
        with pytest.raises(ValueError, match=f"^{min(errors, key=lambda m: 'finite' in m)}$"):
            rows_of(params, branch)
    else:
        rows = rows_of(np.array(params), branch)[2]
        assert rows.dtype == np.float64 and rows.shape == (len(params), len(expected[0]))
        assert [[c.hex() for c in row] for row in rows.tolist()] == \
            [[c.hex() for c in member] for member in expected]


def test_family_rows_refuse_an_unknown_branch():
    for rows_of in (third_order_rows, aor4_rows):
        with pytest.raises(ValueError, match="branch must be"):
            rows_of([0.5], "sideways")


# ---------------------------------------------------------------------------
# recursive sum splittings
# ---------------------------------------------------------------------------


def test_yoshida_shape_and_sums():
    scheme = yoshida(2)
    assert scheme.name == "yoshida4"
    assert scheme.slot_count == 7
    assert scheme.order == 4
    assert math.isclose(letter_sum(scheme, Generator.A), 1.0, abs_tol=1e-14)
    assert math.isclose(letter_sum(scheme, Generator.B), 1.0, abs_tol=1e-14)


def test_yoshida_rejects_small_k():
    with pytest.raises(ValueError):
        yoshida(1)


def test_yoshida_order_verified():
    scheme = yoshida(2)
    assert order_residuals(scheme, scheme.target, 4).all_satisfied()


def test_suzuki_shape_and_sums():
    scheme = suzuki(2)
    assert scheme.slot_count == 20
    assert scheme.order == 4
    assert math.isclose(letter_sum(scheme, Generator.A), 1.0, abs_tol=1e-13)
    assert math.isclose(letter_sum(scheme, Generator.B), 1.0, abs_tol=1e-13)
    # elementary-gate convention: no merging, counts scale by five per level
    assert suzuki(3).slot_count == 100


def test_suzuki_rejects_small_k():
    with pytest.raises(ValueError):
        suzuki(1)


# ---------------------------------------------------------------------------
# sum-plus-commutator splittings
# ---------------------------------------------------------------------------


def test_phi3_structure():
    scheme = phi3(2.0)
    assert scheme.slot_count == 3
    assert [s.generator for s in scheme.slots] == [Generator.B, Generator.A, Generator.B]
    assert math.isclose(scheme.slots[1].coefficient, 1.0)
    assert math.isclose(letter_sum(scheme, Generator.B), 1.0, abs_tol=1e-14)
    assert scheme.target.coefficient(2, 1) == pytest.approx(4.0)


def test_phi3_rejects_zero():
    with pytest.raises(ValueError):
        phi3(0.0)


def test_phi3_order_verified():
    scheme = phi3(0.5)
    assert order_residuals(scheme, scheme.target, 2).all_satisfied()


def test_phi4_structure():
    scheme = phi4(1.5, -0.4)
    assert scheme.slot_count == 4
    assert math.isclose(letter_sum(scheme, Generator.A), 1.0, abs_tol=1e-14)
    assert math.isclose(letter_sum(scheme, Generator.B), 1.0, abs_tol=1e-14)
    assert math.isclose(scheme.slots[-1].coefficient, -0.4 * 1.5)


@pytest.mark.parametrize("args", [(0.0,), (2.0, 0.5)])
def test_phi4_rejects_singular_parameters(args):
    with pytest.raises(ValueError):
        phi4(*args)


def test_phi5_real_above_threshold():
    scheme = phi5(1.0, "top")
    assert all(isinstance(s.coefficient, float) for s in scheme.slots)


def test_phi5_complex_below_threshold():
    scheme = phi5(0.5, "top")
    assert any(
        isinstance(s.coefficient, complex) and s.coefficient.imag != 0
        for s in scheme.slots
    )


def test_phi5_degree_one_sums_hold_in_both_modes():
    for R in (0.5, 1.0):
        scheme = phi5(R, "top")
        np.testing.assert_allclose(
            complex(letter_sum(scheme, Generator.A)), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            complex(letter_sum(scheme, Generator.B)), 1.0, atol=1e-12)


def test_phi5_rejections():
    with pytest.raises(ValueError):
        phi5(0.0)
    with pytest.raises(ValueError):
        phi5((1.0 / 12.0) ** 0.25)
    with pytest.raises(ValueError):
        phi5(1.0, "middle")


def test_phi5_branches_differ():
    top = phi5(1.0, "top")
    bottom = phi5(1.0, "bottom")
    assert top.slots != bottom.slots


# ---------------------------------------------------------------------------
# nested-commutator splittings
# ---------------------------------------------------------------------------


def test_aor4_palindromic_structure():
    scheme = aor4(0.7)
    assert scheme.slot_count == 9
    gens = [s.generator for s in scheme.slots]
    coeffs = [s.coefficient for s in scheme.slots]
    assert gens == [Generator.B, Generator.A] * 4 + [Generator.B]
    assert gens == gens[::-1]
    assert coeffs == coeffs[::-1]
    # degree-one cancellation: a pure third-degree target needs zero sums
    assert math.isclose(letter_sum(scheme, Generator.A), 0.0, abs_tol=1e-14)
    assert math.isclose(letter_sum(scheme, Generator.B), 0.0, abs_tol=1e-14)


@pytest.mark.parametrize("d2", [0.0, -0.3])
def test_aor4_rejects_nonpositive_parameter(d2):
    with pytest.raises(ValueError):
        aor4(d2)


def test_aor4_branch_flips_a_coefficients():
    top = aor4(0.7, "top")
    bottom = aor4(0.7, "bottom")
    for st, sb in zip(top.slots, bottom.slots):
        if st.generator == Generator.A:
            assert sb.coefficient == -st.coefficient
        else:
            assert sb.coefficient == st.coefficient


def test_aor4_optimal_parameter_closed_form():
    assert AOR4_OPTIMAL_D2 == pytest.approx(
        ((math.sqrt(1346.0) - 36.0) / 25.0) ** (1.0 / 3.0), abs=0)
    scheme = aor4(AOR4_OPTIMAL_D2)
    assert order_residuals(scheme, scheme.target, 4).all_satisfied()


def test_combined5_structure():
    scheme = combined5()
    alpha = math.sqrt(47.0 / 3.0)
    assert scheme.slot_count == 5
    assert scheme.order == 3
    assert scheme.target.name == "combined"
    assert math.isclose(scheme.slots[1].coefficient, 0.5 + alpha / 2.0)


# ---------------------------------------------------------------------------
# composition operator
# ---------------------------------------------------------------------------


A1, B1 = ExponentSlot(Generator.A, 1.0), ExponentSlot(Generator.B, 1.0)


def test_compose_refuses_a_weight_that_is_not_real():
    # a stage's time scale is real and finite: a complex one is neither
    # dropped (1j would make the block vanish) nor read by its real part
    with pytest.raises(ValueError, match="^stage 1: scale 1j is not real$"):
        compose([A1, (catalog_get("aor4_opt"), 1j), B1])
    with pytest.raises(ValueError,
                       match=f"^{re.escape('stage 0: scale (-0.5+0.25j) is not real')}$"):
        compose([(catalog_get("NCP6_3"), -0.5 + 0.25j)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^stage 0: scale must be finite$"):
            compose([(catalog_get("NCP6_3"), bad)])


def test_compose_refuses_what_is_no_stage():
    # a pair of letter and number raised AttributeError, a bare Scheme
    # TypeError, a scale written as text was parsed, and a block that
    # overflows was refused without its stage
    ncp6 = catalog_get("NCP6_3")
    for stages, message in [
        ([A1, ("A", 1.0)], "stage 1: 'A' is not a Scheme"),
        ([ncp6], "stage 0: cannot unpack non-iterable Scheme object"),
        ([(ncp6, 0.5), (ncp6, "0.5")], "stage 1: '0.5' is text, not a number"),
        ([(ncp6, 0.5, 1.0)], "stage 0: too many values to unpack (expected 2)"),
        ([(ncp6, 1.0), (catalog_get("PCP26_6"), 1e308)],
         "stage 1: slot coefficient must be finite"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compose(stages)


def test_substitute_cube_root_carries_sign():
    # a degree-3 block at weight -8 is the stage at scale -2, the real cube
    # root; it verifies order 4 against -8 times the target
    inner = catalog_get("aor4_opt")
    assert compose([(inner, -2.0)]) == inner.scaled_slots(-2.0)
    weighted = TargetPolynomial("-8*nested_aab", {key: -8.0 * v
                                                  for key, v in inner.target.terms.items()})
    assert order_residuals(compose([(inner, -2.0)]), weighted, 4).all_satisfied()


def test_substitute_square_root_positive():
    # a degree-2 block at weight 4 is the stage at scale 2, and so is one at
    # scale -2: a negative scale runs the scheme backwards, letters unchanged
    inner = catalog_get("NCP6_3")
    assert compose([(inner, 2.0)]) == inner.scaled_slots(2.0)
    assert compose([(inner, -2.0)]) == inner.scaled_slots(-2.0)
    weighted = TargetPolynomial("4*commutator", {(2, 1): 4.0})
    for tau in (2.0, -2.0):
        assert order_residuals(compose([(inner, tau)]), weighted, 3).all_satisfied()


def test_substitute_merges_same_generator_junctions():
    stages = [A1, (catalog_get("strang"), 2.0), A1]
    assert compose(stages) == (ExponentSlot(Generator.A, 2.0), ExponentSlot(Generator.B, 2.0),
                               ExponentSlot(Generator.A, 2.0))
    assert len(compose(stages, merge=False)) == 5


def test_substitute_merges_across_a_cancelled_block():
    # A, [B, B^-1], A: the cancelled block lets the two A slots merge
    cancel = Scheme("cancel", (B1, ExponentSlot(Generator.B, -1.0)), commutator_target(), 1)
    stages = [A1, (cancel, 1.0), A1]
    assert compose(stages) == (ExponentSlot(Generator.A, 2.0),)
    assert len(compose(stages, merge=False)) == 4


def test_compose_two_blocks_in_one_product():
    first, second = aor4(0.5), aor4(AOR4_OPTIMAL_D2)
    assert (compose([(first, 1.0), A1, (second, 2.0)], merge=False)
            == first.slots + (A1,) + second.scaled_slots(2.0))


def test_compose_runs_a_time_reversed_pair_one_order_higher():
    # S(t/sqrt2) S(-t/sqrt2): an NCP or PCP scheme's degree-(r+1) error is
    # odd in t and cancels, so the pair verifies order r + 1
    for name, runs, per_exponential in (("NCP10_4", 20, 0.4145), ("PCP12_4", 24, 0.3674)):
        scheme = catalog_get(name)
        pair = compose([(scheme, 2 ** -0.5), (scheme, -2 ** -0.5)])
        report = order_residuals(pair, scheme.target, scheme.order + 1)
        assert len(pair) == runs
        assert report.verified_order == scheme.order + 1
        assert report.effective_error.per_exponential == pytest.approx(per_exponential, abs=5e-5)


@pytest.mark.parametrize("name, runs", [("NCP6_3", 11), ("NCP10_4", 19), ("PCP12_4", 21),
                                        ("PCP16_5", 29), ("NCP18_5", 35), ("PCP26_6", 49)])
def test_compose_alternates_a_scheme_with_its_ab_swap(name, runs):
    # S(t/sqrt2) then ab-swap(S)(t/sqrt2): two half-weight commutator blocks
    # whose junction letters merge, of S's order
    scheme = catalog_get(name)
    pair = compose([(scheme, 2 ** -0.5), (transform(scheme, "ab-swap"), 2 ** -0.5)])
    assert len(pair) == runs
    assert order_residuals(pair, scheme.target, scheme.order).all_satisfied()


scales = st.builds(lambda size, sign: sign * size,
                   st.floats(1.0 / 16.0, 16.0), st.sampled_from((1.0, -1.0)))
stages = st.one_of(st.builds(ExponentSlot, st.sampled_from(Generator), scales),
                   st.tuples(st.sampled_from(catalog_names()).map(catalog_get), scales))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(catalog_names()), tau=scales, more=st.lists(stages, max_size=3))
@example(name="strang", tau=-16.0, more=[])
@example(name="combined5", tau=-0.75, more=[])
@example(name="phi4", tau=-3.0, more=[])
@example(name="nested4_50", tau=-2.5, more=[])
def test_compose_runs_each_stage_at_its_scale(name, tau, more):
    # a stage (S, tau) verifies S's order against S's target at tau t, each
    # degree-j term times tau^j, whatever degrees the target has; its
    # degree-j residuals are tau^j times S's own, so the tolerance grows as
    # |tau|^r; merging is slot_runs of the unmerged slots, one slot per slot
    # of the stages
    scheme = catalog_get(name)
    scaled = TargetPolynomial(f"{name}@{tau}", {(j, pos): tau ** j * v
                                                 for (j, pos), v in scheme.target.terms.items()})
    tol = 1e-10 * max(1.0, abs(tau)) ** scheme.order
    assert order_residuals(compose([(scheme, tau)]), scaled, scheme.order,
                           tol).all_satisfied()
    all_stages = [(scheme, tau), *more]
    unmerged = compose(all_stages, merge=False)
    assert len(unmerged) == sum(1 if isinstance(stage, ExponentSlot) else stage[0].slot_count
                                for stage in all_stages)
    assert compose(all_stages) == tuple(ExponentSlot(g, c) for g, c in slot_runs(unmerged))


# ---------------------------------------------------------------------------
# derived long compositions
# ---------------------------------------------------------------------------


def test_zass_sym22_structure():
    scheme = zass_sym22()
    assert scheme.slot_count == 22
    assert scheme.order == 4
    assert scheme.target.name == "sum"
    assert scheme.slots[0] == ExponentSlot(Generator.A, 0.5)
    assert scheme.slots[1] == ExponentSlot(Generator.B, 0.5)
    assert scheme.slots[-2] == ExponentSlot(Generator.B, 0.5)
    assert scheme.slots[-1] == ExponentSlot(Generator.A, 0.5)
    assert math.isclose(letter_sum(scheme, Generator.A), 1.0, abs_tol=1e-13)
    assert math.isclose(letter_sum(scheme, Generator.B), 1.0, abs_tol=1e-13)


def test_zass_sym22_matches_direct_substitution():
    # reference: the cube-root substitution written out slot by slot
    inner = aor4(AOR4_OPTIMAL_D2)
    expected = [ExponentSlot(Generator.A, 0.5), ExponentSlot(Generator.B, 0.5)]
    interchanged = [ExponentSlot(Generator.B if s.generator is Generator.A else Generator.A,
                                 s.coefficient) for s in inner.slots]
    for c, block in ((1.0 / 24.0, inner.slots), (-1.0 / 12.0, interchanged)):
        factor = math.copysign(abs(c) ** (1.0 / 3.0), c)
        expected.extend(ExponentSlot(s.generator, s.coefficient * factor) for s in block)
    expected += [ExponentSlot(Generator.B, 0.5), ExponentSlot(Generator.A, 0.5)]
    got = zass_sym22().slots
    assert [s.generator for s in got] == [s.generator for s in expected]
    assert [s.coefficient for s in got] == [s.coefficient for s in expected]
    assert zass_sym22().note == "symmetric product factorization with nested-commutator blocks"


def test_nested4_50_structure():
    scheme = nested4_50()
    assert scheme.slot_count == 50
    assert scheme.order == 4
    assert scheme.target.name == "nested_aaab"
    gens = [s.generator for s in scheme.slots]
    assert all(a != b for a, b in zip(gens, gens[1:]))


# ---------------------------------------------------------------------------
# symmetry transforms
# ---------------------------------------------------------------------------


def test_negate_time_flips_every_coefficient():
    ncp = catalog_get("NCP6_3")
    flipped = transform(ncp, "negate-time")
    got = [s.coefficient for s in flipped.slots]
    want = [-s.coefficient for s in ncp.slots]
    assert got == want
    # even-degree target is untouched; mirror metadata survives with flipped half
    assert flipped.target.terms == ncp.target.terms
    assert flipped.cp_sign == "negative"
    assert flipped.cp_half == tuple(-c for c in ncp.cp_half)


def test_negate_time_flips_odd_degree_target():
    strang = catalog_get("strang")
    flipped = transform(strang, "negate-time")
    assert flipped.target.coefficient(1, 1) == -1.0
    assert flipped.target.coefficient(1, 2) == -1.0


def test_imaginary_rotation_slots_and_mirror_sign():
    ncp = catalog_get("NCP6_3")
    rotated = transform(ncp, "imaginary-rotation")
    for old, new in zip(ncp.slots, rotated.slots):
        factor = 1j if old.generator == Generator.B else -1j
        assert new.coefficient == old.coefficient * factor
    # the commutator target is invariant under this rotation
    assert rotated.target.terms == ncp.target.terms
    assert rotated.cp_sign == "positive"


def test_ab_swap_turns_u22_into_u21():
    u22 = catalog_get("U22")
    swapped = transform(u22, "ab-swap")
    assert swapped.slots == catalog_get("U21").slots
    assert swapped.target.terms == catalog_get("U21").target.terms


# the letter maps of the four transforms
FOUR_MAPS = list(_LETTER_MAPS.values())


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_ab_swap_basis_matrix_reproduces_swapped_words(degree):
    # ab-swap and the other letter maps, one word at a time: each letter X
    # becomes f_X times its image; the mapped basis elements must stay in
    # the span of the basis (Lie membership)
    m = basis_blocks(degree)[0]
    for images in FOUR_MAPS:
        mapped = np.zeros(m.shape, dtype=np.complex128)
        for idx in range(1 << degree):
            letters = Word.from_index(degree, idx).letters
            image = Word(tuple(images[g][0] for g in letters))
            mapped[image.index] += math.prod(images[g][1] for g in letters) * m[idx]
        np.testing.assert_allclose(m @ letter_map(images, degree), mapped,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_ab_swap_basis_matrix_is_in_exact_thirds(degree):
    for images in FOUR_MAPS:
        matrix = letter_map(images, degree)
        assert not matrix.flags.writeable
        for part in (matrix.real, matrix.imag):
            thirds = 3.0 * part
            np.testing.assert_array_equal(thirds, np.round(thirds))
            assert set(thirds.ravel()) <= {-3.0, -1.0, 0.0, 1.0, 3.0}


def test_ab_swap_keeps_the_commutator_target_exactly():
    names = [n for n in catalog_names() if catalog_get(n).target.name == "commutator"]
    assert len(names) == 11
    for name in names:
        scheme = catalog_get(name)
        swapped = transform(scheme, "ab-swap")
        assert swapped.target is scheme.target
        assert swapped.target.terms == {(2, 1): 1.0}


@pytest.mark.parametrize("name", catalog_names())
def test_interchange_keeps_the_order_and_undoes_itself(name):
    # interchanging the letters of the slots and of the target alike keeps
    # the order, and interchanging twice gives the scheme back
    scheme = catalog_get(name)
    swapped = transform(scheme, "interchange")
    other = {Generator.A: Generator.B, Generator.B: Generator.A}
    assert swapped.slots == tuple(ExponentSlot(other[s.generator], s.coefficient)
                                  for s in scheme.slots)
    assert order_residuals(swapped, swapped.target, scheme.order).all_satisfied()
    back = transform(swapped, "interchange")
    assert back.slots == scheme.slots
    assert _slot_bits(back) == _slot_bits(scheme)
    assert back.target.terms == scheme.target.terms


@pytest.mark.parametrize("which", list(_LETTER_MAPS))
def test_transform_keeps_a_target_of_zero_weights(which):
    # its mapped terms, all zero, were dropped into a target of no terms
    scheme = Scheme("z", [("A", 1.0), ("B", 1.0)], TargetPolynomial("zero", {(2, 1): 0.0}), 1)
    assert transform(scheme, which).target is scheme.target


def test_transform_rejects_unknown_name():
    with pytest.raises(ValueError):
        transform(catalog_get("strang"), "time-reversal")


def test_catalog_imaginary_variant_matches_transform():
    direct = transform(catalog_get("NCP6_3"), "imaginary-rotation")
    assert catalog_get("PCP6_3_imaginary").slots == direct.slots


# ---------------------------------------------------------------------------
# scheme files
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_exact(tmp_path):
    scheme = catalog_get("NCP10_4")
    path = tmp_path / "ncp10.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.name == scheme.name
    assert loaded.order == scheme.order
    assert loaded.family == scheme.family
    assert [s.coefficient for s in loaded.slots] == [
        s.coefficient for s in scheme.slots]
    assert [s.generator for s in loaded.slots] == [
        s.generator for s in scheme.slots]
    assert loaded.target.name == scheme.target.name
    assert loaded.target.terms == scheme.target.terms


def test_save_load_roundtrip_complex(tmp_path):
    scheme = catalog_get("PCP6_3_imaginary")
    path = tmp_path / "pcp6i.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert [s.coefficient for s in loaded.slots] == [
        s.coefficient for s in scheme.slots]


def test_load_keeps_unknown_target_name(tmp_path):
    target = TargetPolynomial("mystery", {(2, 1): 0.25})
    scheme = Scheme("odd", (ExponentSlot(Generator.A, 1.0),), target, 1)
    path = tmp_path / "odd.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.target.name == "mystery"
    assert loaded.target.terms == {(2, 1): 0.25}


@pytest.mark.parametrize("name", ["NCP10_4", "PCP26_6", "strang"])
def test_scheme_reads_its_mirror_pattern_from_the_slots_once(name, monkeypatch):
    from commexp import conditions

    calls = []
    pattern = conditions.cp_pattern

    def spy(scheme):
        calls.append(scheme.name)
        return pattern(scheme)

    monkeypatch.setattr(conditions, "cp_pattern", spy)
    base = catalog_get(name)
    scheme = dataclasses.replace(base, slots=base.slots)  # a fresh instance
    for _ in range(2):
        assert (scheme.is_cp, scheme.cp_half, scheme.cp_sign) == (
            pattern(base)[1] is not None, *pattern(base))
    assert calls == [name]
    # a replaced scheme reads its own slots
    flipped = dataclasses.replace(scheme, slots=scheme.slots[::-1])
    assert flipped.cp_pattern == pattern(flipped) and calls == [name, name]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2, max_size=7),
       st.sampled_from(["positive", "negative"]))
def test_mirror_pattern_survives_a_file_round_trip(tmp_path_factory, half, sign):
    assume(any(c != 0 for c in half))  # an all-zero pattern carries no sign
    scheme = cp_expand(half, sign, order=2)
    path = tmp_path_factory.mktemp("mirror") / "cp.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.is_cp
    assert loaded.cp_sign == sign
    assert loaded.cp_half == tuple(half)
    assert loaded.family == scheme.family


def test_refine_keeps_a_reloaded_mirror_exact(tmp_path):
    base = catalog_get("NCP10_4")
    rng = random.Random(0)
    half = [c * (1.0 + 2e-5 * rng.uniform(-1.0, 1.0)) for c in base.cp_half]
    path = tmp_path / "perturbed.scheme.json"
    save_scheme(cp_expand(half, "negative", name="NCP10_4", order=4), path)
    polished = refine(load_scheme(path))
    assert polished.cp_sign == "negative"
    coeffs = [s.coefficient for s in polished.slots]
    defect = max(abs(a + b) for a, b in zip(coeffs, reversed(coeffs)))
    assert defect == 0.0
    assert order_residuals(polished, polished.target, 4, tol=1e-13).all_satisfied()
    assert (polished.name, polished.family, polished.target) == (
        "NCP10_4", "NCP", commutator_target())


def test_refine_reads_free_slots_of_a_reloaded_mirror_as_tail_indices(tmp_path):
    # the mirror pattern is read from the slots, so a reloaded NCP10_4 is
    # refined on its half-pattern: free_slots index its tail c1..c4
    base = catalog_get("NCP10_4")
    tail = [c * (1.0 + 1e-6 * (-1) ** i) for i, c in enumerate(base.cp_half[1:])]
    half = [cp_half_closure(tail, "negative"), *tail]
    path = tmp_path / "perturbed.scheme.json"
    save_scheme(cp_expand(half, "negative", name="NCP10_4", order=4), path)
    loaded = load_scheme(path)
    polished = refine(loaded, free_slots=range(4))
    fresh = refine(cp_expand(half, "negative", order=4), free_slots=range(4))
    assert polished.cp_half == fresh.cp_half
    np.testing.assert_allclose(polished.cp_half[1:], base.cp_half[1:], rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="out of range"):
        refine(loaded, free_slots=range(10))  # slot-list indices do not apply


def test_load_prefers_literal_terms_on_mismatch(tmp_path):
    # a file may claim a factory name while carrying different weights;
    # the stored numbers win
    target = TargetPolynomial("commutator", {(2, 1): 2.0})
    scheme = Scheme("doubled", (ExponentSlot(Generator.A, 1.0),), target, 1)
    path = tmp_path / "doubled.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.target.terms == {(2, 1): 2.0}


_SAVED = {"name": "x", "order": 2,
          "target": {"name": "commutator", "terms": [[2, 1, 1.0, 0.0]]},
          "slots": [{"generator": "A", "coefficient": 1.0},
                    {"generator": "B", "coefficient": -0.48586827175664576}]}


@pytest.mark.parametrize("change,field,message", [
    # a fractional index was truncated: this loaded as the term (2, 1)
    ({"target": {"name": "commutator", "terms": [[2.7, 1.9, 1.0, 0.0]]}},
     "target.terms[0]", ": target degree must be an integer, got 2.7"),
    # a bool was read as the coefficient 1.0
    ({"slots": [{"generator": "A", "coefficient": True}]},
     "slots[0].coefficient", "must be a number or [re, im]"),
    # a string was parsed as a float
    ({"slots": [{"generator": "A", "coefficient": 1.0},
                {"generator": "B", "coefficient": "-0.48586827175664576"}]},
     "slots[1].coefficient", ": '-0.48586827175664576' is text, not a number"),
    # a repeated term replaced the one before it
    ({"target": {"name": "commutator", "terms": [[2, 1, 1.0, 0.0], [2, 1, 2.0, 0.0]]}},
     "target.terms[1]", "repeats the term (2, 1)"),
    # ints beyond the largest float raised OverflowError, an internal error
    ({"slots": [{"generator": "A", "coefficient": _HUGE}]},
     "slots[0].coefficient", ": slot coefficient must be finite"),
    ({"slots": [{"generator": "A", "coefficient": [1.0, -_HUGE]}]},
     "slots[0].coefficient", ": slot coefficient must be finite"),
    ({"target": {"name": "commutator", "terms": [[2, 1, _HUGE, 0.0]]}},
     "target.terms[0]", ": target coefficients must be finite"),
], ids=["fractional-index", "bool-coefficient", "string-coefficient", "repeated-term",
        "huge-coefficient", "huge-imaginary-part", "huge-weight"])
def test_load_refuses_what_the_format_does_not_allow(tmp_path, change, field, message):
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps({**_SAVED, **change}), encoding="utf-8")
    with pytest.raises(ValueError) as error:
        load_scheme(path)
    # the format's own check, or a reader's reason after a colon
    assert str(error.value).startswith((f"{path}: field '{field}' ", f"{path}: field '{field}': "))
    assert message in str(error.value)
    # the document it was changed from loads
    path.write_text(json.dumps(_SAVED), encoding="utf-8")
    assert load_scheme(path).target.terms == {(2, 1): 1.0}


#: JSON values a file's slot coefficient may hold, allowed or not: floats (NaN
#: and the infinities among them), ints within and past float range, bools,
#: strings, null, and lists of any of these, [re, im] among them.
_JSON_NUMBERS = st.one_of(st.floats(), st.integers(-3, 3),
                          st.sampled_from([_HUGE, -_HUGE, True, False, "0.5", None]))
_JSON_COEFFICIENTS = st.one_of(_JSON_NUMBERS, st.lists(_JSON_NUMBERS, min_size=1, max_size=3))


def _library_entry(letter, coefficient):
    """The library pair a file's slot entry stands for: an ``[re, im]`` list
    as the complex of its parts, each read as a real slot coefficient."""
    if isinstance(coefficient, list) and len(coefficient) == 2:
        re_part, im_part = (ExponentSlot(Generator.A, part).coefficient for part in coefficient)
        return letter, complex(re_part, im_part)
    return letter, coefficient


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B", "C", 1, True, None]), _JSON_COEFFICIENTS),
                min_size=1, max_size=4))
def test_a_scheme_file_and_the_library_read_an_entry_alike(tmp_path_factory, entries):
    # the format allows a generator "A" or "B" and a coefficient that is no
    # bool, or a list of two items none a bool; what it allows loads exactly
    # when the library builds a Scheme of the same pairs, as that Scheme
    allowed = all(
        isinstance(letter, str) and letter in ("A", "B") and not isinstance(coefficient, bool)
        and (not isinstance(coefficient, list) or len(coefficient) == 2
             and not any(isinstance(part, bool) for part in coefficient))
        for letter, coefficient in entries)
    try:
        built = Scheme("x", [_library_entry(*entry) for entry in entries], commutator_target(), 2)
    except (TypeError, ValueError):
        built = None
    path = tmp_path_factory.mktemp("entries") / "x.scheme.json"
    path.write_text(json.dumps({**_SAVED, "slots": [
        {"generator": letter, "coefficient": coefficient} for letter, coefficient in entries]}),
        encoding="utf-8")
    if not allowed or built is None:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field 'slots\\[\\d+\\]"):
            load_scheme(path)
        return
    loaded = load_scheme(path)
    assert loaded == built
    assert [(s.generator, repr(s.coefficient)) for s in loaded.slots] == \
        [(s.generator, repr(s.coefficient)) for s in built.slots]


@pytest.mark.parametrize("name", ["NCP10_4", "strang", "aor4_opt", "PCP6_3_imaginary"])
def test_catalog_get_shares_one_build_that_use_leaves_as_built(name, capsys):
    from commexp import bench, cli, matform
    from commexp.schemes import _CATALOG

    scheme = catalog_get(name)
    assert scheme.slots is catalog_get(name).slots  # one build, shared
    assert cli.main(["verify", "--scheme", name]) == 0
    if name != "PCP6_3_imaginary":  # refine takes real coefficients only
        refine(scheme)
    bench.error_curve(scheme, matform.make_pair("pauli"), 1.0, [1, 2])
    assert scheme == catalog_get(name) == _CATALOG[name]()
