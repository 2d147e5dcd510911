"""Tests for the composition catalog, parametrized families, and transforms."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commexp.conditions import (
    TargetPolynomial,
    commutator_target,
    cp_expand,
    cp_half_closure,
    order_residuals,
    refine,
    sum_target,
)
from commexp.liealg import MAX_TRUNCATION, Generator, Word, basis_build, letter_map
from commexp.schemes import (
    ABSTRACT,
    AOR4_OPTIMAL_D2,
    ExponentSlot,
    Scheme,
    aor4,
    catalog_get,
    catalog_names,
    combined5,
    load_scheme,
    nested4_50,
    phi3,
    phi4,
    phi5,
    save_scheme,
    substitute,
    suzuki,
    third_order_family,
    transform,
    yoshida,
    zass_sym22,
)
from commexp.schemes import _INTERCHANGE, _LETTER_MAPS

SQRT5 = math.sqrt(5.0)


def letter_sum(scheme, generator):
    return sum(s.coefficient for s in scheme.slots if s.generator == generator)


# ---------------------------------------------------------------------------
# slots and scheme basics
# ---------------------------------------------------------------------------


def test_slot_accepts_letter_strings():
    slot = ExponentSlot("A", 0.5)
    assert slot.generator is Generator.A
    assert not slot.is_abstract


def test_slot_normalizes_real_valued_complex():
    slot = ExponentSlot(Generator.B, complex(0.25, 0.0))
    assert isinstance(slot.coefficient, float)
    assert slot.coefficient == 0.25


def test_slot_keeps_genuinely_complex_coefficients():
    slot = ExponentSlot(Generator.A, 0.5j)
    assert isinstance(slot.coefficient, complex)
    assert slot.coefficient.imag == 0.5


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
def test_slot_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        ExponentSlot(Generator.A, bad)


def test_abstract_slot_marker():
    slot = ExponentSlot(ABSTRACT, 1.0)
    assert slot.is_abstract
    assert slot.generator == ABSTRACT


def test_scheme_requires_slots():
    with pytest.raises(ValueError):
        Scheme("empty", (), commutator_target(), 2)


def test_scheme_requires_positive_order():
    with pytest.raises(ValueError):
        Scheme("flat", (ExponentSlot(Generator.A, 1.0),), sum_target(), 0)


def test_template_refuses_pairs():
    template = Scheme(
        "tmpl",
        (ExponentSlot(Generator.A, 1.0), ExponentSlot(ABSTRACT, 0.5)),
        sum_target(),
        1,
    )
    assert template.is_template
    with pytest.raises(ValueError):
        template.pairs()


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
    assert not scheme.is_template


def test_catalog_get_unknown_name():
    with pytest.raises(KeyError):
        catalog_get("nosuch")


def test_catalog_returns_fresh_objects():
    assert catalog_get("strang") is not catalog_get("strang")


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
# substitution engine
# ---------------------------------------------------------------------------


def make_template(*coeffs, target=None, order=3):
    slots = tuple(ExponentSlot(ABSTRACT, c) for c in coeffs)
    return Scheme("tmpl", slots, target or commutator_target(), order)


def test_substitute_rejects_bad_homogeneity():
    outer = make_template(1.0)
    with pytest.raises(ValueError):
        substitute(outer, catalog_get("NCP6_3"), 4)


def test_substitute_identity_inner_short_circuits():
    outer = make_template(1.0, -2.0)
    identity = Scheme("tau", (ExponentSlot(ABSTRACT, 1.0),), commutator_target(), 9)
    assert substitute(outer, identity, 3) is outer


def test_substitute_cube_root_carries_sign():
    inner = catalog_get("NCP6_3")
    outer = make_template(-8.0)
    result = substitute(outer, inner, 3)
    got = [s.coefficient for s in result.slots]
    want = [-2.0 * s.coefficient for s in inner.slots]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert [s.generator for s in result.slots] == [s.generator for s in inner.slots]


def test_substitute_square_root_positive():
    inner = catalog_get("NCP6_3")
    outer = make_template(4.0)
    result = substitute(outer, inner, 2)
    got = [s.coefficient for s in result.slots]
    want = [2.0 * s.coefficient for s in inner.slots]
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_substitute_square_root_negative_swaps_letters():
    inner = catalog_get("NCP6_3")
    outer = make_template(-4.0)
    result = substitute(outer, inner, 2)
    got = [(s.generator, s.coefficient) for s in result.slots]
    want = [
        (Generator.A if s.generator == Generator.B else Generator.B,
         2.0 * s.coefficient)
        for s in inner.slots
    ]
    for (gg, gc), (wg, wc) in zip(got, want):
        assert gg == wg
        assert gc == pytest.approx(wc, rel=1e-15)


def test_substitute_square_root_negative_needs_commutator_inner():
    outer = make_template(-1.0, target=sum_target(), order=2)
    with pytest.raises(ValueError):
        substitute(outer, catalog_get("strang"), 2)


def test_substitute_square_root_negative_reads_the_target_terms():
    # the interchange must negate the inner target's terms, whatever its name
    ncp = catalog_get("NCP6_3")
    renamed = dataclasses.replace(ncp, target=TargetPolynomial("my_commutator", {(2, 1): 1.0}))
    outer = make_template(-4.0)
    assert substitute(outer, renamed, 2).slots == substitute(outer, ncp, 2).slots
    widened = dataclasses.replace(
        ncp, target=TargetPolynomial("commutator", {(1, 1): 1.0, (2, 1): 1.0}))
    with pytest.raises(ValueError, match="interchange negates"):
        substitute(outer, widened, 2)


def test_substitute_merges_same_generator_junctions():
    strang = catalog_get("strang")
    outer = Scheme(
        "wrap",
        (ExponentSlot(Generator.A, 1.0),
         ExponentSlot(ABSTRACT, 4.0),
         ExponentSlot(Generator.A, 1.0)),
        sum_target(),
        1,
    )
    merged = substitute(outer, strang, 2)
    assert merged.slot_count == 3
    assert merged.slots[0] == ExponentSlot(Generator.A, 2.0)
    unmerged = substitute(outer, strang, 2, merge=False)
    assert unmerged.slot_count == 5


def test_substitute_merges_across_a_cancelled_block():
    # A, [B, B^-1], A: the cancelled inner block lets the two A slots merge
    cancel = Scheme("cancel", (ExponentSlot(Generator.B, 1.0), ExponentSlot(Generator.B, -1.0)),
                    commutator_target(), 1)
    outer = Scheme("wrap", (ExponentSlot(Generator.A, 1.0), ExponentSlot(ABSTRACT, 1.0),
                            ExponentSlot(Generator.A, 1.0)), sum_target(), 1)
    merged = substitute(outer, cancel, 2)
    assert merged.slots == (ExponentSlot(Generator.A, 2.0),)
    assert substitute(outer, cancel, 2, merge=False).slot_count == 4


def test_substitute_metadata_defaults():
    inner = catalog_get("NCP6_3")
    outer = make_template(1.0, order=5)
    result = substitute(outer, inner, 3)
    assert result.name == "tmpl[NCP6_3]"
    assert result.order == 3  # min of outer and inner claims
    assert result.family == "extension"
    assert result.target is outer.target


# ---------------------------------------------------------------------------
# derived long compositions
# ---------------------------------------------------------------------------


def test_zass_sym22_structure():
    scheme = zass_sym22()
    assert scheme.slot_count == 22
    assert scheme.order == 4
    assert scheme.target.name == "sum"
    assert not scheme.is_template
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


def test_substitute_one_inner_per_abstract_slot():
    outer = Scheme("two", (ExponentSlot(ABSTRACT, 1.0), ExponentSlot(Generator.A, 1.0),
                           ExponentSlot(ABSTRACT, 8.0)), sum_target(), 4)
    first, second = aor4(0.5), aor4(AOR4_OPTIMAL_D2)
    result = substitute(outer, [first, second], 3, merge=False)
    assert result.slots == (first.slots + (ExponentSlot(Generator.A, 1.0),)
                            + second.scaled_slots(2.0))
    assert result.name == f"two[{first.name},{second.name}]"
    with pytest.raises(ValueError, match="2 abstract slots"):
        substitute(outer, [first], 3)


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


# the letter maps of the three transforms and the plain interchange
FOUR_MAPS = [*_LETTER_MAPS.values(), _INTERCHANGE]


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_ab_swap_basis_matrix_reproduces_swapped_words(degree):
    # ab-swap and the other letter maps, one word at a time: each letter X
    # becomes f_X times its image; the mapped basis elements must stay in
    # the span of the basis (Lie membership)
    basis = basis_build()
    m = basis.matrices[degree]
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


def test_transform_rejects_unknown_name():
    with pytest.raises(ValueError):
        transform(catalog_get("strang"), "time-reversal")
    with pytest.raises(ValueError):
        transform(catalog_get("strang"), "interchange")


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


def test_save_rejects_templates(tmp_path):
    template = Scheme(
        "tmpl", (ExponentSlot(ABSTRACT, 1.0),), commutator_target(), 1)
    with pytest.raises(ValueError):
        save_scheme(template, tmp_path / "tmpl.scheme.json")


def test_load_keeps_unknown_target_name(tmp_path):
    target = TargetPolynomial("mystery", {(2, 1): 0.25})
    scheme = Scheme("odd", (ExponentSlot(Generator.A, 1.0),), target, 1)
    path = tmp_path / "odd.scheme.json"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.target.name == "mystery"
    assert loaded.target.terms == {(2, 1): 0.25}


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
