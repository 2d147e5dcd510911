"""Composition catalog, parametrized families, and slot-level transforms.

A composition ("scheme") is an ordered product of exponentials of the two
generators, each slot (an :class:`~commexp.conditions.ExponentSlot`, exported
here too) contributing exp(coefficient * t * generator).  This module collects
the tabulated counter-palindromic schemes, the classical recursive sum
splittings, the short special-purpose formulas for nested commutators, the
composition operator that builds products of schemes run at time scales (the
recursions and the nested-commutator constructions among them), and the
letter substitutions that map schemes into one another.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import conditions
from .conditions import (
    ExponentSlot,
    TargetPolynomial,
    _check_order,
    _finite_number,
    _read_number,
    combined_target,
    commutator_target,
    cp_expand,
    nested_aaab_target,
    nested_aab_target,
    sum_plus_commutator_target,
    sum_target,
)
from .liealg import Generator, _float_array, letter_map

__all__ = [
    "ExponentSlot",
    "Scheme",
    "catalog_get",
    "catalog_names",
    "resolve",
    "third_order_family",
    "third_order_rows",
    "yoshida",
    "suzuki",
    "phi3",
    "phi4",
    "phi5",
    "aor4",
    "aor4_rows",
    "AOR4_OPTIMAL_D2",
    "combined5",
    "compose",
    "zass_sym22",
    "nested4_50",
    "transform",
    "save_scheme",
    "load_scheme",
]

@dataclass(frozen=True)
class Scheme:
    """An ordered exponential product with its intended target and order.

    The slots are its only structure: the mirror pattern is read from them.
    Slots given all as :class:`ExponentSlot` are kept as they are; else each
    entry is read into one by :func:`~commexp.conditions.slot_pairs`, which
    names the index of an entry it refuses.  The order is an integer of at least 1.
    """

    name: str
    slots: tuple[ExponentSlot, ...]
    target: TargetPolynomial
    order: int
    family: str = "general"
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not all(type(slot) is ExponentSlot for slot in self.slots):
            slots = [ExponentSlot(*pair) for pair in conditions.slot_pairs(self)]
            object.__setattr__(self, "slots", tuple(slots))
        if not self.slots:
            raise ValueError("a scheme needs at least one slot")
        _check_order(self.order)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @cached_property
    def cp_pattern(self) -> tuple[tuple | None, str | None]:
        """:func:`~commexp.conditions.cp_pattern` of the slots, read once."""
        return conditions.cp_pattern(self)

    @property
    def is_cp(self) -> bool:
        """Whether the slots are mirrored."""
        return self.cp_sign is not None

    @property
    def cp_half(self) -> tuple | None:
        """The mirrored pattern's first-half coefficients (None if unmirrored)."""
        return self.cp_pattern[0]

    @property
    def cp_sign(self) -> str | None:
        """The mirrored pattern's sign, "positive" or "negative" (None if unmirrored)."""
        return self.cp_pattern[1]

    def pairs(self) -> list[tuple[Generator, complex]]:
        """Slot list in engine form."""
        return conditions.slot_pairs(self)

    def scaled_slots(self, factor: complex) -> tuple[ExponentSlot, ...]:
        return tuple(ExponentSlot(s.generator, _scaled(s.coefficient, factor)) for s in self.slots)


def _scaled(c: complex, factor: complex) -> complex:
    """``c * factor``, by a real factor each part of a complex c apart, so that a -0.0 stays."""
    apart = isinstance(c, complex) and not isinstance(factor, complex)
    return complex(c.real * factor, c.imag * factor) if apart else c * factor


def _branch_sign(branch: str) -> float:
    if branch not in ("top", "bottom"):
        raise ValueError(f"branch must be 'top' or 'bottom', got {branch!r}")
    return 1.0 if branch == "top" else -1.0


# --------------------------------------------------------------------------
# tabulated counter-palindromic schemes
# --------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)

# closed forms for the six-exponential third-order scheme
_NCP6_C1 = -math.sqrt(_SQRT5 - 2.0)
_NCP6_C2 = -math.sqrt(2.0 / (_SQRT5 - 1.0))

# tail coefficients c_1..c_m at full stored precision; c_0 follows from the
# closure relation that cancels both degree-1 sums
_CP_TAILS: dict[str, tuple[str, int, tuple[float, ...]]] = {
    "NCP6_3": ("negative", 3, (_NCP6_C1, _NCP6_C2)),
    "NCP10_4": ("negative", 4, (
        0.4920434066428167763156,
        -1.569846260451462851779,
        -0.0340560371300231615989,
        3.007307207357765662262,
    )),
    "PCP16_5": ("positive", 5, (
        0.2969175443796203417835,
        1.418243492034305431995,
        0.4347212029859471608694,
        -0.127142127469064995044,
        -2.014276365712093993010,
        0.8493401946712687892513,
        -0.305642216160471071886,
    )),
    "PCP26_6": ("positive", 6, (
        0.2464427486685065253599,
        0.437855533639627516106,
        -0.6290554972825559401392,
        -1.160402744300525331934,
        -0.5248160600039844378749,
        -0.2264322765760404736976,
        0.1165418804073705040233,
        0.4687839445292851414849,
        1.983312306755703005101,
        -0.9894918460835968618662,
        0.6722571007458945095097,
        -0.2387711966553848135336,
    )),
    "PCP12_4": ("positive", 4, (
        0.3263285743794757829237,
        -1.564170317916158642032,
        -0.0234725141740210902965,
        2.920816850699232751348,
        -0.8045459762846959202889,
    )),
    "NCP18_5": ("negative", 5, (
        -0.6410115692148225407946,
        0.3165189600901244909982,
        0.2075766074841999769730,
        -1.042459743800714071012,
        1.027769699504593533740,
        1.290831433928573680468,
        0.7061407649397449413288,
        0.253358191085494126186,
    )),
}


def _tabulated_cp(name: str) -> Scheme:
    sign, order, tail = _CP_TAILS[name]
    half = [conditions.cp_half_closure(tail, sign), *tail]
    return cp_expand(
        half, sign, name=name, order=order,
        note=f"{len(half) * 2}-exponential commutator approximation of order {order}",
    )


# --------------------------------------------------------------------------
# parametrized families and classical constructions
# --------------------------------------------------------------------------


#: The targets the row families share: one object each, so that its basis
#: vectors are built once for every call.
_COMMUTATOR = commutator_target()
_NESTED_AAB = nested_aab_target()

#: B, A, B, ... of the row families' fixed generator sequences.
_ALTERNATING = tuple(Generator.B if i % 2 == 0 else Generator.A for i in range(9))


def _checked_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, refused as :class:`ExponentSlot` refuses a coefficient
    unless every one is finite."""
    if not np.isfinite(rows).all():
        raise ValueError("slot coefficient must be finite")
    return rows


def third_order_rows(c5, branch: str = "top"
                     ) -> tuple[tuple[Generator, ...], TargetPolynomial, np.ndarray]:
    """The six-exponential third-order family as coefficient rows, one per
    parameter of the 1-D array ``c5``: the generators B, A, B, A, B, A, the
    commutator target and the (len(c5), 6) float64 rows.

    Each c5 must be nonzero and give finite coefficients (``ValueError``
    otherwise, as :func:`third_order_family` raises it); ``branch`` picks
    one of the two solutions.  A :data:`~commexp.conditions.RowFamily`
    for :func:`~commexp.conditions.optimize_free_parameter`.
    """
    # a complex c5 is refused (TypeError), never cut to its real part
    c5 = _float_array(c5).astype(np.float64, casting="safe", copy=False)
    if (c5 == 0).any():
        raise ValueError("c5 must be nonzero")
    sgn = _branch_sign(branch)
    rows = np.empty((len(c5), 6))
    with np.errstate(over="ignore"):  # _checked_rows refuses what overflows
        rows[:, 0] = (1.0 - sgn * _SQRT5) / (2.0 * c5)
        rows[:, 1] = c5 * (-1.0 + sgn * _SQRT5) / 2.0
        rows[:, 2] = 1.0 / c5
        rows[:, 3] = c5 * (-1.0 - sgn * _SQRT5) / 2.0
        rows[:, 4] = (-3.0 + sgn * _SQRT5) / (2.0 * c5)
    rows[:, 5] = c5
    return _ALTERNATING[:6], _COMMUTATOR, _checked_rows(rows)


def third_order_family(c5: float, branch: str = "top") -> Scheme:
    """The general six-exponential third-order commutator solution.

    One free parameter c5 != 0 and a two-fold branch choice; the remaining
    coefficients are fixed by the order conditions.  The slots are the one
    row of :func:`third_order_rows`, which raises the same ``ValueError``.
    """
    generators, target, rows = third_order_rows([c5], branch)
    return Scheme(
        name=f"third_order(c5={c5:g},{branch})",
        slots=zip(generators, rows[0].tolist()),
        target=target,
        order=3,
        family="general",
        note="one-parameter family of six-exponential third-order schemes",
    )


def yoshida(k: int) -> Scheme:
    """Triple-jump composition of order 2k built on the three-slot splitting.

    The slots are merged into runs, so e.g. k = 2 yields seven exponentials.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    weights = [1.0]
    for level in range(2, k + 1):
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * level - 1)))
        weights = [g * f for f in (gamma, 1.0 - 2.0 * gamma, gamma) for g in weights]
    strang = _strang()
    return Scheme(
        name=f"yoshida{2 * k}",
        slots=compose([(strang, w) for w in weights]),
        target=sum_target(),
        order=2 * k,
        family="recursion",
        note="triple-jump recursion over the symmetric second-order splitting",
    )


def suzuki(k: int) -> Scheme:
    """Quintuple-jump composition of order 2k in the gate-counting convention.

    Each second-order block is emitted as four half-coefficient exponentials
    (A, B, B, A) and no merging is performed, matching the elementary-gate
    count used in circuit implementations: 4 * 5^(k-1) exponentials.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    weights = [1.0]
    for level in range(2, k + 1):
        alpha = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * level - 1)))
        weights = [g * f
                   for f in (alpha, alpha, 1.0 - 4.0 * alpha, alpha, alpha)
                   for g in weights]
    block = Scheme("strang_gates", zip("ABBA", (0.5,) * 4), sum_target(), 2)
    return Scheme(
        name=f"suzuki{2 * k}",
        slots=compose([(block, w) for w in weights], merge=False),
        target=sum_target(),
        order=2 * k,
        family="recursion",
        note="quintuple-jump recursion, unmerged elementary-gate form",
    )


def phi3(R: float) -> Scheme:
    """Three-exponential order-2 scheme for the sum-plus-commutator target."""
    target, R = sum_plus_commutator_target(R), _read_number(R)  # the target refuses R = 0
    c0 = -(2.0 * R * R - 1.0) / (2.0 * R)
    c1 = 1.0 / R
    c2 = (2.0 * R * R + 1.0) / (2.0 * R)
    return Scheme(
        name=f"phi3(R={R:g})",
        slots=zip("BAB", (c0 * R, c1 * R, c2 * R)),
        target=target,
        order=2,
        family="general",
        note="minimal sum-plus-commutator splitting",
    )


def phi4(R: float, c3: float = -1.0) -> Scheme:
    """Four-exponential order-2 scheme with a free trailing coefficient."""
    target, R, c3 = sum_plus_commutator_target(R), _read_number(R), _read_number(c3)
    if R * c3 == 1.0:
        raise ValueError("R*c3 = 1 makes the coefficients singular")
    c0 = (2.0 * R * R + 2.0 * R * c3 - 1.0) / (2.0 * R * (R * c3 - 1.0))
    c1 = -(R * c3 - 1.0) / R
    c2 = -(2.0 * R * R + 1.0) / (2.0 * R * (R * c3 - 1.0))
    return Scheme(
        name=f"phi4(R={R:g},c3={c3:g})",
        slots=zip("BABA", (c0 * R, c1 * R, c2 * R, c3 * R)),
        target=target,
        order=2,
        family="general",
        note="sum-plus-commutator splitting with one free parameter",
    )


def phi5(R: float, branch: str = "top") -> Scheme:
    """Five-exponential order-3 scheme for the sum-plus-commutator target.

    Below R = (1/12)^(1/4) the discriminant turns negative and the
    coefficients come in complex-conjugate form (complex mode).
    """
    target, R = sum_plus_commutator_target(R), _read_number(R)  # the target refuses R = 0
    with np.errstate(over="ignore"):  # R ** k by libm's pow, but inf where float ** int raises
        R3, R4 = (float(np.float64(R) ** k) for k in (3, 4))
    if abs(12.0 * R4 - 1.0) < 1e-12:
        raise ValueError("12 R^4 = 1 makes the coefficients singular")
    sgn = _branch_sign(branch)
    delta = cmath.sqrt(3.0 * (12.0 * R4 - 1.0) * (36.0 * R4 + 1.0)) / 12.0
    c0 = (3.0 * R4 - R * R - sgn * delta + 0.25) / R
    c1 = (6.0 * R4 + sgn * 2.0 * delta - 0.5) / (R * (12.0 * R4 - 1.0))
    c2 = 1.0 / (2.0 * R) - 6.0 * R3
    c3 = (6.0 * R4 - sgn * 2.0 * delta - 0.5) / (R * (12.0 * R4 - 1.0))
    # note the +R^2: it is forced by the degree-1 condition c0+c2+c4 = 1/R
    c4 = (3.0 * R4 + R * R + sgn * delta + 0.25) / R
    coeffs = [c0, c1, c2, c3, c4]
    if all(abs(c.imag) < 1e-14 for c in map(complex, coeffs)):
        coeffs = [complex(c).real for c in coeffs]
    return Scheme(
        name=f"phi5(R={R:g},{branch})",
        slots=[(g, c * R) for g, c in zip("BABAB", coeffs)],
        target=target,
        order=3,
        family="general",
        note="third-order sum-plus-commutator splitting",
    )


AOR4_OPTIMAL_D2 = ((math.sqrt(1346.0) - 36.0) / 25.0) ** (1.0 / 3.0)


#: Slot j of an aor4 member takes coefficient d[_AOR4_INDEX[j]]: a palindrome.
_AOR4_INDEX = np.array([0, 1, 2, 3, 4, 3, 2, 1, 0])


def aor4_rows(d2, branch: str = "top"
              ) -> tuple[tuple[Generator, ...], TargetPolynomial, np.ndarray]:
    """The nine-exponential palindromic order-4 family as coefficient rows,
    one per parameter of the 1-D array ``d2``: the generators B, A, ..., B,
    the [A,[A,B]] target and the (len(d2), 9) float64 rows.

    Each d2 must be positive and give finite coefficients (``ValueError``
    otherwise, as :func:`aor4` raises it).  The five distinct coefficients
    d = (-d2/2, sgn/sqrt(d2), d2, -sgn/sqrt(d2), -d2) are mirrored into
    the nine slots by one gather.  A :data:`~commexp.conditions.RowFamily`
    for :func:`~commexp.conditions.optimize_free_parameter`.
    """
    # a complex d2 is refused (TypeError), never cut to its real part
    d2 = _float_array(d2).astype(np.float64, casting="safe", copy=False)
    if (d2 <= 0).any():
        raise ValueError("d2 must be positive")
    sgn = _branch_sign(branch)
    d = np.empty((len(d2), 5))
    d[:, 0] = -d2 / 2.0
    d[:, 1] = sgn / np.sqrt(d2)
    d[:, 2] = d2
    d[:, 3] = -sgn / np.sqrt(d2)
    d[:, 4] = -d2
    return _ALTERNATING, _NESTED_AAB, _checked_rows(d[:, _AOR4_INDEX])


def aor4(d2: float, branch: str = "top") -> Scheme:
    """Nine-exponential palindromic order-4 scheme for exp(t^3 [A,[A,B]]).

    One positive free parameter d2; the optimum sits at
    ``AOR4_OPTIMAL_D2``.  The slots are the one row of :func:`aor4_rows`,
    which raises the same ``ValueError``.
    """
    generators, target, rows = aor4_rows([d2], branch)
    return Scheme(
        name=f"aor4(d2={d2:g})",
        slots=zip(generators, rows[0].tolist()),
        target=target,
        order=4,
        family="palindromic",
        note="palindromic doubly-nested-commutator approximation",
    )


def combined5() -> Scheme:
    """Five exponentials reproducing sum + commutator + [A,[A,B]] to order 3."""
    alpha = math.sqrt(47.0 / 3.0)
    d = (-0.75 + alpha / 4.0, 0.5 + alpha / 2.0, 0.5, 0.5 - alpha / 2.0,
         1.25 - alpha / 4.0)
    return Scheme(
        name="combined5",
        slots=zip("BABAB", d),
        target=combined_target(),
        order=3,
        family="general",
        note="shortest splitting carrying sum, commutator and nested terms at once",
    )


# --------------------------------------------------------------------------
# composition operator and derived constructions
# --------------------------------------------------------------------------


def compose(stages: Iterable[ExponentSlot | tuple[Scheme, float]], *,
            merge: bool = True) -> tuple[ExponentSlot, ...]:
    """The slots of a product of stages, leftmost first.

    A stage is an :class:`ExponentSlot`, kept as it is, or a pair ``(scheme,
    scale)``: the scheme's slots times the real time scale tau, a block that
    approximates the scheme's target at tau t, each degree-j term times tau^j,
    for any target.  Any other stage, a scale not real and finite or a block
    that overflows raises ``ValueError`` naming the stage index.  Unless
    ``merge`` is false the slots become their runs (:func:`~commexp.conditions.slot_runs`).
    """
    slots = []
    for k, stage in enumerate(stages):
        if isinstance(stage, ExponentSlot):
            slots.append(stage)
            continue
        try:
            scheme, scale = stage
            if not isinstance(scheme, Scheme):
                raise TypeError(f"{scheme!r} is not a Scheme")
            tau = _finite_number(scale, "scale")
            if isinstance(tau, complex):
                raise ValueError(f"scale {scale!r} is not real")
            slots.extend(scheme.scaled_slots(tau))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"stage {k}: {exc}") from None
    if merge:
        return tuple(ExponentSlot(g, c) for g, c in conditions.slot_runs(slots))
    return tuple(slots)


def _cube_root(w: float) -> float:
    """The real cube root of ``w``: the time scale of a degree-3 block at weight w."""
    return math.copysign(abs(w) ** (1.0 / 3.0), w)


def zass_sym22() -> Scheme:
    """22-exponential order-4 realization of the symmetric two-term factorization.

    The central third-degree correction splits into a doubly nested
    [A,[A,B]] part (weight 1/24) realized by the nine-exponential
    palindromic scheme and its [B,[B,A]] counterpart (weight -1/12): the
    same block under the "interchange" :func:`transform`.  Each block is a
    stage at the real cube root of its weight as time scale.
    Slots are kept distinct — no merging — so the count reflects the
    elementary gates.
    """
    inner = aor4(AOR4_OPTIMAL_D2)
    half_a, half_b = ExponentSlot(Generator.A, 0.5), ExponentSlot(Generator.B, 0.5)
    return Scheme(
        name="zass_sym22",
        slots=compose([half_a, half_b, (inner, _cube_root(1.0 / 24.0)),
                       (transform(inner, "interchange"), _cube_root(-1.0 / 12.0)),
                       half_b, half_a], merge=False),
        target=sum_target(),
        order=4,
        family="extension",
        note="symmetric product factorization with nested-commutator blocks",
    )


def nested4_50() -> Scheme:
    """50-exponential order-4 approximation of exp(t^4 [A,[A,[A,B]]]).

    The ten-exponential fourth-order commutator scheme is written with its
    B-slots standing for the degree-3 operator t^2 [A,[A,B]], and each such
    slot is realized by the nine-exponential palindromic scheme, a stage at
    the real cube root of the slot's coefficient as time scale.  No adjacent
    slots share a generator, so the count is exactly 50 with or without
    merging.
    """
    inner = aor4(AOR4_OPTIMAL_D2)
    return Scheme(
        name="nested4_50",
        slots=compose((inner, _cube_root(s.coefficient)) if s.generator == Generator.B else s
                      for s in _tabulated_cp("NCP10_4").slots),
        target=nested_aaab_target(),
        order=4,
        family="extension",
        note=f"NCP10_4 with each B slot realized by {inner.name} "
             f"at the cube root of its coefficient",
    )


# --------------------------------------------------------------------------
# symmetry transforms
# --------------------------------------------------------------------------


#: Each transform is one substitution X -> factor * image of both letters:
#: entry g is the (image, factor) pair that replaces the letter g.
_LETTER_MAPS: dict[str, tuple[tuple[Generator, complex], ...]] = {
    "negate-time": ((Generator.A, -1.0), (Generator.B, -1.0)),
    "imaginary-rotation": ((Generator.A, -1j), (Generator.B, 1j)),
    "ab-swap": ((Generator.B, 1.0), (Generator.A, -1.0)),
    "interchange": ((Generator.B, 1.0), (Generator.A, 1.0)),
}


def transform(scheme: Scheme, which: str) -> Scheme:
    """Apply one of the four slot-level letter substitutions.

    Each substitutes both letters, X -> factor * image, in the slots and the
    target alike (``_LETTER_MAPS``; the target through
    :func:`~commexp.liealg.letter_map`).  negate-time: every coefficient
    changes sign (even-degree targets are untouched, odd degrees flip).
    imaginary-rotation: B coefficients pick up i, A coefficients -i (complex
    mode); a mirror pattern flips its sign.  ab-swap: the letters trade
    places with the A-image negated, turning a composition ending in A into
    one ending in B.  interchange: the letters trade places, coefficients
    unchanged, so [A,B] turns into [B,A] = -[A,B].

    A target the substitution leaves unchanged is kept as it is; any other
    becomes ``which(name)`` with its nonzero mapped terms.
    """
    try:
        images = _LETTER_MAPS[which]
    except KeyError:
        raise ValueError(f"unknown transform {which!r}") from None
    slots = [(images[g][0], _scaled(c, images[g][1])) for g, c in conditions.slot_pairs(scheme)]
    terms = {}
    for degree in sorted({degree for degree, _ in scheme.target.terms}):
        mapped = letter_map(images, degree) @ scheme.target.vector(degree)
        for pos, value in enumerate(map(complex, mapped), start=1):
            if value:
                terms[(degree, pos)] = value if value.imag else value.real
    target = scheme.target
    if terms != target.terms:
        target = TargetPolynomial(f"{which}({target.name})", terms)
    return replace(scheme, name=f"{which}({scheme.name})", slots=slots, target=target)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def _u21() -> Scheme:
    return Scheme(
        name="U21",
        slots=zip("ABAB", (1.0, 1.0, -1.0, -1.0)),
        target=commutator_target(),
        order=2,
        family="general",
        note="four-exponential group commutator, letters in A-first order",
    )


def _u22() -> Scheme:
    return cp_expand([-1.0, 1.0], "positive", name="U22", order=2,
                     note="four-exponential group commutator, letters in B-first order")


def _s2_chen() -> Scheme:
    return replace(_u21(), name="S2_chen",
                   note="second-order baseline commutator scheme")


def _s3_chen() -> Scheme:
    scheme = third_order_family(1.0, "top")
    return replace(scheme, name="S3_chen",
                   note="third-order baseline commutator scheme (family at c5=1)")


def _pcp6_3_imaginary() -> Scheme:
    scheme = transform(_tabulated_cp("NCP6_3"), "imaginary-rotation")
    return replace(scheme, name="PCP6_3_imaginary",
                   note="pure-imaginary mirrored variant of the six-exponential scheme")


def _strang() -> Scheme:
    return Scheme(
        name="strang",
        slots=zip("ABA", (0.5, 1.0, 0.5)),
        target=sum_target(),
        order=2,
        family="palindromic",
        note="symmetric second-order sum splitting",
    )


def _fap8() -> Scheme:
    signs = [1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    return Scheme(
        name="fap8",
        slots=zip("AB" * 4, signs),
        target=nested_aab_target(),
        order=3,
        family="general",
        note="eight-exponential unit-coefficient nested-commutator formula",
    )


_CATALOG: dict[str, Callable[[], Scheme]] = {
    "U21": _u21,
    "U22": _u22,
    "S2_chen": _s2_chen,
    "S3_chen": _s3_chen,
    "NCP6_3": lambda: _tabulated_cp("NCP6_3"),
    "NCP10_4": lambda: _tabulated_cp("NCP10_4"),
    "PCP16_5": lambda: _tabulated_cp("PCP16_5"),
    "PCP26_6": lambda: _tabulated_cp("PCP26_6"),
    "PCP12_4": lambda: _tabulated_cp("PCP12_4"),
    "NCP18_5": lambda: _tabulated_cp("NCP18_5"),
    "PCP6_3_imaginary": _pcp6_3_imaginary,
    "strang": _strang,
    "fap8": _fap8,
    "aor4_opt": lambda: replace(aor4(AOR4_OPTIMAL_D2), name="aor4_opt"),
    "combined5": combined5,
    "phi3": lambda: phi3(1.0),
    "phi4": lambda: phi4(1.0, -1.0),
    "phi5": lambda: phi5(1.0, "top"),
    "yoshida4": lambda: yoshida(2),
    "suzuki4": lambda: suzuki(2),
    "zass_sym22": zass_sym22,
    "nested4_50": nested4_50,
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_get(name: str) -> Scheme:
    """Look up a catalog scheme by name (parametrized entries at defaults).

    Each entry is built once; a call returns a fresh copy of that build,
    which shares its frozen slots and target.
    """
    return copy.copy(_catalog_build(name))


def resolve(spec: Scheme | str) -> Scheme:
    """The scheme a command or a table entry names: a :class:`Scheme` as it
    is; for a string, the catalog entry of that name, else the scheme file
    at that path (:func:`load_scheme`, whose ``ValueError`` propagates).
    Any other string raises ``KeyError``."""
    if isinstance(spec, Scheme):
        return spec
    if spec in _CATALOG:
        return catalog_get(spec)
    if Path(spec).exists():
        return load_scheme(spec)
    raise KeyError(f"unknown scheme {spec!r}: neither a catalog scheme nor a scheme file; "
                   f"run 'commexp schemes list' for the catalog")


@lru_cache(maxsize=None)
def _catalog_build(name: str) -> Scheme:
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; see catalog_names()") from None
    return factory()


# --------------------------------------------------------------------------
# scheme files
# --------------------------------------------------------------------------


def save_scheme(scheme: Scheme, path) -> None:
    """Serialize to the .scheme.json format, each float as its shortest
    repr, which reads back as the same float."""
    doc = {
        "name": scheme.name,
        "target": {
            "name": scheme.target.name,
            "terms": [
                [degree, pos, complex(w).real, complex(w).imag]
                for (degree, pos), w in sorted(scheme.target.terms.items())
            ],
        },
        "order": scheme.order,
        "family": scheme.family,
        "slots": [
            # a slot's coefficient is a float, or a complex of nonzero imaginary part
            {"generator": slot.generator.name, "coefficient": (
                [slot.coefficient.real, slot.coefficient.imag]
                if isinstance(slot.coefficient, complex) else slot.coefficient)}
            for slot in scheme.slots
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _typed(value, kinds, what: str, path, field: str):
    """``value`` if it is one of ``kinds`` (bools are not numbers), else a
    ValueError naming the file and the field; so is an int beyond the largest
    float where ``kinds`` take a float."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{path}: field {field!r} must be {what}, "
                         f"got {json.dumps(value)[:40]}")
    if isinstance(value, int) and isinstance(0.0, kinds) and math.isinf(_read_number(value)):
        raise ValueError(f"{path}: field {field!r} holds an integer beyond the largest float")
    return value


def _member(doc: dict, key: str, kinds, what: str, path, field: str | None = None):
    """``doc[key]`` checked by :func:`_typed`; a missing key names the field."""
    field = field or key
    if key not in doc:
        raise ValueError(f"{path}: missing field {field!r}")
    return _typed(doc[key], kinds, what, path, field)


def _numbers(value, kinds, what: str, path, field: str) -> list:
    """``value`` if it is a list of one value of each of ``kinds`` in turn,
    each checked by :func:`_typed`."""
    _typed(value, list, what, path, field)
    if len(value) != len(kinds):
        _typed(value, (), what, path, field)  # the error for the whole list
    return [_typed(x, kind, what, path, field) for x, kind in zip(value, kinds)]


def load_scheme(path) -> Scheme:
    """Read a .scheme.json document back into a Scheme.

    Anything that is not a well-formed document (not JSON, a field missing or
    of the wrong type, a generator other than "A" or "B", an invalid target
    term or order) raises ``ValueError`` with one line naming the file and,
    where there is one, the field.  A target term's degree and position are
    integers, and no term repeats one before it; a slot coefficient is a
    number or a list ``[re, im]`` of two numbers, and a bool or a string is
    not a number.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a syntax error, an integer of too many digits, not UTF-8
        raise ValueError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a scheme file holds one JSON object")
    name = _member(doc, "name", str, "a string", path)
    target_doc = _member(doc, "target", dict, "an object", path)
    target_name = _member(target_doc, "name", str, "a string", path, "target.name")
    real, coefficient = (int, float), "a number or [re, im]"
    terms = {}
    for i, term in enumerate(_member(target_doc, "terms", list, "a list", path,
                                     "target.terms")):
        field = f"target.terms[{i}]"
        degree, pos, re, im = _numbers(term, (int, int, real, real), "[degree, position, re, "
                                       "im] with an integer degree and position", path, field)
        if (degree, pos) in terms:
            raise ValueError(f"{path}: field {field!r} repeats the term ({degree}, {pos})")
        terms[(degree, pos)] = complex(re, im) if im else float(re)
    order = _member(doc, "order", int, "an integer", path)
    family = _typed(doc.get("family", "general"), str, "a string", path, "family")
    slots = []
    for i, slot in enumerate(_member(doc, "slots", list, "a list", path)):
        field = f"slots[{i}]"
        _typed(slot, dict, "an object", path, field)
        generator = _member(slot, "generator", str, '"A" or "B"', path, f"{field}.generator")
        if generator not in ("A", "B"):  # a string, but not a generator's name
            _typed(generator, (), '"A" or "B"', path, f"{field}.generator")
        field += ".coefficient"
        coeff = _member(slot, "coefficient", (*real, list), coefficient, path, field)
        if isinstance(coeff, list):
            coeff = complex(*_numbers(coeff, (real, real), coefficient, path, field))
        slots.append((generator, coeff))
    try:
        return Scheme(name=name, slots=slots,
                      target=TargetPolynomial(target_name, terms), order=order,
                      family=family)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
