"""Composition catalog, parametrized families, and slot-level transforms.

A composition ("scheme") is an ordered product of exponentials of the two
generators, each slot contributing exp(coefficient * t * generator).  This
module collects the tabulated counter-palindromic schemes, the classical
recursive sum splittings, the short special-purpose formulas for nested
commutators, the substitution engine that builds compositions for deeper
targets out of shallower ones, and the symmetry transforms that map schemes
into one another.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import conditions
from .conditions import (
    TargetPolynomial,
    combined_target,
    commutator_target,
    cp_expand,
    nested_aaab_target,
    nested_aab_target,
    sum_plus_commutator_target,
    sum_target,
)
from .liealg import Generator, as_generator, letter_map

__all__ = [
    "ABSTRACT",
    "ExponentSlot",
    "Scheme",
    "catalog_get",
    "catalog_names",
    "third_order_family",
    "yoshida",
    "suzuki",
    "phi3",
    "phi4",
    "phi5",
    "aor4",
    "AOR4_OPTIMAL_D2",
    "combined5",
    "substitute",
    "zass_sym22",
    "nested4_50",
    "transform",
    "save_scheme",
    "load_scheme",
]

# marker generator for template slots that stand for a yet-unrealized operator
ABSTRACT = "D"


@dataclass(frozen=True)
class ExponentSlot:
    """One exponential factor: exp(coefficient * t * generator)."""

    generator: Generator | str
    coefficient: complex

    def __post_init__(self):
        if self.generator != ABSTRACT:
            object.__setattr__(self, "generator", as_generator(self.generator))
        if not np.isfinite(complex(self.coefficient)):
            raise ValueError("slot coefficient must be finite")
        c = complex(self.coefficient)
        object.__setattr__(self, "coefficient", c if c.imag != 0.0 else c.real)

    @property
    def is_abstract(self) -> bool:
        return self.generator == ABSTRACT

    def __str__(self) -> str:
        name = self.generator if self.is_abstract else self.generator.name
        return f"({self.coefficient!r}) {name}"


@dataclass(frozen=True)
class Scheme:
    """An ordered exponential product with its intended target and order.

    The slots are its only structure: the mirror pattern is read from them.
    """

    name: str
    slots: tuple[ExponentSlot, ...]
    target: TargetPolynomial
    order: int
    family: str = "general"
    note: str = ""

    def __post_init__(self):
        if len(self.slots) < 1:
            raise ValueError("a scheme needs at least one slot")
        if self.order < 1:
            raise ValueError("claimed order must be at least 1")
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @property
    def is_cp(self) -> bool:
        """Whether the slots are mirrored (:func:`~commexp.conditions.cp_pattern`)."""
        return self.cp_sign is not None

    @property
    def cp_half(self) -> tuple | None:
        """The mirrored pattern's first-half coefficients (None if unmirrored)."""
        return conditions.cp_pattern(self)[0]

    @property
    def cp_sign(self) -> str | None:
        """The mirrored pattern's sign, "positive" or "negative" (None if unmirrored)."""
        return conditions.cp_pattern(self)[1]

    @property
    def is_template(self) -> bool:
        return any(s.is_abstract for s in self.slots)

    def pairs(self) -> list[tuple[Generator, complex]]:
        """Slot list in engine form; refuses templates."""
        return conditions.slot_pairs(self)

    def scaled_slots(self, factor: complex) -> tuple[ExponentSlot, ...]:
        return tuple(ExponentSlot(s.generator, s.coefficient * factor) for s in self.slots)


def _slots(*pairs) -> tuple[ExponentSlot, ...]:
    return tuple(ExponentSlot(g, c) for g, c in pairs)


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


def third_order_family(c5: float, branch: str = "top") -> Scheme:
    """The general six-exponential third-order commutator solution.

    One free parameter c5 != 0 and a two-fold branch choice; the remaining
    coefficients are fixed by the order conditions.
    """
    if c5 == 0:
        raise ValueError("c5 must be nonzero")
    sgn = _branch_sign(branch)
    c0 = (1.0 - sgn * _SQRT5) / (2.0 * c5)
    c1 = c5 * (-1.0 + sgn * _SQRT5) / 2.0
    c2 = 1.0 / c5
    c3 = c5 * (-1.0 - sgn * _SQRT5) / 2.0
    c4 = (-3.0 + sgn * _SQRT5) / (2.0 * c5)
    return Scheme(
        name=f"third_order(c5={c5:g},{branch})",
        slots=_slots((Generator.B, c0), (Generator.A, c1), (Generator.B, c2),
                     (Generator.A, c3), (Generator.B, c4), (Generator.A, c5)),
        target=commutator_target(),
        order=3,
        family="general",
        note="one-parameter family of six-exponential third-order schemes",
    )


def _strang_slots(factor: float) -> list[ExponentSlot]:
    return [ExponentSlot(Generator.A, 0.5 * factor),
            ExponentSlot(Generator.B, factor),
            ExponentSlot(Generator.A, 0.5 * factor)]


def yoshida(k: int) -> Scheme:
    """Triple-jump composition of order 2k built on the three-slot splitting.

    The slots are merged into runs, so e.g. k = 2 yields seven exponentials.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    stages = [1.0]
    for level in range(2, k + 1):
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * level - 1)))
        stages = [g * f for f in (gamma, 1.0 - 2.0 * gamma, gamma) for g in stages]
    slots: list[ExponentSlot] = []
    for factor in stages:
        slots.extend(_strang_slots(factor))
    return Scheme(
        name=f"yoshida{2 * k}",
        slots=_slots(*conditions.slot_runs(slots)),
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
    stages = [1.0]
    for level in range(2, k + 1):
        alpha = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * level - 1)))
        stages = [g * f
                  for f in (alpha, alpha, 1.0 - 4.0 * alpha, alpha, alpha)
                  for g in stages]
    slots: list[ExponentSlot] = []
    for factor in stages:
        slots.extend([ExponentSlot(Generator.A, 0.5 * factor),
                      ExponentSlot(Generator.B, 0.5 * factor),
                      ExponentSlot(Generator.B, 0.5 * factor),
                      ExponentSlot(Generator.A, 0.5 * factor)])
    return Scheme(
        name=f"suzuki{2 * k}",
        slots=tuple(slots),
        target=sum_target(),
        order=2 * k,
        family="recursion",
        note="quintuple-jump recursion, unmerged elementary-gate form",
    )


def phi3(R: float) -> Scheme:
    """Three-exponential order-2 scheme for the sum-plus-commutator target."""
    if R == 0:
        raise ValueError("R must be nonzero")
    c0 = -(2.0 * R * R - 1.0) / (2.0 * R)
    c1 = 1.0 / R
    c2 = (2.0 * R * R + 1.0) / (2.0 * R)
    return Scheme(
        name=f"phi3(R={R:g})",
        slots=_slots((Generator.B, c0 * R), (Generator.A, c1 * R), (Generator.B, c2 * R)),
        target=sum_plus_commutator_target(R),
        order=2,
        family="general",
        note="minimal sum-plus-commutator splitting",
    )


def phi4(R: float, c3: float = -1.0) -> Scheme:
    """Four-exponential order-2 scheme with a free trailing coefficient."""
    if R == 0:
        raise ValueError("R must be nonzero")
    if R * c3 == 1.0:
        raise ValueError("R*c3 = 1 makes the coefficients singular")
    c0 = (2.0 * R * R + 2.0 * R * c3 - 1.0) / (2.0 * R * (R * c3 - 1.0))
    c1 = -(R * c3 - 1.0) / R
    c2 = -(2.0 * R * R + 1.0) / (2.0 * R * (R * c3 - 1.0))
    return Scheme(
        name=f"phi4(R={R:g},c3={c3:g})",
        slots=_slots((Generator.B, c0 * R), (Generator.A, c1 * R),
                     (Generator.B, c2 * R), (Generator.A, c3 * R)),
        target=sum_plus_commutator_target(R),
        order=2,
        family="general",
        note="sum-plus-commutator splitting with one free parameter",
    )


def phi5(R: float, branch: str = "top") -> Scheme:
    """Five-exponential order-3 scheme for the sum-plus-commutator target.

    Below R = (1/12)^(1/4) the discriminant turns negative and the
    coefficients come in complex-conjugate form (complex mode).
    """
    if R == 0:
        raise ValueError("R must be nonzero")
    if abs(12.0 * R ** 4 - 1.0) < 1e-12:
        raise ValueError("12 R^4 = 1 makes the coefficients singular")
    sgn = _branch_sign(branch)
    delta = cmath.sqrt(3.0 * (12.0 * R ** 4 - 1.0) * (36.0 * R ** 4 + 1.0)) / 12.0
    c0 = (3.0 * R ** 4 - R * R - sgn * delta + 0.25) / R
    c1 = (6.0 * R ** 4 + sgn * 2.0 * delta - 0.5) / (R * (12.0 * R ** 4 - 1.0))
    c2 = 1.0 / (2.0 * R) - 6.0 * R ** 3
    c3 = (6.0 * R ** 4 - sgn * 2.0 * delta - 0.5) / (R * (12.0 * R ** 4 - 1.0))
    # note the +R^2: it is forced by the degree-1 condition c0+c2+c4 = 1/R
    c4 = (3.0 * R ** 4 + R * R + sgn * delta + 0.25) / R
    coeffs = [c0, c1, c2, c3, c4]
    if all(abs(c.imag) < 1e-14 for c in map(complex, coeffs)):
        coeffs = [complex(c).real for c in coeffs]
    gens = [Generator.B, Generator.A, Generator.B, Generator.A, Generator.B]
    return Scheme(
        name=f"phi5(R={R:g},{branch})",
        slots=_slots(*[(g, c * R) for g, c in zip(gens, coeffs)]),
        target=sum_plus_commutator_target(R),
        order=3,
        family="general",
        note="third-order sum-plus-commutator splitting",
    )


AOR4_OPTIMAL_D2 = ((math.sqrt(1346.0) - 36.0) / 25.0) ** (1.0 / 3.0)


def aor4(d2: float, branch: str = "top", *, name: str | None = None) -> Scheme:
    """Nine-exponential palindromic order-4 scheme for exp(t^3 [A,[A,B]]).

    One positive free parameter d2; the optimum sits at
    ``AOR4_OPTIMAL_D2``.
    """
    if d2 <= 0:
        raise ValueError("d2 must be positive")
    sgn = _branch_sign(branch)
    d = (-d2 / 2.0, sgn / math.sqrt(d2), d2, -sgn / math.sqrt(d2), -d2)
    seq = [d[0], d[1], d[2], d[3], d[4], d[3], d[2], d[1], d[0]]
    gens = [Generator.B if i % 2 == 0 else Generator.A for i in range(9)]
    return Scheme(
        name=name or f"aor4(d2={d2:g})",
        slots=_slots(*zip(gens, seq)),
        target=nested_aab_target(),
        order=4,
        family="palindromic",
        note="palindromic doubly-nested-commutator approximation",
    )


def combined5() -> Scheme:
    """Five exponentials reproducing sum + commutator + [A,[A,B]] to order 3."""
    alpha = math.sqrt(47.0 / 3.0)
    d = (-0.75 + alpha / 4.0, 0.5 + alpha / 2.0, 0.5, 0.5 - alpha / 2.0,
         1.25 - alpha / 4.0)
    gens = [Generator.B if i % 2 == 0 else Generator.A for i in range(5)]
    return Scheme(
        name="combined5",
        slots=_slots(*zip(gens, d)),
        target=combined_target(),
        order=3,
        family="general",
        note="shortest splitting carrying sum, commutator and nested terms at once",
    )


# --------------------------------------------------------------------------
# substitution engine and derived constructions
# --------------------------------------------------------------------------


def substitute(outer: Scheme, inner: Scheme | Sequence[Scheme], k: int, *,
               merge: bool = True, name: str | None = None,
               target: TargetPolynomial | None = None,
               order: int | None = None) -> Scheme:
    """Realize each abstract slot of ``outer`` by a rescaled copy of ``inner``.

    ``inner`` is one scheme for every abstract slot, or a sequence with one
    scheme per abstract slot in order.  Each is assumed to approximate the
    exponential of tau^k times its target, so an abstract slot with
    coefficient c becomes its inner scheme run at tau = c^(1/k) * t.  For
    k = 3 the real cube root carries the sign; for k = 2 a negative c runs
    the inner scheme with its letters interchanged (A -> B, B -> A) at
    sqrt(-c) * t instead, which is valid only when the interchange negates the
    inner target: the interchanged target's terms must equal the negated
    ones (true of the commutator).  Unless ``merge`` is false the slots become
    their runs (``slot_runs``).
    """
    if k not in (2, 3):
        raise ValueError("homogeneity degree k must be 2 or 3")
    given = [inner] if isinstance(inner, Scheme) else list(inner)
    if all(i.slot_count == 1 and i.slots[0].is_abstract and i.slots[0].coefficient == 1
           for i in given):
        return outer
    n_abstract = sum(s.is_abstract for s in outer.slots)
    inners = given * n_abstract if isinstance(inner, Scheme) else given
    if len(inners) != n_abstract:
        raise ValueError(f"{outer.name} has {n_abstract} abstract slots, "
                         f"got {len(inners)} inner schemes")

    out: list[ExponentSlot] = []
    blocks = iter(inners)
    for slot in outer.slots:
        if not slot.is_abstract:
            out.append(slot)
            continue
        block = next(blocks)
        c = complex(slot.coefficient).real
        if k == 3:
            factor = math.copysign(abs(c) ** (1.0 / 3.0), c)
            out.extend(block.scaled_slots(factor))
        else:
            if c >= 0:
                out.extend(block.scaled_slots(math.sqrt(c)))
            else:
                swapped = _map_letters(block, _INTERCHANGE, "interchange")
                if swapped.target.terms != {key: -w for key, w in block.target.terms.items()}:
                    raise ValueError("negative slot under k=2 needs an inner target "
                                     "that the letter interchange negates")
                out.extend(swapped.scaled_slots(math.sqrt(-c)))
    slots = _slots(*conditions.slot_runs(out)) if merge else tuple(out)
    names = ",".join(i.name for i in given)
    return Scheme(
        name=name or f"{outer.name}[{names}]",
        slots=slots,
        target=target if target is not None else outer.target,
        order=order if order is not None else min([outer.order, *(i.order for i in given)]),
        family="extension",
        note=f"substitution of {names} into {outer.name}",
    )


def zass_sym22() -> Scheme:
    """22-exponential order-4 realization of the symmetric two-term factorization.

    The central third-degree correction splits into a doubly nested
    [A,[A,B]] part (weight 1/24) realized by the nine-exponential
    palindromic scheme and its [B,[B,A]] counterpart (weight 1/12, sign
    absorbed by the real cube root): the same block with the letters
    interchanged, slots and target alike.  Slots are kept distinct — no
    merging — so the count reflects the elementary gates.
    """
    inner = aor4(AOR4_OPTIMAL_D2)
    swapped = _map_letters(inner, _INTERCHANGE, "interchange")
    template = Scheme(
        name="zass_template",
        slots=(
            ExponentSlot(Generator.A, 0.5),
            ExponentSlot(Generator.B, 0.5),
            ExponentSlot(ABSTRACT, 1.0 / 24.0),
            ExponentSlot(ABSTRACT, -1.0 / 12.0),
            ExponentSlot(Generator.B, 0.5),
            ExponentSlot(Generator.A, 0.5),
        ),
        target=sum_target(),
        order=4,
        family="extension",
    )
    return replace(
        substitute(template, [inner, swapped], 3, merge=False, name="zass_sym22"),
        note="symmetric product factorization with nested-commutator blocks",
    )


def nested4_50() -> Scheme:
    """50-exponential order-4 approximation of exp(t^4 [A,[A,[A,B]]]).

    The ten-exponential fourth-order commutator scheme is written with its
    B-slots standing for the degree-3 operator t^2 [A,[A,B]], and each such
    slot is realized by the nine-exponential palindromic scheme at the
    cube-root-rescaled time.  No adjacent slots share a generator, so the
    count is exactly 50 with or without merging.
    """
    base = _tabulated_cp("NCP10_4")
    outer = Scheme(
        name="nested4_template",
        slots=tuple(
            ExponentSlot(ABSTRACT, s.coefficient) if s.generator == Generator.B
            else s
            for s in base.slots
        ),
        target=nested_aaab_target(),
        order=4,
        family="extension",
    )
    return substitute(
        outer, aor4(AOR4_OPTIMAL_D2), 3,
        name="nested4_50", target=nested_aaab_target(), order=4,
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
}

#: The plain letter interchange A -> B, B -> A, which :func:`substitute` and
#: :func:`zass_sym22` use; it negates a commutator, so it is not a transform.
_INTERCHANGE = ((Generator.B, 1.0), (Generator.A, 1.0))


def _map_letters(scheme: Scheme, images, which: str) -> Scheme:
    """``scheme`` under the letter substitution ``images`` (see
    :func:`~commexp.liealg.letter_map`), in its slots and target alike.

    A target the substitution leaves unchanged is kept as it is; any other
    becomes ``which(name)`` with its nonzero mapped terms.
    """
    slots = [ExponentSlot(images[g][0], c * images[g][1])
             for g, c in conditions.slot_pairs(scheme)]
    terms = {}
    for degree in sorted({degree for degree, _ in scheme.target.terms}):
        mapped = letter_map(images, degree) @ scheme.target.vector(degree)
        for pos, value in enumerate(map(complex, mapped), start=1):
            if value:
                terms[(degree, pos)] = value if value.imag else value.real
    target = scheme.target
    if terms != target.terms:
        target = TargetPolynomial(f"{which}({target.name})", terms)
    return replace(scheme, name=f"{which}({scheme.name})", slots=tuple(slots),
                   target=target)


def transform(scheme: Scheme, which: str) -> Scheme:
    """Apply one of the three slot-level symmetries.

    Each substitutes both letters, X -> factor * image, in the slots and the
    target alike (``_LETTER_MAPS``; the target through
    :func:`~commexp.liealg.letter_map`).  negate-time: every coefficient
    changes sign (even-degree targets are untouched, odd degrees flip).
    imaginary-rotation: B coefficients pick up i, A coefficients -i (complex
    mode); a mirror pattern flips its sign.  ab-swap: the letters trade
    places with the A-image negated, turning a composition ending in A into
    one ending in B.
    """
    try:
        images = _LETTER_MAPS[which]
    except KeyError:
        raise ValueError(f"unknown transform {which!r}") from None
    return _map_letters(scheme, images, which)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def _u21() -> Scheme:
    return Scheme(
        name="U21",
        slots=_slots((Generator.A, 1.0), (Generator.B, 1.0),
                     (Generator.A, -1.0), (Generator.B, -1.0)),
        target=commutator_target(),
        order=2,
        family="general",
        note="four-exponential group commutator, letters in A-first order",
    )


def _u22() -> Scheme:
    scheme = cp_expand([-1.0, 1.0], "positive", name="U22", order=2,
                       note="four-exponential group commutator, letters in B-first order")
    return scheme


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
        slots=_slots((Generator.A, 0.5), (Generator.B, 1.0), (Generator.A, 0.5)),
        target=sum_target(),
        order=2,
        family="palindromic",
        note="symmetric second-order sum splitting",
    )


def _fap8() -> Scheme:
    signs = [1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    gens = [Generator.A, Generator.B] * 4
    return Scheme(
        name="fap8",
        slots=_slots(*zip(gens, signs)),
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
    "aor4_opt": lambda: aor4(AOR4_OPTIMAL_D2, name="aor4_opt"),
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
    """Look up a catalog scheme by name (parametrized entries at defaults)."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; see catalog_names()") from None
    return factory()


# --------------------------------------------------------------------------
# scheme files
# --------------------------------------------------------------------------


def _coefficient_to_json(c: complex):
    c = complex(c)
    if c.imag == 0.0:
        return float(f"{c.real:.17g}")
    return [float(f"{c.real:.17g}"), float(f"{c.imag:.17g}")]


def save_scheme(scheme: Scheme, path) -> None:
    """Serialize to the .scheme.json format (17 significant digits)."""
    if scheme.is_template:
        raise ValueError("cannot serialize a template with abstract slots")
    doc = {
        "name": scheme.name,
        "target": {
            "name": scheme.target.name,
            "terms": [
                [degree, pos,
                 float(f"{complex(w).real:.17g}"), float(f"{complex(w).imag:.17g}")]
                for (degree, pos), w in sorted(scheme.target.terms.items())
            ],
        },
        "order": scheme.order,
        "family": scheme.family,
        "slots": [
            {"generator": slot.generator.name,
             "coefficient": _coefficient_to_json(slot.coefficient)}
            for slot in scheme.slots
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _typed(value, kinds, what: str, path, field: str):
    """``value`` if it is one of ``kinds`` (bools are not numbers), else a
    ValueError naming the file and the field."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{path}: field {field!r} must be {what}, "
                         f"got {json.dumps(value)[:40]}")
    return value


def _member(doc: dict, key: str, kinds, what: str, path, field: str | None = None):
    """``doc[key]`` checked by :func:`_typed`; a missing key names the field."""
    field = field or key
    if key not in doc:
        raise ValueError(f"{path}: missing field {field!r}")
    return _typed(doc[key], kinds, what, path, field)


def _slot_problem(slot, i: int) -> str:
    """What is wrong with the i-th slot entry of a file, which failed to parse."""
    field = f"slots[{i}]"
    if not isinstance(slot, dict):
        return f"field {field!r} must be an object"
    for key in ("generator", "coefficient"):
        if key not in slot:
            return f"missing field '{field}.{key}'"
    try:
        as_generator(slot["generator"])
    except (TypeError, ValueError):
        return (f"field '{field}.generator' must be \"A\" or \"B\", "
                f"got {json.dumps(slot['generator'])[:40]}")
    return f"field '{field}.coefficient' must be a number or [re, im]"


def load_scheme(path) -> Scheme:
    """Read a .scheme.json document back into a Scheme.

    Anything that is not a well-formed document (not JSON, a field missing or
    of the wrong type, a generator other than A or B, an invalid target term
    or order) raises ``ValueError`` with one line naming the file and, where
    there is one, the field.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a scheme file holds one JSON object")
    name = _member(doc, "name", str, "a string", path)
    target_doc = _member(doc, "target", dict, "an object", path)
    target_name = _member(target_doc, "name", str, "a string", path, "target.name")
    terms = {}
    for i, term in enumerate(_member(target_doc, "terms", list, "a list", path,
                                     "target.terms")):
        if not (isinstance(term, list) and len(term) == 4 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in term)):
            raise ValueError(f"{path}: field 'target.terms[{i}]' must be "
                             f"[degree, position, re, im]")
        degree, pos, re, im = term
        terms[(int(degree), int(pos))] = complex(re, im) if im else float(re)
    order = _member(doc, "order", int, "an integer", path)
    family = _typed(doc.get("family", "general"), str, "a string", path, "family")
    slots = []
    for i, slot in enumerate(_member(doc, "slots", list, "a list", path)):
        try:
            coeff = slot["coefficient"]
            coeff = complex(*coeff) if isinstance(coeff, list) else float(coeff)
            slots.append((as_generator(slot["generator"]), coeff))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: {_slot_problem(slot, i)}") from None
    try:
        return Scheme(name=name, slots=_slots(*slots),
                      target=TargetPolynomial(target_name, terms), order=order,
                      family=family)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
