"""Order conditions, effective error, and coefficient tuning.

This module answers questions *about* a composition: which target it
reproduces and to what order, how large its leading error term is, whether
it has the counter-palindromic symmetry, and how to polish or optimize its
coefficients.  Everything here works on the word series: the heavy lifting
(BCH expansion, basis projection, letter substitutions) lives in
:mod:`commexp.liealg`, and nothing here multiplies matrices (the single-step
slope of a scheme on an operator pair is :func:`commexp.bench.empirical_order`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .liealg import (
    LIE_DIMS,
    MAX_TRUNCATION,
    Generator,
    _lie_jacobian,
    _lie_rows,
    _slot_row,
    _slot_value,
    as_generator,
    letter_map,
)

__all__ = [
    "TargetPolynomial",
    "commutator_target",
    "sum_target",
    "sum_plus_commutator_target",
    "nested_aab_target",
    "nested_aaab_target",
    "combined_target",
    "target_from_name",
    "slot_pairs",
    "slot_runs",
    "ResidualReport",
    "order_residuals",
    "EffectiveError",
    "effective_error",
    "cp_half_closure",
    "cp_expand",
    "cp_pattern",
    "cp_identities",
    "cp_condition_counts",
    "IdentityCheck",
    "refine",
    "OptimizeResult",
    "RowFamily",
    "optimize_free_parameter",
]


# --------------------------------------------------------------------------
# targets
# --------------------------------------------------------------------------


def _finite_complex(value, what: str) -> complex:
    """``value`` as a complex; ``ValueError`` naming ``what`` unless finite,
    as an int beyond the largest float is not."""
    try:
        c = complex(value)
    except OverflowError:
        c = complex(math.inf)
    if not cmath.isfinite(c):
        raise ValueError(f"{what} must be finite")
    return c


@dataclass(frozen=True)
class TargetPolynomial:
    """A Lie polynomial the composition should reproduce in its exponent.

    ``terms`` maps ``(degree, position)`` — position 1-based within the
    nested-commutator basis at that degree — to the desired coefficient.
    Every absent entry is an order condition equal to zero.  The name
    uniquely identifies the coefficient pattern (parametrized targets
    embed their parameter in the name).
    """

    name: str
    terms: Mapping[tuple[int, int], complex]
    _vectors: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        for (degree, position), value in self.terms.items():
            if not 1 <= degree <= MAX_TRUNCATION:
                raise ValueError(f"target degree {degree} outside basis range")
            if not 1 <= position <= LIE_DIMS[degree - 1]:
                raise ValueError(f"position {position} invalid at degree {degree}")
            _finite_complex(value, "target coefficients")

    def coefficient(self, degree: int, position: int) -> complex:
        return self.terms.get((degree, position), 0.0)

    def vector(self, degree: int) -> np.ndarray:
        """Dense coefficient vector of the target at one degree: complex if a
        coefficient there has an imaginary part, else the real parts.  Built
        once per degree and read-only."""
        if degree not in self._vectors:
            values = np.array([self.terms.get((degree, pos), 0.0)
                               for pos in range(1, LIE_DIMS[degree - 1] + 1)])
            if not (np.iscomplexobj(values) and values.imag.any()):
                values = values.real.astype(np.float64)
            values.flags.writeable = False
            self._vectors[degree] = values
        return self._vectors[degree]

    @property
    def min_degree(self) -> int:
        """Lowest degree carrying a nonzero term (the stepping homogeneity)."""
        return min(degree for degree, _ in self.terms)


def commutator_target() -> TargetPolynomial:
    """exp of the plain commutator: w_{2,1} = 1, everything else zero."""
    return TargetPolynomial("commutator", {(2, 1): 1.0})


def sum_target() -> TargetPolynomial:
    """exp of the sum of the generators: w_{1,1} = w_{1,2} = 1."""
    return TargetPolynomial("sum", {(1, 1): 1.0, (1, 2): 1.0})


def sum_plus_commutator_target(R: float) -> TargetPolynomial:
    """Sum plus a commutator correction weighted by R (degree-2 weight R^2)."""
    if R == 0:
        raise ValueError("R must be nonzero")
    return TargetPolynomial(
        f"sum_plus_commutator(R={float(R):g})",
        {(1, 1): 1.0, (1, 2): 1.0, (2, 1): float(R) ** 2},
    )


def nested_aab_target() -> TargetPolynomial:
    """exp of the doubly nested commutator [A,[A,B]]: w_{3,1} = 1."""
    return TargetPolynomial("nested_aab", {(3, 1): 1.0})


def nested_aaab_target() -> TargetPolynomial:
    """exp of the triply nested commutator [A,[A,[A,B]]]: w_{4,1} = 1."""
    return TargetPolynomial("nested_aaab", {(4, 1): 1.0})


def combined_target() -> TargetPolynomial:
    """Sum, commutator, and [A,[A,B]] together with unit weights."""
    return TargetPolynomial(
        "combined", {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (3, 1): 1.0}
    )


_TARGET_FACTORIES: dict[str, Callable[[], TargetPolynomial]] = {
    "commutator": commutator_target,
    "sum": sum_target,
    "nested_aab": nested_aab_target,
    "nested_aaab": nested_aaab_target,
    "combined": combined_target,
}


def target_from_name(name: str) -> TargetPolynomial:
    """Rebuild a built-in target from its name (inverse of ``target.name``)."""
    if name in _TARGET_FACTORIES:
        return _TARGET_FACTORIES[name]()
    if name.startswith("sum_plus_commutator(R=") and name.endswith(")"):
        return sum_plus_commutator_target(float(name[len("sum_plus_commutator(R=") : -1]))
    raise KeyError(f"unknown target name: {name!r}")


# --------------------------------------------------------------------------
# order conditions
# --------------------------------------------------------------------------


def slot_pairs(scheme) -> list[tuple[Generator, complex]]:
    """The ``(generator, coefficient)`` list of a composition, leftmost first.

    Accepts a Scheme (anything with ``slots``), a sequence of slot objects
    (``generator``/``coefficient``), or raw ``(generator, coefficient)``
    pairs.  Generators are coerced to :class:`Generator`, so a template's
    abstract slot raises ``ValueError`` instead of standing in for A or B.
    """
    pairs = []
    for i, slot in enumerate(getattr(scheme, "slots", scheme)):
        if hasattr(slot, "generator"):
            gen, coeff = slot.generator, slot.coefficient
        else:
            gen, coeff = slot
        try:
            pairs.append((as_generator(gen), coeff))
        except ValueError:
            name = getattr(scheme, "name", "composition")
            raise ValueError(f"{name}: slot {i} generator {gen!r} is neither A nor B "
                             f"(substitute abstract slots first)") from None
    return pairs


def slot_runs(scheme) -> list[tuple[Generator, complex]]:
    """The runs of a composition (what :func:`slot_pairs` accepts): the same
    product with no zero run and no two neighbours on one generator.

    A stack reduction: each slot adds onto a top run on its generator, and a
    run summing to exactly zero is popped so that its neighbours merge in
    turn (A·1, B·1, B·(-1), A·1 gives A·2).  Each coefficient is read by
    :func:`~commexp.liealg._slot_value` before it is added.
    """
    runs: list[tuple[Generator, complex]] = []
    for gen, coeff in slot_pairs(scheme):
        coeff = _slot_value(coeff)
        if runs and runs[-1][0] == gen:
            coeff += runs.pop()[1]
        if coeff != 0:
            runs.append((gen, coeff))
    return runs


@dataclass
class ResidualReport:
    """Outcome of checking a composition against a target through degree r."""

    order_requested: int
    tolerance: float
    residuals: dict[int, np.ndarray]
    verified_order: int
    effective_error: EffectiveError

    @property
    def leading_error_norm(self) -> float:
        """Size of the degree-(r+1) deviation from the target."""
        return self.effective_error.leading_norm

    def max_residual(self, degree: int) -> float:
        return float(np.max(self.residuals[degree])) if len(self.residuals[degree]) else 0.0

    def all_satisfied(self) -> bool:
        return self.verified_order >= self.order_requested


def _check_order(r: int, top_degree: int) -> None:
    """Raise ``ValueError`` unless order r is at least 1 and the highest
    degree it needs, ``top_degree``, lies within the engine's ceiling."""
    if r < 1:
        raise ValueError(f"order must be at least 1, got {r}")
    if top_degree > MAX_TRUNCATION:
        raise ValueError(f"order {r} needs degree {top_degree} > ceiling {MAX_TRUNCATION}")


def _check_tolerance(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the tolerance ``name`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


#: Default tolerance of :func:`order_residuals`.
_ORDER_TOL = 1e-10


def order_residuals(scheme, target: TargetPolynomial, r: int,
                    tol: float = _ORDER_TOL) -> ResidualReport:
    """Project the composition's log and compare against ``target`` per degree.

    Residuals are reported for degrees 1..r.  ``verified_order`` is the
    largest order r' <= r whose residuals all stay within ``tol``.  The
    report also carries the effective error for order r, sized from the same
    projected log (what :func:`effective_error` returns when ``target`` is
    the scheme's own); ``leading_error_norm`` is its ``leading_norm``, the
    Euclidean deviation from ``target`` at degree r+1 in the commutator basis.
    ``tol`` must be positive and finite.
    """
    _check_tolerance("tol", tol)
    _check_order(r, r + 1)
    pairs = slot_pairs(scheme)
    deviations = _deviations(_lie_rows(*_slot_row(pairs), r + 1), target, range(1, r + 2))
    residuals, worst = _worst_residuals(deviations, r)
    # the verified order is the count of leading degrees that hold
    verified = int(np.add.reduce(np.logical_and.accumulate(worst[:, 0] <= tol)))
    return ResidualReport(r, tol, {degree: res[0] for degree, res in residuals.items()},
                          verified, _leading_errors(deviations[r + 1], r, len(pairs))[0])


def _deviations(vectors: Mapping[int, np.ndarray], target: TargetPolynomial,
                degrees: Iterable[int]) -> dict[int, np.ndarray]:
    """Each of ``degrees`` of b logs' (b, dim) basis coordinates ``vectors``
    minus ``target``'s: the order conditions below the leading degree and
    the leading error at it."""
    return {degree: vectors[degree] - target.vector(degree) for degree in degrees}


def _worst_residuals(deviations: Mapping[int, np.ndarray], r: int
                     ) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The (b, dim) residuals |deviation| per degree 1..r of b logs, and
    their (r, b) largest entries."""
    residuals = {degree: np.abs(deviations[degree]) for degree in range(1, r + 1)}
    return residuals, np.array([np.maximum.reduce(res, axis=1) for res in residuals.values()])


@dataclass(frozen=True)
class EffectiveError:
    """Cost-weighted leading-error magnitude of an order-r composition."""

    E: float
    per_exponential: float
    slot_count: int
    order: int
    leading_norm: float


def _leading_errors(deviation: np.ndarray, r: int, slot_count: int) -> list[EffectiveError]:
    """E of each row of the (b, dim) degree-(r+1) ``deviation``."""
    return [EffectiveError(E, E / slot_count, slot_count, r, norm)
            for norm, E in zip(*_leading_scores(deviation, r, slot_count))]


def _leading_scores(deviation: np.ndarray, r: int, slot_count: int
                    ) -> tuple[list[float], list[float]]:
    """The Euclidean norm of each row of the (b, dim) degree-(r+1)
    ``deviation``, and its E = s * norm^(1/r), one scalar power at a time as
    libm's pow gives it: numpy's vectorised power can differ from it by an
    ulp."""
    norms = _row_norms(deviation).tolist()
    return norms, [slot_count * norm ** (1.0 / r) for norm in norms]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x, summed as ``np.linalg.norm`` sums a
    single row (one BLAS dot per real part), so each is exact as its row's."""
    squares = np.matmul(x.real[:, None, :], x.real[:, :, None])[:, 0, 0]
    if np.iscomplexobj(x):
        squares = squares + np.matmul(x.imag[:, None, :], x.imag[:, :, None])[:, 0, 0]
    return np.sqrt(squares)


def effective_error(scheme, r: int | None = None) -> EffectiveError:
    """s * (leading-error Euclidean norm)^(1/r), with s the slot count.

    The leading error is the degree-(r+1) deviation of the log from the
    scheme's target (from zero for a raw slot list), measured in the
    nested-commutator basis, which reaches every degree up to
    :data:`~commexp.liealg.MAX_TRUNCATION`.  The caller is responsible for
    the composition actually having order r (use :func:`order_residuals`,
    whose report carries the same value without a second log); this routine
    only sizes the degree-(r+1) term.
    """
    pairs = slot_pairs(scheme)
    if r is None:
        if not hasattr(scheme, "order"):
            raise ValueError("effective_error needs r for a raw slot list, which carries no order")
        r = scheme.order
    _check_order(r, r + 1)
    vectors, target = _lie_rows(*_slot_row(pairs), r + 1), getattr(scheme, "target", None)
    deviation = vectors[r + 1] if target is None else _deviations(vectors, target, [r + 1])[r + 1]
    return _leading_errors(deviation, r, len(pairs))[0]


# --------------------------------------------------------------------------
# counter-palindromic structure
# --------------------------------------------------------------------------

_CP_SIGNS = {"positive": 1, "negative": -1}


def _cp_sign(sign) -> int:
    try:
        return _CP_SIGNS[sign]
    except KeyError:
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}") from None


def cp_half_closure(tail, sign):
    """The leading coefficient that zeroes both degree-1 sums.

    positive: c0 = -sum(tail);  negative: c0 = sum of tail with alternating
    signs starting +.  ``tail`` is one sequence of coefficients, or a (b, n)
    array of b tails, one per row, which gives the b closures.  Either way
    the sum runs from 0 left to right, as Python's ``sum`` adds, so each
    row's closure is its own one-tail closure bit for bit.
    """
    s = _cp_sign(sign)
    tail = np.asarray(tail)
    # a leading zero column is sum's start; a negative pattern negates every
    # second term, as the plain sum -c would
    terms = np.zeros(tail.shape[:-1] + (tail.shape[-1] + 1,), dtype=tail.dtype)
    terms[..., 1:] = tail
    if s < 0:
        np.negative(terms[..., 2::2], out=terms[..., 2::2])
    # [()] makes a one-tail closure a numpy scalar, as negation makes it
    total = np.add.accumulate(terms, axis=-1)[..., -1][()]
    return -total if s > 0 else total


def cp_expand(half: Sequence[complex], sign, *, name: str | None = None,
              order: int = 1, note: str = ""):
    """Mirror a half-pattern into a full counter-palindromic composition.

    The result has 2(m+1) slots alternating B, A, ..., A; the second half
    repeats the first half's coefficients in reverse order, kept as-is for
    ``sign='positive'`` and negated for ``sign='negative'``, by the one
    mirror map of :func:`_mirror_rows`.
    """
    from .schemes import ExponentSlot, Scheme

    half = list(half)
    if len(half) < 2:
        raise ValueError("half-pattern needs at least c0 and c1")
    s = _cp_sign(sign)
    generators = _mirror_generators(len(half))
    _, row = _slot_row(zip(generators, half))
    both = np.empty((1, len(generators)), dtype=row.dtype)
    both[:, :len(half)] = row
    coefficients = _mirror_rows(both, s)[0].tolist()
    slots = tuple(ExponentSlot(g, c) for g, c in zip(generators, coefficients))
    kind = "PCP" if s > 0 else "NCP"
    return Scheme(
        name=name or f"{kind.lower()}{len(slots)}",
        slots=slots,
        target=commutator_target(),
        order=order,
        family=kind,
        note=note,
    )


def _mirror_generators(m: int) -> list[Generator]:
    """Slots B, A, ..., A of a mirrored pattern with m half coefficients."""
    return [Generator.B if i % 2 == 0 else Generator.A for i in range(2 * m)]


@lru_cache(maxsize=None)
def _mirror_index(m: int) -> np.ndarray:
    """Slot j of a mirrored pattern with m half coefficients reads column
    ``index[j]`` of ``[half, s * half]``: the half in order, then the
    scaled half reversed."""
    return np.concatenate([np.arange(m), np.arange(2 * m - 1, m - 1, -1)])


def _cp_rows(tails: np.ndarray, sign) -> np.ndarray:
    """The (b, 2(n+1)) coefficient rows of the mirrored patterns of sign
    ``sign`` whose half-pattern tails are the rows of the (b, n) array
    ``tails``: the closure first (:func:`cp_half_closure`), then the tail,
    then the mirror (:func:`_mirror_rows`).  Real or complex, as ``tails``."""
    b, n = tails.shape
    both = np.empty((b, 2 * (n + 1)), dtype=tails.dtype)
    both[:, 0] = cp_half_closure(tails, sign)
    both[:, 1:n + 1] = tails
    return _mirror_rows(both, _cp_sign(sign))


def _mirror_rows(both: np.ndarray, s: int) -> np.ndarray:
    """The (b, 2m) coefficient rows of the mirrored patterns of sign s whose
    half rows fill the first m columns of the (b, 2m) buffer ``both``.

    The last m columns become ``s * half`` as numpy multiplies by the int
    s: on complex rows that is a complex product, whose zero parts can take
    the other sign than a plain negation gives.  The rows are then one
    gather by :func:`_mirror_index`.
    """
    m = both.shape[1] // 2
    np.multiply(both[:, :m], s, out=both[:, m:])
    return both[:, _mirror_index(m)]


def cp_pattern(scheme) -> tuple[tuple | None, str | None]:
    """``(half, sign)`` of a mirrored composition, ``(None, None)`` otherwise.

    The inverse of :func:`_mirror_rows`: the slots, an even number of at
    least four, must be exactly the expansion of their own first half, going
    B, A, ..., A with the reversed first half kept ("positive") or negated
    ("negative").
    """
    m = len(scheme.slots) // 2
    if len(scheme.slots) < 4 or len(scheme.slots) % 2 or \
            [slot.generator for slot in scheme.slots] != _mirror_generators(m):
        return None, None
    coefficients = [slot.coefficient for slot in scheme.slots]
    # a slot holds a float or a complex, so this row is float64 or complex128
    row = np.array([coefficients])
    for sign, s in _CP_SIGNS.items():
        if (_mirror_rows(row.copy(), s) == row).all():
            return tuple(coefficients[:m]), sign
    return None, None


class IdentityCheck(NamedTuple):
    description: str
    lhs: complex
    rhs: complex
    satisfied: bool


#: The mirror identities are stated through degree 6, where there are ten.
_CP_IDENTITY_DEGREE = 6


def _mirror_map(s: int, degree: int) -> np.ndarray:
    """The letter involution phi: A -> -s B, B -> -s A on one degree's coordinates.

    A mirrored pattern of sign s is H phi(H)^-1, with H its first half, so its
    log Z obeys phi(Z) = -Z.  For s = -1, phi is the plain interchange.
    """
    return letter_map(((Generator.B, -s), (Generator.A, -s)), degree)


@lru_cache(maxsize=None)
def _mirror_relation(s: int, degree: int) -> np.ndarray:
    """The k independent identities phi(Z) = -Z imposes at one degree, as a
    (2, k, dim) array whose product with the coordinates w gives both sides,
    w(left) and the sum of factor * w(right): each is a row of phi + I kept
    when independent of the rows kept before it, and solved for its diagonal
    entry (nonzero on every kept row through degree 7).  The one form of the
    mirror identities, k the count :func:`cp_condition_counts` reads.  Cached;
    read-only."""
    relation = _mirror_map(s, degree) + np.eye(LIE_DIMS[degree - 1])
    lefts = []
    for i in range(len(relation)):
        if np.linalg.matrix_rank(relation[lefts + [i]]) > len(lefts):
            lefts.append(i)
    select = np.eye(len(relation))[lefts]
    sides = np.stack([select, select - relation[lefts] / relation[lefts, lefts][:, None]])
    sides.flags.writeable = False  # shared by every caller through the cache
    return sides


def cp_identities(scheme, sign=None, tol: float = 1e-10) -> list[IdentityCheck]:
    """Evaluate the ten mirror-symmetry identities through degree 6.

    ``sign`` defaults to the scheme's counter-palindromic sign.  Both sides
    of a degree's identities are one product with :func:`_mirror_relation`,
    each identity described by its nonzero entries and checked at ``tol``
    scaled by the sides' magnitudes; ``tol`` must be positive and finite.
    """
    _check_tolerance("tol", tol)
    if sign is None:
        sign = getattr(scheme, "cp_sign", None)
        if sign is None:
            raise ValueError("scheme carries no counter-palindromic sign; pass one")
    vectors = _lie_rows(*_slot_row(slot_pairs(scheme)), _CP_IDENTITY_DEGREE)
    results = []
    for degree in range(1, _CP_IDENTITY_DEGREE + 1):
        sides = _mirror_relation(_cp_sign(sign), degree)
        for pick, row, lhs, rhs in zip(*sides, *(sides @ vectors[degree][0]).tolist()):
            pieces = " ".join(f"{row[j]:+g}*w({degree},{j + 1})" for j in np.flatnonzero(row))
            results.append(IdentityCheck(f"w({degree},{pick.argmax() + 1}) = {pieces}", lhs, rhs,
                                         abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))))
    return results


def cp_condition_counts(sign, r: int = 6) -> dict[int, int]:
    """Independent order conditions per degree for the mirrored pattern.

    The basis dimension less the k identities :func:`_mirror_relation` holds
    at that degree; the per-degree numbers (and their cumulative sums) are
    what a solver actually has to satisfy.
    """
    _check_order(r, r)
    s = _cp_sign(sign)
    return {d: LIE_DIMS[d - 1] - _mirror_relation(s, d).shape[1] for d in range(1, r + 1)}


# --------------------------------------------------------------------------
# Newton refinement
# --------------------------------------------------------------------------


def _residual(generators, rows: np.ndarray, target, r) -> np.ndarray:
    """Every basis coefficient of each slot product's log through degree r
    minus the target's: (b, m) residuals of the (b, s) coefficient ``rows``
    on ``generators``, degree j in the columns ``offsets[j - 1]:offsets[j]``
    of :attr:`~commexp.liealg.LieBasis.offsets`, as the rows of the
    Jacobian :func:`~commexp.liealg._lie_jacobian` gives."""
    return _stacked_deviations(_lie_rows(generators, rows, r), target, r)


def _stacked_deviations(vectors: Mapping[int, np.ndarray], target, r) -> np.ndarray:
    """:func:`_deviations` of degrees 1..r side by side, (b, m)."""
    degrees = range(1, r + 1)
    return (np.concatenate([vectors[degree] for degree in degrees], axis=1)
            - np.concatenate([target.vector(degree) for degree in degrees]))


def _mirror_sign(scheme, target, r) -> str | None:
    """The sign of a mirrored scheme if mirrored patterns can meet ``target``
    through degree r, else None.

    Their closure zeroes degree 1 and the identities phi(Z) = -Z tie the
    dependent components, so the independent components stand for all
    conditions only when r >= 2 and the target has no degree-1 part and obeys
    the identities through degree r.
    """
    sign = scheme.cp_sign
    if sign is None or r < 2 or np.any(target.vector(1)):
        return None
    lhs, rhs = np.concatenate([_mirror_relation(_cp_sign(sign), degree) @ target.vector(degree)
                               for degree in range(2, r + 1)], axis=1)
    holds = abs(lhs - rhs) <= 1e-12 * np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)
    return sign if holds.all() else None


#: :func:`refine` keeps its Jacobian for the next step while a step cuts
#: max|g| by at least this factor: that cut puts the iterate where a chord
#: step on the same Jacobian contracts about as much again.
_CHORD_CUT = 100.0

#: Most Newton or chord steps :func:`refine` takes before it gives up.
_MAX_STEPS = 50


def refine(scheme, target: TargetPolynomial | None = None, free_slots=None, *,
           r: int | None = None, tol: float = 1e-13):
    """Newton-polish coefficients until the order conditions hold to ``tol``.

    A mirrored scheme (:func:`cp_pattern`) whose target mirrored patterns
    can meet (:func:`_mirror_sign`) is iterated on its half-pattern tail, the
    leading coefficient given by the closure and the rest by the mirror
    (:func:`_cp_rows`), so the mirror stays exact at every iterate and
    ``free_slots`` index the tail; any other scheme is iterated on its slot
    coefficients, ``free_slots`` indexing the slot list.  The residual
    (:func:`_residual`) holds every basis component of the log through
    degree r, but the unknowns need only match the independent conditions
    (for a mirror, the :func:`cp_condition_counts` from degree 2).

    The Jacobian is exact: one :func:`~commexp.liealg._lie_jacobian` call
    gives the residual at an iterate and its derivatives in every slot
    coefficient, which the fixed +-1 matrix of the row layout
    (:func:`_row_layout`: the free-slot selection, or the closure and mirror
    of :func:`_cp_rows`) turns into derivatives in the n unknowns.  The
    polish starts with that call, and its Jacobian is kept while each step
    cuts max|g| by at least 100x, the next step then being a chord step on
    it, whose residual is one plain engine pass (Kelley 2003, *Solving
    Nonlinear Equations with Newton's Method*, ch. 5).  After a step that
    cuts max|g| less, the Jacobian is kept only when max|g| is at most
    sqrt(tol) and n more steps at that step's contraction would reach
    ``tol``; otherwise the call is made again at that iterate.  A polish
    started near a root makes the engine passes ``[J, 1, 1]``: the Jacobian
    call, then a Newton step and a chord step, each with its residual.  At most
    :data:`_MAX_STEPS` steps are taken.  With more unknowns than independent
    conditions the steps are lstsq's minimum-norm ones, and a chord step can
    end at another point of the solution manifold than full Newton would;
    both meet the conditions at ``tol``.

    ``free_slots`` must not repeat an index and ``tol`` must be positive and
    finite, both checked before the first evaluation.  Returns the scheme
    with its slots replaced and every other field kept; raises
    ``RuntimeError`` on divergence or stagnation.
    """
    from .schemes import ExponentSlot

    _check_tolerance("tol", tol)
    if target is None:
        target = scheme.target
    if r is None:
        r = scheme.order
    _check_order(r, r)
    if any(complex(w).imag != 0.0 for w in target.terms.values()):
        raise ValueError("refinement handles real targets only")

    generators, (x,) = _slot_row(slot_pairs(scheme))
    if x.imag.any():
        raise ValueError("refinement handles real coefficients only")
    x = x.real
    sign = _mirror_sign(scheme, target, r)
    if sign is not None:
        x = x[1:len(generators) // 2]  # the half-pattern's tail
        counts = cp_condition_counts(sign, r)
        n_conditions = sum(counts[d] for d in range(2, r + 1))
    else:
        n_conditions = sum(LIE_DIMS[d - 1] for d in range(1, r + 1))

    free = list(range(len(x))) if free_slots is None else sorted(free_slots)
    if any(i < 0 or i >= len(x) for i in free):
        raise ValueError("free_slots index out of range")
    if len(set(free)) < len(free):
        raise ValueError("free_slots repeats an index")
    if len(free) < n_conditions:
        raise ValueError(
            f"{len(free)} free coefficients cannot satisfy {n_conditions} conditions"
        )

    def rows_of(values):
        # (b, unknowns) rows of free values -> (b, slots) coefficient rows
        rows = values
        if len(free) < len(x):  # the fixed coefficients around them
            rows = np.empty((len(values), len(x)), dtype=values.dtype)
            rows[:] = x
            rows[:, free] = values
        return rows if sign is None else _cp_rows(rows, sign)

    layout = _row_layout(sign, len(x), tuple(free))

    def solver_at(rows):
        # the residual and the Jacobian's pseudoinverse, whose product with
        # -g is lstsq's minimum-norm step, factored once for the chord steps
        vectors, derivatives = _lie_jacobian(generators, rows, r)
        return (_stacked_deviations(vectors, target, r)[0],
                np.linalg.pinv(derivatives[0] @ layout.T))

    v = x[free].copy()
    rows = rows_of(v[None])
    g, solve = solver_at(rows)
    worst = np.abs(g).max()
    for _ in range(_MAX_STEPS):
        if worst <= tol:
            break
        if not np.isfinite(g).all() or worst > 1e6:
            raise RuntimeError("refinement diverged")
        if solve is None:
            g, solve = solver_at(rows)
        v = v - solve @ g
        rows = rows_of(v[None])
        g = _residual(generators, rows, target, r)[0]
        before, worst = worst, np.abs(g).max()
        # near tol, keep the Jacobian when fewer than len(v) chord steps at
        # this step's contraction would reach tol
        closing = (worst <= math.sqrt(tol) and worst < before
                   and worst * (worst / before) ** len(v) < tol)
        if not (worst <= before / _CHORD_CUT or closing):
            solve = None
    if not worst <= tol:
        raise RuntimeError(f"no convergence after {_MAX_STEPS} iterations "
                           f"(residual {worst:.3e})")

    return replace(scheme, slots=tuple(ExponentSlot(g, c)
                                       for g, c in zip(generators, rows[0].tolist())))


@lru_cache(maxsize=None)
def _row_layout(sign, length: int, free: tuple[int, ...]) -> np.ndarray:
    """d rows / d unknowns of :func:`refine`'s coefficient rows, (n, s): its
    rows are affine in the n unknowns ``free`` of ``length`` coefficients,
    each unknown's unit row taken through the mirror of sign ``sign`` (or
    none), a +-1 image.  Cached; read-only."""
    layout = np.eye(length)[list(free)]
    if sign is not None:
        layout = _cp_rows(layout, sign)
    layout.flags.writeable = False  # shared by every caller through the cache
    return layout


# --------------------------------------------------------------------------
# one-parameter optimization
# --------------------------------------------------------------------------


class OptimizeResult(NamedTuple):
    param: float
    E: float
    flat: bool
    at_edge: bool = False
    #: members scored: the grid's, then Brent's probes (or the flat midpoint)
    scored: int = 0


#: A one-parameter family as coefficient rows: it maps a 1-D float64 array
#: of parameters to its fixed generator sequence, its target and the
#: (len(params), s) float64 coefficient rows of the members, raising
#: ``ValueError`` for a parameter that names no member.
RowFamily = Callable[[np.ndarray], tuple[Sequence[Generator], TargetPolynomial, np.ndarray]]

#: Square root of float64's machine epsilon, the relative term of the Brent
#: search's stopping rule: about the smallest step over which float64 still
#: resolves a smooth objective at its minimum.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

#: Points of the optimizer's uniform grid over the parameter range.
_GRID_POINTS = 129

#: Absolute term of the Brent search's stopping rule, in parameter units.
_BRENT_TOL = 1e-10

#: Largest order-condition residual a family member may show: a member whose
#: residual exceeds it at any degree 1..r is not of order r.
_ORDER_SLACK = 1e-8


def optimize_free_parameter(family: RowFamily, r: int,
                            prange: tuple[float, float]) -> OptimizeResult:
    """Minimize the effective error of a one-parameter family of order r.

    ``family`` is a :data:`RowFamily`, such as
    :func:`~commexp.schemes.third_order_rows`: the optimizer works on
    coefficient rows and builds no scheme.  Every member of a uniform grid of
    :data:`_GRID_POINTS` points over ``prange`` must meet the order
    conditions within :data:`_ORDER_SLACK`; Brent's search
    (:func:`_brent_minimize`) then runs on the bracket ``[xs[k-1], xs[k+1]]``
    around the best grid point ``xs[k]`` until that point lies within
    2 (sqrt(eps) |p| + :data:`_BRENT_TOL`) of both bracket ends.  One scorer,
    :func:`_grid_scores`, scores the grid in one call and each probe as a
    one-row call.  The result is the best member scored with its own score
    ``E``; ``scored`` counts the members scored, none twice.  A family whose
    objective varies below round-off is returned at the range's midpoint with
    ``flat=True``; ``at_edge`` is set when the best member is an end point of
    ``prange``, so the minimizer probably lies outside it.  ``r`` must lie
    in 1..``MAX_TRUNCATION`` - 1 and ``prange`` must be a finite, non-empty
    interval, both checked before the family is called.  A failing grid
    raises the ``ValueError`` of its one pass: the family's, or
    :func:`_grid_scores`' naming the first failing member by its parameter.
    """
    a, b = float(prange[0]), float(prange[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"the parameter range needs finite bounds, got {prange!r}")
    if not a < b:
        raise ValueError("empty parameter range")
    _check_order(r, r + 1)

    probes = 0

    def objective(p: float) -> float:
        nonlocal probes
        probes += 1
        return _grid_scores(family, [p], r)[0]

    xs = np.linspace(a, b, _GRID_POINTS)
    fs = _grid_scores(family, xs, r)
    if np.max(fs) - np.min(fs) <= 1e-14 * max(1.0, np.max(np.abs(fs))):
        mid = 0.5 * (a + b)
        return OptimizeResult(mid, float(objective(mid)), True, False, len(xs) + probes)

    k = int(np.argmin(fs))
    best, E = _brent_minimize(objective, xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)],
                              xs[k], fs[k])
    at_edge = k in (0, len(xs) - 1) and best == xs[k]
    return OptimizeResult(float(best), float(E), False, bool(at_edge), len(xs) + probes)


def _brent_minimize(objective: Callable[[float], float], lo: float, hi: float,
                    x: float, fx: float) -> tuple[float, float]:
    """Brent's localmin (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) of ``objective`` on [lo, hi], from the point
    x in it, whose score ``fx`` is known.

    Each step probes the vertex of the parabola through the three best
    points so far, or takes a golden-section step into the larger side of
    the bracket when that vertex falls outside it or the parabolic steps
    stop shrinking.  No probe lies closer than tol = sqrt(eps) |x| +
    :data:`_BRENT_TOL` to the best point x, and the search stops once x lies
    within 2 tol of both ends of the bracket, so a unimodal objective has
    its minimizer that close to x.  Returns the best point probed, x itself
    when no probe scores lower, with its score.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        tol = _SQRT_EPS * abs(x) + _BRENT_TOL
        if abs(x - mid) <= 2.0 * tol - 0.5 * (hi - lo):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:
            # the parabola through (x, fx), (w, fw), (v, fv) has its vertex at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        # take the vertex if it lies inside the bracket and the step is under
        # half the one before last, so that the bracket keeps shrinking
        if abs(p) < abs(0.5 * q * r) and q * (lo - x) < p < q * (hi - x):
            d = p / q
            if x + d - lo < 2.0 * tol or hi - (x + d) < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (hi if x < mid else lo) - x
            d = golden * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = objective(u)
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu


def _grid_scores(family: RowFamily, params, r: int) -> np.ndarray:
    """E of the family member at each parameter as a plain float, from one
    family call, one engine call and one :func:`_deviations` map, with no
    per-member report.  ``ValueError`` names the first member the engine
    refuses (the ``row`` of its error), else the first whose residual over
    degrees 1..r exceeds :data:`_ORDER_SLACK`, as ``family member at
    parameter p: ...``.  E is :func:`_leading_scores`' scalar power, equal
    to ``order_residuals(member).effective_error.E`` bit for bit."""
    params = np.asarray(params, dtype=np.float64)
    generators, target, rows = family(params)
    try:
        vectors = _lie_rows(generators, rows, r + 1)
    except ValueError as error:
        if not hasattr(error, "row"):
            raise
        raise ValueError(f"family member at parameter {params[error.row]:.6g}: "
                         f"{error.detail}") from None
    deviations = _deviations(vectors, target, range(1, r + 2))
    largest = np.maximum.reduce(_worst_residuals(deviations, r)[1], axis=0)
    failing = np.flatnonzero(largest > _ORDER_SLACK)
    if len(failing):
        i = failing[0]
        raise ValueError(f"family member at parameter {params[i]:.6g} violates order {r} "
                         f"(residual {largest[i]:.3e})")
    return np.array(_leading_scores(deviations[r + 1], r, len(generators))[1])
