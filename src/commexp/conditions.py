"""Order conditions, effective error, and coefficient tuning.

This module answers questions *about* a composition: which target it
reproduces and to what order, how large its leading error term is, whether
it has the counter-palindromic symmetry, and how to polish or optimize its
coefficients.  The heavy lifting (BCH expansion, basis projection) lives in
:mod:`commexp.liealg`; the matrix harness used by :func:`empirical_order`
lives in :mod:`commexp.matform` and is imported lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .liealg import (
    LIE_DIMS,
    MAX_TRUNCATION,
    Generator,
    LieCoefficients,
    as_generator,
    lie_project,
    scheme_log,
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
    "cp_expand",
    "cp_pattern",
    "cp_identities",
    "cp_independent_positions",
    "cp_condition_counts",
    "IdentityCheck",
    "empirical_order",
    "refine",
    "OptimizeResult",
    "optimize_free_parameter",
    "ba_quadratic_coefficients",
]


# --------------------------------------------------------------------------
# targets
# --------------------------------------------------------------------------


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

    def __post_init__(self):
        for (degree, position), value in self.terms.items():
            if not 1 <= degree <= MAX_TRUNCATION:
                raise ValueError(f"target degree {degree} outside basis range")
            if not 1 <= position <= LIE_DIMS[degree - 1]:
                raise ValueError(f"position {position} invalid at degree {degree}")
            if not np.isfinite(complex(value)):
                raise ValueError("target coefficients must be finite")

    def coefficient(self, degree: int, position: int) -> complex:
        return self.terms.get((degree, position), 0.0)

    def vector(self, degree: int) -> np.ndarray:
        """Dense coefficient vector of the target at one degree."""
        values = [
            self.terms.get((degree, pos), 0.0)
            for pos in range(1, LIE_DIMS[degree - 1] + 1)
        ]
        if any(isinstance(v, complex) and v.imag != 0.0 for v in values):
            return np.array(values, dtype=np.complex128)
        return np.array([float(np.real(v)) for v in values])

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
    turn (A·1, B·1, B·(-1), A·1 gives A·2).
    """
    runs: list[tuple[Generator, complex]] = []
    for gen, coeff in slot_pairs(scheme):
        if runs and runs[-1][0] == gen:
            coeff += runs.pop()[1]
        if coeff != 0:
            runs.append((gen, coeff))
    return runs


def _project(pairs, truncation: int) -> LieCoefficients:
    """Basis coordinates of the log of a slot product, Lie-checked at the
    round-off its coefficients allow."""
    return lie_project(scheme_log(pairs, truncation),
                       coefficient_sum=sum(abs(c) for _, c in pairs))


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


def order_residuals(scheme, target: TargetPolynomial, r: int, tol: float = 1e-10) -> ResidualReport:
    """Project the composition's log and compare against ``target`` per degree.

    Residuals are reported for degrees 1..r.  ``verified_order`` is the
    largest order r' <= r whose residuals all stay within ``tol``.  The
    report also carries the effective error for order r, sized from the same
    projected log (what :func:`effective_error` returns when ``target`` is
    the scheme's own); ``leading_error_norm`` is its ``leading_norm``, the
    Euclidean deviation from ``target`` at degree r+1 in the commutator basis.
    """
    if r < 1:
        raise ValueError(f"order must be at least 1, got {r}")
    if r + 1 > MAX_TRUNCATION:
        raise ValueError(f"order {r} needs degree {r + 1} > ceiling {MAX_TRUNCATION}")
    pairs = slot_pairs(scheme)
    coeffs = _project(pairs, r + 1)

    residuals: dict[int, np.ndarray] = {}
    for degree in range(1, r + 1):
        residuals[degree] = np.abs(coeffs.vectors[degree] - target.vector(degree))

    verified = 0
    for degree in range(1, r + 1):
        if np.all(residuals[degree] <= tol):
            verified = degree
        else:
            break
    return ResidualReport(r, tol, residuals, verified,
                          _size_leading_error(coeffs, target, r, len(pairs)))


@dataclass(frozen=True)
class EffectiveError:
    """Cost-weighted leading-error magnitude of an order-r composition."""

    E: float
    per_exponential: float
    slot_count: int
    order: int
    leading_norm: float


def _size_leading_error(coeffs: LieCoefficients, target: TargetPolynomial | None,
                        r: int, slot_count: int) -> EffectiveError:
    """E from the degree-(r+1) deviation from ``target`` (no target: from zero)."""
    deviation = coeffs.vectors[r + 1]
    if target is not None:
        deviation = deviation - target.vector(r + 1)
    norm = float(np.linalg.norm(deviation))
    E = slot_count * norm ** (1.0 / r)
    return EffectiveError(E, E / slot_count, slot_count, r, norm)


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
        r = scheme.order
    if r + 1 > MAX_TRUNCATION:
        raise ValueError(f"degree {r + 1} beyond truncation ceiling")
    return _size_leading_error(_project(pairs, r + 1),
                               getattr(scheme, "target", None), r, len(pairs))


# --------------------------------------------------------------------------
# counter-palindromic structure
# --------------------------------------------------------------------------

_CP_SIGNS = {"positive": 1, "negative": -1}


def _cp_sign(sign) -> int:
    try:
        return _CP_SIGNS[sign]
    except KeyError:
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}") from None


def cp_half_closure(tail: Sequence[complex], sign) -> complex:
    """The leading coefficient that zeroes both degree-1 sums.

    positive: c0 = -sum(tail);  negative: c0 = sum of tail with alternating
    signs starting +.
    """
    s = _cp_sign(sign)
    if s > 0:
        return -sum(tail)
    return sum(c if j % 2 == 0 else -c for j, c in enumerate(tail))


def cp_expand(half: Sequence[complex], sign, *, name: str | None = None,
              order: int = 1, note: str = ""):
    """Mirror a half-pattern into a full counter-palindromic composition.

    The result has 2(m+1) slots alternating B, A, ..., A; the second half
    repeats the first half's coefficients in reverse order, kept as-is for
    ``sign='positive'`` and negated for ``sign='negative'``.
    """
    from .schemes import ExponentSlot, Scheme

    half = list(half)
    if len(half) < 2:
        raise ValueError("half-pattern needs at least c0 and c1")
    s = _cp_sign(sign)
    slots = tuple(ExponentSlot(g, c) for g, c in _cp_pairs(half, s))
    kind = "PCP" if s > 0 else "NCP"
    return Scheme(
        name=name or f"{kind.lower()}{len(slots)}",
        slots=slots,
        target=commutator_target(),
        order=order,
        family=kind,
        note=note,
    )


def _cp_pairs(half: list, s: int) -> list[tuple[Generator, complex]]:
    """Slots B, A, ..., A of the mirrored pattern, as (generator, coefficient)."""
    full = half + [s * c for c in reversed(half)]
    return [(Generator.B if i % 2 == 0 else Generator.A, c) for i, c in enumerate(full)]


def cp_pattern(scheme) -> tuple[tuple | None, str | None]:
    """``(half, sign)`` of a mirrored composition, ``(None, None)`` otherwise.

    The inverse of :func:`_cp_pairs`: the slots, at least four, must be
    exactly the expansion of their own first half, going B, A, ..., A with
    the reversed first half kept ("positive") or negated ("negative").
    """
    pairs = [(slot.generator, slot.coefficient) for slot in scheme.slots]
    half = [c for _, c in pairs[:len(pairs) // 2]]
    for sign, s in _CP_SIGNS.items():
        if len(pairs) >= 4 and pairs == _cp_pairs(half, s):
            return tuple(half), sign
    return None, None


class IdentityCheck(NamedTuple):
    description: str
    lhs: complex
    rhs: complex
    satisfied: bool


# Each entry: degree, left position, [(right position, factor for the
# positive pattern, factor for the negative pattern), ...].
_CP_IDENTITIES = [
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

# Positions (0-based) left free once the identities above are accounted for.
CP_INDEPENDENT = {
    1: (0,),
    2: (0,),
    3: (0,),
    4: (0, 1),
    5: (0, 1, 2),
    6: (0, 1, 2, 4, 5),
}


def cp_independent_positions(degree: int) -> tuple[int, ...]:
    """0-based coefficient positions not fixed by the mirror identities."""
    return CP_INDEPENDENT[degree]


def cp_identities(scheme, sign=None, tol: float = 1e-10) -> list[IdentityCheck]:
    """Evaluate the ten mirror-symmetry identities on a composition.

    ``sign`` defaults to the scheme's counter-palindromic sign.  Each
    check compares w_{j,l} against its predicted linear combination at
    tolerance ``tol`` (scaled by the magnitudes involved).
    """
    if sign is None:
        sign = getattr(scheme, "cp_sign", None)
        if sign is None:
            raise ValueError("scheme carries no counter-palindromic sign; pass one")
    coeffs = _project(slot_pairs(scheme), max(CP_INDEPENDENT))
    return _identity_checks(coeffs.w, _cp_sign(sign), tol)


def _identity_checks(w, s: int, tol: float) -> list[IdentityCheck]:
    """The mirror identities of sign ``s`` on the coefficients ``w(degree, position)``."""
    results = []
    for degree, left, combo in _CP_IDENTITIES:
        lhs = w(degree, left)
        rhs = 0.0
        pieces = []
        for right, fpos, fneg in combo:
            factor = fpos if s > 0 else fneg
            rhs += factor * w(degree, right)
            pieces.append(f"{factor:+g}*w({degree},{right})")
        ok = abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))
        results.append(
            IdentityCheck(f"w({degree},{left}) = {' '.join(pieces)}", lhs, rhs, ok)
        )
    return results


def cp_condition_counts(sign, r: int = 6, *, samples: int = 30, m: int = 6,
                        seed: int = 7, tol: float = 1e-8) -> dict[int, int]:
    """Independent order conditions per degree for the mirrored pattern.

    Samples random half-patterns, stacks the projected coefficient vectors
    per degree, and counts the dimension they span.  Identities among the
    w_{j,l} reduce the count below the basis dimension; the per-degree
    numbers (and their cumulative sums) are what a solver actually has to
    satisfy.
    """
    rng = np.random.default_rng(seed)
    vectors: dict[int, list[np.ndarray]] = {d: [] for d in range(1, r + 1)}
    for _ in range(samples):
        half = rng.uniform(-1.5, 1.5, size=m + 1)
        scheme = cp_expand(half, sign)
        coeffs = _project(slot_pairs(scheme), r)
        for d in range(1, r + 1):
            vectors[d].append(coeffs.vectors[d])
    counts = {}
    for d in range(1, r + 1):
        stack = np.array(vectors[d])
        scale = np.max(np.abs(stack))
        counts[d] = int(np.linalg.matrix_rank(stack, tol=tol * max(scale, 1.0)))
    return counts


# --------------------------------------------------------------------------
# empirical order (matrix harness)
# --------------------------------------------------------------------------


def empirical_order(scheme, target: TargetPolynomial, pair, t_grid=None,
                    underflow: float = 1e-14) -> float:
    """Slope of log error vs log t for a single composition step.

    An order-r approximation of the target shows slope r+1.  Grid points
    whose error falls below ``underflow`` are dropped; fewer than three
    usable points raises.
    """
    from . import matform

    if t_grid is None:
        t_grid = np.exp2(np.linspace(-7.0, -3.0, 9))
    ts, errs = [], []
    for t in np.asarray(t_grid, dtype=float):
        U = matform.evaluate_scheme(scheme, pair, t)
        T = matform.target_matrix(target, pair, t)
        err = matform.two_norm(U - T)
        if err >= underflow:
            ts.append(t)
            errs.append(err)
    if len(ts) < 3:
        raise ValueError("not enough grid points above the round-off floor")
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    return float(slope)


# --------------------------------------------------------------------------
# Newton refinement
# --------------------------------------------------------------------------


def _residual(pairs, target, r):
    """Every basis coefficient of the slot product's log through degree r
    minus the target's.

    Complex coefficients give complex residuals (the complex-step Jacobian in
    :func:`refine` relies on that).
    """
    coeffs = _project(pairs, r)
    return np.concatenate([coeffs.vectors[degree] - target.vector(degree)
                           for degree in range(1, r + 1)])


def _mirror_sign(scheme, target, r) -> str | None:
    """The sign of a mirrored scheme if mirrored patterns can meet ``target``
    through degree r, else None.

    Their closure zeroes degree 1 and the identities tie the dependent
    components, so the independent components stand for all conditions only
    when 2 <= r <= 6 and the target has no degree-1 part and obeys the
    identities.
    """
    _, sign = cp_pattern(scheme)
    if sign is None or not 2 <= r <= max(CP_INDEPENDENT) or np.any(target.vector(1)):
        return None
    checks = _identity_checks(target.coefficient, _cp_sign(sign), 1e-12)
    if all(check.satisfied for (degree, _, _), check in zip(_CP_IDENTITIES, checks)
           if degree <= r):
        return sign
    return None


#: Imaginary step of the complex-step Jacobian.  Its truncation error is
#: O(h^2) relative and it suffers no cancellation, so any h far below
#: sqrt(eps) and far above the underflow threshold gives eps accuracy.
_COMPLEX_STEP = 1e-20


def _complex_step_jacobian(residual_of, v: np.ndarray) -> np.ndarray:
    """J[:, i] = Im F(v + i h e_i) / h for a residual F analytic in v.

    Needs one evaluation per column, against two for central differences,
    and is exact to round-off (Squire & Trapp 1998).
    """
    columns = []
    for i in range(len(v)):
        vc = v.astype(np.complex128)
        vc[i] += 1j * _COMPLEX_STEP
        columns.append(residual_of(vc).imag / _COMPLEX_STEP)
    return np.column_stack(columns)


def refine(scheme, target: TargetPolynomial | None = None, free_slots=None, *,
           r: int | None = None, tol: float = 1e-13, max_iter: int = 50):
    """Newton-polish coefficients until the order conditions hold to ``tol``.

    A mirrored scheme (:func:`cp_pattern`) whose target mirrored patterns
    can meet (:func:`_mirror_sign`) is iterated on its half-pattern with the
    leading coefficient eliminated by the closure relation, so the mirror
    stays exact at every iterate, and ``free_slots`` are 0-based indices into
    the half-pattern tail, for a mirrored scheme loaded from a file too.  Any
    other scheme is iterated on its slot coefficients, with ``free_slots``
    indexing the slot list.  Either way the residual (:func:`_residual`) holds
    every basis component of the product's log through degree r, but the
    unknowns must only match the independent conditions (for a mirror, the
    ``CP_INDEPENDENT`` components from degree 2: its closure and identities
    hold the rest).  The Jacobian is formed by complex steps
    (:func:`_complex_step_jacobian`): the residual chain is analytic in the
    coefficients, so one complex evaluation per unknown gives each column to
    round-off while the iterate stays real.  Returns the scheme with its
    slots replaced and every other field kept; raises ``RuntimeError`` on
    divergence or stagnation.
    """
    from .schemes import ExponentSlot

    if target is None:
        target = scheme.target
    if r is None:
        r = scheme.order
    if any(complex(w).imag != 0.0 for w in target.terms.values()):
        raise ValueError("refinement handles real targets only")

    pairs = slot_pairs(scheme)
    if any(abs(complex(c).imag) > 0 for _, c in pairs):
        raise ValueError("refinement handles real coefficients only")
    generators = [g for g, _ in pairs]
    x_full = np.array([float(np.real(c)) for _, c in pairs])
    sign = _mirror_sign(scheme, target, r)
    if sign is not None:
        x_full = x_full[1:len(pairs) // 2]  # the half-pattern's tail

        def pairs_of(x):
            return _cp_pairs([cp_half_closure(x, sign), *x], _cp_sign(sign))

        n_conditions = sum(len(CP_INDEPENDENT[d]) for d in range(2, r + 1))
    else:
        def pairs_of(x):
            return list(zip(generators, x))

        n_conditions = sum(LIE_DIMS[d - 1] for d in range(1, r + 1))

    free = list(range(len(x_full))) if free_slots is None else sorted(free_slots)
    if any(i < 0 or i >= len(x_full) for i in free):
        raise ValueError("free_slots index out of range")
    if len(free) < n_conditions:
        raise ValueError(
            f"{len(free)} free coefficients cannot satisfy {n_conditions} conditions"
        )

    x = x_full.copy()

    def eval_at(values):
        y = x.astype(values.dtype)
        y[free] = values
        return _residual(pairs_of(y), target, r)

    v = x_full[free].copy()
    g = eval_at(v)
    for _ in range(max_iter):
        worst = np.max(np.abs(g))
        if worst <= tol:
            break
        if not np.all(np.isfinite(g)) or worst > 1e6:
            raise RuntimeError("refinement diverged")
        J = _complex_step_jacobian(eval_at, v)
        step, *_ = np.linalg.lstsq(J, -g, rcond=None)
        v = v + step
        g = eval_at(v)
    if np.max(np.abs(g)) > tol:
        raise RuntimeError(f"no convergence after {max_iter} iterations "
                           f"(residual {np.max(np.abs(g)):.3e})")

    x[free] = v
    return replace(scheme, slots=tuple(ExponentSlot(g, c) for g, c in pairs_of(x)))


# --------------------------------------------------------------------------
# one-parameter optimization
# --------------------------------------------------------------------------


class OptimizeResult(NamedTuple):
    param: float
    E: float
    flat: bool
    at_edge: bool = False


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_free_parameter(family: Callable[[float], object], r: int,
                            prange: tuple[float, float], *, grid: int = 129,
                            param_tol: float = 1e-10,
                            order_tol: float = 1e-8) -> OptimizeResult:
    """Minimize the effective error of a one-parameter family of order r.

    Scans a uniform grid over ``prange`` (checking that every candidate
    actually satisfies the order conditions), then tightens the best
    bracket by golden-section search.  A family whose objective varies
    below round-off is returned with ``flat=True``.  ``at_edge`` is set when
    the grid minimum is an end point of ``prange`` and the search ends within
    ``param_tol`` of it: the minimizer then probably lies outside the range.
    """
    a, b = float(prange[0]), float(prange[1])
    if not a < b:
        raise ValueError("empty parameter range")

    def objective(p: float) -> float:
        scheme = family(p)
        report = order_residuals(scheme, scheme.target, r)
        if report.verified_order < r:
            worst = max(report.max_residual(d) for d in range(1, r + 1))
            if worst > order_tol:
                raise ValueError(
                    f"family member at parameter {p:.6g} violates order {r} "
                    f"(residual {worst:.3e})"
                )
        return report.effective_error.E

    xs = np.linspace(a, b, grid)
    fs = np.array([objective(x) for x in xs])
    if np.max(fs) - np.min(fs) <= 1e-14 * max(1.0, np.max(np.abs(fs))):
        mid = 0.5 * (a + b)
        return OptimizeResult(mid, float(objective(mid)), True, False)

    k = int(np.argmin(fs))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, grid - 1)]

    # golden-section contraction of the bracket
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > param_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    best = 0.5 * (lo + hi)
    at_edge = k in (0, grid - 1) and abs(best - xs[k]) <= param_tol
    return OptimizeResult(float(best), float(objective(best)), False, bool(at_edge))


# --------------------------------------------------------------------------
# closed-form cross-check for alternating compositions
# --------------------------------------------------------------------------


def ba_quadratic_coefficients(scheme) -> dict[tuple[int, int], float]:
    """Closed forms for w_{1,1}, w_{1,2}, w_{2,1} of a B,A,...,B,A composition.

    For slots (c_0 B, c_1 A, ..., c_{2n-2} B, c_{2n-1} A):

        w_{1,1} = sum of A coefficients
        w_{1,2} = sum of B coefficients
        w_{2,1} = w_{1,1} w_{1,2} / 2  -  sum_i c_{2i} * sum_{j>=i} c_{2j+1}

    Useful as an independent check on the series engine at low degree.
    """
    pairs = slot_pairs(scheme)
    if len(pairs) % 2 != 0:
        raise ValueError("composition must have an even slot count")
    for i, (gen, _) in enumerate(pairs):
        expect = Generator.B if i % 2 == 0 else Generator.A
        if gen != expect:
            raise ValueError("slots must alternate B, A, ... starting with B")
    b_coeffs = [c for i, (_, c) in enumerate(pairs) if i % 2 == 0]
    a_coeffs = [c for i, (_, c) in enumerate(pairs) if i % 2 == 1]
    w11 = sum(a_coeffs)
    w12 = sum(b_coeffs)
    cross = sum(b_coeffs[i] * sum(a_coeffs[i:]) for i in range(len(b_coeffs)))
    return {(1, 1): w11, (1, 2): w12, (2, 1): 0.5 * w11 * w12 - cross}
