"""A slow, independent model of the word-series engine, for tests only.

The engine in :mod:`commexp.liealg` keeps a series as one flat vector and
multiplies through precomputed word-index tables.  This oracle keeps one
vector per degree and computes everything from the definitions: the Cauchy
product as a sum of outer products over every pair of degrees, exp and log
as their power series over that product, and the projection by least squares
on basis vectors it builds itself, bracketing letters through the
commutator tree.  It shares only the packed word order (A = 0, B = 1, first
letter most significant) with the engine, so ``flat()`` and ``from_flat``
translate between the two.  :func:`exact_scheme_log` repeats the log of a
slot product in exact rational arithmetic, as the reference that round-off
bounds are measured against, and :func:`complex_step_jacobian` is the
reference for the engine's exact Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from commexp.conditions import slot_pairs
from commexp.liealg import MAX_TRUNCATION, Generator, as_generator, basis_build


@dataclass(frozen=True)
class Word:
    """A word in the two symbols; ``letters`` may be empty (the unit word)."""

    letters: tuple[Generator, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(as_generator(g) for g in self.letters))
        if len(self.letters) > MAX_TRUNCATION:
            raise ValueError(f"word degree {len(self.letters)} exceeds {MAX_TRUNCATION}")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse e.g. ``"AAB"``; ``""`` or ``"1"`` gives the unit word."""
        if text in ("", "1"):
            return cls(())
        return cls(tuple(Generator[ch] for ch in text))

    @classmethod
    def from_index(cls, degree: int, index: int) -> "Word":
        """Inverse of :attr:`index` at the given degree."""
        if not 0 <= index < (1 << degree):
            raise ValueError(f"index {index} out of range for degree {degree}")
        return cls(tuple(Generator((index >> (degree - 1 - i)) & 1) for i in range(degree)))

    @property
    def degree(self) -> int:
        return len(self.letters)

    @property
    def index(self) -> int:
        """Packed-bit position of this word inside its degree block."""
        idx = 0
        for g in self.letters:
            idx = (idx << 1) | int(g)
        return idx

    def __str__(self) -> str:
        return "".join(g.name for g in self.letters) if self.letters else "1"


class TruncatedSeries:
    """Dense degree-truncated series; one numpy vector per word degree."""

    __slots__ = ("truncation", "_deg")

    def __init__(self, truncation: int, blocks: list[np.ndarray]):
        if not 1 <= truncation <= MAX_TRUNCATION:
            raise ValueError(f"truncation must lie in 1..{MAX_TRUNCATION}, got {truncation}")
        self.truncation = truncation
        self._deg = blocks  # blocks[j] has length 2**j, j = 0..truncation

    @classmethod
    def zero(cls, truncation: int, *, complex_: bool = False) -> "TruncatedSeries":
        dtype = np.complex128 if complex_ else np.float64
        return cls(truncation, [np.zeros(1 << j, dtype=dtype) for j in range(truncation + 1)])

    @classmethod
    def unit(cls, truncation: int, *, complex_: bool = False) -> "TruncatedSeries":
        s = cls.zero(truncation, complex_=complex_)
        s._deg[0][0] = 1.0
        return s

    @classmethod
    def from_terms(cls, truncation: int, terms: Mapping[Word | str, complex]) -> "TruncatedSeries":
        complex_ = any(isinstance(c, complex) and c.imag != 0.0 for c in terms.values())
        s = cls.zero(truncation, complex_=complex_)
        for word, coeff in terms.items():
            if isinstance(word, str):
                word = Word.from_string(word)
            if word.degree > truncation:
                raise ValueError(f"word {word} exceeds truncation {truncation}")
            s._deg[word.degree][word.index] += coeff
        return s

    @classmethod
    def from_flat(cls, flat) -> "TruncatedSeries":
        """The series of one flat engine vector (degree j at offset 2**j - 1)."""
        flat = np.asarray(flat)
        truncation = len(flat).bit_length() - 1
        return cls(truncation, [flat[(1 << j) - 1:(2 << j) - 1].copy()
                                for j in range(truncation + 1)])

    def flat(self) -> np.ndarray:
        """The engine's flat vector of this series."""
        return np.concatenate(self._deg)

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(b) for b in self._deg)

    def coefficient(self, word: Word | str) -> complex:
        if isinstance(word, str):
            word = Word.from_string(word)
        if word.degree > self.truncation:
            raise ValueError(f"word {word} exceeds truncation {self.truncation}")
        value = self._deg[word.degree][word.index]
        return complex(value) if self.is_complex else float(value)

    def degree_coefficients(self, degree: int) -> np.ndarray:
        """Copy of the full coefficient vector at one degree."""
        if not 0 <= degree <= self.truncation:
            raise ValueError(f"degree {degree} outside 0..{self.truncation}")
        return self._deg[degree].copy()

    def norm(self) -> float:
        """Euclidean norm over all word coefficients (all degrees)."""
        return math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in self._deg))

    def map(self, f) -> "TruncatedSeries":
        """The series with ``f`` applied to every degree block."""
        return TruncatedSeries(self.truncation, [f(b) for b in self._deg])

    def extended(self, truncation: int) -> "TruncatedSeries":
        """Same series viewed at a higher (or equal) truncation."""
        if truncation < self.truncation:
            raise ValueError("use truncated() to lower the truncation")
        dtype = self._deg[0].dtype
        return TruncatedSeries(truncation, [b.copy() for b in self._deg] + [
            np.zeros(1 << j, dtype=dtype) for j in range(self.truncation + 1, truncation + 1)])

    def truncated(self, truncation: int) -> "TruncatedSeries":
        """Drop all degrees above ``truncation``."""
        return TruncatedSeries(min(truncation, self.truncation),
                               [b.copy() for b in self._deg[:truncation + 1]])

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError(f"truncation mismatch: {self.truncation} vs {other.truncation}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(self.truncation, [x + y for x, y in zip(self._deg, other._deg)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self.map(lambda b: -b)

    def __mul__(self, scalar) -> "TruncatedSeries":
        return self.map(lambda b: b * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return product(self, other)

    def allclose(self, other: "TruncatedSeries", *, tol: float = 1e-12) -> bool:
        self._check_compatible(other)
        return all(np.allclose(x, y, rtol=0.0, atol=tol) for x, y in zip(self._deg, other._deg))


def product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product: concatenating the degree-p word u with the degree-q
    word v lands at packed index ``(u << q) | v``, the row-major ravel of
    ``outer(a_p, b_q)``, so each degree sums such blocks."""
    a._check_compatible(b)
    out = TruncatedSeries.zero(a.truncation, complex_=a.is_complex or b.is_complex)
    for j in range(a.truncation + 1):
        for p in range(j + 1):
            out._deg[j] += np.outer(a._deg[p], b._deg[j - p]).ravel()
    return out


def exp_slot(generator, coefficient, truncation: int) -> TruncatedSeries:
    """Exponential of ``coefficient * generator`` as a truncated series."""
    g = as_generator(generator)
    s = TruncatedSeries.unit(truncation,
                             complex_=isinstance(coefficient, (complex, np.complexfloating)))
    for k in range(1, truncation + 1):
        # the word g^k is all-zero bits for A, all-one bits for B
        s._deg[k][0 if g is Generator.A else (1 << k) - 1] = coefficient**k / math.factorial(k)
    return s


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with no constant term: sum of s^k / k!."""
    if abs(complex(s._deg[0][0])) > 1e-12:
        raise ValueError("series_exp needs a vanishing empty-word coefficient")
    out, term = TruncatedSeries.unit(s.truncation, complex_=s.is_complex), s
    for k in range(1, s.truncation + 1):
        out = out + (1.0 / math.factorial(k)) * term
        term = product(term, s)
    return out


def series_log(s: TruncatedSeries, sign: float = -1.0) -> TruncatedSeries:
    """log(1 + z) = sum (-1)^(k+1) z^k / k, z = s - 1, every power a :func:`product`.

    ``sign=+1`` sums ``z^k / k`` instead: applied to a product of the
    coefficients' magnitudes, that bounds every term the log adds up.
    """
    if abs(complex(s._deg[0][0]) - 1.0) > 1e-12:
        raise ValueError("series_log needs leading coefficient 1")
    z = s - TruncatedSeries.unit(s.truncation, complex_=s.is_complex)
    out, power = z, z
    for k in range(2, s.truncation + 1):
        power = product(power, z)
        out = out + (sign ** (k + 1) / k) * power
    return out


def slot_product(slots, truncation: int) -> TruncatedSeries:
    """Left-to-right product of ``exp(c g)`` over ``(g, c)`` slots."""
    out = TruncatedSeries.unit(truncation,
                               complex_=any(isinstance(c, complex) for _, c in slots))
    for g, c in slots:
        out = product(out, exp_slot(g, c, truncation))
    return out


def scheme_log(slots, truncation: int) -> TruncatedSeries:
    """log of the left-to-right product of ``exp(c g)`` over the slots."""
    return series_log(slot_product(slots, truncation))


@lru_cache(maxsize=None)
def basis_series(degree: int, position: int) -> TruncatedSeries:
    """E_{degree,position} at :data:`MAX_TRUNCATION`, walking its commutator
    tree: ``sign * [letter, child]`` down to a letter, each bracket two
    :func:`product` calls.  Cached: do not modify the result in place."""
    element = basis_build().element(degree, position)
    if element.child is None:
        return TruncatedSeries.from_terms(MAX_TRUNCATION, {Word((Generator(position - 1),)): 1.0})
    letter = basis_series(1, int(element.letter) + 1)
    child = basis_series(*element.child)
    return element.sign * (product(letter, child) - product(child, letter))


def lie_project(s: TruncatedSeries) -> tuple[dict[int, np.ndarray], dict[int, float]]:
    """Coordinates and least-squares residual per degree of ``s`` on the
    tree-built basis (:func:`basis_series`)."""
    vectors, residuals = {}, {}
    for j in range(1, s.truncation + 1):
        columns = np.column_stack([basis_series(j, l).degree_coefficients(j)
                                   for l in range(1, basis_build().dim(j) + 1)])
        y = s.degree_coefficients(j)
        vectors[j] = np.linalg.lstsq(columns, y, rcond=None)[0]
        residuals[j] = float(np.linalg.norm(columns @ vectors[j] - y))
    return vectors, residuals


# ---------------------------------------------------------------------------
# closed-form cross-check for alternating compositions
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


class Gaussian:
    """An exact complex rational ``re + im i`` (two Fractions), enough of a
    number for numpy object arrays to add and multiply."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = other if isinstance(other, Gaussian) else Gaussian(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Gaussian):
            return Gaussian(self.re * other, self.im * other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def exact_scheme_log(generators, coefficients, truncation: int) -> list[np.ndarray]:
    """log of the left-to-right product of ``exp(c g)``, exactly: the float
    ``coefficients`` read as the rationals they are (complex ones as
    :class:`Gaussian`), every product and every ``1/k`` exact.  Returns one
    object array per degree 0..N, rounded by the caller.

    Appending ``exp(c g)`` adds ``c^k/k!`` times each degree-(j-k) word
    followed by ``g^k``; the log is ``sum (-1)^(k+1) z^k / k`` over the
    outer-product Cauchy product, as :func:`series_log` sums it in floats.
    """
    def zeros(degree):
        return np.full(1 << degree, Fraction(0), dtype=object)

    blocks = [np.array([Fraction(1)], dtype=object)] + [zeros(j) for j in range(1, truncation + 1)]
    for g, c in zip(generators, coefficients):
        c = complex(c)
        c = Gaussian(c.real, c.imag) if c.imag else Fraction(c.real)
        powers = [Fraction(1)]
        for k in range(1, truncation + 1):
            powers.append(powers[-1] * c * Fraction(1, k))
        appended = []
        for j in range(truncation + 1):
            block = blocks[j].copy()
            for k in range(1, j + 1):
                tail = 0 if as_generator(g) is Generator.A else (1 << k) - 1
                block[(np.arange(1 << (j - k)) << k) | tail] += blocks[j - k] * powers[k]
            appended.append(block)
        blocks = appended

    def product_(a, b):
        return [sum((np.outer(a[p], b[j - p]).ravel() for p in range(j + 1)), zeros(j))
                for j in range(truncation + 1)]

    z = [zeros(0)] + blocks[1:]
    log, power = list(z), z
    for k in range(2, truncation + 1):
        power = product_(power, z)
        log = [x + Fraction((-1) ** (k + 1), k) * y for x, y in zip(log, power)]
    return log


# ---------------------------------------------------------------------------
# complex-step differentiation
# ---------------------------------------------------------------------------

#: Imaginary step of :func:`complex_step_jacobian`.  Its truncation error is
#: O(h^2) relative and it suffers no cancellation, so any h far below
#: sqrt(eps) and far above the underflow threshold gives eps accuracy.
COMPLEX_STEP = 1e-20


def complex_step_jacobian(residual_of, v: np.ndarray) -> np.ndarray:
    """J[:, i] = Im F(v + i h e_i) / h for a residual F analytic in v.

    ``residual_of`` maps (b, n) rows to (b, m) residual rows, so the n
    stepped points ``v + i h I`` take one call.  The step costs one
    evaluation per column, against two for central differences, and is exact
    to round-off (Squire & Trapp 1998).
    """
    stepped = v + 1j * COMPLEX_STEP * np.eye(len(v))
    return (residual_of(stepped).imag / COMPLEX_STEP).T
