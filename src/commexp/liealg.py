"""Truncated free-algebra engine for products of exponentials in two symbols.

Everything in this module lives in the free associative algebra on two
symbols A and B, truncated at a fixed word degree ``truncation`` (at most
:data:`MAX_TRUNCATION`).  A series is stored densely, one coefficient vector
per degree; the word with letters ``(g_0, ..., g_{j-1})`` sits at index
``sum(g_i << (j-1-i))`` inside the degree-``j`` vector, i.e. words are packed
bit strings with A = 0, B = 1 and the first letter in the most significant
position.  Concatenation of words is then exactly the row-major ravel of an
outer product, which keeps the Cauchy product (:func:`series_mul`) short.

The hot path, :func:`scheme_log`, keeps the running product as one flat
vector (degree j at offset ``2**j - 1``) and appends each slot ``exp(c X)`` to
it in place: every word ``u X^k`` gains ``c^k/k!`` times the old coefficient
of ``u``.  One gather through a precomputed index table and one dot product do
that for all words and all k at once, so a slot costs two numpy calls at any
truncation.  :func:`series_log` multiplies through the same tables.
:func:`series_mul` and :func:`exp_slot` are the plain reference the fast path
is tested against.

Logarithms of products of exponentials are Lie elements (sums of nested
commutators); :func:`lie_project` rewrites them in the right-nested
commutator basis built by :func:`basis_build` (dimensions 2, 1, 2, 3, 6, 9,
18 for degrees 1..7, so every degree the engine truncates at) and flags
non-Lie inputs through the least-squares residual.  :func:`letter_map` gives
a letter substitution A -> f_A X_A, B -> f_B X_B as a matrix on those basis
coordinates, so the packed word layout stays inside this module.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

import numpy as np

#: Hard ceiling for the word-degree truncation of the engine.
MAX_TRUNCATION = 7

#: Dimension of the commutator subspace at degrees 1..MAX_TRUNCATION.
LIE_DIMS = (2, 1, 2, 3, 6, 9, 18)

#: Default scaled tolerance for the Lie-membership (Friedrichs) residual test.
DEFAULT_LIE_TOL = 1e-10

#: Round-off of a :func:`scheme_log` coefficient relative to the largest term
#: it sums (the slot-append property tests), about (sum |c_i|)^j / j! at degree j.
LOG_ROUND_OFF = 1e-13

#: Largest log coefficient :func:`scheme_log` returns.  Squares of larger ones,
#: summed over the 2**7 words of a degree, would overflow the Euclidean norms
#: that :func:`lie_project` and the error measures take.
MAX_LOG_COEFFICIENT = 1e150


class LieMembershipError(ValueError):
    """Raised when a series fails the Lie-membership residual test."""


class Generator(enum.IntEnum):
    """The two formal symbols.  The integer value is the packed bit."""

    A = 0
    B = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def as_generator(g) -> Generator:
    """Coerce ``g`` ('A'/'B', 0/1 or Generator) into a :class:`Generator`."""
    if isinstance(g, Generator):
        return g
    if isinstance(g, str):
        try:
            return Generator[g]
        except KeyError:
            raise ValueError(f"unknown generator {g!r}") from None
    return Generator(g)


@dataclass(frozen=True)
class Word:
    """A word in the two symbols; ``letters`` may be empty (the unit word)."""

    letters: tuple[Generator, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "letters", tuple(as_generator(g) for g in self.letters)
        )
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
        letters = tuple(
            Generator((index >> (degree - 1 - i)) & 1) for i in range(degree)
        )
        return cls(letters)

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
            raise ValueError(
                f"truncation must lie in 1..{MAX_TRUNCATION}, got {truncation}"
            )
        self.truncation = truncation
        self._deg = blocks  # blocks[j] has length 2**j, j = 0..truncation

    # -- constructors -------------------------------------------------

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
    def from_terms(
        cls, truncation: int, terms: Mapping[Word | str, complex]
    ) -> "TruncatedSeries":
        complex_ = any(isinstance(c, complex) and c.imag != 0.0 for c in terms.values())
        s = cls.zero(truncation, complex_=complex_)
        for word, coeff in terms.items():
            if isinstance(word, str):
                word = Word.from_string(word)
            if word.degree > truncation:
                raise ValueError(f"word {word} exceeds truncation {truncation}")
            s._deg[word.degree][word.index] += coeff
        return s

    # -- inspection ----------------------------------------------------

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

    def terms(self, *, tol: float = 0.0) -> dict[Word, complex]:
        """Nonzero coefficients as an explicit word -> scalar map."""
        out: dict[Word, complex] = {}
        for j, block in enumerate(self._deg):
            for idx in np.flatnonzero(np.abs(block) > tol):
                out[Word.from_index(j, int(idx))] = self.coefficient(
                    Word.from_index(j, int(idx))
                )
        return out

    def norm(self) -> float:
        """Euclidean norm over all word coefficients (all degrees)."""
        return math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in self._deg))

    # -- structural helpers --------------------------------------------

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.truncation, [b.copy() for b in self._deg])

    def extended(self, truncation: int) -> "TruncatedSeries":
        """Same series viewed at a higher (or equal) truncation."""
        if truncation < self.truncation:
            raise ValueError("use truncated() to lower the truncation")
        dtype = self._deg[0].dtype
        blocks = [b.copy() for b in self._deg]
        blocks += [
            np.zeros(1 << j, dtype=dtype) for j in range(self.truncation + 1, truncation + 1)
        ]
        return TruncatedSeries(truncation, blocks)

    def truncated(self, truncation: int) -> "TruncatedSeries":
        """Drop all degrees above ``truncation``."""
        if truncation >= self.truncation:
            return self.copy()
        return TruncatedSeries(truncation, [self._deg[j].copy() for j in range(truncation + 1)])

    # -- linear arithmetic ----------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            self.truncation, [x + y for x, y in zip(self._deg, other._deg)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            self.truncation, [x - y for x, y in zip(self._deg, other._deg)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.truncation, [-x for x in self._deg])

    def __mul__(self, scalar) -> "TruncatedSeries":
        return TruncatedSeries(self.truncation, [x * scalar for x in self._deg])

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)

    def allclose(self, other: "TruncatedSeries", *, tol: float = 1e-12) -> bool:
        self._check_compatible(other)
        return all(
            np.allclose(x, y, rtol=0.0, atol=tol) for x, y in zip(self._deg, other._deg)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join(f"{w}: {c:+.6g}" for w, c in list(self.terms().items())[:8])
        return f"TruncatedSeries(N={self.truncation}, {{{shown}}})"


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product in the truncated word algebra.

    Concatenating the degree-p word ``u`` with the degree-q word ``v`` lands
    at packed index ``(u << q) | v``, which is precisely the row-major ravel
    of ``outer(a_p, b_q)``; each result degree is a sum of such blocks.
    """
    a._check_compatible(b)
    n = a.truncation
    complex_ = a.is_complex or b.is_complex
    out = TruncatedSeries.zero(n, complex_=complex_)
    for j in range(n + 1):
        acc = out._deg[j]
        for p in range(j + 1):
            ap = a._deg[p]
            bq = b._deg[j - p]
            if not ap.any() or not bq.any():
                continue
            acc += np.outer(ap, bq).ravel()
    return out


def exp_slot(generator, coefficient, truncation: int) -> TruncatedSeries:
    """Exponential of ``coefficient * generator`` as a truncated series."""
    g = as_generator(generator)
    complex_ = isinstance(coefficient, (complex, np.complexfloating))
    s = TruncatedSeries.zero(truncation, complex_=complex_)
    s._deg[0][0] = 1.0
    for k in range(1, truncation + 1):
        # the word g^k is all-zero bits for A, all-one bits for B
        idx = 0 if g is Generator.A else (1 << k) - 1
        s._deg[k][idx] = coefficient**k / math.factorial(k)
    return s


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series whose empty-word coefficient is exactly 1."""
    lead = complex(s._deg[0][0])
    if abs(lead - 1.0) > 1e-12:
        raise ValueError(f"series_log needs leading coefficient 1, got {lead}")
    return _from_flat(s.truncation, _log_flat(_padded(s), s.truncation))


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with no constant term (inverse of :func:`series_log`)."""
    if abs(complex(s._deg[0][0])) > 1e-12:
        raise ValueError("series_exp needs a vanishing empty-word coefficient")
    n = s.truncation
    out = TruncatedSeries.unit(n, complex_=s.is_complex)
    power = s.copy()
    power._deg[0][0] = 0.0
    term = power.copy()
    for k in range(1, n + 1):
        out = out + (1.0 / math.factorial(k)) * term
        if k < n:
            term = series_mul(term, power)
    return out


def scheme_log(slots: Iterable, truncation: int) -> TruncatedSeries:
    """log of the left-to-right product of exponentials ``exp(c_i * g_i)``.

    ``slots`` yields ``(generator, coefficient)`` pairs; the first pair is the
    leftmost factor of the product.  Raises ``ValueError`` when a slot's
    powers ``c^k/k!`` are not finite at this truncation, or when a log
    coefficient is not finite or exceeds :data:`MAX_LOG_COEFFICIENT`, rather
    than returning a series of infinities and NaNs.
    """
    slots = list(slots)
    if not slots:
        raise ValueError("scheme_log needs at least one slot")
    with np.errstate(over="ignore", invalid="ignore"):
        log = _log_flat(_slot_product(slots, truncation), truncation)
    largest = float(np.abs(log).max())
    if not largest <= MAX_LOG_COEFFICIENT:
        raise ValueError(
            f"log of the slot product has a coefficient of size {largest:.3g} at "
            f"truncation {truncation} (limit {MAX_LOG_COEFFICIENT:g})"
        )
    return _from_flat(truncation, log)


class _WordTables(NamedTuple):
    """Flat-index tables for one truncation N (see :func:`_word_tables`)."""

    size: int
    prefix: np.ndarray
    suffix: np.ndarray
    append: dict[Generator, np.ndarray]


@lru_cache(maxsize=None)
def _word_tables(truncation: int) -> _WordTables:
    """Where the splits of every word sit in the flat layout.

    A series at truncation N is flattened to ``size = 2**(N+1) - 1`` entries,
    degree j at offset ``2**j - 1``, plus one trailing zero that the tables
    point at for splits that do not exist.  For q = 0..N and every word t,
    ``prefix[q, t]`` is t without its last q letters and ``suffix[q, t]`` is
    those q letters as a word of degree q (both the pad when t is shorter than
    q); ``append[X][q, t]`` is ``prefix[q, t]`` where t ends in ``X^q`` and the
    pad elsewhere.
    """
    if not 1 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"truncation must lie in 1..{MAX_TRUNCATION}, got {truncation}")
    size = (2 << truncation) - 1
    degree = np.repeat(np.arange(truncation + 1), 1 << np.arange(truncation + 1))
    index = np.arange(size) - ((1 << degree) - 1)
    q = np.arange(truncation + 1)[:, None]
    fits = q <= degree
    head = np.where(fits, degree - q, 0)
    prefix = np.where(fits, (1 << head) - 1 + (index >> q), size)
    tail = index & ((1 << q) - 1)
    suffix = np.where(fits, (1 << q) - 1 + tail, size)
    append = {
        Generator.A: np.where(fits & (tail == 0), prefix, size),
        Generator.B: np.where(fits & (tail == (1 << q) - 1), prefix, size),
    }
    for table in (prefix, suffix, *append.values()):
        table.flags.writeable = False  # shared by every caller through the cache
    return _WordTables(size, prefix, suffix, append)


def _padded(s: TruncatedSeries) -> np.ndarray:
    """Fresh flat copy of ``s`` with the trailing zero the word tables point at."""
    return np.concatenate([*s._deg, np.zeros(1, dtype=s._deg[0].dtype)])


def _from_flat(truncation: int, flat: np.ndarray) -> TruncatedSeries:
    """Series whose degree blocks are views into one flat vector."""
    return TruncatedSeries(
        truncation, [flat[(1 << j) - 1 : (2 << j) - 1] for j in range(truncation + 1)]
    )


def _slot_product(slots: list, truncation: int) -> np.ndarray:
    """Padded flat left-to-right product of ``exp(c * g)`` over ``(g, c)`` pairs.

    Right-multiplying by ``exp(c X)`` adds, to each word ending in ``X^k``,
    ``c^k/k!`` times the coefficient of the word without that tail; row k of
    ``append[X]`` gathers those prefixes, so a slot is one gather and one dot
    product written back into the running product.
    """
    tables = _word_tables(truncation)
    complex_ = any(isinstance(c, (complex, np.complexfloating)) for _, c in slots)
    flat = np.zeros(tables.size + 1, dtype=np.complex128 if complex_ else np.float64)
    flat[0] = 1.0
    product = flat[:-1]
    for i, (g, c) in enumerate(slots):
        c = complex(c) if complex_ else float(c)
        power = 1.0
        powers = [power]
        for k in range(1, truncation + 1):
            power = power * c / k
            powers.append(power)
        if not cmath.isfinite(power):
            raise ValueError(
                f"slot {i} coefficient {c!r} has non-finite powers at truncation {truncation}"
            )
        np.dot(powers, flat[tables.append[as_generator(g)]], out=product)
    return flat


def _log_flat(z: np.ndarray, truncation: int) -> np.ndarray:
    """log of ``1 + z`` for a padded flat series; overwrites z's constant term.

    ``w * z`` at word t sums ``w[prefix] * z[suffix]`` over the splits of t
    with a nonempty suffix, and z's side of every split is the same for all
    the powers ``z^k``.  Returns the flat log without the pad.
    """
    tables = _word_tables(truncation)
    z[0] = 0.0
    z_suffixes = z[tables.suffix[1:]]
    prefixes = tables.prefix[1:]
    out = z[:-1].copy()
    power = z
    for k in range(2, truncation + 1):
        nxt = np.zeros_like(z)
        np.sum(power[prefixes] * z_suffixes, axis=0, out=nxt[:-1])
        out += ((-1.0) ** (k + 1) / k) * nxt[:-1]
        power = nxt
    return out


# ---------------------------------------------------------------------------
# Nested-commutator basis
# ---------------------------------------------------------------------------

# Each entry maps (degree, position) -> (sign, bracketing letter, child), with
# the two degree-1 atoms spelled out explicitly.  Positions are 1-based.
# Degrees 2..6 are tabulated; degree 7 brackets each degree-6 element with A
# and with B in turn, which already spans the 18-dimensional Lie subspace.
_BASIS_RECIPES: dict[tuple[int, int], tuple[int, Generator, tuple[int, int]]] = {
    (2, 1): (+1, Generator.A, (1, 2)),
    (3, 1): (+1, Generator.A, (2, 1)),
    (3, 2): (+1, Generator.B, (2, 1)),
    (4, 1): (+1, Generator.A, (3, 1)),
    (4, 2): (+1, Generator.B, (3, 1)),
    (4, 3): (-1, Generator.B, (3, 2)),
    (5, 1): (+1, Generator.A, (4, 1)),
    (5, 2): (+1, Generator.B, (4, 1)),
    (5, 3): (+1, Generator.A, (4, 2)),
    (5, 4): (+1, Generator.B, (4, 2)),
    (5, 5): (+1, Generator.A, (4, 3)),
    (5, 6): (+1, Generator.B, (4, 3)),
    (6, 1): (+1, Generator.A, (5, 1)),
    (6, 2): (+1, Generator.B, (5, 1)),
    (6, 3): (+1, Generator.A, (5, 2)),
    (6, 4): (+1, Generator.A, (5, 4)),
    (6, 5): (+1, Generator.B, (5, 2)),
    (6, 6): (+1, Generator.A, (5, 5)),
    (6, 7): (+1, Generator.B, (5, 5)),
    (6, 8): (+1, Generator.A, (5, 6)),
    (6, 9): (+1, Generator.B, (5, 6)),
    **{(7, 2 * l - 1 + g): (+1, g, (6, l)) for l in range(1, 10) for g in Generator},
}


@dataclass(frozen=True)
class BasisElement:
    """One nested commutator E_{j,l}; ``vector`` holds its degree-j word coefficients."""

    degree: int
    position: int  # 1-based within the degree
    sign: int
    letter: Generator | None  # bracketing letter; None for the two atoms
    child: tuple[int, int] | None
    vector: np.ndarray = field(repr=False)

    @property
    def label(self) -> str:
        return f"E{self.degree},{self.position}"

    @property
    def series(self) -> TruncatedSeries:
        """The element as a homogeneous series at :data:`MAX_TRUNCATION`."""
        s = TruncatedSeries.zero(MAX_TRUNCATION)
        s._deg[self.degree][:] = self.vector
        return s


@dataclass(frozen=True)
class LieBasis:
    """Nested-commutator basis with per-degree word matrices and pseudoinverses."""

    elements: dict[tuple[int, int], BasisElement] = field(repr=False)
    matrices: dict[int, np.ndarray] = field(repr=False)
    pinvs: dict[int, np.ndarray] = field(repr=False)

    def dims(self) -> tuple[int, ...]:
        return LIE_DIMS

    def dim(self, degree: int) -> int:
        return LIE_DIMS[degree - 1]

    def element(self, degree: int, position: int) -> BasisElement:
        return self.elements[(degree, position)]

    def degree_elements(self, degree: int) -> list[BasisElement]:
        return [self.elements[(degree, l)] for l in range(1, self.dim(degree) + 1)]


@lru_cache(maxsize=None)
def basis_build() -> LieBasis:
    """Build the nested-commutator basis through :data:`MAX_TRUNCATION`, once.

    Bracketing a letter with unit vector e onto a child with degree-(j-1)
    word vector c gives the degree-j word vector ``outer(e, c) - outer(c, e)``,
    each ravelled, since concatenation is the outer product.  The construction
    raises if any per-degree word matrix loses full column rank, which would
    mean the recipes fail to span independent directions.
    """
    letters = {g: np.eye(2)[g] for g in Generator}
    elements = {
        (1, 1): BasisElement(1, 1, +1, None, None, letters[Generator.A]),
        (1, 2): BasisElement(1, 2, +1, None, None, letters[Generator.B]),
    }
    for (j, l), (sign, letter, child) in sorted(_BASIS_RECIPES.items()):
        e, c = letters[letter], elements[child].vector
        vector = sign * (np.outer(e, c).ravel() - np.outer(c, e).ravel())
        elements[(j, l)] = BasisElement(j, l, sign, letter, child, vector)

    matrices: dict[int, np.ndarray] = {}
    pinvs: dict[int, np.ndarray] = {}
    for j, dim in enumerate(LIE_DIMS, start=1):
        m = np.column_stack([elements[(j, l)].vector for l in range(1, dim + 1)])
        if np.linalg.matrix_rank(m) != dim:
            raise RuntimeError(f"basis matrix at degree {j} is rank deficient")
        matrices[j] = m
        pinvs[j] = np.linalg.pinv(m)
    for array in (*matrices.values(), *pinvs.values(), *(e.vector for e in elements.values())):
        array.flags.writeable = False  # shared by every caller through the cache
    return LieBasis(elements, matrices, pinvs)


@lru_cache(maxsize=None)
def letter_map(images: tuple[tuple[Generator, complex], ...], degree: int) -> np.ndarray:
    """Basis-coordinate matrix of the substitution A -> f_A X_A, B -> f_B X_B.

    ``images[g]`` is the pair ``(X_g, f_g)`` that replaces the letter g.  The
    substitution sends a word to the word of its images times the product of
    their factors, so it maps each E_{j,l} to a Lie element; column l holds
    that element's coordinates, and ``letter_map(images, j) @ w`` maps
    degree-j coordinates w.  The coordinates come through the basis
    pseudoinverse and are rounded to exact thirds in their real and imaginary
    parts (the entries are thirds through degree 7 for unit factors such as
    +-1 and +-i); rounding must move no entry by more than 1e-12.  Cached; the
    returned array is read-only.
    """
    basis = basis_build()
    shifts = np.arange(degree - 1, -1, -1)
    letters = (np.arange(1 << degree)[:, None] >> shifts) & 1  # first letter first
    targets = np.array([int(image) for image, _ in images])[letters]
    factors = np.array([f for _, f in images])
    words = basis.matrices[degree]
    mapped = np.zeros(words.shape, dtype=np.result_type(factors, words))
    np.add.at(mapped, (targets << shifts).sum(axis=1),
              factors[letters].prod(axis=1)[:, None] * words)
    exact = basis.pinvs[degree] @ mapped
    matrix = np.round(3.0 * exact) / 3.0
    if np.max(np.abs(matrix - exact)) > 1e-12:
        raise ArithmeticError(f"degree-{degree} letter map is not in thirds")
    matrix.flags.writeable = False  # shared by every caller through the cache
    return matrix


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


@dataclass
class LieCoefficients:
    """Per-degree coefficients of a Lie element in the nested-commutator basis.

    ``vectors[j]`` holds the coefficients at degree j and ``residuals[j]`` the
    absolute least-squares residual of the projection there.
    """

    truncation: int
    vectors: dict[int, np.ndarray]
    residuals: dict[int, float]

    def w(self, degree: int, position: int) -> complex:
        """Coefficient w_{degree,position} with the customary 1-based position."""
        value = self.vectors[degree][position - 1]
        return complex(value) if np.iscomplexobj(self.vectors[degree]) else float(value)

    def vector(self, degree: int) -> np.ndarray:
        return self.vectors[degree].copy()


def lie_project(
    series: TruncatedSeries,
    *,
    coefficient_sum: float = 0.0,
    require_lie: bool = True,
) -> LieCoefficients:
    """Project a series onto the nested-commutator basis, degree by degree.

    The basis covers every degree the engine truncates at.  The least-squares
    residual at degree j is compared against the larger of
    ``DEFAULT_LIE_TOL * max(1, |coefficients at that degree|)`` and
    ``LOG_ROUND_OFF * S^j / j!``, with S the ``coefficient_sum`` |c_i| of the
    slots whose log the series is; a violation means the input is not a Lie
    element (Friedrichs criterion) and raises :class:`LieMembershipError`
    unless ``require_lie`` is False.
    """
    basis = basis_build()

    const = complex(series._deg[0][0])
    if abs(const) > 1e-9:
        raise ValueError("series has a constant term; logs of products never do")

    vectors: dict[int, np.ndarray] = {}
    residuals: dict[int, float] = {}
    round_off = LOG_ROUND_OFF  # times S^j / j! below; overflows to inf, not an error
    for j in range(1, series.truncation + 1):
        round_off *= coefficient_sum / j
        y = series.degree_coefficients(j)
        w = basis.pinvs[j] @ y
        residual = float(np.linalg.norm(basis.matrices[j] @ w - y))
        scale = max(1.0, float(np.linalg.norm(y)))
        if not (math.isfinite(residual) and math.isfinite(scale)):
            raise ValueError(f"degree-{j} coefficients are not finite or too large "
                             f"to project")
        bound = max(DEFAULT_LIE_TOL * scale, round_off)
        if require_lie and residual > bound:
            raise LieMembershipError(
                f"degree-{j} word coefficients are not a commutator polynomial "
                f"(residual {residual:.3e} > {bound:.3e})"
            )
        vectors[j] = w
        residuals[j] = residual
    return LieCoefficients(series.truncation, vectors, residuals)
