"""Truncated free-algebra engine for products of exponentials in two symbols.

Everything in this module lives in the free associative algebra on two
symbols A and B, truncated at a fixed word degree N (at most
:data:`MAX_TRUNCATION`).  A series is one flat vector of ``2**(N+1) - 1``
coefficients, degree j at offset ``2**j - 1``, so N is read off its length.
Inside a degree the word with letters ``(g_0, ..., g_{j-1})`` sits at
``sum(g_i << (j-1-i))``: words are packed bit strings with A = 0, B = 1 and
the first letter in the most significant position.  Concatenating the
degree-p word u with the degree-q word v then lands at ``(u << q) | v``, so
every product is a sum over the splits of each word into a prefix and a
suffix, which :func:`_word_tables` lists once per truncation.

Four entry points work on that layout.  Each takes one series (a 1-D
vector) or a batch of b of them (a (b, size) array), and each row of a batch
rounds exactly as its own b = 1 call:

- :func:`scheme_log` is the log of a left-to-right product of exponentials
  ``exp(c_i g_i)``, for one coefficient row or b rows on one generator
  sequence.  It appends each slot ``exp(c X)`` to the running products in
  place: every word ``u X^k`` gains ``c^k/k!`` times the old coefficient of
  ``u``.  One gather through a word table and one stacked matrix product do
  that for all words, all k and all rows, so a slot costs two numpy calls at
  any truncation.  The product is group-like, so its log is the first
  Eulerian idempotent pi_1 of it, a fixed map on each degree
  (:func:`_eulerian_idempotent`): one stacked product per degree.
- :func:`series_log` is the log of any series with constant term 1, the
  power series ``(-1)^(k+1) z^k / k`` with each power one
  :func:`series_mul`; it is the slow reference for series that are not
  slot products.
- :func:`series_mul` is the Cauchy product: one gather per factor over all
  the splits, summed.
- :func:`lie_project` rewrites a log in the right-nested commutator basis
  (dimensions 2, 1, 2, 3, 6, 9, 18 for degrees 1..7, so every degree the
  engine truncates at), all degrees by one stacked product by the leading
  blocks of the basis's block-diagonal pseudoinverse, and flags non-Lie
  inputs through the least-squares residual.  A :func:`scheme_log` output
  is Lie by construction, so on it the residual checks only pi_1.
  :func:`basis_build` stores that basis once, as one block-diagonal word
  map and its pseudoinverse; every per-degree array is a view of them.

The other modules read basis coordinates through two private entries, on a
(b, s) batch of coefficient rows in passes of bounded memory:
:func:`_lie_rows` is :func:`scheme_log` then :func:`lie_project`, and
:func:`_lie_jacobian` gives the same coordinates and their exact derivatives
in every slot coefficient, pi_1 of each slot's prefix product, letter and
suffix product, from one sweep over the slots and the reversed slots and
one batched Cauchy product.

:func:`letter_map` gives a letter substitution A -> f_A X_A, B -> f_B X_B as
a matrix on the basis coordinates, so the packed word layout stays inside
this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

#: Hard ceiling for the word-degree truncation of the engine.
MAX_TRUNCATION = 7

#: Dimension of the commutator subspace at degrees 1..MAX_TRUNCATION.
LIE_DIMS = (2, 1, 2, 3, 6, 9, 18)

#: Default scaled tolerance for the Lie-membership (Friedrichs) residual test.
DEFAULT_LIE_TOL = 1e-10

#: Round-off of a :func:`scheme_log` coefficient at degree j relative to
#: (sum |c_i|)^j / j!, which bounds the sum of every term it adds up (the
#: property tests hold it against the exact rational log).
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


# ---------------------------------------------------------------------------
# The flat layout
# ---------------------------------------------------------------------------


class _WordTables(NamedTuple):
    """Flat-index tables for one truncation N (see :func:`_word_tables`)."""

    size: int
    starts: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    append: np.ndarray
    reverse: np.ndarray


@lru_cache(maxsize=None)
def _word_tables(truncation: int) -> _WordTables:
    """Where the splits of every word sit in the flat layout.

    A series at truncation N is flattened to ``size = 2**(N+1) - 1`` entries,
    degree j at offset ``2**j - 1``, plus one trailing zero that the tables
    point at for splits that do not exist; ``starts`` holds those offsets for
    j = 0..N.  For q = 0..N and every word t,
    ``prefix[q, t]`` is t without its last q letters and ``suffix[q, t]`` is
    those q letters as a word of degree q (both the pad when t is shorter than
    q); ``append[X][q, t]`` is ``prefix[q, t]`` where t ends in ``X^q`` and the
    pad elsewhere, for X = 0 (A) and 1 (B).  ``reverse[t]`` is t spelt
    backwards, so a gather through it reverses every word of a series.
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
    append = np.stack([np.where(fits & (tail == 0), prefix, size),
                       np.where(fits & (tail == (1 << q) - 1), prefix, size)])
    bit = np.arange(truncation)[:, None]
    reverse = (1 << degree) - 1 + np.add.reduce(
        np.where(bit < degree, ((index >> bit) & 1) << np.maximum(degree - 1 - bit, 0), 0))
    starts = (1 << np.arange(truncation + 1)) - 1
    for table in (starts, prefix, suffix, append, reverse):
        table.flags.writeable = False  # shared by every caller through the cache
    return _WordTables(size, starts, prefix, suffix, append, reverse)


def _truncation_of(size: int) -> int:
    """The truncation N of a flat series of ``size = 2**(N+1) - 1`` entries."""
    truncation = size.bit_length() - 1
    if size != (2 << truncation) - 1 or not 1 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"a flat series has 2**(N+1) - 1 entries for a truncation N in "
                         f"1..{MAX_TRUNCATION}, got {size}")
    return truncation


def _dtype(*values) -> type:
    """float64 when no array or scalar given has a complex type, else
    complex128: the dtype of every product in both numerical layers."""
    return np.complex128 if any(np.iscomplexobj(v) for v in values) else np.float64


def _float_array(values) -> np.ndarray:
    """``values`` as :func:`_dtype` reads them (Fractions and ints become
    float64, not an object array)."""
    values = np.asarray(values)
    return values.astype(_dtype(values), copy=False)


def _product(M: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
    """out = M @ X (``np.matmul``) for float64 or complex128 X and ``out``
    whose last axes are contiguous.  A float64 M meets a complex X through
    X's float parts, its float64 view with real and imaginary parts side by
    side: one real product, so M is never cast to complex."""
    if M.dtype == out.dtype or np.iscomplexobj(M):
        np.matmul(M, X, out=out)
    else:
        np.matmul(M, X.view(np.float64), out=out.view(np.float64))


def _slot_value(c) -> float | complex:
    """A slot coefficient as every layer reads it, before any two are added:
    a Python complex when it is complex, else its ``float()`` (a numpy
    scalar or 0-d array is read as its Python number first)."""
    if type(c) in (float, complex):  # already read: the slots of every Scheme
        return c
    if isinstance(c, (np.generic, np.ndarray)):
        c = c.item()
    return complex(c) if isinstance(c, complex) else float(c)


def _slot_row(slots: Iterable) -> tuple[list[Generator], np.ndarray]:
    """The generators of ``(generator, coefficient)`` pairs and their
    coefficients read by :func:`_slot_value`, as a batch of one: a (1, s)
    float64 array, or complex128 when a coefficient is complex (numpy's own
    reading of a row of Python floats and complexes)."""
    slots = list(slots)
    return [as_generator(g) for g, _ in slots], np.array([[_slot_value(c) for _, c in slots]])


def _in_rows(tables: np.ndarray, b: int) -> np.ndarray:
    """A word table (N+1, size) for all b rows of a product, or tables (K,
    b, N+1, size) one per row, shifted into the rows as indices into the
    product's ravel (b rows of size + 1 entries): one 1-D gather then reads
    all rows, C-contiguous (b, N+1, size) as the stacked products need it
    to round as one row's."""
    if b == 1:  # one table for all rows: a table per row needs two rows
        return tables[None]
    return tables + (tables.shape[-1] + 1) * np.arange(b)[:, None, None]


def _check_rows(ok: np.ndarray, error) -> None:
    """Raise ``error(*index)`` at the first False entry of ``ok``, whose
    first axis is the batch: the lowest failing row, then its first failure.
    The exception carries that row as ``row`` and the message ``error``
    gave it as ``detail``; its message is ``row i: detail`` when the batch
    has several rows, else ``detail``."""
    first = ok.argmin()  # 0 when every entry holds
    if not ok.flat[first]:
        index = np.unravel_index(first, ok.shape)
        failure = error(*index)
        failure.row, failure.detail = int(index[0]), str(failure)
        if len(ok) > 1:
            failure.args = (f"row {failure.row}: {failure.detail}",)
        raise failure


def _stacked(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``matrix @ C`` for every (n, k) C of a (b, n, k) ``columns``
    (:func:`_product`), a new (b, m, k) array of its dtype: a matrix-vector
    product per row at k = 1, else a matrix-matrix one."""
    out = np.empty((len(columns), len(matrix), columns.shape[-1]), columns.dtype)
    _product(matrix, columns, out)
    return out


def _round_off(coefficients, count: int, truncation: int) -> np.ndarray:
    """The round-off allowance ``LOG_ROUND_OFF * S^j / j!`` of a log at
    degrees j = 1..N, (count, N), where S is the sum of |c_i| of each of
    ``count`` coefficient rows; it may overflow to inf."""
    sums = np.abs(_float_array(coefficients)).reshape(count, -1).sum(axis=1)
    with np.errstate(over="ignore"):
        return LOG_ROUND_OFF * np.multiply.accumulate(
            sums[:, None] / np.arange(1, truncation + 1), axis=1)


# ---------------------------------------------------------------------------
# Products and logs
# ---------------------------------------------------------------------------


def series_mul(a, b) -> np.ndarray:
    """Cauchy product of flat series, one or a batch each (broadcast).

    The product at word t sums ``a[prefix] * b[suffix]`` over the q = 0..N
    splits of t (:func:`_word_tables`), the pad standing in for the splits a
    short word lacks.
    """
    a, b = np.asarray(a), np.asarray(b)
    truncation = _truncation_of(a.shape[-1])
    if b.shape[-1] != a.shape[-1]:
        raise ValueError(f"truncation mismatch: {a.shape[-1]} vs {b.shape[-1]} entries")
    tables = _word_tables(truncation)
    a, b = (np.concatenate([x, np.zeros(x.shape[:-1] + (1,), x.dtype)], axis=-1)
            for x in (a, b))
    return np.add.reduce(a[..., tables.prefix] * b[..., tables.suffix], axis=-2)


def series_log(series) -> np.ndarray:
    """log of flat series whose constant terms are 1, one or a batch.

    The power series ``sum_{k=1..N} (-1)^(k+1) z^k / k`` of
    ``z = series - 1``, each power one :func:`series_mul` by z.  A constant
    term further than 1e-12 from 1 raises ``ValueError`` naming its row; a
    NaN one gives a NaN log.  This is the reference for any series; on a
    slot product its N - 1 products cost more than :func:`scheme_log`'s
    products by pi_1, and their cancellation rounds worse (up to about 20x
    ``LOG_ROUND_OFF * S^7 / 7!`` at degree 7 for a single slot ``exp(c A)``,
    |c| <= 1.5).
    """
    series = np.asarray(series)
    rows = series if series.ndim == 2 else series[None]
    truncation = _truncation_of(rows.shape[1])
    _check_rows(~(np.abs(rows[:, 0] - 1.0) > 1e-12),  # a NaN term passes
                lambda row: ValueError(f"series_log needs constant term 1, "
                                       f"got {rows[row, 0].item()!r}"))
    z = rows.astype(np.promote_types(rows.dtype, np.float64))
    z[:, 0] = 0.0
    log = power = z
    for k in range(2, truncation + 1):
        power = series_mul(power, z)
        log = log + ((-1.0) ** (k + 1) / k) * power
    return log if series.ndim == 2 else log[0]


def scheme_log(generators, coefficients, truncation: int) -> np.ndarray:
    """log of the left-to-right product of exponentials ``exp(c_i g_i)``.

    ``generators`` is the slot sequence, leftmost factor first, and
    ``coefficients`` one (s,) row of its coefficients or a (b, s) batch of
    rows on it, read as float64, or complex128 when any is complex.  Returns
    the flat log, (size,) or (b, size): pi_1 of the product, one stacked
    product per degree (:func:`_eulerian_idempotent`).  Raises
    ``ValueError`` when a slot's powers ``c^k/k!`` are not finite at this
    truncation, or when a log coefficient is not finite or exceeds
    :data:`MAX_LOG_COEFFICIENT`, or when its round-off allowance
    ``LOG_ROUND_OFF * S^j / j!`` (S the sum of |c_i| of the row) does,
    rather than returning numbers that carry no bound; in a batch the error
    names the lowest failing row.
    """
    coefficients = _float_array(coefficients)
    rows = _batch(generators, coefficients)
    with np.errstate(over="ignore", invalid="ignore"):
        log = _product_log(_slot_product(generators, rows, truncation), rows, truncation)
    return log if coefficients.ndim == 2 else log[0]


def _batch(generators, coefficients: np.ndarray) -> np.ndarray:
    """One (s,) coefficient row or a (b, s) batch as a batch, or
    ``ValueError`` unless it fits ``generators``, at least one slot."""
    rows = coefficients if coefficients.ndim == 2 else coefficients[None]
    if rows.ndim != 2 or rows.shape[1] != len(generators):
        raise ValueError(f"coefficients of shape {coefficients.shape} do not fit "
                         f"{len(generators)} slots")
    if not len(generators):
        raise ValueError("a slot product needs at least one slot")
    return rows


def _product_log(product: np.ndarray, rows: np.ndarray, truncation: int) -> np.ndarray:
    """The (b, size) logs of the padded slot products (b, size + 1) of the
    (b, s) coefficient ``rows``, with :func:`scheme_log`'s refusals; the
    caller ignores overflow and invalid values, which they report."""

    def failure(row):
        # slot powers that overflow leave the whole log non-finite
        finite = np.isfinite(_slot_powers(rows[row:row + 1].T, truncation)[:, 0, -1])
        if not finite.all():
            i = finite.argmin()
            return ValueError(f"slot {i} coefficient {rows[row, i].item()!r} has "
                              f"non-finite powers at truncation {truncation}")
        what = (f"a round-off allowance of {_round_off(rows[row], 1, truncation).max():.3g}"
                if largest[row] <= MAX_LOG_COEFFICIENT
                else f"a coefficient of size {largest[row]:.3g}")
        return ValueError(f"log of the slot product has {what} at truncation {truncation} "
                          f"(limit {MAX_LOG_COEFFICIENT:g})")

    log = _first_idempotent(product[..., np.newaxis], truncation)[..., 0]
    largest = np.maximum.reduce(np.abs(log), axis=1)
    # the allowance LOG_ROUND_OFF * S^j / j! reaches the limit only for S
    # far above N, where it peaks at j = N
    sums = np.add.reduce(np.abs(rows), axis=1)
    largest_sum = (MAX_LOG_COEFFICIENT / LOG_ROUND_OFF * math.factorial(truncation)) ** (
        1.0 / truncation)
    _check_rows((largest <= MAX_LOG_COEFFICIENT) & (sums <= largest_sum), failure)
    return log


def _first_idempotent(columns: np.ndarray, truncation: int) -> np.ndarray:
    """pi_1 of the k flat series of each row of ``columns`` (b, size, k),
    or (b, size + 1, k) padded: a new (b, size, k) array, one stacked
    product by :func:`_eulerian_idempotent` per degree, whose constant term
    is 0."""
    out = np.zeros((len(columns), (2 << truncation) - 1, columns.shape[-1]), columns.dtype)
    for j in range(1, truncation + 1):
        block = slice((1 << j) - 1, (2 << j) - 1)
        _product(_eulerian_idempotent(j), columns[:, block], out[:, block])
    return out


def _slot_powers(coefficients: np.ndarray, truncation: int) -> np.ndarray:
    """``c^k/k!`` for k = 0..N of a 2-D float64 or complex128 coefficient
    array, along a new last axis, by the recurrence ``power[k] = power[k-1]
    * c / k``.  numpy's elementwise multiply and divide round an entry
    independently of where it sits, so each row rounds as its own one-row
    call."""
    powers = np.empty((truncation + 1,) + coefficients.shape, dtype=coefficients.dtype)
    powers[0] = 1.0
    for k in range(1, truncation + 1):
        np.multiply(powers[k - 1], coefficients, out=powers[k])
        np.true_divide(powers[k], k, out=powers[k])
    return np.ascontiguousarray(powers.transpose(1, 2, 0))


def _slot_product(generators, coefficients: np.ndarray, truncation: int,
                  prefixes: bool = False) -> np.ndarray:
    """Padded flat left-to-right products (b, size + 1) of ``exp(c_i g_i)``,
    or with ``prefixes`` those of the first k factors, (s + 1, b, size + 1)
    for k = 0..s.

    ``coefficients`` is the (b, s) array of the slot coefficients and
    ``generators`` their sequence: each slot's generator is one for every
    row, or a tuple of generators, one per equal block of rows.
    Right-multiplying by ``exp(c X)`` adds, to each word ending in ``X^k``,
    ``c^k/k!`` times the coefficient of the word without that tail; row k
    of ``append[X]`` gathers those prefixes, so a slot is one gather and one
    stacked (b, 1, N+1) by (b, N+1, size) product, written back into the
    running product, or with ``prefixes`` into the next one.
    ``coefficients`` is float64 or complex128; powers that overflow leave
    the product non-finite (:func:`scheme_log` reports them).
    """
    tables = _word_tables(truncation)
    b, s = coefficients.shape
    layers = np.zeros((s + 1 if prefixes else 1, b, tables.size + 1), coefficients.dtype)
    layers[0, :, 0] = 1.0
    if isinstance(generators[0], tuple):  # each slot's letter per block of rows
        keys = list(set(generators))
        letters = np.repeat(keys, b // len(keys[0]), axis=1)
        gathers = dict(zip(keys, _in_rows(tables.append[letters], b)))
    else:  # indexed by the letter, A = 0 or B = 1
        gathers = [_in_rows(table, b) for table in tables.append]
    powers = _slot_powers(coefficients.T, truncation)[:, :, None, :]  # (s, b, 1, N+1)
    if prefixes:  # slot k reads product k and writes product k + 1
        for k, (g, slot_powers) in enumerate(zip(generators, powers)):
            np.matmul(slot_powers, layers[k].reshape(-1)[gathers[g]],
                      out=layers[k + 1, :, None, :-1])
        return layers
    # the one product in place, as the gather copies what it reads
    entries, product = layers[0].reshape(-1), layers[0, :, None, :-1]
    for g, slot_powers in zip(generators, powers):
        np.matmul(slot_powers, entries[gathers[g]], out=product)
    return layers[0]


# ---------------------------------------------------------------------------
# Nested-commutator basis
# ---------------------------------------------------------------------------

# The two degree-1 atoms, E_{1,1} = A and E_{1,2} = B.
_BASIS_ATOMS: dict[tuple[int, int], Generator] = {(1, 1): Generator.A, (1, 2): Generator.B}

# Each entry maps (degree, position) -> (sign, bracketing letter, child) for
# every element above the atoms.  Positions are 1-based.
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
    """One nested commutator E_{j,l}; ``vector`` holds its degree-j word
    coefficients, a read-only view of its column of :attr:`LieBasis.words`."""

    degree: int
    position: int  # 1-based within the degree
    sign: int
    letter: Generator | None  # bracketing letter; None for the two atoms
    child: tuple[int, int] | None
    vector: np.ndarray = field(repr=False)

    @property
    def label(self) -> str:
        return f"E{self.degree},{self.position}"


@dataclass(frozen=True)
class LieBasis:
    """Nested-commutator basis through :data:`MAX_TRUNCATION`, stored once.

    ``words`` (size, D) is the block-diagonal map from basis coordinates
    (D = sum(LIE_DIMS) entries, degree j from ``offsets[j - 1]``;
    ``offsets[N]`` is D) to flat series at truncation N = MAX_TRUNCATION
    (the layout of :func:`_word_tables`), and ``pinv`` (D, size) its
    pseudoinverse, the least-squares map back, whose diagonal blocks are
    the pseudoinverses of the degrees.  The per-degree word matrices
    ``matrices[j]`` (2**j, dim), pseudoinverses ``pinvs[j]`` (dim, 2**j)
    and element vectors are read-only views of their blocks, and the
    leading blocks of ``words`` and ``pinv`` are the maps of every smaller
    truncation.
    """

    elements: dict[tuple[int, int], BasisElement] = field(repr=False)
    matrices: dict[int, np.ndarray] = field(repr=False)
    pinvs: dict[int, np.ndarray] = field(repr=False)
    words: np.ndarray = field(repr=False)
    pinv: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

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

    Allocates the :class:`LieBasis` maps ``words`` and ``pinv`` and writes
    each element's word vector into its column of ``words`` and each
    degree's ``np.linalg.pinv`` into its block of ``pinv``.  Bracketing a
    letter with unit vector e onto a child with degree-(j-1) word vector c
    gives the degree-j word vector ``outer(e, c) - outer(c, e)``, each
    ravelled, since concatenation is the outer product.  The construction
    raises if any per-degree word matrix loses full column rank, which would
    mean the recipes fail to span independent directions.
    """
    offsets = np.cumsum((0,) + LIE_DIMS)
    words = np.zeros(((2 << MAX_TRUNCATION) - 1, offsets[-1]))
    pinv = np.zeros(words.shape[::-1])
    blocks = {j: (slice((1 << j) - 1, (2 << j) - 1), slice(offsets[j - 1], offsets[j]))
              for j in range(1, MAX_TRUNCATION + 1)}

    def column(j, l):
        rows, coordinates = blocks[j]
        return words[rows, coordinates.start + l - 1]

    letters = np.eye(2)  # the degree-1 word vector of each letter
    for key, letter in _BASIS_ATOMS.items():
        column(*key)[:] = letters[letter]
    recipes = sorted(_BASIS_RECIPES.items())
    for (j, l), (sign, letter, child) in recipes:
        e, c = letters[letter], column(*child)
        column(j, l)[:] = sign * (np.outer(e, c).ravel() - np.outer(c, e).ravel())
    for j, (rows, coordinates) in blocks.items():
        if np.linalg.matrix_rank(words[rows, coordinates]) != LIE_DIMS[j - 1]:
            raise RuntimeError(f"basis matrix at degree {j} is rank deficient")
        pinv[coordinates, rows] = np.linalg.pinv(words[rows, coordinates])
    for array in (words, pinv, offsets):
        array.flags.writeable = False  # shared by every caller through the cache
    # views taken after the lock are read-only too
    elements = {key: BasisElement(*key, +1, None, None, column(*key)) for key in _BASIS_ATOMS}
    elements.update((key, BasisElement(*key, *recipe, column(*key))) for key, recipe in recipes)
    return LieBasis(elements, {j: words[block] for j, block in blocks.items()},
                    {j: pinv[block[::-1]] for j, block in blocks.items()},
                    words, pinv, offsets)


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
# The first Eulerian idempotent
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _eulerian_idempotent(degree: int) -> np.ndarray:
    """The first Eulerian idempotent pi_1 on the degree-j words, (2**j, 2**j).

    Column w holds the word coefficients of pi_1(w).  For a group-like
    series g, such as a product of slot exponentials, the degree-j part of
    log g is pi_1 of the degree-j part of g (Reutenauer, *Free Lie
    Algebras*, 3.2).  pi_1 is the eigenvalue-2 projector of the Adams
    operation psi^2, which sends a word to the sum, over the 2**j subsets S
    of its positions, of its letters at S followed by its letters off S;
    on degree j psi^2 has the eigenvalues 2**k, k = 1..j (Loday 1989), so
    ``pi_1 = prod_{k=2..j} (psi^2 - 2**k) / (2 - 2**k)``.  psi^2 counts
    words, and the entries of the product stay below 2**53 through degree
    7, so the float64 product is exact and its one division the only
    rounding; the columns of A^j and B^j (psi^2 eigenvalue 2**j) are exact
    zeros.  Built on first use of its degree and cached (read-only), in
    Fortran order, whose BLAS summation keeps the minimizers ``optimize``
    reports where the power-series log put them: they lie on a plateau
    about 1e-8 wide on which E moves by an ulp, and C order, as accurate,
    moves them within it.
    """
    n = 1 << degree
    words, subsets = np.arange(n, dtype=np.int16)[:, None], np.arange(n, dtype=np.int16)
    ones = np.zeros(n, np.int16)  # the letters B of a word, the positions of a subset
    head = tail = np.zeros((n, n), np.int16)
    for bit in range(degree - 1, -1, -1):  # first letter first
        letter, chosen = (words >> bit) & 1, (subsets >> bit) & 1
        head = head << chosen | letter & chosen
        tail = tail << (1 - chosen) | letter & (1 - chosen)
        ones += chosen
    image = head << (degree - ones) | tail  # of word w under subset S
    # psi^2 keeps the letters of a word, so it maps the words with m letters
    # B among themselves: the product runs on these blocks, at most C(7, 3) =
    # 35 wide, with the counts indexed by rank within the block
    idempotent = np.zeros((n, n), order="F")
    denominator = np.prod([2.0 - (1 << k) for k in range(2, degree + 1)])
    rank = np.empty(n, np.intp)
    for m in range(degree + 1):
        block = np.flatnonzero(ones == m)
        size = len(block)
        rank[block] = np.arange(size)
        counts = np.bincount((rank[image[block]] * size + rank[block, None]).ravel(),
                             minlength=size * size).reshape(size, size).astype(float)
        product = eye = np.eye(size)
        for k in range(2, degree + 1):
            product = product @ (counts - (1 << k) * eye)
        idempotent[np.ix_(block, block)] = product / denominator
    idempotent.flags.writeable = False  # shared by every caller through the cache
    return idempotent


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def lie_project(log, coefficients=None) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Project flat series onto the nested-commutator basis, all degrees at once.

    ``log`` is one flat series or a (b, size) batch.  Returns the basis
    coordinates per degree j = 1..N, (dim,) or (b, dim), and the residuals,
    (N + 1,) or (b, N + 1): column j is the least-squares residual at degree
    j, and column 0 the size of the constant term, the residual of degree 0,
    whose commutator subspace is zero.  The coordinates are one stacked
    product by the block-diagonal pseudoinverse and the misfits one by the
    block-diagonal word map, the leading blocks of :attr:`LieBasis.pinv` and
    :attr:`LieBasis.words` for the truncation.  A residual above the larger
    of ``DEFAULT_LIE_TOL * max(1, |coefficients at that degree|)`` and
    ``LOG_ROUND_OFF * S^j / j!`` means the input is not a Lie element
    (Friedrichs criterion) and raises :class:`LieMembershipError`, whose
    message names that residual and bound.  S is the sum of |c_i| of the
    slot ``coefficients`` whose product's log each row is (one row, or a
    batch as given to :func:`scheme_log`; none: S = 0).  Coefficients that
    are not finite, or too large to square, raise ``ValueError`` for their
    degree.  In a batch an error names the lowest failing row and its
    lowest failing degree.
    """
    log = np.asarray(log)
    rows = np.ascontiguousarray(_float_array(log if log.ndim == 2 else log[None]))
    truncation = _truncation_of(rows.shape[1])
    coordinates, residual = _project(rows[..., np.newaxis], coefficients)
    offsets = basis_build().offsets
    vectors = {j: coordinates[:, offsets[j - 1]:offsets[j], 0] for j in range(1, truncation + 1)}
    if log.ndim == 2:
        return vectors, residual[..., 0]
    return {j: w[0] for j, w in vectors.items()}, residual[0, :, 0]


def _project(columns: np.ndarray, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (b, dim, k) and residuals (b, N + 1, k) of
    :func:`lie_project` for the k flat series of each row of ``columns``
    (b, size, k), each checked against the bound of its row; an error
    names the row."""
    truncation = _truncation_of(columns.shape[1])
    basis = basis_build()
    dim, size = basis.offsets[truncation], columns.shape[1]
    coordinates = _stacked(basis.pinv[:dim, :size], columns)
    # [0] the least-squares misfits of every degree, [1] the series itself
    parts = np.empty((2,) + columns.shape, columns.dtype)
    np.subtract(_stacked(basis.words[:size, :dim], coordinates), columns, out=parts[0])
    parts[1] = columns
    starts = _word_tables(truncation).starts
    residual, scale = np.sqrt(np.add.reduceat(np.abs(parts) ** 2, starts, axis=2))
    finite = scale < np.inf
    bound = DEFAULT_LIE_TOL * np.maximum(1.0, scale)
    ok = finite & (residual <= bound)
    if not ok.all():
        if coefficients is not None:
            # widen the bound by the round-off allowance, which may overflow
            # to inf, not an error; degree 0 has no round-off
            bound[:, 1:] = np.maximum(
                bound[:, 1:], _round_off(coefficients, len(columns), truncation)[..., None])
            ok = finite & (residual <= bound)
        # a non-finite degree reaches every degree of its series through the
        # block products (0 * inf), so such a series fails at those degrees only
        ok |= finite & ~finite.all(axis=1, keepdims=True)

        def failure(row, j, k):
            if not (finite[row, j, k] and np.isfinite(residual[row, j, k])):
                return ValueError(f"degree-{j} coefficients are not finite or "
                                  f"too large to project")
            return LieMembershipError(
                f"degree-{j} word coefficients are not a commutator polynomial "
                f"(residual {residual[row, j, k]:.3e} > {bound[row, j, k]:.3e})")

        _check_rows(ok, failure)
    return coordinates, residual


#: Byte budget of the largest buffer of one batched pass, the (b, N+1, size)
#: prefixes a slot append gathers, at 16 bytes per complex entry.
#: :func:`_lie_rows` splits longer batches into passes of
#: :func:`_rows_per_pass` rows, and :func:`_lie_jacobian` into passes of
#: 1/s as many, so memory stays flat in the batch length.
_BATCH_BYTES = 1 << 18


def _rows_per_pass(truncation: int) -> int:
    """Most coefficient rows one batched pass takes within :data:`_BATCH_BYTES`."""
    return max(1, _BATCH_BYTES // (16 * (truncation + 1) << (truncation + 1)))


def _lie_rows(generators, coefficients, truncation: int) -> dict[int, np.ndarray]:
    """Basis coordinates (b, dim) per degree of the logs of b slot products.

    :func:`scheme_log` then :func:`lie_project`, both through the module's
    names, on the (b, s) array ``coefficients`` of rows that share the
    generator sequence, in passes of at most :func:`_rows_per_pass` rows
    (:func:`_in_passes`).
    """
    step = _rows_per_pass(truncation)
    if len(coefficients) <= step:
        return lie_project(scheme_log(generators, coefficients, truncation), coefficients)[0]
    passes = _in_passes(
        lambda part: lie_project(scheme_log(generators, part, truncation), part)[0],
        coefficients, step)
    return {j: np.concatenate([w[j] for w in passes]) for j in passes[0]}


def _lie_jacobian(generators, coefficients, truncation: int
                  ) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The coordinates of :func:`_lie_rows` and their (b, m, s) derivatives
    in every slot coefficient, m = sum(LIE_DIMS[:truncation]), degree j at
    the rows ``offsets[j - 1]:offsets[j]`` of :attr:`LieBasis.offsets`.

    A slot product g is group-like, so log g = pi_1 g at every coefficient
    row, and pi_1 is linear: d log g / dc_i = pi_1(P_i X_i Q_i), P_i the
    product of slots 1..i and Q_i of slots i+1..s (X_i commutes with its own
    exponential).  The P_i are the prefixes :func:`_slot_product` forms,
    the Q_i those of the reversed slots read back through the word
    reversal, and all s products P_i X_i Q_i are one letter append and one
    batched Cauchy product; pi_1 and the pseudoinverse then run as in
    :func:`scheme_log` and :func:`lie_project`.  So the coordinates equal
    :func:`_lie_rows`' bit for bit, with its refusals, messages and
    Lie-membership check of every row; the derivatives are pi_1 images, Lie
    elements by the construction that check tests.  Passes hold at most
    :func:`_rows_per_pass` // s rows, as the products gather s series per
    row.
    """
    step = max(1, _rows_per_pass(truncation) // len(generators))
    if len(coefficients) <= step:
        coordinates, derivatives = _jacobian_pass(generators, coefficients, truncation)
    else:
        coordinates, derivatives = (np.concatenate(arrays) for arrays in zip(*_in_passes(
            lambda part: _jacobian_pass(generators, part, truncation), coefficients, step)))
    offsets = basis_build().offsets
    return ({j: coordinates[:, offsets[j - 1]:offsets[j]] for j in range(1, truncation + 1)},
            derivatives)


def _jacobian_pass(generators, rows: np.ndarray, truncation: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One pass of :func:`_lie_jacobian`: coordinates (b, m), derivatives
    (b, m, s)."""
    tables = _word_tables(truncation)
    rows = _batch(generators, _float_array(rows))
    (b, s), letters = rows.shape, np.asarray(generators, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        # one sweep over the slots and, in rows b.., over the slots reversed
        prefixes = _slot_product(list(zip(letters.tolist(), letters[::-1].tolist())),
                                 np.concatenate([rows, rows[:, ::-1]]), truncation,
                                 prefixes=True)
        log = _product_log(prefixes[-1, :b], rows, truncation)
    # (s, b, size) P_i X_i, whose constant term is 0, and Q_i, whose
    # constant term is 1: their Cauchy product sums over the splits of each
    # word as series_mul does, the pad of a split read as the constant term
    # (mode "wrap"), so 0 * 1 in place of 0 * 0
    heads = np.where(letters[:, None, None],  # B is 1
                     prefixes[1:, :b].take(tables.append[Generator.B, 1], axis=-1),
                     prefixes[1:, :b].take(tables.append[Generator.A, 1], axis=-1))
    tails = prefixes[s - 1::-1, b:].take(tables.reverse, axis=-1)
    derivatives = np.einsum("...qt,...qt->...t", heads.take(tables.prefix, axis=-1, mode="wrap"),
                            tails.take(tables.suffix, axis=-1, mode="wrap"))
    basis = basis_build()
    # the value as lie_project projects it; the s derivatives as columns,
    # pi_1 images and so Lie elements, which that check on the value covers
    return (_project(log[..., np.newaxis], rows)[0][..., 0],
            _stacked(basis.pinv[:basis.offsets[truncation], :tables.size],
                     _first_idempotent(derivatives.transpose(1, 2, 0), truncation)))


def _in_passes(one_pass, coefficients, step: int) -> list:
    """``one_pass`` of the (b, s) rows ``coefficients``, b > ``step``, in
    passes of at most ``step`` rows, the list of what each pass returns.
    Each row rounds as its own one-row call, so the split changes no bit;
    an error names the first failing row of the first failing pass by its
    index in the batch, in its message and its ``row``."""
    passes = []
    for lo in range(0, len(coefficients), step):
        try:
            passes.append(one_pass(coefficients[lo:lo + step]))
        except ValueError as error:
            if not hasattr(error, "row"):
                raise
            error.row += lo
            error.args = (f"row {error.row}: {error.detail}",)
            raise
    return passes
