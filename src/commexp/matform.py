"""Dense matrix harness: exponentials, spectral norm, and test operator pairs.

Everything here is deterministic: the matrix exponential is a fixed
scaling-and-squaring routine over a Taylor polynomial of degree 16, or of
degree 8 where that meets the same bound in one product fewer, chosen per
exponential (per stack entry) by one rule, the spectral norm
is the square root of the largest eigenvalue of the Gram matrix M^H M from
LAPACK (numpy's ``eigvalsh``), and the random operator pairs are drawn from
a small named 64-bit generator so experiments reproduce given the seed.

The arithmetic follows the data (:func:`~commexp.liealg._dtype`): real
inputs give float64 results, and any complex generator, slot argument z·t
or target weight gives complex128.  So the real ``random`` pairs run their
products in real BLAS (dgemm, a quarter of the flops of zgemm) unless a
scheme's coefficients are complex, when their powers, the deep stack
included, meet the complex operands as float parts and are never cast
(:func:`~commexp.liealg._product`); the ``pauli`` pair is complex.

A scheme's product ``exp(c_1 t X_1) ... exp(c_s t X_s)`` is evaluated on one
of two paths (:func:`evaluate_scheme`), one exponential per run of its slots
(:func:`~commexp.conditions.slot_runs`: zero slots dropped, neighbours on one
generator merged, cancelling runs removed):

- *eigenbasis* walk, for pairs whose generators are both Hermitian or
  anti-Hermitian (the ``pauli`` pair).  The pair caches unitary
  eigenvectors, so a run costs a column scaling and a switch of generator
  one product with a cached transfer matrix;
- *cached powers*, for every other pair (the non-normal ``random`` pairs).
  The pair caches powers of ``Y = X/||X||_1`` for each generator
  (:attr:`OperatorPair.powers`).  When one generator's stack Y^0 .. Y^16
  fits 1 MiB (real d <= 87, complex d <= 62) it caches all of it, and each
  run's Taylor polynomial is one product of its 17 coefficients with the
  stack, plus s squarings: no other product.  Larger pairs cache the block
  X, Y^2, Y^3, Y^4 alone, whose X row is then the pair's generator itself
  (held once), and form the polynomial by the core of :func:`expm`: degree
  8 or 16 in 1 or 2 products, plus s squarings.  Y^2, Y^3 and Y^4 =
  Y^2 Y^2 are the same three products at both depths, so the depth only
  chooses how the polynomial is formed; the runs are multiplied left to
  right.

A target (:func:`target_matrix`) is one exponential per step time, and a
grid of step times is one stack through the same Taylor core, each entry
with its own powers.  Every exponential takes its s squarings and the
coefficients u^m / m!, m = 0..16, of u = z ||X||_1 2^-s from one pass
(:func:`_taylor_terms`); the deep stack reads all 17, and the core of
degree 8 or 16 in 1 or 2 products the first 9, on shared and per-entry
powers alike.  That core (:func:`_taylor_exp`) combines the cached block
by quartics, one BLAS call each: T_8 = T_4 + Y^4 (u^5 Y / 5! + ... +
u^8 Y^4 / 8!) in one product, and T_16 = (y_1 + P_2)(y_1 + Q_2) + R with
y_1 = Y^4 Q_1 in two (Bader, Blanes and Casas 2019, "Computing the matrix
exponential with an optimized Taylor polynomial approximation",
Mathematics 7:1174), where Paterson and Stockmeyer's scheme needs three
for degree 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .conditions import TargetPolynomial, slot_runs
from .liealg import _BASIS_ATOMS, _BASIS_RECIPES, Generator, _dtype, _product, _slot_row

__all__ = [
    "SplitMix64",
    "OperatorPair",
    "expm",
    "two_norm",
    "two_norms",
    "make_pair",
    "evaluate_scheme",
    "evaluation_path",
    "target_matrix",
    "element_matrix",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic 64-bit generator with normal sampling.

    The mixing constants are the standard SplitMix64 set; normals come from
    Box-Muller on 53-bit uniforms.  Not a cryptographic or statistics-grade
    source - just a portable, seedable stream for test matrices.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare: float | None = None

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on (0, 1] (left-open so log() below is safe)."""
        return ((self.next_uint64() >> 11) + 1) * 2.0 ** -53

    def normal(self) -> float:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        angle = 2.0 * math.pi * self.uniform()
        self._spare = radius * math.sin(angle)
        return radius * math.cos(angle)

    def _uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms as an array, advancing ``state`` as
        ``count`` calls of :meth:`uniform` would (uint64 arithmetic wraps)."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) \
            + np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53

    def normal_matrix(self, dim: int) -> np.ndarray:
        """``dim * dim`` successive :meth:`normal` draws, row-major, as float64.

        Vectorised: the uint64 stream, the uniforms, ``state`` and whether a
        spare normal is carried are exactly those of the scalar calls.  The
        values may differ from them by at most 2 ulps (4.4e-16 measured),
        since numpy's vectorised log can differ from libm's by 1 ulp, which
        the square root and the product can round to 2.
        """
        count = dim * dim
        head = [] if self._spare is None else [self._spare]
        u = self._uniforms(2 * ((count - len(head) + 1) // 2))
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = 2.0 * math.pi * u[1::2]
        values = np.empty(len(head) + len(u))
        values[:len(head)] = head
        values[len(head)::2] = radius * np.cos(angle)
        values[len(head) + 1::2] = radius * np.sin(angle)
        self._spare = float(values[count]) if len(values) > count else None
        return values[:count].reshape(dim, dim)


#: Scaled-argument bounds theta_m of the Taylor polynomials of degree
#: m = 8, 16 (1, 2 products on the cached X, Y^2, Y^3 and Y^4) behind every
#: exponential here: when |z| nu alpha <= theta_m the truncation error
#: sum_{k>m} theta_m^k / k! is at most 7.24e-16, the bound of a degree-13
#: polynomial at one-norm 1/2 (sum_{k>=14} 0.5^k / k!).  Each is the root of
#: that equation, rounded down (theta_16 = 0.92047455...).
_THETA = np.array([0.0861186, 0.9204745])

#: m as a float64 for m = 1..16: the Taylor factors u / m.
_DIVISORS = np.arange(1.0, 17.0)

#: A squaring count s that would leave |u| = |z| nu 2^-s above 2^_MAX_U is
#: raised to bring it below: the highest coefficient, u^16 / 16!, is
#: 8.6e294 at |u| = 2^64, still finite.
_MAX_U = 64

#: The four quartics of the core of degree 8 and 16 (:func:`_taylor_exp`),
#: by degree, row q - 1 for q products: rows are the first product's right
#: factor, P_2, Q_2 and the last addend; columns the multiples of u^m / m!
#: that take the identity and the X, Y^2, Y^3 and Y^4 rows of the cached
#: block, m = (0, 5, 6, 7, 8) in the first row and m = 0..4 in the others
#: (:data:`_TERMS`).  Degree 8 is Taylor's own coefficients; degree 16 is
#: T_16 = (y_1 + P_2)(y_1 + Q_2) + R with y_1 = Y^4 Q_1 in x = u Y (Bader,
#: Blanes and Casas 2019), its constants solved from T_16's coefficients
#: with Q_2(0) = 8.6 and the smaller root of the degree-8 quadratic, so that
#: every constant is positive.  In exact arithmetic the float64 table gives
#: each coefficient 1/k!, k = 0..16, to within 0.86 eps relative.
_QUARTICS = np.array([
    [[0.0, 1.0, 1.0, 1.0, 1.0], [0.0] * 5, [0.0] * 5, [1.0] * 5],
    [[0.0, 0.025604792862083055, 0.013851773187684276, 0.008814764755799084,
      0.008814764755799084],
     [0.0, 0.06637319436105144, 0.022695031529782785, 0.061410573001511946,
      0.033652773636408596],
     [8.6, 1.9163612247100228, 0.6359777710797374, 0.18758554381467935,
      0.07296390483849462],
     [1.0, 0.4291905284949576, 0.5504326967765463, 0.21475780830770483,
      0.10344296274048459]],
])

#: The power m of the coefficient u^m / m! behind each entry of
#: :data:`_QUARTICS`.
_TERMS = np.array([[0, 5, 6, 7, 8]] + [[0, 1, 2, 3, 4]] * 3)

#: The powers p of Y^2, Y^3 and Y^4, the values of :attr:`_Powers.zero`.
_ZERO_POWERS = np.array([2.0, 3.0, 4.0])

#: A pair caches the deep power stack Y^0 .. Y^_DEEP of each generator when
#: one such stack takes at most _DEEP_BYTES (real d <= 87, complex d <= 62),
#: and else the block X, Y^2, Y^3, Y^4.
_DEEP = 16
_DEEP_BYTES = 1 << 20
_SHALLOW = 4

#: :func:`_powers` takes the one-norms of Y^2, Y^3 and Y^4 through one |.|
#: temporary of all three while it takes at most _NORM_BYTES, else one power
#: at a time (at d = 256: one d x d temporary, not three).
_NORM_BYTES = 1 << 20


class _Powers(NamedTuple):
    """The powers that the Taylor exponentials of a matrix X, or of each
    matrix of a (k, d, d) stack X, reuse.

    ``X = scale * Y`` with ``scale = ||X||_1``, raised to the smallest normal
    float so that ``1 / scale`` is finite (so a zero X has the smallest
    normal ``scale`` and zero powers).  With d_p = ||Y^p||_1^(1/p), Al-Mohy
    and Higham's (2009) alpha_p = max(d_p, d_(p+1)) bounds ||Y^k||_1^(1/k) in
    the Taylor tail of every degree m with m + 1 >= p (p - 1): ``alpha`` is
    min(alpha_2, alpha_3), which bounds the tails of degrees 8 and 16
    (alpha_3 <= alpha_2, since d_4 <= d_2, but the computed norms can round
    it an ulp past).  ``zero`` is the lowest p = 2, 3, 4 with Y^p exactly
    zero, or inf when none is.  ``scale``, ``alpha`` and ``zero`` are 0-d
    for one matrix and length-k arrays for a stack.
    Exactly one of ``block`` and ``stack`` is set.  ``block`` is the
    contiguous (4, d, d) block of X, Y^2, Y^3 and Y^4, or (k, 4, d, d) for a
    stack, on which :func:`_taylor_exp` runs; ``stack``, for one matrix
    only, is the deep stack of :func:`_stack_exp`: the (17, d^2) array of the
    flattened Y^0 = I, Y, ..., Y^16.  ``square``, ``cube`` and ``fourth``
    view Y^2, Y^3 and Y^4 in either, bit for bit the same at both depths.
    """

    scale: np.ndarray
    alpha: np.ndarray
    zero: np.ndarray
    block: np.ndarray | None = None
    stack: np.ndarray | None = None

    def _power(self, p: int) -> np.ndarray:
        if self.stack is None:
            return self.block[..., p - 1, :, :]
        d = math.isqrt(self.stack.shape[1])
        return self.stack[p].reshape(d, d)

    square = property(lambda self: self._power(2))
    cube = property(lambda self: self._power(3))
    fourth = property(lambda self: self._power(4))


def _norm1(X: np.ndarray) -> np.ndarray:
    """The one-norm (largest column sum of |X|) of each matrix of a (..., d, d) array."""
    return np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)


def _power_rows(shape: tuple[int, ...], dtype, deep: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised rows for :func:`_powers` of one matrix or of a (k, d, d)
    stack of the given shape, and the view of the X row the caller fills:
    the block X, Y^2, Y^3, Y^4 and its row 0, or with ``deep`` (one matrix
    only) the stack Y^0 .. Y^16 and its row 1, where Y replaces X."""
    rows = np.empty(shape[:-2] + (_DEEP + 1 if deep else 4,) + shape[-2:], dtype=dtype)
    return rows, rows[..., int(deep), :, :]


def _powers(rows: np.ndarray) -> _Powers:
    """The powers of one matrix X or of each matrix of a (k, d, d) stack X,
    built in the rows of :func:`_power_rows` whose X row holds X: Y^2 = Y Y,
    Y^3 = Y^2 Y and Y^4 = Y^2 Y^2, the same three products per matrix at
    both depths, and in a deep stack then Y^5 .. Y^16, one product each.

    Y = X / nu is written into the row that holds it, Y^1 of the stack (over
    X) or the block's Y^4 row until Y^4 overwrites it, so past the rows the
    build allocates only the |.| temporary of the one-norms
    (:data:`_NORM_BYTES`): a real d = 256 block is built within 5 d x d
    arrays."""
    deep = rows.shape[-3] == _DEEP + 1
    X = rows[..., int(deep), :, :]
    scale = np.maximum(_norm1(X), np.finfo(np.float64).tiny)
    inverse = (1.0 / scale)[..., np.newaxis, np.newaxis]
    high = rows[..., 2:5, :, :] if deep else rows[..., 1:, :, :]
    square, cube, fourth = (high[..., i, :, :] for i in range(3))
    Y = np.multiply(X, inverse, out=X if deep else fourth)
    np.matmul(Y, Y, out=square)
    np.matmul(square, Y, out=cube)
    np.matmul(square, square, out=fourth)
    block = stack = None
    if deep:
        rows[0] = np.eye(len(Y))
        for m in range(5, _DEEP + 1):
            np.matmul(rows[m - 1], Y, out=rows[m])
        stack = rows.reshape(_DEEP + 1, -1)
    else:
        block = rows
    # of Y^2, Y^3 and Y^4 on the last axis (|X| is float64 at either dtype)
    if 8 * high.size <= _NORM_BYTES:
        norms = _norm1(high)
    else:
        norms = np.stack([_norm1(high[..., i, :, :]) for i in range(3)], axis=-1)
    n2, n3, n4 = norms.T
    # cube roots one matrix at a time, as libm's pow gives them: numpy's
    # vectorised power can differ from it by an ulp, and alpha picks
    # degrees and squarings (square roots are correctly rounded either way)
    d3 = np.reshape([n ** (1.0 / 3.0) for n in np.ravel(n3).tolist()], n3.shape)
    alpha = np.minimum(np.maximum(np.sqrt(n2), d3), np.maximum(d3, np.sqrt(np.sqrt(n4))))
    zero = np.where(norms == 0, _ZERO_POWERS, np.inf).min(axis=-1)
    return _Powers(scale, alpha, zero, block, stack)


def _taylor_terms(powers: Sequence[_Powers], z: np.ndarray
                  ) -> tuple[list[list[int]], list[list[int]], np.ndarray]:
    """Core products, squaring counts and Taylor coefficients of
    exp(z_ij X_i), X_i the matrix of ``powers[i]``, for an (r, k) array z:
    one row of k arguments per matrix, or (r = 1) one argument per matrix of
    one stack's powers, whose ``scale``, ``alpha`` and ``zero`` are then
    read per entry.  Returns q and s, r lists of k ints: entry (i, j) takes
    s_ij squarings and, on the block X, Y^2, Y^3, Y^4, the polynomial of
    degree 8 or 16 in q_ij = 1 or 2 products; and c, shaped (r, k, 17),
    c[i, j, m] = u_ij^m / m! for m = 0..16 and u = z nu 2^-s, nu the
    powers' ``scale``, one ``cumprod``.  :func:`_stack_exp` reads all 17
    columns of a row, the degree-16 polynomial, which meets the bound
    wherever the degree of q does; :func:`_taylor_exp` reads the first 9.
    The rule reads only the scalars of the powers, which are bit for bit
    the same at both depths, so q, s and c are too.

    Each entry is chosen on its own, on ``x = |z| nu alpha``.  Of the
    degrees and squarings that meet the bound the entry takes the fewest
    products q + s, ties going to the higher degree: degree 8 and s = 0
    while x <= theta_8, degree 16 and s = 0 while x <= theta_16, and else
    degree 16 with ``s = ceil(log2(x / theta_16))``, computed exactly from
    the binary exponent.  s is raised, where it must be, to keep
    |u| <= 2^64, and an entry with s > 0 takes degree 16.  So q and s do
    not increase along a row whose |z| does not increase, as
    :func:`evaluate_scheme` and :func:`target_matrix` order their step
    times; :func:`_expm_stack` orders its entries by q + s.  A power that
    is exactly zero makes every power above it zero, so for an entry whose
    ``zero`` is p <= 4, exp(u Y) is the Taylor polynomial of degree p - 1
    exactly: it takes degree 8 and no squaring, and its coefficients c[m]
    for m >= p are set to zero, however large z nu is, where u^m / m! would
    overflow.  No entry whose Y^4 is nonzero changes by that rule.
    ``ValueError`` where z nu overflows.
    """
    # (r, 3, 1) for r matrices, (1, 3, k) for one stack
    scale, alpha, zero = np.array(
        [(p.scale, p.alpha, p.zero) for p in powers]
    ).reshape(len(powers), 3, -1).transpose(1, 0, 2)
    # u^m / m! overflows only where a power is 0, whose coefficients are set
    # to zero below (inf * 0 is NaN); w is checked just below
    with np.errstate(over="ignore", invalid="ignore"):
        w = z * scale
        if not np.isfinite(w).all():
            raise ValueError("matrix exponential: |z| ||X||_1 overflows")
        size = np.abs(w)
        x = size * alpha
        mantissa, exponent = np.frexp(np.maximum(x / _THETA[1], size * 2.0 ** -_MAX_U))
        s = np.maximum(exponent - (mantissa == 0.5), 0)
        q = np.maximum(1 + (x > _THETA[0]), 2 * (s > 0))
        nilpotent = zero.min() < np.inf
        if nilpotent:
            zeroed = np.broadcast_to(zero < np.inf, s.shape)
            s[zeroed], q[zeroed] = 0, 1
        u = w * np.ldexp(1.0, -s)
        c = np.empty(u.shape + (len(_DIVISORS) + 1,), dtype=u.dtype)
        c[..., 0] = 1.0
        np.divide(u[..., np.newaxis], _DIVISORS, out=c[..., 1:])
        np.cumprod(c, axis=-1, out=c)
        if nilpotent:
            np.copyto(c, 0.0, where=np.arange(c.shape[-1]) >= zero[..., np.newaxis])
    return q.tolist(), s.tolist(), c


def _square(s: list[int], P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square entry i of the (k, d, d) stack P s_i times (s not increasing),
    each squaring on the prefix of entries still squaring; returns the
    buffers as (result, the other)."""
    m = len(P)
    for i in range(s[0]):
        while s[m - 1] <= i:
            m -= 1
        np.matmul(P[:m], P[:m], out=Q[:m])
        P, Q = Q, P
    if s[-1] != s[0]:
        # an entry that stopped an odd number of squarings early was left in Q
        moved = np.array([(s[0] - si) % 2 == 1 for si in s])
        np.copyto(P, Q, where=moved[:, np.newaxis, np.newaxis])
    return P, Q


def _stack_exp(powers: _Powers, s: list[int], c: np.ndarray,
               P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(z_i X) for each of k arguments z_i on one matrix's deep powers,
    into one of the contiguous (k, d, d) buffers P and Q: (result, the
    other).  ``s`` and ``c`` (shaped (k, 17)) are one row of
    :func:`_taylor_terms`.

    Entry i is the polynomial sum_m c[i, m] Y^m, m = 0..16, one product of
    its coefficient row with the (17, d^2) stack, then s_i squarings
    (:func:`_square`): no other product.  The product is per entry, a
    (d^2, 17) by (17, 1) BLAS call for each, so an entry equals its own
    one-entry evaluation bit for bit, which one (k, 17) by (17, d^2) product
    does not guarantee.  A real stack is never cast: complex coefficients
    go in as their float parts (:func:`~commexp.liealg._product`).
    """
    _product(powers.stack.T, c[..., np.newaxis], P.reshape(len(P), -1, 1))
    return _square(s, P, Q)


def _quartic(block: np.ndarray, coef: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum_j coef[i, j] block[i, j] over the four rows of each
    entry of a (k, 4, d, d) block (a broadcast view where they share one): one
    (d^2, 4) by (4, 1) BLAS call per entry, so an entry equals its own
    one-entry call bit for bit.  Complex coefficients on a real block go in
    as their float parts (:func:`~commexp.liealg._product`), a (4, 2) right
    factor, so the block is never cast to complex."""
    k = len(out)
    _product(block.reshape(k, 4, -1).swapaxes(-1, -2),
             coef.astype(out.dtype, copy=False)[..., np.newaxis], out.reshape(k, -1, 1))


def _taylor_exp(powers: _Powers, q: list[int], s: list[int], c: np.ndarray,
                P: np.ndarray, Q: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(z_i X_i) for each of k arguments z_i, into one of the (k, d, d)
    buffers P and Q: (result, the other), with W as work space.  The powers
    are shared, X_i = X with a (4, d, d) block, or per entry, with a
    (k, 4, d, d) one.  ``q``, ``s`` (k core product and squaring counts,
    neither increasing) and ``c`` (shaped (k, 17)) are one row of
    :func:`_taylor_terms` for these powers.

    P, Q and W may be float64 only when X and z are real; complex buffers
    take real powers as they are, never cast: a complex factor of the block
    or of Y^4 goes in as its float parts (:func:`~commexp.liealg._product`).

    Entry i evaluates the Taylor polynomial of degree 8 (q_i = 1) or 16 (2)
    in x = u_i Y from quartics, each one :func:`_quartic` call on the
    block, with the coefficients :data:`_QUARTICS` times u^m / m! from c
    (the X row's divided by nu):

    - degree 8: T_4 + Y^4 (u^5 Y / 5! + ... + u^8 Y^4 / 8!), one product;
    - degree 16: (y_1 + P_2)(y_1 + Q_2) + R with y_1 = Y^4 Q_1, two products.

    Then it squares s_i times: q_i + s_i matrix products in all.  The second
    product runs on the prefix of the stack that takes degree 16, and each
    squaring on the prefix still squaring, so an entry equals its own
    one-entry evaluation bit for bit.
    """
    k, d = len(P), P.shape[-1]
    n = q.count(2)
    coef = _QUARTICS[np.subtract(q, 1)] * c[:, _TERMS]
    coef[..., 1] /= np.reshape(powers.scale, (-1, 1))
    block, fourth = powers.block, powers.fourth
    if block.ndim == 3:  # shared powers, read through (k, ...) broadcast views
        block = np.broadcast_to(block, (k,) + block.shape)
    _quartic(block, coef[:, 0, 1:], W)
    _product(fourth, W, P)
    if n:
        _quartic(block[:n], coef[:n, 1, 1:], W[:n])
        W[:n] += P[:n]
        _quartic(block[:n], coef[:n, 2, 1:], Q[:n])
        Q[:n] += P[:n]
        Q[:n].reshape(n, -1)[:, :: d + 1] += coef[:n, 2, :1]
        np.matmul(W[:n], Q[:n], out=P[:n])
    # the last addend: T_4, or R
    _quartic(block, coef[:, 3, 1:], W)
    P += W
    P.reshape(k, -1)[:, :: d + 1] += coef[:, 3, :1]
    return _square(s, P, Q)


def _square_matrix(M, what: str) -> np.ndarray:
    """M as a float64 or complex128 array, refused unless it is square and 2-D."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} takes a square 2-D matrix, got shape {M.shape}")
    return M.astype(_dtype(M), copy=False)


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring over a Taylor core of
    degree 8 or 16 in 1 or 2 products.

    The degree m and the number of squarings s come from ``nu = ||M||_1``
    and, for ``Y = M / nu`` and ``d_p = ||Y^p||_1^(1/p)``, Al-Mohy and
    Higham's (2009) ``alpha_2 = max(d_2, d_3)`` and ``alpha_3 = max(d_3,
    d_4)``: they bound how fast the Taylor terms decay, and are often well
    below 1 on non-normal M, so s can be several squarings fewer than the
    one-norm alone asks for.  Both degrees are chosen on
    ``nu min(alpha_2, alpha_3)``.  Of the pairs (m, s) that push the scaled
    argument below theta_m (theta_8 = 0.0861186, theta_16 = 0.9204745,
    where the truncation error is at most 7.24e-16 relative) the one with
    the fewest products is taken, and s is raised where it must be to keep
    |u| <= 2^64.  Good to ~1e-13 relative for the moderate norms used here.
    Cost: Y^2, Y^3 and Y^4, then 1 or 2 products plus s squarings: T_8 is
    one combination of the block X, Y^2, Y^3, Y^4 plus Y^4 times another,
    and T_16 is (y_1 + P_2)(y_1 + Q_2) + R with
    y_1 = Y^4 Q_1, after Bader, Blanes and Casas (2019), each factor a
    combination of the block, with the coefficients u^m / m! of
    u = nu 2^-s that every exponential here takes.  It is the one-matrix
    case of the stacked core :func:`target_matrix` runs, and
    :func:`evaluate_scheme` runs the same core on the cached block of a
    pair too large for the deep power stack, whose degree and squarings
    the deep stack takes too.  M must be one square 2-D
    matrix of finite entries whose one-norm is finite, and its exponential
    must be finite (``ValueError`` otherwise); a real M gives a float64
    result, a complex M complex128.  When Y^p = 0 for p = 2, 3 or 4, the
    result is the Taylor polynomial of degree p - 1 with no squaring,
    however large ``nu`` is: the Taylor coefficients of the zero powers are
    zero, so ``expm([[0, 1e200], [0, 0]])`` is ``[[1, 1e200], [0, 1]]``.
    """
    M = _square_matrix(M, "expm")
    rows, X = _power_rows((1,) + M.shape, M.dtype)
    X[0] = M
    return _expm_stack(rows)[0]


def _expm_stack(rows: np.ndarray) -> np.ndarray:
    """exp of each matrix F[i] of a (k, d, d) stack, as :func:`expm` takes
    it, from the (k, 4, d, d) rows of :func:`_power_rows` whose X rows hold
    F, so the powers are built around F, not a copy of it.

    Each matrix gets its own powers (:func:`_powers`) and its own degree,
    squarings and coefficients (:func:`_taylor_terms`), and the stack runs
    in order of decreasing products q + s, so the degree-16 stage and the
    squarings of :func:`_taylor_exp` work on prefixes of it; each result is
    the stack's one-matrix evaluation bit for bit.  A stack out of that
    order has its powers reordered, a copy of its power block.  A
    non-finite entry or result anywhere raises ``ValueError``.
    """
    F = rows[:, 0]
    if not np.all(np.isfinite(F)):
        raise ValueError("matrix exponential of non-finite entries")
    if not len(F):
        return F.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        powers = _powers(rows)
        (q,), (s,), (c,) = _taylor_terms([powers], np.ones((1, len(F))))
        products = [a + b for a, b in zip(q, s)]
        order = sorted(range(len(F)), key=products.__getitem__, reverse=True)
        ordered = order == list(range(len(F)))
        if not ordered:
            powers = _Powers(*(None if p is None else p[order] for p in powers))
            q, s, c = [q[i] for i in order], [s[i] for i in order], c[order]
        # the core's buffers; all but the result are freed on its return
        E = _taylor_exp(powers, q, s, c, *(np.empty(F.shape, F.dtype) for _ in range(3)))[0]
    if not np.all(np.isfinite(E)):
        raise ValueError("matrix exponential overflows")
    if not ordered:
        E[order] = E.copy()
    return E


class _Eigenbasis(NamedTuple):
    """Spectral data of a pair of (anti-)Hermitian generators, by generator.

    ``X = vectors[X] @ diag(values[X]) @ adjoints[X]`` with unitary
    ``vectors``; ``transfer[X]`` is ``adjoints[X] @ vectors[Y]`` for the
    other generator Y.
    """

    values: tuple[np.ndarray, np.ndarray]
    vectors: tuple[np.ndarray, np.ndarray]
    adjoints: tuple[np.ndarray, np.ndarray]
    transfer: tuple[np.ndarray, np.ndarray]


#: X counts as Hermitian (anti-Hermitian) when X - X^H (X + X^H) is below
#: this many ulps of max|X| entrywise.
_SYMMETRY_ULPS = 4


def _hermitian_eigh(X: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(eigenvalues, unitary eigenvectors) of an (anti-)Hermitian X, else None.

    The test is O(d^2); ``eigh`` runs only when it passes.  It compares the
    halves of X and X^H (exact but for subnormals), whose sum and difference
    cannot overflow: first row 0 with column 0, which either symmetry needs,
    so that most X that have neither fail in O(d), then the whole matrix for
    each symmetry row 0 allows.  Anti-Hermitian X is diagonalised as -i (iX)
    with iX Hermitian.
    """
    # max|X / 2| is half of max|X| but for subnormals, as halving rounds
    # monotonically
    tol = _SYMMETRY_ULPS * np.finfo(np.float64).eps * (0.5 * float(np.max(np.abs(X))))
    row, column = 0.5 * X[0], 0.5 * X[:, 0].conj()
    hermitian = float(np.max(np.abs(row - column))) <= tol
    anti = float(np.max(np.abs(row + column))) <= tol
    if not (hermitian or anti):
        return None
    half = 0.5 * X
    adjoint = half.conj().T
    if hermitian and float(np.max(np.abs(half - adjoint))) <= tol:
        values, vectors = np.linalg.eigh(X)
        return values.astype(np.complex128), vectors
    if anti and float(np.max(np.abs(half + adjoint))) <= tol:
        values, vectors = np.linalg.eigh(1j * X)
        return -1j * values, vectors
    return None


@dataclass(frozen=True)
class OperatorPair:
    """Two same-size square matrices standing in for the generators.

    Both are kept as float64 when both have zero imaginary part, else both
    as complex128; the dtype of ``A`` is then the pair's arithmetic.  A
    non-finite entry raises ``ValueError``.  On a pair past the deep power
    budget, building :attr:`powers` rebinds ``A`` and ``B`` to the X rows of
    their blocks, equal to them bit for bit, so the pair holds each
    generator once.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    label: str = ""
    seed: int | None = None

    def __post_init__(self):
        A, B = np.asarray(self.A), np.asarray(self.B)
        if np.any(np.imag(A)) or np.any(np.imag(B)):
            A, B = A.astype(np.complex128, copy=False), B.astype(np.complex128, copy=False)
        else:
            A, B = (np.real(X).astype(np.float64, copy=False) for X in (A, B))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if A.shape != B.shape:
            raise ValueError("A and B must have equal dimensions")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must have finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def matrix(self, generator: Generator) -> np.ndarray:
        return self.A if generator == Generator.A else self.B

    @cached_property
    def eigenbasis(self) -> _Eigenbasis | None:
        """Cached eigendecomposition when both generators are (anti-)Hermitian."""
        a = _hermitian_eigh(self.A)
        b = _hermitian_eigh(self.B) if a is not None else None
        if b is None:
            return None
        (values_a, va), (values_b, vb) = a, b
        adjoints = (np.ascontiguousarray(va.conj().T), np.ascontiguousarray(vb.conj().T))
        return _Eigenbasis((values_a, values_b), (va, vb), adjoints,
                           (adjoints[0] @ vb, adjoints[1] @ va))

    @property
    def power_depth(self) -> int:
        """The highest power of Y = X/||X||_1 that :attr:`powers` keeps per
        generator: 16 when the stack Y^0 .. Y^16 takes at most 1 MiB (real
        d <= 87, complex d <= 62), else 4.  The depth chooses only how a
        run's Taylor polynomial is formed, not its degree, squarings or
        coefficients (:func:`_taylor_terms`)."""
        fits = (_DEEP + 1) * self.A.size * self.A.itemsize <= _DEEP_BYTES
        return _DEEP if fits else _SHALLOW

    @cached_property
    def powers(self) -> tuple[_Powers, _Powers]:
        """Cached scaled powers of A and B for their Taylor exponentials:
        the contiguous block X, Y^2, Y^3, Y^4, four d x d arrays per
        generator, or with a :attr:`power_depth` of 16 the whole stack
        Y^0 .. Y^16 (Y^2, Y^3 and Y^4 then view it).

        Once a generator's block is built, ``A`` (``B``) is rebound to its
        X row, an exact copy, so the pair holds each generator once: A's
        own array is freed before B's block is built, unless the caller
        still holds it."""
        deep = self.power_depth == _DEEP
        built = []
        for name in ("A", "B"):
            X = getattr(self, name)
            rows, row = _power_rows(X.shape, X.dtype, deep)
            row[...] = X
            built.append(_powers(rows))
            if not deep:
                object.__setattr__(self, name, row)
        return tuple(built)


#: two_norms takes the Gram matrix of a matrix as it is while its largest
#: diagonal entry (the largest squared column norm) lies in
#: [2^-_GRAM_RANGE, 2^_GRAM_RANGE]: no product overflows, and what underflows
#: is far below eps of the norm.
_GRAM_RANGE = 900


def _gram(M: np.ndarray) -> np.ndarray:
    """M^H M for each matrix of a (k, d, d) stack (one BLAS syrk per real
    matrix)."""
    return np.matmul(M.conj().swapaxes(-1, -2), M)


def two_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value (spectral norm) of each matrix of a (k, d, d)
    stack, as a length-k array: the square root of the largest eigenvalue of
    the Gram matrix M^H M, from LAPACK's symmetric eigensolver via numpy's
    ``eigvalsh``.

    A real stack stays float64 throughout, a complex one complex128.  The
    top eigenvalue of M^H M is good to a few d eps relative, so the norm is
    too (it agrees with numpy's SVD-based ``norm(M, 2)`` to within
    8 (d + 1) eps relative).  A matrix whose largest squared column norm
    lies outside [2^-900, 2^900], where M^H M could overflow or lose its
    digits to underflow, is first scaled exactly by a power of two 2^-e
    that brings its largest entry into [1/2, 1), and its norm scaled back
    by 2^e; every other matrix is used as it is.  Each matrix's norm equals
    its one-matrix call bit for bit.  Non-finite entries anywhere raise
    ``ValueError``.  A 0 x 0 matrix has norm 0.
    """
    M = np.asarray(M, dtype=_dtype(M))
    if not M.shape[-1]:
        return np.zeros(M.shape[:-2])
    with np.errstate(over="ignore", invalid="ignore"):  # an extreme M is redone below
        G = _gram(M)
    top = G.diagonal(0, -2, -1).real.max(axis=-1, initial=0.0)
    low, high = 2.0 ** -_GRAM_RANGE, 2.0 ** _GRAM_RANGE
    if all(low <= x <= high for x in top.tolist()):  # False on NaN
        return np.sqrt(np.linalg.eigvalsh(G)[..., -1])
    if not np.all(np.isfinite(M)):
        raise ValueError("norm of non-finite entries")
    # the real and imaginary parts as floats, so np.ldexp scales them exactly
    parts = np.ascontiguousarray(M).view(np.float64)
    largest = np.abs(parts).max(axis=(-2, -1), initial=0.0)
    e = np.where((top >= low) & (top <= high), 0, np.frexp(largest)[1])
    G = _gram(np.ldexp(parts, -e[:, np.newaxis, np.newaxis]).view(M.dtype))
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(G)[..., -1]), e)


def two_norm(M: np.ndarray) -> float:
    """Spectral norm of one square 2-D matrix: :func:`two_norms` of the
    one-matrix stack.  Any other shape raises ``ValueError``."""
    return float(two_norms(_square_matrix(M, "two_norm")[np.newaxis])[0])


_PAULI_A = np.array([[0.0, -1.0j], [-1.0j, 0.0]])   # -i sigma_x
_PAULI_B = np.array([[-1.0j, 0.0], [0.0, 1.0j]])    # -i sigma_z


def make_pair(kind: str, dim: int = 16, seed: int = 0) -> OperatorPair:
    """Build a named test pair.

    ``pauli``: the fixed 2x2 anti-Hermitian pair -i*sigma_x, -i*sigma_z
    (complex128).
    ``random``: real standard-normal dim x dim matrices from the seeded
    generator, each normalized to unit spectral norm (float64).
    """
    if kind == "pauli":
        return OperatorPair(_PAULI_A, _PAULI_B, label="pauli")
    if kind == "random":
        if dim < 2:
            raise ValueError("dim must be at least 2")
        rng = SplitMix64(seed)
        A = rng.normal_matrix(dim)
        B = rng.normal_matrix(dim)
        A = A / two_norm(A)
        B = B / two_norm(B)
        return OperatorPair(A, B, label=f"random:{dim}", seed=seed)
    raise ValueError(f"unknown pair kind {kind!r}")


def _step_times(t) -> tuple[np.ndarray, list[int]]:
    """The step times ``t``, one or a 1-D array of them, as a 1-D array, and
    their indices by decreasing |t|, ties in index order: the order in which
    a stack of them meets the Taylor core, so that its core products and
    squarings run on prefixes.  Any other shape, or a step time that is not
    finite, raises ``ValueError``."""
    times = np.asarray(t)
    if times.ndim > 1:
        raise ValueError(f"t must be a step time or a 1-D array of them, got shape {times.shape}")
    steps = times.reshape(-1)
    sizes = np.abs(steps).tolist()
    if not all(map(math.isfinite, sizes)):
        raise ValueError(f"step times must be finite, got {t!r}")
    return steps, sorted(range(len(sizes)), key=lambda j: -sizes[j])


def evaluate_scheme(scheme, pair: OperatorPair, t) -> np.ndarray:
    """Left-to-right product of exp(c * t * X) over the scheme's slots.

    ``t`` is one step time, giving a d x d matrix, or a 1-D array of k step
    times, giving the (k, d, d) stack of the products at each of them, all
    multiplied out in one pass over the runs.  Each (k, d, d) buffer holds
    k d^2 entries, so a 13-point stack on a d = 256 pair takes 6.8 MB per
    float64 buffer (``k = 1`` is the one-time case, with d x d buffers).

    Accepts what :func:`~commexp.conditions.slot_pairs` accepts and refuses
    abstract template slots.  Each path makes one exponential per run of the
    slots (:func:`~commexp.conditions.slot_runs`), which has the same
    product: zero slots are skipped, neighbours on one generator merge, and a
    run that cancels to zero goes, merging its neighbours; at ``t == 0`` or
    with no run left the exact identity is returned.  Coefficients are read
    by :func:`~commexp.liealg._slot_value` before any two are added, so raw
    ``Fraction``, ``Decimal`` and numpy scalars give their floats' product.
    A step time that is not finite, or a run coefficient that is not finite
    (at any ``t``, zero included), raises ``ValueError`` on either path, and
    so does a product that overflows to non-finite entries, with no numpy
    warning.

    On pairs with an :attr:`~OperatorPair.eigenbasis` the product is carried
    in eigenbasis coordinates as
    ``R = V_1 diag(exp(c t lambda_1)) W_12 diag(...) ...`` and closed with
    the last ``V^H``: one column scaling per run, one product per switch of
    generator.  All basis changes are unitary, so for s slots the result is
    the exact product to within ``(s + 2 + sum_i |c_i t| ||X_i||) * d * eps``
    in the 2-norm, relative to the product of the factor norms
    ``||exp(c_i t X_i)||`` (all 1 for anti-Hermitian generators and real
    ``c_i t``); the worst of 3000 random d = 2..16 cases reached 0.63 of it.

    Every other pair exponentiates each run from the pair's cached
    :attr:`~OperatorPair.powers` of ``Y = X / nu``, ``nu = ||X||_1``, with
    alpha_2 and alpha_3 from the norms of Y^2, Y^3 and Y^4 (:func:`expm`);
    a run ``exp(z X)`` is good to ~1e-13 relative.  One pass over all runs
    gives each entry its degree and s, the fewest products that bring
    ``|z| nu min(alpha_2, alpha_3) 2^-s`` below that degree's theta
    (truncation error at most 7.24e-16 relative), and the coefficients
    ``u^m / m!`` of ``u = z nu 2^-s``, m = 0..16, bit for bit the same at
    either depth.  The depth chooses only how each entry's polynomial in
    ``u Y`` is formed.  With a :attr:`~OperatorPair.power_depth` of 16 (a
    stack Y^0 .. Y^16 that fits 1 MiB: real d <= 87) it is the degree-16
    polynomial, one product of the 17 coefficients with the cached stack.
    Otherwise (power depth 4) it is the core of :func:`expm` on the block
    X, Y^2, Y^3, Y^4: the polynomial of degree 8 or 16 in 1 or 2 products,
    from the first 9 coefficients.  Each entry then takes its s squarings.
    The stack is ordered by decreasing |t|, so the degree-16 stage and each
    squaring run on a prefix of it, and each entry equals its own one-time
    evaluation bit for bit at either depth.
    Three buffers rotate through the runs and the products between them,
    and at power depth 4 a fourth is the core's work space.  They are
    float64 when the pair and every run's z·t are real, and complex128
    when either is complex: then the real cached powers of a real pair are
    never cast: each product of them with a complex factor is one real
    product on that factor's float parts (:func:`~commexp.liealg._product`).
    The walk's result is always complex128, its t = 0 identity included.
    """
    steps, order = _step_times(t)
    gens, (coeffs,) = _slot_row(slot_runs(scheme))
    if not np.isfinite(coeffs).all():
        raise ValueError(f"non-finite run coefficient in {coeffs.tolist()!r}")
    # the stack runs over the nonzero step times by decreasing |t|
    live = [j for j in order if steps[j]] if gens else []
    ordered = live == list(range(len(steps)))
    basis = pair.eigenbasis
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        z = np.multiply.outer(coeffs, steps if ordered else steps[live])  # (runs, k)
        dtype = np.complex128 if basis is not None else _dtype(pair.A, z)
        shape = (len(live), pair.dim, pair.dim)
        if not live:
            out = np.empty(shape, dtype=dtype)
        elif basis is None:
            out = _taylor_walk(pair.powers, gens, z, shape, dtype)
        else:
            out = _eigenbasis_walk(basis, gens, z)
    if not np.isfinite(out).all():
        raise ValueError("the scheme's product overflows to non-finite entries")
    if not ordered:
        stack, out = out, np.empty((len(steps), pair.dim, pair.dim), dtype=dtype)
        out[...] = np.eye(pair.dim)
        out[live] = stack
    return out if np.ndim(t) else out[0]


def _taylor_walk(powers: tuple[_Powers, _Powers], gens, z, shape, dtype) -> np.ndarray:
    """The product of the runs' Taylor exponentials, per stack entry: run i
    is exp(z[i, j] X) on generator gens[i] for entry j, from deep powers
    (:func:`_stack_exp`) or else by the core of degree 8 or 16 in 1 or 2
    products (:func:`_taylor_exp`)."""
    runs = [powers[gen] for gen in gens]
    q, s, c = _taylor_terms(runs, z)
    P, Q = (np.empty(shape, dtype=dtype) for _ in range(2))
    W = np.empty(shape, dtype=dtype) if runs[0].stack is None else None
    result = None
    for i, run in enumerate(runs):
        E, spare = (_taylor_exp(run, q[i], s[i], c[i], P, Q, W) if run.stack is None
                    else _stack_exp(run, s[i], c[i], P, Q))
        if result is None:
            result, P, Q = E, spare, np.empty_like(spare)
        else:
            np.matmul(result, E, out=spare)
            result, P, Q = spare, result, E
    return result


def _eigenbasis_walk(basis: _Eigenbasis, gens, z) -> np.ndarray:
    """The product of the runs' exponentials in eigenbasis coordinates, per
    stack entry: run i scales the columns by exp(z[i, j] lambda) for entry j."""
    values = np.array([basis.values[gen] for gen in gens])
    phases = np.exp(z[:, :, np.newaxis] * values[:, np.newaxis, :])[:, :, np.newaxis, :]
    R = basis.vectors[gens[0]] * phases[0]
    for gen, phase in zip(gens[1:], phases[1:]):
        R = R @ basis.transfer[1 - gen]
        R *= phase
    return R @ basis.adjoints[gens[-1]]


def evaluation_path(scheme, pair: OperatorPair) -> tuple[str, str]:
    """How :func:`evaluate_scheme` multiplies the scheme out on the pair at a
    real t: ``("eigenbasis", "complex128")``, or ``("taylor", dtype)`` with
    dtype ``"float64"`` or ``"complex128"`` by the rule above.  On the
    taylor path the pair's :attr:`~OperatorPair.power_depth` says which
    powers it runs on."""
    if pair.eigenbasis is not None:
        return "eigenbasis", "complex128"
    return "taylor", np.dtype(_dtype(pair.A, _slot_row(slot_runs(scheme))[1])).name


def element_matrix(degree: int, position: int, pair: OperatorPair) -> np.ndarray:
    """Matrix realization of a nested-commutator basis element from the
    atoms and recipes of :mod:`~commexp.liealg` (``KeyError`` outside it)."""
    if (degree, position) in _BASIS_ATOMS:
        return pair.matrix(_BASIS_ATOMS[(degree, position)])
    sign, letter, child = _BASIS_RECIPES[(degree, position)]
    L = pair.matrix(letter)
    C = element_matrix(*child, pair)
    return sign * (L @ C - C @ L)


def target_matrix(target: TargetPolynomial, pair: OperatorPair, t) -> np.ndarray:
    """exp of the matrix Lie polynomial: each degree-j term scaled by t^j.

    ``t`` is one step time, giving a d x d matrix, or a 1-D array of k step
    times, giving the (k, d, d) stack of the targets at each of them, as
    :func:`evaluate_scheme` takes it.  The element matrices are built once,
    each term's weights w t^j are broadcast over the grid, and the stack is
    exponentiated in one pass of the Taylor core of :func:`expm`, each entry
    with its own powers, whose X rows the sum is built in.  The rows are
    built by decreasing |t|, as :func:`evaluate_scheme` orders its stack, so
    a target of one degree reaches the core already in its order and its
    power block is not copied; the results are put back in the order of
    ``t``, and every entry equals its own one-time call bit for bit.
    float64 when the pair and every weight w t^j are real, else complex128.
    A non-finite sum or exponential at any t, an overflow while building
    the element matrices included, raises ``ValueError`` and no numpy
    warning.
    """
    steps, order = _step_times(t)
    with np.errstate(over="ignore", invalid="ignore"):  # _expm_stack refuses a non-finite F
        # t^j one scalar at a time, as libm's pow gives it: numpy's vectorised
        # power can differ from it by an ulp
        weights = [np.array([w * steps[j] ** degree for j in order])
                   for (degree, _), w in target.terms.items()]
        rows, F = _power_rows((len(steps), pair.dim, pair.dim), _dtype(pair.A, *weights))
        F[...] = 0.0
        for (degree, position), w in zip(target.terms, weights):
            F += w[:, np.newaxis, np.newaxis] * element_matrix(degree, position, pair)
    T = _expm_stack(rows)
    if order != list(range(len(steps))):
        T = T[np.argsort(order)]
    return T if np.ndim(t) else T[0]
