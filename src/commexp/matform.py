"""Dense matrix harness: exponentials, spectral norm, and test operator pairs.

Everything here is deterministic: the matrix exponential is a fixed
scaling-and-squaring routine over one degree-14 Taylor core, the spectral
norm is the largest singular value from LAPACK (numpy's ``norm(M, 2)``), and
the random operator pairs are drawn from a small named 64-bit generator so
experiments reproduce given the seed.

A scheme's product ``exp(c_1 t X_1) ... exp(c_s t X_s)`` is evaluated on one
of two paths (:func:`evaluate_scheme`), one exponential per run of its slots
(:func:`~commexp.conditions.slot_runs`: zero slots dropped, neighbours on one
generator merged, cancelling runs removed):

- *eigenbasis* walk, for pairs whose generators are both Hermitian or
  anti-Hermitian (the ``pauli`` pair).  The pair caches unitary
  eigenvectors, so a run costs a column scaling and a switch of generator
  one product with a cached transfer matrix;
- *cached powers*, for every other pair (the non-normal ``random`` pairs).
  The pair caches ``(X/||X||_1)^2`` and ``(X/||X||_1)^3`` of each generator
  and their norms, so each run's exponential is the Taylor core of
  :func:`expm` in 4 products plus its squarings, which the power norms keep
  few; the runs are multiplied left to right.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .conditions import TargetPolynomial, slot_runs
from .liealg import Generator, basis_build

__all__ = [
    "SplitMix64",
    "OperatorPair",
    "expm",
    "two_norm",
    "make_pair",
    "evaluate_scheme",
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
        """``dim * dim`` successive :meth:`normal` draws, row-major.

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
        return values[:count].astype(np.complex128).reshape(dim, dim)


#: Scaled-argument bound for the degree-14 Taylor polynomial behind every
#: exponential here: when |z| nu alpha <= _THETA the truncation error
#: sum_{k>=15} _THETA^k / k! is at most 7.24e-16, the bound of a degree-13
#: polynomial at one-norm 1/2 (sum_{k>=14} 0.5^k / k!).  The root of that
#: equation, 0.62700290, rounded down.
_THETA = 0.6270028


class _Powers(NamedTuple):
    """A matrix X and the powers its Taylor exponentials reuse.

    ``X = scale * Y`` with ``scale = ||X||_1``, raised to the smallest normal
    float so that ``1 / scale`` is finite; ``square`` and ``cube`` are Y^2
    and Y^3, and ``alpha = max(||Y^2||_1^(1/2), ||Y^3||_1^(1/3))``, which
    bounds ``||Y^k||_1^(1/k)`` for every k >= 2 (Al-Mohy and Higham 2009,
    with p = 2).  A zero X has ``scale`` 0 and no powers.
    """

    X: np.ndarray
    scale: float
    square: np.ndarray | None
    cube: np.ndarray | None
    alpha: float


def _norm1(X: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(X), axis=0))) if X.size else 0.0


def _powers(X: np.ndarray) -> _Powers:
    norm = _norm1(X)
    if norm == 0.0:
        return _Powers(X, 0.0, None, None, 0.0)
    scale = max(norm, np.finfo(np.float64).tiny)
    Y = X * (1.0 / scale)
    square = Y @ Y
    cube = square @ Y
    alpha = max(math.sqrt(_norm1(square)), _norm1(cube) ** (1.0 / 3.0))
    return _Powers(X, scale, square, cube, alpha)


def _add_to_diagonal(M: np.ndarray, value: complex) -> None:
    M.reshape(-1)[:: M.shape[0] + 1] += value


def _taylor_exp(powers: _Powers, z: complex, P: np.ndarray,
                Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(z X) into one of the d x d buffers P and Q: (result, the other).

    Scales by 2^-s with s = ceil(log2(|z| nu alpha / _THETA)), nu the
    powers' ``scale``; evaluates the degree-14 Taylor polynomial in u Y,
    u = z nu 2^-s, Paterson-Stockmeyer style in blocks of three terms and
    Horner in the cached Y^3,
    ``p = (((B_4 Y^3 + B_3) Y^3 + B_2) Y^3 + B_1) Y^3 + B_0`` with
    ``B_j = sum_{i<3} (u Y)^(3j+i) / (3j+i)!``; then squares s times:
    4 + s matrix products, and no array beyond P and Q.
    """
    X, scale, square, cube, alpha = powers
    w = complex(z) * scale
    if not cmath.isfinite(w):
        raise ValueError("matrix exponential of non-finite entries")
    if scale == 0.0:
        P[...] = 0.0
        _add_to_diagonal(P, 1.0)
        return P, Q
    size = abs(w) * alpha
    squarings = math.ceil(math.log2(size / _THETA)) if size > _THETA else 0
    u = w * 2.0 ** -squarings
    c = [1.0 + 0j]
    for k in range(1, 15):
        c.append(c[-1] * u / k)
    # X = scale * Y, so the Y term of each block takes its coefficient / scale
    np.multiply(X, c[13] / scale, out=P)
    np.multiply(square, c[14], out=Q)
    P += Q
    _add_to_diagonal(P, c[12])
    for j in (9, 6, 3, 0):
        np.matmul(P, cube, out=Q)
        np.multiply(X, c[j + 1] / scale, out=P)
        Q += P
        np.multiply(square, c[j + 2], out=P)
        Q += P
        _add_to_diagonal(Q, c[j])
        P, Q = Q, P
    for _ in range(squarings):
        np.matmul(P, P, out=Q)
        P, Q = Q, P
    return P, Q


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring over a degree-14 Taylor core.

    The number of squarings s comes from ``nu alpha``, where ``nu = ||M||_1``
    and alpha is the larger of ``||Y^2||_1^(1/2)`` and ``||Y^3||_1^(1/3)``
    for ``Y = M / nu`` (Al-Mohy and Higham 2009): it bounds how fast the
    Taylor terms decay, and is often well below 1 on non-normal M, so s can
    be several squarings fewer than the one-norm alone asks for.  The scaled
    argument is pushed below theta_14 = 0.6270028, where the truncation error
    is at most 7.24e-16 relative.  Good to ~1e-13 relative for the moderate
    norms used here.  Cost: Y^2 and Y^3, then 4 + s products
    (Paterson-Stockmeyer, Horner in Y^3).  :func:`evaluate_scheme` runs the
    same core on each generator's cached powers.
    """
    M = np.asarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite entries")
    return _taylor_exp(_powers(M), 1.0, np.empty(M.shape, np.complex128),
                       np.empty(M.shape, np.complex128))[0]


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

    The test is O(d^2); ``eigh`` runs only when it passes.  Anti-Hermitian X
    is diagonalised as -i (iX) with iX Hermitian.
    """
    adjoint = X.conj().T
    tol = _SYMMETRY_ULPS * np.finfo(np.float64).eps * float(np.max(np.abs(X)))
    if float(np.max(np.abs(X - adjoint))) <= tol:
        values, vectors = np.linalg.eigh(X)
        return values.astype(np.complex128), vectors
    if float(np.max(np.abs(X + adjoint))) <= tol:
        values, vectors = np.linalg.eigh(1j * X)
        return -1j * values, vectors
    return None


@dataclass(frozen=True)
class OperatorPair:
    """Two same-size square complex matrices standing in for the generators."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    label: str = ""
    seed: int | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.complex128)
        B = np.asarray(self.B, dtype=np.complex128)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if A.shape != B.shape:
            raise ValueError("A and B must have equal dimensions")
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

    @cached_property
    def powers(self) -> tuple[_Powers, _Powers]:
        """Cached scaled powers of A and B for their Taylor exponentials."""
        return _powers(self.A), _powers(self.B)


def two_norm(M: np.ndarray) -> float:
    """Largest singular value (spectral norm), from LAPACK's SVD via numpy."""
    M = np.asarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(M)):
        raise ValueError("norm of non-finite entries")
    return float(np.linalg.norm(M, 2))


_PAULI_A = np.array([[0.0, -1.0j], [-1.0j, 0.0]])   # -i sigma_x
_PAULI_B = np.array([[-1.0j, 0.0], [0.0, 1.0j]])    # -i sigma_z


def make_pair(kind: str, dim: int = 16, seed: int = 0) -> OperatorPair:
    """Build a named test pair.

    ``pauli``: the fixed 2x2 anti-Hermitian pair -i*sigma_x, -i*sigma_z.
    ``random``: real standard-normal dim x dim matrices from the seeded
    generator, each normalized to unit spectral norm.
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


def evaluate_scheme(scheme, pair: OperatorPair, t: float) -> np.ndarray:
    """Left-to-right product of exp(c * t * X) over the scheme's slots.

    Accepts what :func:`~commexp.conditions.slot_pairs` accepts and refuses
    abstract template slots.  Each path makes one exponential per run of the
    slots (:func:`~commexp.conditions.slot_runs`), which has the same
    product: zero slots are skipped, neighbours on one generator merge, and a
    run that cancels to zero goes, merging its neighbours; at ``t == 0`` or
    with no run left the exact identity is returned.

    On pairs with an :attr:`~OperatorPair.eigenbasis` the product is carried
    in eigenbasis coordinates as
    ``R = V_1 diag(exp(c t lambda_1)) W_12 diag(...) ...`` and closed with
    the last ``V^H``: one column scaling per run, one product per switch of
    generator.  All basis changes are unitary, so for s slots the result is
    the exact product to within ``(s + 2 + sum_i |c_i t| ||X_i||) * d * eps``
    in the 2-norm, relative to the product of the factor norms
    ``||exp(c_i t X_i)||`` (all 1 for anti-Hermitian generators and real
    ``c_i t``); the worst of 3000 random d = 2..16 cases reached 0.63 of it.

    Every other pair exponentiates each run with the degree-14 Taylor core of
    :func:`expm` on the pair's cached :attr:`~OperatorPair.powers`: with
    ``nu = ||X||_1`` and alpha from the norms of the cached ``(X/nu)^2`` and
    ``(X/nu)^3``, a run ``exp(z X)`` takes ``4 + s`` products,
    ``s = ceil(log2(|z| nu alpha / theta_14))`` squarings and
    theta_14 = 0.6270028 (truncation error at most 7.24e-16 relative), and
    is good to ~1e-13 relative.  Three d x d buffers rotate through the
    runs and the products between them.
    """
    runs = slot_runs(scheme)
    if t == 0 or not runs:
        return np.eye(pair.dim, dtype=np.complex128)
    basis = pair.eigenbasis
    if basis is None:
        powers = pair.powers
        P, Q = (np.empty((pair.dim, pair.dim), dtype=np.complex128) for _ in range(2))
        result = None
        for gen, coeff in runs:
            E, spare = _taylor_exp(powers[gen], complex(coeff) * t, P, Q)
            if result is None:
                result, P, Q = E, spare, np.empty_like(spare)
            else:
                np.matmul(result, E, out=spare)
                result, P, Q = spare, result, E
        return result

    gen, coeff = runs[0]
    R = basis.vectors[gen] * np.exp((complex(coeff) * t) * basis.values[gen])
    for gen, coeff in runs[1:]:
        R = R @ basis.transfer[1 - gen]
        R *= np.exp((complex(coeff) * t) * basis.values[gen])
    return R @ basis.adjoints[gen]


def element_matrix(degree: int, position: int, pair: OperatorPair) -> np.ndarray:
    """Matrix realization of a nested-commutator basis element."""
    element = basis_build().element(degree, position)
    if element.letter is None:
        return pair.A if position == 1 else pair.B
    L = pair.matrix(element.letter)
    C = element_matrix(*element.child, pair)
    return element.sign * (L @ C - C @ L)


def target_matrix(target: TargetPolynomial, pair: OperatorPair, t: float) -> np.ndarray:
    """exp of the matrix Lie polynomial: each degree-j term scaled by t^j."""
    F = np.zeros((pair.dim, pair.dim), dtype=np.complex128)
    for (degree, position), w in target.terms.items():
        F = F + complex(w) * (t ** degree) * element_matrix(degree, position, pair)
    return expm(F)
