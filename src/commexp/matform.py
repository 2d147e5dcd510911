"""Dense matrix harness: exponentials, spectral norm, and test operator pairs.

Everything here is deterministic: the matrix exponential is a fixed
scaling-and-squaring routine, the spectral norm is the largest singular value
from LAPACK (numpy's ``norm(M, 2)``), and the random operator pairs are drawn
from a small named 64-bit generator so experiments reproduce given the seed.

A scheme's product ``exp(c_1 t X_1) ... exp(c_s t X_s)`` is evaluated on one
of two paths (:func:`evaluate_scheme`):

- *eigenbasis* walk, for pairs whose generators are both Hermitian or
  anti-Hermitian (the ``pauli`` pair).  The pair caches unitary
  eigenvectors, so a run of slots on one generator costs a column scaling
  and a switch of generator one product with a cached transfer matrix;
- *expm*, for every other pair (the non-normal ``random`` pairs): one
  :func:`expm` per slot, multiplied left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .conditions import TargetPolynomial, slot_pairs
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


#: 1/k! for k = 0..13: the degree-13 Taylor core of :func:`expm`.
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(14))

#: Paterson-Stockmeyer blocks of that core, highest first: j, and the factors
#: taking X, X^2, X^3 from the previous block's coefficients 1/(j+4+i)! (from
#: 1 for the first block) to this block's 1/(j+i)!.
_PS_BLOCKS = tuple(
    (j, tuple(_TAYLOR[j + i] if j == 8 else math.factorial(j + i + 4) / math.factorial(j + i)
              for i in (1, 2, 3)))
    for j in (8, 4, 0))


def _add_to_diagonal(M: np.ndarray, value: float) -> None:
    M.reshape(-1)[:: M.shape[0] + 1] += value


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a degree-13 Taylor core.

    The scaled one-norm is pushed below 1/2, where the truncation error of
    the degree-13 polynomial sits at the round-off floor.  Good to ~1e-13
    relative for the moderate norms used here.  The polynomial is evaluated
    by Paterson-Stockmeyer (1973) in 6 matrix products: X^2, X^3, X^4, then
    three Horner steps in X^4 over blocks of four Taylor terms.
    """
    M = np.asarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite entries")
    d = M.shape[0]
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if d else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm1 / 0.5)))) if norm1 > 0.5 else 0
    X = M * 2.0 ** -squarings
    X2 = X @ X
    powers = (X, X2, X2 @ X)
    X4 = X2 @ X2
    # p(X) = ((P12 X^4 + P8) X^4 + P4) X^4 + P0 with P12 = 1/12! + X/13! and
    # P_j = sum_{i=0..3} X^i / (j + i)!.  The powers are rescaled in place
    # from one block's coefficients to the next, so no temporaries arise.
    P = X * _TAYLOR[13]
    _add_to_diagonal(P, _TAYLOR[12])
    Q = np.empty_like(X)
    for j, factors in _PS_BLOCKS:
        np.matmul(P, X4, out=Q)
        for power, factor in zip(powers, factors):
            power *= factor
            Q += power
        _add_to_diagonal(Q, _TAYLOR[j])
        P, Q = Q, P
    for _ in range(squarings):
        np.matmul(P, P, out=Q)
        P, Q = Q, P
    return P


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
    abstract template slots.  Zero-coefficient slots are skipped, and at
    ``t == 0`` or with no nonzero slot the exact identity is returned.

    On pairs with an :attr:`~OperatorPair.eigenbasis`, adjacent slots on the
    same generator merge into one run, the product is carried in eigenbasis
    coordinates as ``R = V_1 diag(exp(c t lambda_1)) W_12 diag(...) ...`` and
    closed with the last ``V^H``: one column scaling per run, one product
    per switch of generator.  All basis changes are unitary, so for s slots
    the result is the exact product to within
    ``(s + 2 + sum_i |c_i t| ||X_i||) * d * eps`` in the 2-norm, relative to
    the product of the factor norms ``||exp(c_i t X_i)||`` (all 1 for
    anti-Hermitian generators and real ``c_i t``); the worst of 3000 random
    d = 2..16 cases reached 0.63 of it.  Other pairs take one :func:`expm`
    per slot, each good to ~1e-13 relative.
    """
    pairs = slot_pairs(scheme)
    basis = pair.eigenbasis
    if basis is None:
        result = np.eye(pair.dim, dtype=np.complex128)
        for gen, coeff in pairs:
            if coeff != 0:
                result = result @ expm(complex(coeff) * t * pair.matrix(gen))
        return result

    runs: list[list] = []
    for gen, coeff in pairs:
        if coeff == 0:
            continue
        if runs and runs[-1][0] == gen:
            runs[-1][1] += coeff
        else:
            runs.append([gen, coeff])
    if t == 0 or not runs:
        return np.eye(pair.dim, dtype=np.complex128)
    gen, coeff = runs[0]
    R = basis.vectors[gen] * np.exp((complex(coeff) * t) * basis.values[gen])
    for gen, coeff in runs[1:]:
        R = R @ basis.transfer[1 - gen]
        R *= np.exp((complex(coeff) * t) * basis.values[gen])
    return R @ basis.adjoints[gen]


def element_matrix(degree: int, position: int, pair: OperatorPair) -> np.ndarray:
    """Matrix realization of a nested-commutator basis element."""
    basis = basis_build(max(degree, 2))
    element = basis.element(degree, position)
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
