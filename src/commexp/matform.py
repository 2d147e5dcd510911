"""Dense matrix harness: exponentials, spectral norm, and test operator pairs.

Everything here is deterministic: the matrix exponential is a fixed
scaling-and-squaring routine, the spectral norm is the largest singular value
from LAPACK (numpy's ``norm(M, 2)``), and the random operator pairs are drawn
from a small named 64-bit generator so experiments reproduce given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import TargetPolynomial
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
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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

    def normal_matrix(self, dim: int) -> np.ndarray:
        values = [self.normal() for _ in range(dim * dim)]
        return np.array(values, dtype=np.complex128).reshape(dim, dim)


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


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a degree-13 Taylor core.

    The scaled one-norm is pushed below 1/2, where the truncation error of
    the degree-13 polynomial sits at the round-off floor.  Good to ~1e-13
    relative for the moderate norms used here.
    """
    M = np.asarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite entries")
    d = M.shape[0]
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if d else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm1 / 0.5)))) if norm1 > 0.5 else 0
    X = M / (2.0 ** squarings)
    eye = np.eye(d, dtype=np.complex128)
    T = eye.copy()
    for k in range(13, 0, -1):
        T = eye + (X @ T) / k
    for _ in range(squarings):
        T = T @ T
    return T


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
    """Left-to-right product of exp(c * t * X) over the scheme's slots."""
    slots = getattr(scheme, "slots", scheme)
    result = np.eye(pair.dim, dtype=np.complex128)
    for slot in slots:
        if hasattr(slot, "generator"):
            gen, coeff = slot.generator, slot.coefficient
        else:
            gen, coeff = slot
        if coeff == 0:
            continue
        result = result @ expm(complex(coeff) * t * pair.matrix(gen))
    return result


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
