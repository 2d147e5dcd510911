"""Tests for the dense matrix harness."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import commexp
from commexp.conditions import (
    TargetPolynomial,
    commutator_target,
    effective_error,
    order_residuals,
    slot_pairs,
    slot_runs,
    sum_plus_commutator_target,
    sum_target,
)
from commexp import matform
from commexp.liealg import Generator, _slot_row
from commexp.matform import (
    OperatorPair,
    SplitMix64,
    element_matrix,
    evaluate_scheme,
    evaluation_path,
    expm,
    make_pair,
    target_matrix,
    two_norm,
)
from commexp.schemes import ExponentSlot, catalog_get, transform


def commutator(X, Y):
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# SplitMix64
# ---------------------------------------------------------------------------


def test_splitmix_matches_reference_stream():
    # first outputs for seed 0 from the reference implementation
    g = SplitMix64(0)
    assert [g.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_is_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_splitmix_uniform_range():
    g = SplitMix64(7)
    values = [g.uniform() for _ in range(1000)]
    assert all(0.0 < v <= 1.0 for v in values)


def test_splitmix_normal_moments():
    g = SplitMix64(99)
    values = np.array([g.normal() for _ in range(4000)])
    assert abs(values.mean()) < 0.08
    assert abs(values.std() - 1.0) < 0.08


@pytest.mark.parametrize("seed,dims,lead", [
    (0, (3, 3), False), (5, (4, 5), True), (9, (1, 2, 7), False), (2, (16, 16), True)])
def test_splitmix_normal_matrix_matches_scalar_normals(seed, dims, lead):
    # back-to-back draws, as make_pair does for A then B; odd dim^2 and a
    # spare carried in from a scalar call exercise the Box-Muller pairing
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    if lead:
        assert fast.normal() == slow.normal()
    for dim in dims:
        M = fast.normal_matrix(dim)
        expected = np.array([slow.normal() for _ in range(dim * dim)]).reshape(dim, dim)
        assert fast.state == slow.state
        assert (fast._spare is None) == (slow._spare is None)
        if slow._spare is not None:
            np.testing.assert_array_max_ulp(fast._spare, slow._spare, maxulp=2)
        np.testing.assert_array_max_ulp(M.real, expected, maxulp=2)
    assert fast.next_uint64() == slow.next_uint64()


def test_splitmix_normal_matrix_shape():
    M = SplitMix64(3).normal_matrix(5)
    assert M.shape == (5, 5)
    assert M.dtype == np.float64
    assert np.all(M.imag == 0.0)


# ---------------------------------------------------------------------------
# OperatorPair
# ---------------------------------------------------------------------------


def test_pair_rejects_nonsquare():
    with pytest.raises(ValueError):
        OperatorPair(np.zeros((2, 3)), np.zeros((2, 3)))


def test_pair_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        OperatorPair(np.eye(2), np.eye(3))


def test_pair_accessors(pauli_pair):
    assert pauli_pair.dim == 2
    assert pauli_pair.matrix(Generator.A) is pauli_pair.A
    assert pauli_pair.matrix(Generator.B) is pauli_pair.B
    assert pauli_pair.A.dtype == np.complex128


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_scalar_case():
    np.testing.assert_allclose(expm(np.array([[2.0]])), [[math.e ** 2]], rtol=1e-14)


def test_expm_rotation_closed_form():
    theta = 0.77
    M = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.array([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ])
    np.testing.assert_allclose(expm(M), expected, atol=1e-15)


@pytest.mark.parametrize("dim,scale", [(2, 0.3), (4, 1.0), (8, 5.0), (16, 20.0)])
def test_expm_matches_scipy(rng, dim, scale):
    M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    M /= dim  # keep norms moderate while still forcing several squarings
    np.testing.assert_allclose(expm(M), scipy.linalg.expm(M), rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 3.0])
def test_expm_matches_scipy_at_dim_64(rng, scale):
    M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    M *= scale / np.linalg.norm(M, 2)
    expected = scipy.linalg.expm(M)
    error = np.linalg.norm(expm(M) - expected, 2) / np.linalg.norm(expected, 2)
    assert error < 5e-14


def test_expm_does_not_modify_its_argument(rng):
    M = rng.standard_normal((6, 6)) + 0j
    kept = M.copy()
    expm(M)
    np.testing.assert_array_equal(M, kept)


def test_expm_rejects_nonfinite():
    M = np.array([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expm(M)


@pytest.mark.parametrize("M", [
    np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]),   # a stack is not one matrix
    np.ones((2, 3)),
    np.ones(3),
    np.float64(1.0),
])
def test_expm_and_two_norm_take_one_square_matrix(M):
    for function in (expm, two_norm):
        with pytest.raises(ValueError, match="square 2-D matrix"):
            function(M)


def test_expm_inverse_relation(rng):
    M = rng.standard_normal((5, 5))
    product = expm(M) @ expm(-M)
    np.testing.assert_allclose(product, np.eye(5), atol=1e-13)


# ---------------------------------------------------------------------------
# two_norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9, 17])
def test_two_norm_matches_svd(rng, dim):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert two_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)


def test_two_norm_degenerate_top_cluster():
    # several equal leading singular values must not stall the iteration
    M = np.diag([3.0, 3.0, 3.0, 3.0, 1.0])
    assert two_norm(M) == pytest.approx(3.0, rel=1e-12)


def test_two_norm_rank_deficient():
    M = np.outer([1.0, 2.0, 2.0], [0.0, 3.0, 4.0])
    assert two_norm(M) == pytest.approx(15.0, rel=1e-12)


def test_two_norm_zero_matrix():
    assert two_norm(np.zeros((4, 4))) == 0.0


def test_two_norm_of_empty_matrices():
    # eigvalsh of a 0 x 0 Gram matrix has no top eigenvalue to read; the
    # norm of an empty matrix is 0, as expm and the one-norm treat it
    assert two_norm(np.zeros((0, 0))) == 0.0
    assert two_norm(np.zeros((0, 0), dtype=np.complex128)) == 0.0
    norms = matform.two_norms(np.zeros((3, 0, 0)))
    assert norms.shape == (3,) and not norms.any()


def test_two_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        two_norm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_two_norm_agrees_with_numpy(dim, data):
    entries = data.draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=dim * dim,
            max_size=dim * dim,
        )
    )
    M = np.array(entries).reshape(dim, dim)
    expected = np.linalg.norm(M, 2)
    assert two_norm(M) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_two_norms_is_two_norm_per_matrix(rng):
    stack = rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7))
    assert matform.two_norms(stack).tolist() == [two_norm(M) for M in stack]
    assert matform.two_norms(stack.real).tolist() == [two_norm(M) for M in stack.real]
    assert matform.two_norms(np.empty((0, 3, 3))).shape == (0,)
    stack[3, 1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        matform.two_norms(stack)


@st.composite
def _scaled_stacks(draw):
    """Real or complex (k, d, d) stacks, d <= 17, of standard normals scaled
    by 2^e, e in [-1070, 1000]: from subnormal entries to norms near 2^1004."""
    g = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    shape = (draw(st.integers(min_value=1, max_value=3)),) + \
        (draw(st.integers(min_value=1, max_value=17)),) * 2
    exponent = draw(st.integers(min_value=-1070, max_value=1000))
    M = np.ldexp(g.standard_normal(shape), exponent)
    if draw(st.booleans()):
        M = M + 1j * np.ldexp(g.standard_normal(shape), exponent)
    return M


@settings(max_examples=150, deadline=None)
@given(stack=_scaled_stacks())
@example(stack=np.array([[[1e-310, 0.0], [0.0, 5e-311]]]))
@example(stack=np.full((2, 3, 3), 5e-324))
def test_two_norms_match_svd_at_every_scale(stack):
    # the Gram norm against numpy's SVD norm within 8 (d + 1) eps relative,
    # also where M^H M as it is would overflow or underflow; a version that
    # formed 2^-e as a factor returned NaN for both examples
    d = stack.shape[-1]
    norms = matform.two_norms(stack)
    expected = np.linalg.norm(stack, 2, axis=(-2, -1))
    assert np.all(np.abs(norms - expected) <= 8 * (d + 1) * np.finfo(float).eps * expected)
    assert norms.tolist() == [two_norm(M) for M in stack]


def test_two_norms_allocates_only_the_gram_matrix():
    # in the usual range the Gram stack is the one (k, d, d) array made: no
    # finiteness mask and no rescaled copy of the input
    M = np.random.default_rng(3).standard_normal((2, 128, 128))
    tracemalloc.start()
    try:
        matform.two_norms(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= M.nbytes + 16 * 1024


# ---------------------------------------------------------------------------
# make_pair
# ---------------------------------------------------------------------------


def test_pauli_pair_constants(pauli_pair):
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_array_equal(pauli_pair.A, -1j * sigma_x)
    np.testing.assert_array_equal(pauli_pair.B, -1j * sigma_z)
    assert pauli_pair.label == "pauli"
    # anti-Hermitian with unit spectral norm, commutator norm 2
    np.testing.assert_array_equal(pauli_pair.A.conj().T, -pauli_pair.A)
    assert two_norm(pauli_pair.A) == pytest.approx(1.0, rel=1e-12)
    assert two_norm(commutator(pauli_pair.A, pauli_pair.B)) == pytest.approx(
        2.0, rel=1e-12)


def test_random_pair_normalization(random_pair):
    assert random_pair.label == "random:16"
    assert random_pair.dim == 16
    assert random_pair.seed == 0
    assert two_norm(random_pair.A) == pytest.approx(1.0, rel=1e-10)
    assert two_norm(random_pair.B) == pytest.approx(1.0, rel=1e-10)
    assert np.all(random_pair.A.imag == 0.0)


def test_random_pair_is_seed_deterministic():
    first = make_pair("random", dim=6, seed=11)
    second = make_pair("random", dim=6, seed=11)
    np.testing.assert_array_equal(first.A, second.A)
    np.testing.assert_array_equal(first.B, second.B)
    other = make_pair("random", dim=6, seed=12)
    assert not np.array_equal(first.A, other.A)


def test_make_pair_rejections():
    with pytest.raises(ValueError):
        make_pair("random", dim=1)
    with pytest.raises(ValueError):
        make_pair("hadamard")


# ---------------------------------------------------------------------------
# evaluate_scheme
# ---------------------------------------------------------------------------


def test_evaluate_scheme_matches_explicit_product(pauli_pair):
    strang = catalog_get("strang")
    t = 0.3
    expected = (
        scipy.linalg.expm(0.5 * t * pauli_pair.A)
        @ scipy.linalg.expm(t * pauli_pair.B)
        @ scipy.linalg.expm(0.5 * t * pauli_pair.A)
    )
    np.testing.assert_allclose(
        evaluate_scheme(strang, pauli_pair, t), expected, atol=1e-13)


def test_evaluate_scheme_accepts_raw_pairs(pauli_pair):
    raw = [(Generator.A, 0.5), (Generator.B, 1.0), (Generator.A, 0.5)]
    np.testing.assert_array_equal(
        evaluate_scheme(raw, pauli_pair, 0.3),
        evaluate_scheme(catalog_get("strang"), pauli_pair, 0.3),
    )


def test_evaluate_scheme_skips_zero_coefficients(pauli_pair):
    padded = [(Generator.A, 0.5), (Generator.B, 0.0), (Generator.A, 0.5)]
    np.testing.assert_array_equal(
        evaluate_scheme(padded, pauli_pair, 0.7),
        evaluate_scheme([(Generator.A, 1.0)], pauli_pair, 0.7),
    )


def test_evaluate_scheme_at_time_zero(pauli_pair):
    np.testing.assert_array_equal(
        evaluate_scheme(catalog_get("NCP6_3"), pauli_pair, 0.0), np.eye(2))


@pytest.mark.parametrize("pair_kind, scheme", [
    ("pauli", "NCP6_3"), ("symmetric", "NCP6_3"),
    ("random", "NCP6_3"), ("random", "PCP6_3_imaginary")])
def test_evaluate_scheme_at_time_zero_keeps_the_path_dtype(pair_kind, scheme):
    # the exact identity, in the arithmetic evaluation_path names: a real
    # symmetric pair walks its eigenbasis in complex128 at every t, t = 0 too
    pair = {"pauli": make_pair("pauli"), "random": make_pair("random", 4, 1),
            "symmetric": OperatorPair(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
            }[pair_kind]
    scheme = catalog_get(scheme)
    dtype = matform.evaluation_path(scheme, pair)[1]
    for t in (0.0, np.zeros(3), np.array([0.3, 0.0])):
        U = evaluate_scheme(scheme, pair, t)
        assert U.dtype == dtype
        np.testing.assert_array_equal(U.reshape(-1, pair.dim, pair.dim)[-1], np.eye(pair.dim))


def test_evaluate_scheme_complex_coefficients(random_pair):
    scheme = catalog_get("PCP6_3_imaginary")
    U = evaluate_scheme(scheme, random_pair, 0.2)
    assert np.all(np.isfinite(U))
    assert U.shape == (16, 16)


def test_evaluate_scheme_refuses_template_slots(pauli_pair, random_pair):
    # a slot on a placeholder letter stands in for neither generator
    slots = [(Generator.A, 1.0), ("D", 0.5)]
    for pair in (pauli_pair, random_pair):
        with pytest.raises(ValueError, match="^composition: slot 1: unknown generator 'D'$"):
            evaluate_scheme(slots, pair, 0.3)


def test_evaluate_scheme_refuses_a_grid_of_times(pauli_pair):
    with pytest.raises(ValueError, match="1-D array"):
        evaluate_scheme(catalog_get("NCP6_3"), pauli_pair, np.ones((2, 2)))


def _unit(X):
    return X / np.linalg.norm(X, 2)


def _symmetric_pair(seed, dim, kinds):
    """Random unit-norm generators: +1 Hermitian, -1 anti-Hermitian."""
    g = np.random.default_rng(seed)
    mats = []
    for kind in kinds:
        X = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        mats.append(_unit(X + kind * X.conj().T))
    return OperatorPair(*mats)


def _expm_product(slots, pair, t):
    """Reference product with scipy in complex128, and evaluate_scheme's two
    stated error bounds, each times the factor norms ||exp(c_i t X_i)||_2 and
    with r = sum_i |c_i t| ||X_i||_2: (s + 2 + r) d eps for the walk, and
    (s + 2) 8 (d + r) eps for the Taylor path."""
    U = np.eye(pair.dim, dtype=np.complex128)
    r, norms = 0.0, 1.0
    for gen, coeff in slots:
        F = scipy.linalg.expm(complex(coeff) * t * pair.matrix(gen))
        U = U @ F
        r += abs(complex(coeff) * t) * np.linalg.norm(pair.matrix(gen), 2)
        norms *= np.linalg.norm(F, 2)
    s, d, eps = len(slots), pair.dim, np.finfo(float).eps
    return U, (s + 2 + r) * d * eps * norms, (s + 2) * 8 * (d + r) * eps * norms


_COEFFICIENTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.builds(complex, st.floats(min_value=-2.0, max_value=2.0),
              st.floats(min_value=-1.0, max_value=1.0)),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=2, max_value=16),
    kinds=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    slots=st.lists(st.tuples(st.sampled_from([Generator.A, Generator.B]), _COEFFICIENTS),
                   min_size=1, max_size=12),
    t=st.floats(min_value=0.01, max_value=2.0),
)
def test_eigenbasis_walk_matches_expm_product(seed, dim, kinds, slots, t):
    # a factor 4 over the stated bound leaves room for scipy's own error
    pair = _symmetric_pair(seed, dim, kinds)
    assert pair.eigenbasis is not None
    expected, bound, _ = _expm_product(slots, pair, t)
    assert np.linalg.norm(evaluate_scheme(slots, pair, t) - expected, 2) <= 4 * bound


@pytest.mark.parametrize("name", ["NCP6_3", "PCP26_6", "suzuki4", "PCP6_3_imaginary"])
def test_eigenbasis_walk_on_pauli_catalog(pauli_pair, name):
    assert pauli_pair.eigenbasis is not None
    scheme = catalog_get(name)
    for t in (0.01, 0.4, 3.0):
        expected, bound, _ = _expm_product(scheme.pairs(), pauli_pair, t)
        assert np.linalg.norm(evaluate_scheme(scheme, pauli_pair, t) - expected, 2) <= 4 * bound


def test_the_walk_refuses_a_product_whose_stated_bound_reaches_1(pauli_pair):
    # the walk's stated bound (s + 2 + sum_i |c_i t| ||X_i||) d eps, over its
    # s runs at the largest |t| of the stack: one A run at |t| = 1 reaches 1
    # just past the edge coefficient, whole or split into two slots, and
    # the product then has no correct digit
    edge = ((1.0 / (pauli_pair.dim * np.finfo(float).eps) - 3.0)
            / np.linalg.norm(pauli_pair.matrix(Generator.A), 2))
    below, above = edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-1.0, np.array([0.5, -1.0, 0.0])):
            assert np.isfinite(evaluate_scheme([(Generator.A, below)], pauli_pair, t)).all()
            for slots in ([(Generator.A, above)], [(Generator.A, above / 2)] * 2):
                with pytest.raises(ValueError, match=r"^the eigenbasis product's error "
                                                     r"bound 1 reaches 1$"):
                    evaluate_scheme(slots, pauli_pair, t)
        # a catalog scheme is far from it, and a slot of 1e200 far past it
        scheme = catalog_get("NCP10_4")
        assert np.isfinite(evaluate_scheme(scheme, pauli_pair, np.array([0.5, -2.0]))).all()
        big = dataclasses.replace(scheme, slots=(ExponentSlot(Generator.A, 1e200),))
        with pytest.raises(ValueError, match=r"error bound 2\.22e\+184 reaches 1"):
            evaluate_scheme(big, pauli_pair, 0.5)


def _symmetry_by_full_test(X):
    """"hermitian", "anti" or None: the decision of the two whole-matrix
    comparisons of X's halves with X^H's halves, each symmetry in turn."""
    half = 0.5 * X
    adjoint = half.conj().T
    tol = matform._SYMMETRY_ULPS * np.finfo(np.float64).eps * np.max(np.abs(half))
    if np.max(np.abs(half - adjoint)) <= tol:
        return "hermitian"
    if np.max(np.abs(half + adjoint)) <= tol:
        return "anti"
    return None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12),
       kind=st.sampled_from(["random", "hermitian", "anti", "ulps off", "row 0 only"]),
       real=st.booleans(), ulps=st.integers(0, 8))
def test_symmetry_test_decides_as_the_whole_matrix_comparisons(seed, dim, kind, real, ulps):
    # row 0 against column 0 first changes no decision: symmetric and
    # anti-symmetric X, X a few ulps of max|X| off either, X whose row 0
    # alone is symmetric, and random X
    g = np.random.default_rng(seed)
    X = g.standard_normal((dim, dim)) + (0.0 if real else 1j * g.standard_normal((dim, dim)))
    if kind != "random":
        X = X + g.choice([1, -1]) * X.conj().T
    if kind == "ulps off":
        i, j = g.integers(dim, size=2)
        X[i, j] += ulps * np.finfo(np.float64).eps * np.max(np.abs(X))
    elif kind == "row 0 only":
        X[1:, 1:] = g.standard_normal((dim - 1, dim - 1))
    decision = _symmetry_by_full_test(X)
    found = matform._hermitian_eigh(X)
    assert (found is None) == (decision is None)
    if decision is not None:
        values, vectors = np.linalg.eigh(X if decision == "hermitian" else 1j * X)
        expected = values.astype(np.complex128) if decision == "hermitian" else -1j * values
        np.testing.assert_array_equal(found[0], expected)
        np.testing.assert_array_equal(found[1], vectors)


_STEP_TIMES = st.lists(st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
                       min_size=1, max_size=9)


@settings(max_examples=120, deadline=None)
@given(
    pair_kind=st.sampled_from(["pauli", "symmetric", "random", "complex"]),
    slots=st.lists(st.tuples(st.sampled_from([Generator.A, Generator.B]), _COEFFICIENTS),
                   min_size=0, max_size=10),
    times=_STEP_TIMES,
)
@example(pair_kind="random",   # the middle runs cancel, merging the A runs around them
         slots=[(Generator.A, 0.5), (Generator.B, 0.3), (Generator.B, -0.3), (Generator.A, 0.25)],
         times=[0.0, 1.5, -0.2, 0.0, 0.7])
@example(pair_kind="pauli", slots=[(Generator.B, 1.0), (Generator.B, -1.0)], times=[0.5, 0.0])
@example(pair_kind="random", slots=[(Generator.A, 0.5j), (Generator.B, 1.0)],
         times=[0.1, 1.9, 0.6])
def test_stacked_evaluation_matches_one_time_calls(pair_kind, slots, times):
    # the stack is the one-time evaluation at each of its times, entry for
    # entry: same path, same arithmetic, same bits
    pair = {"pauli": make_pair("pauli"),
            "symmetric": _symmetric_pair(7, 5, (1, -1)),
            "random": make_pair("random", 6, 3),
            "complex": OperatorPair(1j * make_pair("random", 4, 2).A,
                                    make_pair("random", 4, 2).B)}[pair_kind]
    stack = evaluate_scheme(slots, pair, np.array(times))
    singles = [evaluate_scheme(slots, pair, t) for t in times]
    assert stack.shape == (len(times), pair.dim, pair.dim)
    assert stack.dtype == np.result_type(*singles)
    for entry, single in zip(stack, singles):
        np.testing.assert_array_equal(entry, single)
    for entry, t in zip(stack, times):
        if t == 0.0:
            np.testing.assert_array_equal(entry, np.eye(pair.dim))


def _count_expm(monkeypatch):
    calls = []
    original = matform.expm

    def counting(M):
        calls.append(M.shape[0])
        return original(M)

    monkeypatch.setattr(matform, "expm", counting)
    return calls


def test_eigenbasis_walk_makes_no_expm_calls(monkeypatch, pauli_pair):
    calls = _count_expm(monkeypatch)
    evaluate_scheme(catalog_get("PCP16_5"), pauli_pair, 0.3)
    assert calls == []


def _at_depth(patch, depth):
    """Make pairs built from here on cache powers to Y^depth: 16 as small
    pairs do, or 4 as pairs past the memory budget do."""
    if depth == 4:
        patch.setattr(matform, "_DEEP_BYTES", 0)


def _random_pair(dim, seed, depth):
    """make_pair("random", dim, seed) with its powers built to Y^depth."""
    with pytest.MonkeyPatch.context() as patch:
        _at_depth(patch, depth)
        pair = make_pair("random", dim, seed)
        assert (pair.powers[0].stack is None) == (depth == 4)
    return pair


@pytest.mark.parametrize("which", ["random", "mixed"])
def test_non_normal_pairs_take_the_cached_power_path(which):
    # a pair qualifies for the walk only when both generators are
    # (anti-)Hermitian; every other pair builds the Taylor powers of both
    # generators once and makes no expm call per slot: at d = 16 the whole
    # stack Y^0 .. Y^16, which Y^2, Y^3 and Y^4 view, and past the memory
    # budget the block X, Y^2, Y^3, Y^4 alone, each built around a copy of
    # the generator in its X row
    for depth in (16, 4):
        with pytest.MonkeyPatch.context() as patch:
            _at_depth(patch, depth)
            pair = make_pair("random", 16, 0)
            if which == "mixed":
                pair = OperatorPair(_symmetric_pair(3, 16, (1, 1)).A, pair.B)
            assert pair.eigenbasis is None and pair.power_depth == depth
            sources = pair.A, pair.B
            built = []
            original = matform._powers
            patch.setattr(matform, "_powers", lambda rows: built.append(rows) or original(rows))
            calls = _count_expm(patch)
            for t in (0.3, 0.1):
                evaluate_scheme(catalog_get("NCP6_3"), pair, t)
        assert calls == []
        assert len(built) == 2
        assert all(X is source if powers.block is None
                   else X.base is powers.block and X.ctypes.data == powers.block.ctypes.data
                   and np.array_equal(X, source)
                   for X, powers, source in zip((pair.A, pair.B), pair.powers, sources))
        for X, powers in zip((pair.A, pair.B), pair.powers):
            Y = X / np.linalg.norm(X, 1)
            for p, reference in zip((2, 3, 4), (Y @ Y, Y @ Y @ Y, Y @ Y @ Y @ Y)):
                np.testing.assert_allclose(_power(powers, p), reference, atol=1e-15)
            if depth == 4:
                assert powers.stack is None
                continue
            assert powers.stack.shape == (17, 16 * 16)
            for p in (2, 3, 4):
                assert np.shares_memory(_power(powers, p), powers.stack)
            for m, row in enumerate(powers.stack):
                np.testing.assert_allclose(row.reshape(16, 16), np.linalg.matrix_power(Y, m),
                                           atol=1e-15)


@pytest.mark.parametrize("dim,dtype,depth", [
    (2, np.float64, 16), (64, np.float64, 16), (87, np.float64, 16), (88, np.float64, 4),
    (94, np.float64, 4), (256, np.float64, 4), (62, np.complex128, 16),
    (63, np.complex128, 4), (67, np.complex128, 4),
])
def test_power_depth_follows_the_memory_budget(dim, dtype, depth):
    # the stack Y^0 .. Y^16 of one generator is cached when it fits 1 MiB
    # (real d <= 87, complex d <= 62); larger pairs keep the block X, Y^2,
    # Y^3, Y^4 and no more
    X = np.diag(np.arange(1.0, dim + 1.0)) + np.eye(dim, k=1)
    phase = 1j if dtype == np.complex128 else 1.0
    pair = OperatorPair(phase * X, X.T)
    assert pair.A.dtype == dtype and pair.eigenbasis is None
    assert pair.power_depth == depth
    if dim > 94:
        return
    for powers in pair.powers:
        assert (powers.stack is None) == (depth == 4)
        if depth == 16:
            assert powers.stack.nbytes <= 1 << 20


def _count_slot_exponentials(monkeypatch, name):
    calls = []
    original = getattr(matform, name)

    def counting(powers, *args):
        calls.append(powers)
        return original(powers, *args)

    monkeypatch.setattr(matform, name, counting)
    return calls


@pytest.mark.parametrize("name,runs", [("suzuki4", 11), ("zass_sym22", 21)])
def test_cached_power_path_makes_one_exponential_per_run(name, runs):
    for depth, core in ((16, "_stack_exp"), (4, "_taylor_exp")):
        pair = _random_pair(16, 0, depth)
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_slot_exponentials(patch, core)
            evaluate_scheme(catalog_get(name), pair, 0.3)
        assert len(calls) == runs


def _bits(M):
    """The bytes of an array: equality is bit-for-bit, signed zeros included."""
    return np.ascontiguousarray(M).tobytes()


def _repeated(pool):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=7)


#: Step-time stacks drawn with repetition from a few times, zero and
#: negative ones included.
_STACK_TIMES = st.lists(st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5)),
                        min_size=1, max_size=4).flatmap(_repeated)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=2, max_value=20),
    slots=st.lists(st.tuples(st.sampled_from([Generator.A, Generator.B]), _COEFFICIENTS),
                   min_size=1, max_size=8),
    times=_STACK_TIMES,
)
@example(seed=5, dim=20, slots=[(Generator.A, 0.7), (Generator.B, -1.3), (Generator.A, 0.4)],
         times=[1.5, -1.5, 0.0, 1.5, 0.2])
@example(seed=9, dim=2, slots=[(Generator.A, 0.5j), (Generator.B, complex(1.0, -0.5))],
         times=[-0.7, 0.0, -0.7])
def test_deep_stack_walk_matches_horner_and_scipy(seed, dim, slots, times):
    # the deep stack against the core of degree 8 and 16 on X, Y^2, Y^3, Y^4
    # and against scipy's slot-by-slot product, within the bound of
    # test_suzuki4_on_random_pair_matches_scipy_product; at both depths each
    # entry is its own one-entry evaluation bit for bit
    deep, shallow = _random_pair(dim, seed, 16), _random_pair(dim, seed, 4)
    stacks = [evaluate_scheme(slots, pair, np.array(times)) for pair in (deep, shallow)]
    for pair, stack in zip((deep, shallow), stacks):
        for entry, t in zip(stack, times):
            assert _bits(entry) == _bits(evaluate_scheme(slots, pair, t))
    for entry, horner, t in zip(*stacks, times):
        expected = np.eye(dim, dtype=np.complex128)
        for gen, coeff in slots:
            expected = expected @ scipy.linalg.expm(coeff * t * deep.matrix(gen))
        bound = 1e-13 * np.linalg.norm(expected, 2)
        assert np.linalg.norm(entry - expected, 2) <= bound
        assert np.linalg.norm(entry - horner, 2) <= bound


@pytest.mark.parametrize("t", [0.05, 0.7, 2.5])
def test_suzuki4_on_random_pair_matches_scipy_product(random_pair, t):
    # the merged runs of suzuki4 against scipy's product over its 20 slots
    scheme = catalog_get("suzuki4")
    expected = np.eye(16, dtype=np.complex128)
    for gen, coeff in scheme.pairs():
        expected = expected @ scipy.linalg.expm(coeff * t * random_pair.matrix(gen))
    error = np.linalg.norm(evaluate_scheme(scheme, random_pair, t) - expected, 2)
    assert error <= 1e-13 * np.linalg.norm(expected, 2)


def _generator(seed, dim, kind):
    """Dense complex, real (the dense matrix's real part), strongly
    non-normal (diagonal plus a 20x strictly upper part) or nilpotent
    (strictly upper) test matrix, or zero."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    if kind == "real":
        X = X.real.copy()
    elif kind == "non-normal":
        X = np.diag(np.diag(X)) + 20.0 * np.triu(X, 1)
    elif kind == "nilpotent":
        X = np.triu(X, 1)
    elif kind == "zero":
        X = np.zeros((dim, dim), dtype=np.complex128)
    return X


def _powers(X, deep=False):
    """matform._powers of X, in power rows allocated and filled as the
    package's callers do it."""
    rows, row = matform._power_rows(X.shape, X.dtype, deep)
    row[...] = X
    return matform._powers(rows)


def _power(powers, p):
    """Y^p, p = 2, 3 or 4, of one matrix's powers, at either depth."""
    if powers.stack is None:
        return powers.block[p - 1]
    d = math.isqrt(powers.stack.shape[1])
    return powers.stack[p].reshape(d, d)


def _slot_exponential(X, z, deep=False):
    """exp(z X) through the private Taylor core, or with ``deep`` through
    the deep power stack, in float64 buffers when X and z are real and
    complex128 ones otherwise."""
    d = X.shape[0]
    dtype = np.result_type(X, z, np.float64)
    buffers = [np.empty((1, d, d), dtype) for _ in range(3)]
    powers = _powers(X, deep)
    q, s, c = matform._taylor_terms([powers], np.array([[z]]))
    if deep:
        return matform._stack_exp(powers, s[0], c[0], *buffers[:2])[0][0]
    return matform._taylor_exp(powers, q[0], s[0], c[0], *buffers)[0][0]


def _mpmath_expm(M):
    """exp(M) from mpmath at 50 digits, rounded to complex128."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=np.complex128)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=16),
    kind=st.sampled_from(["dense", "real", "non-normal", "nilpotent", "zero"]),
    size=st.floats(min_value=0.0, max_value=2.0),
    z=st.one_of(st.floats(min_value=-8.0, max_value=8.0),
                st.builds(complex, st.floats(min_value=-8.0, max_value=8.0),
                          st.floats(min_value=-8.0, max_value=8.0))),
)
@example(seed=0, dim=3, kind="dense", size=2.2250738585e-313, z=1.0)  # subnormal norm
@example(seed=0, dim=3, kind="real", size=1.0, z=-3.438)  # scipy misses the bound
def test_slot_exponential_matches_scipy(seed, dim, kind, size, z):
    # stated bound: ||exp(zX) - expm_scipy(zX)||_2 <= 8 (d + r) eps e^r with
    # r = |z| ||X||_2; squaring amplifies round-off by up to 2^s ~ r, and the
    # largest of 6000 random cases reached 2.5 (d + r) eps e^r.  scipy is not
    # the oracle everywhere: at the real example above it is 8.9e-13 from a
    # 50-digit exponential, past the bound of 3.6e-13, where ours is 7e-15.
    # So an exponential farther than the bound from scipy's is checked
    # against mpmath's, and fails only if it misses that too
    X = _generator(seed, dim, kind)
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X *= size / norm
    r = abs(z) * size if norm > 0 else 0.0
    bound = 8 * (dim + r) * np.finfo(float).eps * math.exp(r)
    expected = scipy.linalg.expm(z * X)
    for deep in (False, True):
        E = _slot_exponential(X, z, deep)
        error = np.linalg.norm(E - expected, 2)
        if error > bound:
            error = np.linalg.norm(E - _mpmath_expm(z * X), 2)
        assert error <= bound
        if kind == "zero":
            np.testing.assert_array_equal(E, np.eye(dim))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["dense", "non-normal", "nilpotent", "real", "zero"]),
    size=st.floats(min_value=0.0, max_value=2.0),
    z=st.one_of(st.floats(min_value=-40.0, max_value=40.0),
                st.builds(complex, st.floats(min_value=-40.0, max_value=40.0),
                          st.floats(min_value=-40.0, max_value=40.0))),
)
@example(seed=0, dim=4, kind="real", size=1.0, z=0.9204745)  # theta_16 on the 2-norm
@example(seed=3, dim=6, kind="non-normal", size=2.0, z=-30.0)
def test_both_depths_take_one_taylor_rule(seed, dim, kind, size, z):
    # one matrix's powers at depths 16 and 4: Y^2, Y^3, Y^4 and the scalars
    # the rule reads are bit for bit the same, so each argument of a row
    # gets the same q, s and coefficients u^m / m!, and the two
    # exponentials, the degree-16 stack and the core of degree 8 or 16,
    # agree within the bound of test_slot_exponential_matches_scipy
    X = _generator(seed, dim, kind)
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X *= size / norm
    deep, shallow = _powers(X, deep=True), _powers(X)
    for name in ("scale", "alpha", "zero"):
        assert _bits(getattr(deep, name)) == _bits(getattr(shallow, name)), name
    for p in (2, 3, 4):
        assert _bits(_power(deep, p)) == _bits(_power(shallow, p)), p
    row = np.array([[z, z / 3, -z, 2 * z, 0.0]])
    (q, s, c), (q4, s4, c4) = (matform._taylor_terms([p], row) for p in (deep, shallow))
    assert (q, s) == (q4, s4)
    assert c.shape == (1, 5, 17) and _bits(c) == _bits(c4)
    r = abs(z) * size if norm > 0 else 0.0
    bound = 8 * (dim + r) * np.finfo(float).eps * math.exp(r)
    E = _slot_exponential(X, z, deep=True)
    assert np.linalg.norm(E - _slot_exponential(X, z), 2) <= bound


def _row_exponentials(powers, q, s, c, cast=False):
    """exp(z_j X) for one row of :func:`matform._taylor_terms` on one
    matrix's powers, in complex128 buffers.  With ``cast`` the real powers
    are cast to complex128 first, the products as they ran before a real
    power took a complex factor as its float parts: the deep stack's
    product as numpy's matmul casts the stack, and the core on a complex
    copy of the block."""
    buffers = [np.empty((len(s),) + _power(powers, 2).shape, np.complex128) for _ in range(3)]
    if powers.stack is None:
        if cast:
            powers = powers._replace(block=powers.block.astype(np.complex128))
        return matform._taylor_exp(powers, q, s, c, *buffers)[0]
    P, Q = buffers[:2]
    if not cast:
        return matform._stack_exp(powers, s, c, P, Q)[0]
    np.matmul(powers.stack.T, c[..., np.newaxis], out=P.reshape(len(P), -1, 1))
    return matform._square(s, P, Q)[0]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=16),
    size=st.floats(min_value=0.0, max_value=2.0),
    z=st.lists(st.builds(complex, st.floats(min_value=-8.0, max_value=8.0),
                         st.floats(min_value=-8.0, max_value=8.0)), min_size=1, max_size=4),
)
@example(seed=11, dim=16, size=1.0, z=[0.5j, -1.5 + 2j, 0.25, 0j])
def test_real_powers_take_complex_arguments_as_float_parts(seed, dim, size, z):
    # complex arguments on a real matrix's powers at both depths, where
    # each product of a real power with a complex factor is one real
    # product on the factor's float parts (liealg._product).  Each entry of a row, by decreasing |z| as the walk orders it, is its
    # own one-entry evaluation bit for bit, and is within the bound of
    # test_slot_exponential_matches_scipy of the same polynomial and
    # squarings on the powers cast to complex128
    X = _generator(seed, dim, "real")
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X *= size / norm
    row = np.array([sorted(z, key=abs, reverse=True)])
    for deep in (False, True):
        powers = _powers(X, deep)
        (q,), (s,), (c,) = matform._taylor_terms([powers], row)
        stack = _row_exponentials(powers, q, s, c)
        reference = _row_exponentials(powers, q, s, c, cast=True)
        for entry, expected, zj in zip(stack, reference, row[0]):
            assert _bits(entry) == _bits(_slot_exponential(X, zj, deep))
            r = abs(zj) * size if norm > 0 else 0.0
            bound = 8 * (dim + r) * np.finfo(float).eps * math.exp(r)
            assert np.linalg.norm(entry - expected, 2) <= bound


#: How the Taylor rule refuses an argument z whose z ||X||_1 is past the
#: largest float.
_ARGUMENT_OVERFLOWS = re.escape("|z| ||X||_1 overflows")


def test_slot_exponential_rejects_nonfinite_argument(random_pair):
    with pytest.raises(ValueError, match=_ARGUMENT_OVERFLOWS):
        _slot_exponential(random_pair.A, complex(1e308, 0) * 10)
    with pytest.raises(ValueError,
                       match="^composition: slot 0: slot coefficient must be finite$"):
        evaluate_scheme([(Generator.A, float("nan"))], random_pair, 0.5)


#: theta_8, theta_16 as the package states them.
_THETAS = (0.0861186, 0.9204745)

#: The Taylor degrees the core takes with q = 1, 2 products.
_DEGREES = (8, 16)

#: A scaled argument far inside theta_8: the bound of the degree-4
#: polynomial, which meets the truncation bound there with no product.
_THETA_4 = 0.002442156

#: theta_14, the bound of :func:`_degree14_reference`, a degree the package
#: does not take, so that the reference checks its rule independently.
_THETA_14 = 0.6270028


def test_thetas_meet_the_truncation_bound():
    # in exact rational arithmetic, each theta_m meets the package's bound
    # B = sum_{k>=14} 0.5^k / k! and theta_m + 1e-7 does not:
    # sum_{k>m} theta_m^k / k! <= B < sum_{k>m} (theta_m + 1e-7)^k / k!.
    # Each series is summed to k = 60, and its remainder bounded by that of
    # a geometric series with ratio x / 61.
    def tail(x, m):
        x = Fraction(x)
        head = sum(x ** k / math.factorial(k) for k in range(m + 1, 61))
        rest = x ** 61 / math.factorial(61) / (1 - x / 62)
        return head, head + rest

    bound_low, bound_high = tail(0.5, 13)
    assert matform._THETA.tolist() == list(_THETAS)
    for m, theta in zip(_DEGREES + (14, 4), _THETAS + (_THETA_14, _THETA_4)):
        assert tail(theta, m)[1] <= bound_low
        assert bound_high < tail(Fraction(theta) + Fraction(1, 10 ** 7), m)[0]


def _core_polynomial(q):
    """The polynomial in x = u Y that the core evaluates with q products,
    from the float64 table ``matform._QUARTICS`` in exact rational
    arithmetic: its coefficients of x^0 .. x^16, and the table's constants
    as the multiples of x^m they stand for."""
    table = [[Fraction(g) / math.factorial(m) for g, m in zip(row, terms)]
             for row, terms in zip(matform._QUARTICS[q - 1].tolist(), matform._TERMS.tolist())]
    first, left, right, last = ([row[0]] + [Fraction(0)] * 4 + row[1:] if i == 0 else row
                                for i, row in enumerate(table))
    # Y^4 times the first quartic: the first row's terms are x^5 .. x^8
    y1 = [Fraction(0)] * 5 + first[5:]
    if q == 1:
        return [a + b for a, b in zip(last + [Fraction(0)] * 4, y1)], table
    A = [a + b for a, b in zip(y1, left + [Fraction(0)] * 4)]
    B = [a + b for a, b in zip(y1, right + [Fraction(0)] * 4)]
    coefficients = [Fraction(0)] * 17
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            coefficients[i + j] += a * b
    for m, r in enumerate(last):
        coefficients[m] += r
    return coefficients, table


def test_core_constants_give_the_taylor_coefficients():
    # (y_1 + P_2)(y_1 + Q_2) + R expanded in exact arithmetic from the float64
    # constants: each coefficient of x^k, k = 0..16, within 2 eps relative of
    # 1 / k!, and every constant >= 0; degree 8 is Taylor's own
    eps = Fraction(2) ** -52
    assert len(matform._QUARTICS) == len(_DEGREES)
    for q, degree in enumerate(_DEGREES, start=1):
        coefficients, table = _core_polynomial(q)
        assert len(coefficients) == degree + 1
        assert all(constant >= 0 for row in table for constant in row)
        for k, coefficient in enumerate(coefficients):
            exact = Fraction(1, math.factorial(k))
            assert abs(coefficient - exact) <= 2 * eps * exact
            if q == 1:
                assert coefficient == exact
    assert max(g for row in matform._QUARTICS[1].tolist() for g in row) == 8.6


def _degree14_reference(X, z):
    """exp(z X) by a fixed degree-14 Taylor polynomial, summed term by term,
    and s = ceil(log2(|z| nu alpha / theta_14)) squarings (nu = ||X||_1,
    alpha from ||Y^2||_1 and ||Y^3||_1 of Y = X / nu)."""
    d = X.shape[0]
    E = np.eye(d, dtype=np.result_type(X, z, np.float64))
    nu = np.linalg.norm(X, 1)
    if nu == 0.0:
        return E
    Y = X / nu
    alpha = max(np.linalg.norm(Y @ Y, 1) ** 0.5, np.linalg.norm(Y @ Y @ Y, 1) ** (1.0 / 3.0))
    x = abs(z) * nu * alpha
    s = max(0, math.ceil(math.log2(x / _THETA_14))) if x > 0.0 else 0
    A = (z / 2.0 ** s) * X
    term = E.copy()
    for m in range(1, 15):
        term = term @ A / m
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def _selection(x):
    """(q, s) with the fewest products q + s among the degrees 4 2^q,
    q = 1, 2, whose theta bounds the scaled argument x times 2^-s, ties
    going to the higher degree: a brute-force search."""
    best = None
    for q, theta in enumerate(_THETAS, start=1):
        s = 0
        while x * 2.0 ** -s > theta:
            s += 1
        if best is None or q + s <= sum(best):
            best = (q, s)
    return best


def _argument_at(X, x, phase):
    """z = phase x / (nu alpha): the argument whose scaled argument is x,
    alpha being min(alpha_2, alpha_3)."""
    powers = _powers(X)
    return phase * x / (powers.scale * powers.alpha)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["dense", "non-normal", "real", "zero"]),
    degree=st.integers(min_value=0, max_value=1),
    side=st.sampled_from([-1, 1]),
    phase=st.one_of(st.sampled_from([1.0, -1.0]),
                    st.floats(min_value=0.0, max_value=2 * math.pi).map(
                        lambda a: complex(math.cos(a), math.sin(a)))),
)
@example(seed=0, dim=4, kind="real", degree=1, side=1, phase=-1.0)
@example(seed=1, dim=1, kind="dense", degree=0, side=-1, phase=1j)
def test_per_entry_degree_matches_degree14_reference_and_scipy(seed, dim, kind, degree,
                                                               side, phase):
    # an argument just inside or just outside theta_m, m = 8, 16 (index
    # ``degree``): the core takes degree m without squaring inside, and
    # degree 16 outside theta_8, or degree 16 and one squaring outside
    # theta_16; either way it agrees with a degree-14 evaluation and with
    # scipy within the bound of test_slot_exponential_matches_scipy
    X = _generator(seed, dim, kind)
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X /= norm
    x = _THETAS[degree] * (1.0 + side * 2.0 ** -40)
    z = _argument_at(X, x, phase) if norm > 0 else phase
    q, s, _ = matform._taylor_terms([_powers(X)], np.array([[z]]))
    if norm > 0:
        assert (q[0][0], s[0][0]) == ((degree + 1, 0) if side < 0 else
                                      (2, 0) if degree == 0 else (2, 1))
    r = abs(z) * np.linalg.norm(X, 2)  # X is normalised
    bound = 8 * (dim + r) * np.finfo(float).eps * math.exp(r)
    # the deep stack takes the same squarings and degree 16 throughout
    for deep in (False, True):
        E = _slot_exponential(X, z, deep)
        assert E.dtype == (np.float64 if kind == "real" and isinstance(z, float)
                           else np.complex128)
        assert np.linalg.norm(E - scipy.linalg.expm(z * X), 2) <= bound
        assert np.linalg.norm(E - _degree14_reference(X, z), 2) <= 2 * bound
        if kind == "zero":
            np.testing.assert_array_equal(E, np.eye(dim))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["dense", "non-normal", "real", "nilpotent"]),
    degree=st.integers(min_value=0, max_value=1),
    side=st.sampled_from([-1, 1]),
    phase=st.one_of(st.sampled_from([1.0, -1.0]),
                    st.floats(min_value=0.0, max_value=2 * math.pi).map(
                        lambda a: complex(math.cos(a), math.sin(a)))),
    exponent=st.integers(min_value=-30, max_value=400),
)
@example(seed=0, dim=2, kind="nilpotent", degree=0, side=1, phase=1.0, exponent=400)
@example(seed=0, dim=3, kind="nilpotent", degree=0, side=1, phase=1.0, exponent=300)
@example(seed=0, dim=4, kind="nilpotent", degree=0, side=1, phase=1.0, exponent=300)
@example(seed=0, dim=4, kind="nilpotent", degree=0, side=1, phase=1.0, exponent=400)
def test_alpha3_rule_at_every_theta(seed, dim, kind, degree, side, phase, exponent):
    # alpha_3 <= alpha_2 (||Y^4||_1 <= ||Y^2||_1^2, up to the rounding of the
    # powers and their norms), and the package's alpha is min(alpha_2,
    # alpha_3), from numpy's norms to within that rounding; where Y^p = 0,
    # p = 2, 3, 4, the result is the Taylor polynomial of degree p - 1 in
    # z X for z up to 2^400, with no squaring and degree 8, whose one core
    # product is by Y^4 = 0: I + z X exactly on the core where Y^2 = 0 (the
    # deep stack's u Y rounds Y = X / nu), and a refusal where its top
    # coefficient u^(p-1) / (p-1)! overflows; elsewhere an argument within
    # or past each theta_m is within the bound of
    # test_slot_exponential_matches_scipy on either depth
    X = _generator(seed, dim, kind)
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X /= norm
    powers = _powers(X)
    eps = np.finfo(float).eps
    Y = X / np.linalg.norm(X, 1) if norm > 0 else X
    d2, d3, d4 = (np.linalg.norm(np.linalg.matrix_power(Y, p), 1) ** (1 / p) for p in (2, 3, 4))
    alpha2, alpha3 = max(d2, d3), max(d3, d4)
    assert alpha3 <= alpha2 * (1 + 4 * dim * eps)
    np.testing.assert_allclose(powers.alpha, min(alpha2, alpha3), rtol=4 * dim * eps)
    assert powers.zero == next((p for p in (2, 3, 4) if not np.linalg.matrix_power(Y, p).any()),
                               np.inf)
    if powers.zero < np.inf:
        # z a power of two, so z X is exact
        z = math.ldexp(math.copysign(1.0, phase.real), exponent)
        zX = z * X
        terms = [np.eye(dim), zX]
        with np.errstate(over="ignore", invalid="ignore"):  # where u^3 / 3! overflows
            for m in range(2, int(powers.zero)):
                terms.append(terms[-1] @ zX / m)
        for deep in (False, True):
            q, s, c = matform._taylor_terms([_powers(X, deep)], np.array([[z]]))
            assert q == [[1]] and s == [[0]]
            assert not c[0, 0, int(powers.zero):].any()
            if not np.isfinite(c).all():
                with pytest.raises(ValueError, match="overflows"):
                    expm(zX)
                continue
            E = _slot_exponential(X, z, deep)
            if powers.zero == 2 and not deep:
                np.testing.assert_array_equal(E, np.eye(dim) + zX)
            else:
                size = sum(np.linalg.norm(term, 2) for term in terms)
                assert np.linalg.norm(E - sum(terms), 2) <= 8 * dim * eps * size
        return
    x = _THETAS[degree] * (1.0 + side * 2.0 ** -40)
    z = _argument_at(X, x, phase)
    r = abs(z) * np.linalg.norm(X, 2)  # X is normalised
    bound = 8 * (dim + r) * eps * math.exp(r)
    for deep in (False, True):
        E = _slot_exponential(X, z, deep)
        assert np.linalg.norm(E - scipy.linalg.expm(z * X), 2) <= bound


def test_expm_of_a_huge_matrix_whose_fourth_power_is_zero():
    # Y^4 = 0, while Y^3 and the alpha_3 it gives are tiny but not zero: the
    # core takes T_3 with no squaring, where a degree chosen on alpha_3 left
    # |u| = 2.4e96 and u^m / m! overflowed
    X = np.zeros((4, 4))
    X[0, 1] = X[1, 2] = 1.0
    X[2, 3] = 1e-290
    zX = 1e100 * X
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = expm(zX)
    assert _bits(E) == _bits(np.eye(4) + zX + zX @ zX / 2 + zX @ zX @ zX / 6)


def _exact_nilpotent_exp(N):
    """exp(N) = sum_{k<d} N^k / k! of a strictly upper triangular float
    matrix N in exact rational arithmetic, rounded to float64 (an
    ``OverflowError`` when an entry is past the largest float)."""
    d = len(N)
    F = [[Fraction(x) for x in row] for row in N.tolist()]
    power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    total = [row[:] for row in power]
    for k in range(1, d):
        power = [[sum(power[i][m] * F[m][j] for m in range(d)) / k for j in range(d)]
                 for i in range(d)]
        total = [[a + b for a, b in zip(t, p)] for t, p in zip(total, power)]
    return np.array([[float(x) for x in row] for row in total])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=5, max_value=6),
    tiny=st.integers(min_value=100, max_value=300),
    exponent=st.integers(min_value=0, max_value=300),
)
@example(seed=0, dim=6, tiny=290, exponent=280)
def test_huge_arguments_on_tiny_high_powers(seed, dim, tiny, exponent):
    # a strictly upper triangular X whose entries from the first three
    # coordinates to the rest are scaled by 10^-tiny: every path of three
    # steps crosses that cut, so Y^3 and Y^4 are tiny but not zero, and
    # alpha_3 with them.  At z = 2^exponent the squarings are raised to keep
    # |u| <= 2^64, so the coefficients stay finite; the result, at either
    # depth, is within 8 d eps of the exact exp(z X) relative to its largest
    # entry, or refused where that entry is past the largest float (the
    # largest of 2988 finite cases reached 3.8 eps)
    X = np.triu(np.random.default_rng(seed).standard_normal((dim, dim)), 1)
    X[:3, 3:] *= 10.0 ** -tiny
    powers = _powers(X)
    assert powers.zero == np.inf and 0 < powers.alpha < 1e-20
    zX = math.ldexp(1.0, exponent) * X
    try:
        expected = _exact_nilpotent_exp(zX)
    except OverflowError:
        with pytest.raises(ValueError, match="overflows"):
            expm(zX)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [expm(zX), _slot_exponential(zX, 1.0, deep=True)]
    for E in results:
        error = np.abs(E - expected).max()
        assert error <= 8 * dim * np.finfo(float).eps * np.abs(expected).max()


@settings(max_examples=200, deadline=None)
@given(point=st.one_of(
    st.floats(min_value=0.0, max_value=1e3),
    st.sampled_from(_THETAS + (_THETA_4,)).flatmap(lambda theta: st.sampled_from(
        [theta, theta * (1 - 2.0 ** -40), theta * (1 + 2.0 ** -40),
         2 * theta, 2 * theta * (1 + 2.0 ** -40)]))))
def test_degree_and_squarings_take_the_fewest_products(point):
    # a scaled argument at, near and past each theta, and below theta_8 at
    # the bound of the degree-4 polynomial, which takes degree 8 too
    X = make_pair("random", 5, 2).A
    z = _argument_at(X, point, 1.0)
    powers = _powers(X)
    q, s, c = matform._taylor_terms([powers], np.array([[z]]))
    size = abs(z) * powers.scale
    assert (q[0][0], s[0][0]) == _selection(size * powers.alpha)
    # one row u^m / m!, m = 0..16, u = z nu 2^-s, whatever the degree: the
    # core reads the first 9, the deep stack all 17
    u = z * powers.scale * 2.0 ** -s[0][0]
    assert c.shape == (1, 1, 17) and c[0, 0, 0] == 1.0 and c[0, 0, 1] == u
    # (subnormal terms keep only an absolute accuracy)
    np.testing.assert_allclose(c[0, 0], [u ** m / math.factorial(m) for m in range(17)],
                               rtol=1e-14, atol=np.finfo(float).tiny)


def _rule_with_degree_four(powers, z):
    """(q, s, c) of exp(z X) by the Taylor rule with a third, degree-4 stage
    of no product, taken while |z| nu alpha_2 <= theta_4 = 0.002442156,
    alpha_2 = max(d_2, d_3): a copy of that rule's arithmetic on one
    argument, which the rule of the package must follow but for degree 4."""
    n2, n3 = (matform._norm1(_power(powers, p)) for p in (2, 3))
    alpha2 = np.maximum(np.sqrt(n2), float(n3) ** (1.0 / 3.0))
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.array([[z]]) * powers.scale
        size = np.abs(w)
        x = size * powers.alpha
        mantissa, exponent = np.frexp(np.maximum(x / 0.9204745, size * 2.0 ** -64))
        s = np.maximum(exponent - (mantissa == 0.5), 0)
        q = np.maximum(np.add(size * alpha2 > _THETA_4, x > 0.0861186, dtype=int), 2 * (s > 0))
        if powers.zero < np.inf:
            s[...] = q[...] = 0
        u = w * np.ldexp(1.0, -s)
        c = np.empty(u.shape + (17,), dtype=u.dtype)
        c[..., 0] = 1.0
        np.divide(u[..., np.newaxis], np.arange(1.0, 17.0), out=c[..., 1:])
        np.cumprod(c, axis=-1, out=c)
        if powers.zero < np.inf:
            c[..., int(powers.zero):] = 0.0
    return q.item(), s.item(), c


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["dense", "non-normal", "real", "nilpotent", "nilpotent-block"]),
    x=st.one_of(
        st.floats(min_value=0.0, max_value=2 * _THETAS[1]),
        st.sampled_from([_THETA_4, _THETAS[0], _THETAS[1], 2 * _THETAS[1]]).flatmap(
            lambda theta: st.sampled_from([theta * (1 - 2.0 ** -40), theta,
                                           theta * (1 + 2.0 ** -40), theta / 1000]))),
    phase=st.one_of(st.sampled_from([1.0, -1.0]),
                    st.floats(min_value=0.0, max_value=2 * math.pi).map(
                        lambda a: complex(math.cos(a), math.sin(a)))),
)
@example(seed=0, dim=4, kind="nilpotent", x=1.0, phase=1.0)  # Y^4 = 0
@example(seed=0, dim=3, kind="real", x=_THETA_4 / 1000, phase=-1.0)
def test_degree_eight_takes_over_degree_four_and_nothing_else(seed, dim, kind, x, phase):
    # random matrices, nilpotent ones (Y^p = 0 for some p <= 4 where
    # d <= 4) and ones with a nilpotent block, at scaled arguments up to
    # 2 theta_16 and near theta_4, theta_8 and theta_16: against the rule
    # with a degree-4 stage, s and the coefficients u^m / m! are bit for
    # bit the same and q = max(its q, 1), and the exponential at either
    # depth is within the bound of test_slot_exponential_matches_scipy
    # (past 2 theta_16, scipy's own error on real X can pass that bound)
    if kind == "nilpotent-block":
        X = np.zeros((dim + 3, dim + 3), dtype=np.complex128)
        X[:dim, :dim] = _generator(seed, dim, "dense")
        X[dim:, dim:] = _generator(seed + 1, 3, "nilpotent")
    else:
        X = _generator(seed, dim, kind)
    norm = np.linalg.norm(X, 2)
    if norm > 0:
        X /= norm
    powers = _powers(X)
    z = phase * x / (powers.scale * powers.alpha) if powers.alpha > 0 else phase * x
    q, s, c = matform._taylor_terms([powers], np.array([[z]]))
    q4, s4, c4 = _rule_with_degree_four(powers, z)
    assert s[0][0] == s4 and _bits(c) == _bits(c4)
    assert q[0][0] == max(q4, 1)
    r = abs(z) * np.linalg.norm(X, 2)  # X is normalised
    bound = 8 * (len(X) + r) * np.finfo(float).eps * math.exp(r)
    expected = scipy.linalg.expm(z * X)
    for deep in (False, True):
        assert np.linalg.norm(_slot_exponential(X, z, deep) - expected, 2) <= bound


def _count_products(monkeypatch):
    """Matrix products made through np.matmul, one per matrix of its output:
    ``products["square"]`` counts d x d products (powers, core products,
    squarings and the joins of runs), whose outputs are (k, d, d), or
    (k, d, 2 d) for a real matrix times the float parts of a complex one;
    ``products["stack"]`` the coefficient products of the deep stack and of
    the core's quartics, whose outputs are (k, d^2, 1) or (k, d^2, 2)."""
    products = {"square": 0, "stack": 0}
    original = np.matmul

    def counting(a, b, out=None):
        rows, cols = np.shape(out)[-2:]
        kind = "square" if cols in (rows, 2 * rows) else "stack"
        products[kind] += 1 if np.ndim(out) == 2 else len(out)
        return original(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counting)
    return products


#: The core's quartics (coefficient products with the cached block) for
#: q = 1, 2 products: Y^4's factor and T_4; Q_1, P_2, Q_2 and R.
_QUARTIC_CALLS = (2, 4)

#: Scaled arguments just inside which a run takes q core products and no
#: squaring, as (x, q): the bound of the degree-4 polynomial, theta_8 and
#: theta_16.
_SMALL_ARGUMENTS = ((_THETA_4, 1), (_THETAS[0], 1), (_THETAS[1], 2))


@pytest.mark.parametrize("case", [0, 1, 2])
def test_small_arguments_take_fewer_products(case):
    # on the block X, Y^2, Y^3, Y^4 alone a run within theta_8, however far
    # within, takes 1 core product and no squaring, one within theta_16
    # takes 2, and past theta_16 it takes 2 and squares once, with 2, 2, 4
    # quartics; on the deep stack every run is one coefficient product and
    # the same squarings (none within theta_16, one at 2 theta_16), with no
    # core product
    x, q = _SMALL_ARGUMENTS[case]
    for depth in (16, 4):
        pair = _random_pair(8, 4, depth)
        small = _argument_at(pair.A, x * (1 - 2.0 ** -40), 1.0)
        large = 2.0 * _argument_at(pair.A, _THETAS[1], 1.0)
        with pytest.MonkeyPatch.context() as patch:
            products = _count_products(patch)
            evaluate_scheme([(Generator.A, small)], pair, 1.0)
            assert products == ({"square": q, "stack": _QUARTIC_CALLS[q - 1]}
                                if depth == 4 else {"square": 0, "stack": 1})
            products.update(square=0, stack=0)
            evaluate_scheme([(Generator.A, large)], pair, 1.0)
            assert products == ({"square": 2 + 1, "stack": _QUARTIC_CALLS[1]} if depth == 4
                                else {"square": 1, "stack": 1})


def _times_at(X, scaled, top=1.0):
    """Step times for one run at z = the argument at theta_16 (returned
    too): ``top`` times that, then just inside each scaled argument of
    ``scaled``."""
    z = _argument_at(X, _THETAS[1], 1.0)
    inside = [top] + [_argument_at(X, x, 1.0) / z for x in scaled]
    return z, np.array(inside) * (1 - 2.0 ** -40)


def test_stack_entries_take_their_own_products():
    # entries of one stack just inside 2 theta_16, theta_8, the bound of the
    # degree-4 polynomial and at 0: the second core product and each
    # squaring run on the prefix of entries that take them, so the stack
    # makes each entry's own products and no more: q + s and its quartics on
    # the block X, Y^2, Y^3, Y^4, and on the deep stack one coefficient
    # product per nonzero time plus its squarings
    for depth in (16, 4):
        pair = _random_pair(8, 4, depth)
        z, times = _times_at(pair.A, [_THETAS[0], _THETA_4], top=2.0)
        times = np.append(times, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            products = _count_products(patch)
            stack = evaluate_scheme([(Generator.A, z)], pair, times)
        assert products == ({"square": (2 + 1) + 1 + 1, "stack": 4 + 2 + 2} if depth == 4
                            else {"square": 1, "stack": 3})
        for entry, t in zip(stack, times):
            assert _bits(entry) == _bits(evaluate_scheme([(Generator.A, z)], pair, t))


@pytest.mark.parametrize("seed,angle", [(5, 1.4), (5, 4.2)])
def test_shallow_stack_joins_keep_signed_zeros(seed, angle):
    # one run on the block X, Y^2, Y^3, Y^4 alone, at entries of both
    # degrees (q = 2, 2, 2, 1, 1), so the degree-16 stage runs on a prefix
    # of the pair's shared powers; the generator's zero rows carry signed
    # zeros into the products, and each entry, at t and at -t, is its own
    # one-entry evaluation bit for bit, signed zeros included
    g = np.random.default_rng(seed)
    X = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
    X[:2] = (0.0 * (g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))))[:2]
    with pytest.MonkeyPatch.context() as patch:
        _at_depth(patch, 4)
        pair = OperatorPair(X, g.standard_normal((5, 5)))
        powers = pair.powers[0]
    z, times = _times_at(X, [_THETAS[1], _THETAS[0], _THETA_4], top=2.0)
    times = np.insert(times, 1, 1 - 2.0 ** -40)
    z *= complex(math.cos(angle), math.sin(angle))
    q, s, _ = matform._taylor_terms([powers], z * times[np.newaxis])
    assert q == [[2, 2, 2, 1, 1]] and s == [[1, 0, 0, 0, 0]]
    for sign in (1.0, -1.0):
        stack = evaluate_scheme([(Generator.A, z)], pair, sign * times)
        for entry, t in zip(stack, sign * times):
            assert _bits(entry) == _bits(evaluate_scheme([(Generator.A, z)], pair, t))


@pytest.mark.parametrize("kind", ["pauli", "random"])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"),
                               np.array([0.5, float("nan")]), np.array([float("inf"), 0.1])])
def test_evaluate_scheme_refuses_non_finite_step_times(kind, t):
    # target_matrix reads its step times as evaluate_scheme does; it said
    # "matrix exponential of non-finite entries"
    pair = make_pair("pauli") if kind == "pauli" else make_pair("random", 4, 1)
    with pytest.raises(ValueError, match="step times must be finite"):
        evaluate_scheme(catalog_get("NCP6_3"), pair, t)
    with pytest.raises(ValueError, match="step times must be finite"):
        target_matrix(commutator_target(), pair, t)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(-3.0, 3.0)),
                max_size=13))
def test_step_times_order_by_decreasing_size_ties_in_index_order(times):
    # a stable sort by decreasing |t|, as Python's sort of the sizes gives it
    steps, order = matform._step_times(times)
    assert steps.tolist() == times
    assert order == sorted(range(len(times)), key=lambda j: -abs(times[j]))


@pytest.mark.parametrize("kind", ["pauli", "random"])
@pytest.mark.parametrize("t", [0.5, 0.0, np.array([0.5, 0.25]), np.array([0.0])])
@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_evaluate_scheme_refuses_non_finite_coefficients(kind, t, coeff):
    # the eigenbasis path returned an all-NaN product for a NaN coefficient;
    # slot_pairs refuses it as ExponentSlot does, and two finite slots whose
    # run sums past the largest float are refused as a run
    pair = make_pair("pauli") if kind == "pauli" else make_pair("random", 4, 1)
    with pytest.raises(ValueError,
                       match="^composition: slot 1: slot coefficient must be finite$"):
        evaluate_scheme([(Generator.B, 0.3), (Generator.A, coeff)], pair, t)
    with pytest.raises(ValueError, match="non-finite run coefficient"):
        evaluate_scheme([(Generator.B, 0.3), (Generator.A, 1e308), (Generator.A, 1e308)], pair, t)


@pytest.mark.parametrize("case,name", [("deep", "NCP6_3"), ("shallow", "NCP6_3"),
                                       ("pauli", "PCP6_3_imaginary")])
@pytest.mark.parametrize("t", [1e3, np.array([0.5, -1e3])])
def test_evaluate_scheme_refuses_an_overflowing_product(case, name, t):
    # finite runs whose product is not: the Taylor path overflowed in its
    # squarings and the eigenbasis walk in exp, each returning a non-finite
    # product with a numpy RuntimeWarning
    pair = make_pair("pauli") if case == "pauli" else \
        _random_pair(4, 1, 16 if case == "deep" else 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            evaluate_scheme(catalog_get(name), pair, t)


def test_expm_refuses_an_overflowing_result():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            expm(1e300 * np.eye(2))
        with pytest.raises(ValueError, match="overflow"):
            expm(np.array([[800.0, 1.0], [0.0, -3.0]]))
        # finite matrices whose one-norm overflows
        for M in (np.full((2, 2), 1e308), [[0.0, 1e308], [-1e308, 1e308]]):
            with pytest.raises(ValueError, match=_ARGUMENT_OVERFLOWS):
                expm(M)


@pytest.mark.parametrize("z", [1e200, -1e200, 1.7e308])
def test_expm_of_a_huge_matrix_whose_square_is_zero_is_identity_plus_it(z):
    # alpha = 0 gives no squaring and u = z; the zero powers' coefficients
    # u^m / m! used to overflow, and inf * 0 made the sum NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = expm(np.array([[0.0, z], [0.0, 0.0]]))
    assert _bits(E) == _bits(np.array([[1.0, z], [0.0, 1.0]]))


def _nilpotent_pair(dim: int, seed: int, size: float) -> OperatorPair:
    """A = N of one-norm ``size``, rank one and mapping the top half of the
    coordinates into the bottom half, so N^2 = 0 exactly, and B a random
    block-diagonal matrix that keeps the halves, so N M N = 0 exactly for any
    product M of B's exponentials: the scheme's product stays finite."""
    rng = np.random.default_rng(seed)
    half = dim // 2
    N = np.zeros((dim, dim))
    N[:half, half:] = np.outer(rng.standard_normal(half), rng.standard_normal(dim - half))
    N *= size / np.abs(N).sum(axis=0).max()
    B = np.zeros((dim, dim))
    B[:half, :half] = rng.standard_normal((half, half))
    B[half:, half:] = rng.standard_normal((dim - half, dim - half))
    return OperatorPair(N, B / np.linalg.norm(B, 2))


def _assert_blocks_close(actual, expected, half):
    # the diagonal blocks never meet N, the top-right one carries it
    for rows, cols in ((slice(None, half), slice(None, half)),
                       (slice(half, None), slice(half, None)),
                       (slice(half, None), slice(None, half)),
                       (slice(None, half), slice(half, None))):
        scale = max(1.0, float(np.abs(expected[rows, cols]).max()))
        assert np.abs(actual[rows, cols] - expected[rows, cols]).max() <= 1e-13 * scale


@pytest.mark.parametrize("dim,depth", [(40, 16), (100, 4)])
@pytest.mark.parametrize("size", [1e200, 1.0])
def test_scheme_on_a_generator_whose_square_is_zero(dim, depth, size):
    # exp(c t N) = I + c t N, on the deep power stack (d <= 87) and on the
    # core of degree 8 and 16 (d = 100) alike, however large ||N||
    pair = _nilpotent_pair(dim, 7, size)
    assert pair.power_depth == depth
    scheme = catalog_get("NCP10_4")
    times = np.array([0.3, -0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = evaluate_scheme(scheme, pair, times)
    for t, U in zip(times, stack):
        expected = np.eye(dim)
        for gen, c in slot_runs(scheme):
            factor = (np.eye(dim) + c * t * pair.A if gen == Generator.A
                      else scipy.linalg.expm(c * t * pair.B))
            expected = expected @ factor
        _assert_blocks_close(U, expected, dim // 2)
        assert _bits(U) == _bits(evaluate_scheme(scheme, pair, t))


@pytest.mark.parametrize("dim", [40, 100])
def test_target_of_a_commutator_whose_square_is_zero(dim):
    # [N, B] maps the top half into the bottom half too, so its exponential
    # is I + t^2 [N, B] through the target stack's own powers
    pair = _nilpotent_pair(dim, 3, 1e200)
    times = np.array([0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = target_matrix(commutator_target(), pair, times)
    for t, T in zip(times, stack):
        _assert_blocks_close(T, np.eye(dim) + t * t * commutator(pair.A, pair.B), dim // 2)


def test_expm_matches_scipy_at_dim_256(rng):
    M = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    M *= 2.0 / np.linalg.norm(M, 2)
    expected = scipy.linalg.expm(M)
    error = np.linalg.norm(expm(M) - expected, 2) / np.linalg.norm(expected, 2)
    assert error < 5e-14


@pytest.fixture(scope="module")
def dense_pair():
    """The first random:256 pair of the dense benchmark workload."""
    return make_pair("random", 256, 200)


@pytest.mark.parametrize("name", ["NCP10_4", "PCP26_6"])
def test_dense_benchmark_product_matches_scipy(dense_pair, name):
    # the core of degree 8 and 16 on the cached block X, Y^2, Y^3, Y^4 at
    # d = 256, against scipy's exponential of every run
    assert dense_pair.power_depth == 4
    expected = np.eye(256)
    for gen, coeff in slot_runs(catalog_get(name)):
        expected = expected @ scipy.linalg.expm(coeff * dense_pair.matrix(gen))
    U = evaluate_scheme(catalog_get(name), dense_pair, 1.0)
    assert np.linalg.norm(U - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)


def test_dense_benchmark_target_matches_scipy(dense_pair):
    # the commutator target's per-entry powers at d = 256, against scipy
    for t in (1.0, 0.3):
        expected = scipy.linalg.expm(t * t * commutator(dense_pair.A, dense_pair.B))
        T = target_matrix(commutator_target(), dense_pair, t)
        assert np.linalg.norm(T - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)


def test_dense_benchmark_command_takes_45_and_5_products(monkeypatch):
    # the benchmark's NCP10_4 curve on random:256 at n = 1, so t = 1: the walk
    # makes 6 power products (Y^2, Y^3 and Y^4 of each generator), the core
    # products and squarings of its 10 runs and the 9 joins between them, 45
    # in all, where the degree 3/7/11/15 Horner core made 53; the commutator
    # target makes 3 power products and 2 core products, where the Horner
    # core made 7 (3 of them Horner blocks and 1 a squaring)
    pair = make_pair("random", 256, 200)
    assert pair.power_depth == 4
    products = _count_products(monkeypatch)
    evaluate_scheme(catalog_get("NCP10_4"), pair, np.array([1.0]))
    assert products["square"] == 45
    products.update(square=0, stack=0)
    target_matrix(commutator_target(), pair, 1.0)
    assert products["square"] == 5


def _peak_bytes(scheme, pair):
    tracemalloc.start()
    try:
        evaluate_scheme(scheme, pair, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cached_power_path_peak_memory():
    # the cached block (X, Y^2, Y^3 and Y^4 of each generator: 8), three
    # rotating buffers and the degree-16 core's work buffer: 12 live d x d
    # complex arrays.  Two more than the Horner core's six powers, three
    # buffers and one temporary: the block holds a copy of X, so that each
    # quartic is one product with it, and the work buffer holds y_1 + P_2
    # while y_1 + Q_2 is formed
    dim = 128
    real = make_pair("random", dim, 5)
    pair = OperatorPair(1j * real.A, 1j * real.B)
    assert pair.A.dtype == np.complex128 and pair.eigenbasis is None
    assert _peak_bytes(catalog_get("PCP26_6"), pair) <= 12 * 16 * dim * dim + 64 * 1024


def test_real_path_peak_memory():
    # the same arrays, all float64: at most 12 live d x d real arrays
    dim = 128
    pair = make_pair("random", dim, 5)
    assert pair.A.dtype == np.float64
    assert _peak_bytes(catalog_get("PCP26_6"), pair) <= 12 * 8 * dim * dim + 64 * 1024


def test_complex_coefficients_leave_the_deep_stack_real():
    # a complex scheme on a real pair at power depth 16: its coefficient
    # rows meet the real (17, d^2) stacks as float parts, so no stack is
    # cast to complex and the walk peaks within 10 complex d x d arrays
    # (the cast made it 23; real NCP6_3 takes 3)
    dim = 64
    pair = make_pair("random", dim, 11)
    assert pair.power_depth == 16
    pair.powers
    scheme = catalog_get("PCP6_3_imaginary")
    tracemalloc.start()
    try:
        evaluate_scheme(scheme, pair, np.array([0.5, 0.25]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 16 * dim * dim


def test_power_block_peak_memory():
    # the block (4 d x d arrays) and one |Y^p| for the one-norms: Y waits in
    # the Y^4 row, and the norms are taken power by power
    X = make_pair("random", 256, 1).A.copy()
    tracemalloc.start()
    try:
        _powers(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * X.nbytes + 64 * 1024


def test_a_target_holds_its_sum_once():
    # the sum C of the target's terms is built in the X row of the power
    # block its exponentials run on, so C is not held beside a copy of it:
    # the block (4 d x d arrays), the walk's two buffers and the core's
    # work space (3 per entry), and what the element matrices and the
    # finiteness checks leave
    pair = make_pair("random", 128, 5)
    for t in (0.5, np.array([0.5, 0.25])):
        tracemalloc.start()
        try:
            T = target_matrix(commutator_target(), pair, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * T.nbytes + 64 * 1024


def test_a_rising_target_grid_keeps_one_power_block():
    # cost tables pass their grids in rising order; a target of one degree
    # builds one power block for the whole grid and runs it by decreasing
    # |t|: within 4 d x d arrays per entry (31.3 in all), where a power
    # block per step time made it 7.0 and a copy to reorder those blocks
    # 11; each entry is its own one-time call bit for bit
    pair = make_pair("random", 128, 5)
    grid = np.linspace(0.1, 0.9, 9)
    tracemalloc.start()
    try:
        T = target_matrix(commutator_target(), pair, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * T.nbytes
    for entry, t in zip(T, grid):
        assert _bits(entry) == _bits(target_matrix(commutator_target(), pair, t))


def test_a_large_pair_holds_each_generator_once():
    # past the deep budget each generator is rebound to the X row of its
    # block, bit for bit the array it was, so the pair keeps no second copy
    pair = make_pair("random", 256, 201)
    before = pair.A.copy(), pair.B.copy()
    assert pair.power_depth == 4
    powers = pair.powers
    for X, power, original in zip((pair.A, pair.B), powers, before):
        assert np.shares_memory(X, power.block)
        assert X.tobytes() == original.tobytes()


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"),
                                 complex(0.0, float("inf"))])
@pytest.mark.parametrize("which", ["A", "B"])
def test_pair_refuses_non_finite_entries(bad, which):
    # an infinite entry made the symmetry tolerance 4 eps max|X| infinite,
    # so [[0, inf], [0, 0]] passed as Hermitian and eigh, which reads one
    # triangle, gave NCP6_3 the identity
    X = np.array([[0.0, bad], [0.0, 0.0]])
    generators = {"A": X, "B": np.eye(2)} if which == "A" else {"A": np.eye(2), "B": X}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite entries"):
            OperatorPair(**generators)


@pytest.mark.parametrize("A,path", [
    ([[0.0, 1e308], [-1e308, 0.0]], "eigenbasis"),
    ([[0.0, 1e308], [-1e308, 1e308]], "taylor"),
])
def test_the_symmetry_test_does_not_overflow(A, path):
    # X - X^H of a finite X overflowed and leaked a numpy RuntimeWarning
    # through evaluation_path and evaluate_scheme; the halves cannot
    # overflow.  The anti-Hermitian X is still found anti-Hermitian, and its
    # walk's stated error bound, about 1e292, leaves the product no correct
    # digit; the other pair's one-norm overflows.  Either is a ValueError
    pair = OperatorPair(A, np.eye(2))
    scheme = catalog_get("NCP6_3")
    refusal = "error bound .* reaches 1" if path == "eigenbasis" else _ARGUMENT_OVERFLOWS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluation_path(scheme, pair)[0] == path
        with pytest.raises(ValueError, match=refusal):
            evaluate_scheme(scheme, pair, 0.5)


# ---------------------------------------------------------------------------
# raw coefficient types: every layer reads a slot as its float value
# ---------------------------------------------------------------------------


def _as_python(slots):
    """The slot list with each coefficient as a Python float, or a complex
    when it is a Python or numpy complex (a 0-d array included)."""
    return [(gen, complex(c) if np.iscomplexobj(c) else float(c)) for gen, c in slots]


_RAW_COEFFICIENTS = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=60),
    st.decimals(min_value=-2, max_value=2, places=8, allow_nan=False, allow_infinity=False),
    st.integers(min_value=-3, max_value=3),
    st.just(True),
    st.floats(min_value=-2.0, max_value=2.0).map(np.float32),
    st.floats(min_value=-2.0, max_value=2.0).map(np.float64),
    st.integers(min_value=-3, max_value=3).map(np.int64),
    st.complex_numbers(max_magnitude=2.0).map(np.complex128),
    st.complex_numbers(max_magnitude=2.0).map(np.complex64),
    st.floats(min_value=-2.0, max_value=2.0).map(np.array),
    st.complex_numbers(max_magnitude=2.0).map(np.array),
    st.sampled_from([0, 0.0, Fraction(0), Decimal(0)]),
)

# any generator order, zeros included: neighbours on one generator merge and
# a popped zero run merges its neighbours, so coefficients are added
_RAW_SLOTS = st.lists(st.tuples(st.sampled_from([Generator.A, Generator.B]), _RAW_COEFFICIENTS),
                      min_size=1, max_size=8)


def _same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(slots=_RAW_SLOTS)
def test_raw_coefficient_types_agree_with_their_float_values(pauli_pair, slots):
    floats = _as_python(slots)
    times = np.array([0.3, -0.1, 0.0, 0.7])
    for pair in (pauli_pair, make_pair("random", 4, 3)):
        for t in (0.1, times):
            _same_bits(evaluate_scheme(slots, pair, t), evaluate_scheme(floats, pair, t))
        assert matform.evaluation_path(slots, pair) == matform.evaluation_path(floats, pair)
    raw_report = order_residuals(slots, commutator_target(), 2)
    report = order_residuals(floats, commutator_target(), 2)
    for degree in (1, 2):
        _same_bits(raw_report.residuals[degree], report.residuals[degree])
    assert raw_report.verified_order == report.verified_order
    assert raw_report.effective_error == report.effective_error
    assert effective_error(slots, 3) == effective_error(floats, 3)


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(_RAW_COEFFICIENTS, st.just(1 + 0j)))
@example(value=1 + 0j)
def test_slot_pairs_and_exponent_slot_read_a_coefficient_alike(pauli_pair, value):
    # one reader: slot_pairs gives each raw coefficient the value and type
    # ExponentSlot gives it, so raw and slot-built compositions agree bit for
    # bit; 1+0j was a complex128 row in slot_pairs and a float in a slot
    (_, read), = slot_pairs([(Generator.A, value)])
    slot = ExponentSlot(Generator.A, value).coefficient
    assert type(read) is type(slot) and repr(read) == repr(slot)
    raw = [(Generator.A, value), (Generator.B, 0.5)]
    slots = [ExponentSlot(gen, c) for gen, c in raw]
    for pair in (pauli_pair, make_pair("random", 4, 3)):
        _same_bits(evaluate_scheme(raw, pair, 0.1), evaluate_scheme(slots, pair, 0.1))
    raw_report = order_residuals(raw, commutator_target(), 2)
    report = order_residuals(slots, commutator_target(), 2)
    for degree in (1, 2):
        _same_bits(raw_report.residuals[degree], report.residuals[degree])
    assert raw_report.effective_error == report.effective_error


@pytest.mark.parametrize("third", [Fraction(1, 3), Decimal("0.3333333333333333")])
def test_evaluate_scheme_reads_fraction_and_decimal_coefficients(pauli_pair, third):
    # numpy cannot test the finiteness of an object array of these
    slots = [(Generator.A, third), (Generator.B, 1.0), (Generator.A, 0.5)]
    expected = evaluate_scheme(_as_python(slots), pauli_pair, 0.1)
    _same_bits(evaluate_scheme(slots, pauli_pair, 0.1), expected)


@pytest.mark.parametrize("slots", [
    [(Generator.A, Decimal("0.5")), (Generator.A, 0.5), (Generator.B, 1.0)],
    [(Generator.A, Fraction(1, 10)), (Generator.A, Fraction(2, 10)), (Generator.B, 1.0)],
    [(Generator.A, np.float32(0.1)), (Generator.B, Fraction(0)), (Generator.A, np.float32(0.2))],
])
def test_runs_add_the_float_values_of_their_slots(pauli_pair, slots):
    # a run sums its slots' floats, so a merged Fraction 1/10 + 2/10 gives
    # 0.1 + 0.2 as the float list does, not float(3/10)
    floats = _as_python(slots)
    assert slot_runs(slots) == slot_runs(floats)
    _same_bits(evaluate_scheme(slots, pauli_pair, 0.1), evaluate_scheme(floats, pauli_pair, 0.1))


# ---------------------------------------------------------------------------
# real arithmetic: real pairs and real z·t stay float64
# ---------------------------------------------------------------------------


def _error(X, Y):
    return np.linalg.norm(X - Y, 2)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dim=st.integers(min_value=2, max_value=16),
    slots=st.lists(st.tuples(st.sampled_from([Generator.A, Generator.B]),
                             st.floats(min_value=-2.0, max_value=2.0)),
                   min_size=1, max_size=12),
    t=st.floats(min_value=0.01, max_value=2.0),
)
def test_real_path_matches_complex_reference(seed, dim, slots, t):
    # real pair and real slot coefficients: float64 results that agree with
    # the same computation on complex128 inputs (scipy's per-slot product,
    # and this package's own Taylor walk in complex128 buffers); a
    # complex-typed coefficient of zero imaginary part is read as its real
    # part, so it gives the real product bit for bit; with no run left all
    # give the real identity
    assume(slot_runs(slots))
    pair = make_pair("random", dim, seed)
    assert pair.A.dtype == np.float64 and pair.eigenbasis is None
    expected, _, bound = _expm_product(slots, pair, t)
    U = evaluate_scheme(slots, pair, t)
    _same_bits(evaluate_scheme([(gen, complex(c)) for gen, c in slots], pair, t), U)
    gens, (coeffs,) = _slot_row(slot_runs(slots))
    z = np.multiply.outer(coeffs.astype(np.complex128), [t])
    widened = matform._taylor_walk(pair.powers, gens, z, (1, dim, dim), np.complex128)[0]
    assert U.dtype == np.float64 and widened.dtype == np.complex128
    assert _error(U, expected) <= bound
    assert _error(U, widened) <= bound

    # expm of the summed argument, one slot: s = 1
    M = sum(c * t * pair.matrix(gen) for gen, c in slots)
    expected, _, bound = _expm_product([(Generator.A, 1.0)], OperatorPair(M, M), 1.0)
    E = expm(M)
    assert E.dtype == np.float64 and expm(M.astype(np.complex128)).dtype == np.complex128
    assert _error(E, expected) <= bound
    assert _error(E, expm(M.astype(np.complex128))) <= bound

    # the target exponential; complex-typed weights of zero imaginary part
    # are read as their real parts, so they give the real target bit for bit
    target = sum_plus_commutator_target(1.5)
    complex_target = type(target)(target.name, {k: complex(w) for k, w in target.terms.items()})
    T = target_matrix(target, pair, t)
    assert T.dtype == np.float64
    _same_bits(target_matrix(complex_target, pair, t), T)
    F = sum(w * t ** degree * element_matrix(degree, pos, pair)
            for (degree, pos), w in target.terms.items())
    expected, _, bound = _expm_product([(Generator.A, 1.0)], OperatorPair(F, F), 1.0)
    assert _error(T, expected) <= bound


def _mixed_pair():
    real = make_pair("random", 16, 0)
    return OperatorPair(real.A, real.B + 0.5j * _symmetric_pair(4, 16, (1, 1)).A)


@pytest.mark.parametrize("case", ["PCP6_3_imaginary", "mixed", "imaginary-rotation"])
@pytest.mark.parametrize("t", [0.05, 0.7])
def test_complex_inputs_stay_complex(random_pair, case, t):
    # a complex coefficient on a real pair, or a complex generator, keeps
    # complex128 and matches scipy's per-slot product
    pair, scheme = random_pair, catalog_get("NCP10_4")
    if case == "PCP6_3_imaginary":
        scheme = catalog_get(case)
    elif case == "mixed":
        pair = _mixed_pair()
        assert pair.A.dtype == np.complex128 and not np.any(pair.A.imag)
    else:
        scheme = transform(scheme, case)
    slots = scheme.pairs()
    U = evaluate_scheme(scheme, pair, t)
    assert U.dtype == np.complex128
    assert matform.evaluation_path(scheme, pair) == ("taylor", "complex128")
    expected, _, bound = _expm_product(slots, pair, t)
    assert _error(U, expected) <= bound


def test_real_inputs_stay_real(random_pair):
    assert random_pair.A.dtype == random_pair.B.dtype == np.float64
    assert matform.evaluation_path(catalog_get("NCP10_4"), random_pair) == ("taylor", "float64")
    assert evaluate_scheme(catalog_get("NCP10_4"), random_pair, 0.0).dtype == np.float64
    assert two_norm(np.eye(3, dtype=int)) == 1.0
    # a complex array with zero imaginary part makes a real pair
    pair = OperatorPair(random_pair.A.astype(np.complex128), random_pair.B)
    assert pair.A.dtype == np.float64
    np.testing.assert_array_equal(pair.A, random_pair.A)


# ---------------------------------------------------------------------------
# element_matrix / target_matrix
# ---------------------------------------------------------------------------


def test_element_matrix_atoms(pauli_pair):
    np.testing.assert_array_equal(element_matrix(1, 1, pauli_pair), pauli_pair.A)
    np.testing.assert_array_equal(element_matrix(1, 2, pauli_pair), pauli_pair.B)


def test_element_matrix_low_degrees(random_pair):
    A, B = random_pair.A, random_pair.B
    np.testing.assert_allclose(
        element_matrix(2, 1, random_pair), commutator(A, B), atol=1e-15)
    np.testing.assert_allclose(
        element_matrix(3, 1, random_pair),
        commutator(A, commutator(A, B)), atol=1e-15)
    np.testing.assert_allclose(
        element_matrix(3, 2, random_pair),
        commutator(B, commutator(A, B)), atol=1e-15)


def test_element_matrix_recursion_consistency(random_pair):
    # every element above degree 1 must equal sign * [letter, child]
    from commexp.liealg import LIE_DIMS, _BASIS_RECIPES

    for degree in range(2, 8):
        for pos in range(1, LIE_DIMS[degree - 1] + 1):
            sign, letter, child = _BASIS_RECIPES[(degree, pos)]
            direct = element_matrix(degree, pos, random_pair)
            child = element_matrix(*child, random_pair)
            expected = sign * commutator(random_pair.matrix(letter), child)
            np.testing.assert_allclose(direct, expected, atol=1e-12)


@pytest.mark.parametrize("key", [(1, 3), (1, 0), (0, 1), (2, 2), (7, 19), (8, 1)])
def test_element_matrix_refuses_a_position_outside_the_basis(random_pair, key):
    with pytest.raises(KeyError):
        element_matrix(*key, random_pair)


def test_element_matrices_equal_the_basis_recursion_bit_for_bit(random_pair):
    # built from the recipes alone, every element equals sign * [letter,
    # child] on the basis's elements, atoms included
    from commexp.liealg import LIE_DIMS, _BASIS_RECIPES

    matrices = {(1, 1): random_pair.A, (1, 2): random_pair.B}
    for key, (sign, letter, child) in sorted(_BASIS_RECIPES.items()):
        L, C = random_pair.matrix(letter), matrices[child]
        matrices[key] = sign * (L @ C - C @ L)
    assert len(matrices) == sum(LIE_DIMS)
    for key, M in matrices.items():
        _same_bits(element_matrix(*key, random_pair), M)


def test_the_matrix_layer_builds_no_basis(tmp_path):
    # a custom curve builds its target's element matrices from the recipes,
    # so a fresh interpreter that runs one never builds the stored basis
    src = str(Path(commexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from commexp import cli, liealg; "
            "assert cli.main(sys.argv[1:]) == 0; "
            "print(liealg.basis_build.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code, "bench", "--custom", "--schemes",
                           "NCP10_4", "--pair", "random:16", "--n", "1",
                           "--out", str(tmp_path / "curve.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "0"


def test_target_matrix_commutator(pauli_pair):
    t = 0.45
    W = commutator(pauli_pair.A, pauli_pair.B)
    np.testing.assert_allclose(
        target_matrix(commutator_target(), pauli_pair, t),
        scipy.linalg.expm(t * t * W), atol=1e-13)


def test_target_matrix_sum(random_pair):
    t = 0.3
    np.testing.assert_allclose(
        target_matrix(sum_target(), random_pair, t),
        scipy.linalg.expm(t * (random_pair.A + random_pair.B)), atol=1e-12)


def test_target_matrix_sum_plus_commutator(random_pair):
    t = 0.2
    R = 2.0
    F = t * (random_pair.A + random_pair.B) \
        + R * R * t * t * commutator(random_pair.A, random_pair.B)
    np.testing.assert_allclose(
        target_matrix(sum_plus_commutator_target(R), random_pair, t),
        scipy.linalg.expm(F), atol=1e-12)


def test_unit_coefficient_formula_identity_vanishes_on_pauli(pauli_pair):
    # the leading error of the eight-exponential formula sits entirely on
    # [A,[B,[B,A]]]; for 2x2 anti-Hermitian pairs that bracket collapses,
    # so the formula gains an extra order there (see the bench tests)
    assert two_norm(element_matrix(4, 2, pauli_pair)) < 1e-14
    generic = make_pair("random", dim=16, seed=0)
    assert two_norm(element_matrix(4, 2, generic)) > 0.1


# ---------------------------------------------------------------------------
# stacked targets
# ---------------------------------------------------------------------------


def _targets():
    """Every catalog target, by name: the commutator, sum, nested and combined
    targets and the mixed-degree sum-plus-commutator target of phi3-phi5."""
    from commexp.schemes import catalog_names

    return {catalog_get(name).target.name: catalog_get(name).target
            for name in catalog_names()}


_TARGETS = _targets()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_TARGETS) + ["sum_plus_commutator(R=2.5)"]),
    pair_kind=st.sampled_from(["pauli", "random:2", "random:5", "random:16"]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    times=st.lists(st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
                   min_size=1, max_size=13),
    repeat=st.booleans(),
)
@example(name="sum_plus_commutator(R=1)", pair_kind="pauli", seed=0,
         times=[0.9, 0.0, 0.1, 0.5, 0.1, 2.0, 0.0], repeat=True)
@example(name="combined", pair_kind="random:16", seed=11,
         times=[0.2, 0.8, 0.4, 0.6], repeat=False)
def test_stacked_targets_equal_one_time_calls(name, pair_kind, seed, times, repeat):
    # unsorted, repeated and zero step times: each entry of the stack is the
    # one-time call bit for bit, on the complex pauli pair and real random pairs
    target = _TARGETS.get(name) or sum_plus_commutator_target(2.5)
    pair = (make_pair("pauli") if pair_kind == "pauli"
            else make_pair("random", int(pair_kind.split(":")[1]), seed))
    if repeat:
        times = times + times[::-1]
    stack = target_matrix(target, pair, np.array(times))
    assert stack.shape == (len(times), pair.dim, pair.dim)
    for T, t in zip(stack, times):
        one = target_matrix(target, pair, t)
        assert one.dtype == stack.dtype
        assert _bits(T) == _bits(one)


def test_target_grid_takes_one_taylor_pass(monkeypatch, random_pair):
    # a 9-point grid of a target of one degree is one run of the Taylor
    # core on its matrix's powers, and the public expm is not called; a
    # target of several degrees takes one call per step time
    calls = _count_slot_exponentials(monkeypatch, "_taylor_exp")
    monkeypatch.setattr(matform, "expm", None)
    grid = np.linspace(0.1, 0.9, 9)
    T = target_matrix(commutator_target(), random_pair, grid)
    assert T.shape == (9, 16, 16) and len(calls) == 1
    calls.clear()
    T = target_matrix(sum_plus_commutator_target(1.0), random_pair, grid)
    assert T.shape == (9, 16, 16) and len(calls) == 9


def test_target_matrix_shapes(pauli_pair):
    target = commutator_target()
    assert target_matrix(target, pauli_pair, 0.4).shape == (2, 2)
    assert target_matrix(target, pauli_pair, np.array([0.4])).shape == (1, 2, 2)
    assert target_matrix(target, pauli_pair, np.array([])).shape == (0, 2, 2)
    np.testing.assert_array_equal(target_matrix(target, pauli_pair, 0.0), np.eye(2))
    with pytest.raises(ValueError, match="1-D array"):
        target_matrix(target, pauli_pair, np.ones((2, 2)))


@pytest.mark.parametrize("t", [0.5, np.array([0.2, 0.5])])
def test_target_matrix_overflow_is_one_value_error(random_pair, t):
    # the element matrices overflow in their products: a ValueError, no warning
    big = OperatorPair(1e160 * random_pair.A, 1e160 * random_pair.B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            target_matrix(commutator_target(), big, t)


@pytest.mark.parametrize("name", ["commutator", "nested_aab", "sum", "sum_plus_commutator",
                                  "combined"])
@pytest.mark.parametrize("weight", [1.0, 0.5 - 2j])
@pytest.mark.parametrize("pair_kind", ["pauli", "random:5"])
def test_target_grids_equal_one_time_calls(name, weight, pair_kind):
    # targets of one degree (one run on C's powers, z_j = t_j^k) and of
    # several (one call per step time), with real and complex weights, over
    # a grid with zero, repeated, negative and unsorted steps: each entry is
    # its own one-time call bit for bit, and a target of several degrees is
    # expm of its sum at each step time
    terms = {"commutator": {(2, 1): 1.0}, "nested_aab": {(3, 1): 1.0},
             "sum": {(1, 1): 1.0, (1, 2): 1.0},
             "sum_plus_commutator": {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 2.25},
             "combined": {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (3, 1): 1.0}}[name]
    target = TargetPolynomial(name, {term: weight * w for term, w in terms.items()})
    pair = make_pair("pauli") if pair_kind == "pauli" else make_pair("random", 5, 7)
    grid = np.array([0.3, 0.0, -0.9, 1.7, 0.3, -0.3, 0.0, 0.05])
    stack = target_matrix(target, pair, grid)
    for entry, t in zip(stack, grid):
        assert _bits(entry) == _bits(target_matrix(target, pair, t))
        if len({degree for degree, _ in terms}) > 1:
            F = sum(target.vector(degree)[position - 1] * t ** degree
                    * element_matrix(degree, position, pair) for degree, position in terms)
            assert _bits(entry) == _bits(expm(F.astype(stack.dtype)))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["commutator", "nested_aab", "sum"]),
    pair_kind=st.sampled_from(["pauli", "random"]),
    dim=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    weight=st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                     st.builds(complex, st.floats(min_value=-2.0, max_value=2.0),
                               st.floats(min_value=-2.0, max_value=2.0))),
    times=st.lists(st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5)),
                   min_size=1, max_size=9),
)
@example(name="commutator", pair_kind="random", dim=8, seed=11, weight=1.0,
         times=[0.2, 0.0, -1.5, 0.9, 0.0])
# scipy misses the bound: 7.6e-13 from a 50-digit exponential, past 3.98e-13
@example(name="commutator", pair_kind="random", dim=2, seed=0, weight=2.0, times=[1.5])
def test_one_degree_target_grids_match_scipy(name, pair_kind, dim, seed, weight, times):
    # a target of one degree k runs exp(t^k C) on the powers of C alone; it
    # matches scipy's expm of t^k C within the bound of
    # test_slot_exponential_matches_scipy, on the pauli pair and on real
    # random pairs, over grids with zeros and unsorted steps.  As there, an
    # entry farther than the bound from scipy's is checked against mpmath's
    # exponential of the same float matrix, and fails only if it misses that too
    terms = {"commutator": [(2, 1)], "nested_aab": [(3, 1)], "sum": [(1, 1), (1, 2)]}[name]
    target = TargetPolynomial(name, {term: weight for term in terms})
    pair = make_pair("pauli") if pair_kind == "pauli" else make_pair("random", dim, seed)
    C = sum(weight * element_matrix(*term, pair) for term in terms)
    k = terms[0][0]
    stack = target_matrix(target, pair, np.array(times))
    for entry, t in zip(stack, times):
        r = abs(t) ** k * np.linalg.norm(C, 2)
        bound = 8 * (pair.dim + r) * np.finfo(float).eps * math.exp(r)
        error = np.linalg.norm(entry - scipy.linalg.expm(t ** k * C), 2)
        if error > bound:
            error = np.linalg.norm(entry - _mpmath_expm(t ** k * C), 2)
        assert error <= bound
