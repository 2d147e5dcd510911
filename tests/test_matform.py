"""Tests for the dense matrix harness."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp.conditions import (
    commutator_target,
    sum_plus_commutator_target,
    sum_target,
)
from commexp import matform
from commexp.liealg import Generator
from commexp.matform import (
    OperatorPair,
    SplitMix64,
    element_matrix,
    evaluate_scheme,
    expm,
    make_pair,
    target_matrix,
    two_norm,
)
from commexp.schemes import ABSTRACT, ExponentSlot, Scheme, catalog_get


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
    assert M.dtype == np.complex128
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


def test_evaluate_scheme_complex_coefficients(random_pair):
    scheme = catalog_get("PCP6_3_imaginary")
    U = evaluate_scheme(scheme, random_pair, 0.2)
    assert np.all(np.isfinite(U))
    assert U.shape == (16, 16)


def test_evaluate_scheme_refuses_template_slots(pauli_pair, random_pair):
    template = Scheme(
        "tmpl", (ExponentSlot(Generator.A, 1.0), ExponentSlot(ABSTRACT, 0.5)),
        commutator_target(), 1)
    for pair in (pauli_pair, random_pair):
        with pytest.raises(ValueError, match="abstract"):
            evaluate_scheme(template, pair, 0.3)


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
    """Reference product with scipy, and evaluate_scheme's stated error bound
    for the walk: (s + 2 + sum |c t| ||X||) d eps times the factor norms."""
    U = np.eye(pair.dim, dtype=np.complex128)
    growth, norms = len(slots) + 2, 1.0
    for gen, coeff in slots:
        F = scipy.linalg.expm(complex(coeff) * t * pair.matrix(gen))
        U = U @ F
        growth += abs(complex(coeff) * t) * np.linalg.norm(pair.matrix(gen), 2)
        norms *= np.linalg.norm(F, 2)
    return U, growth * pair.dim * np.finfo(float).eps * norms


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
    expected, bound = _expm_product(slots, pair, t)
    assert np.linalg.norm(evaluate_scheme(slots, pair, t) - expected, 2) <= 4 * bound


@pytest.mark.parametrize("name", ["NCP6_3", "PCP26_6", "suzuki4", "PCP6_3_imaginary"])
def test_eigenbasis_walk_on_pauli_catalog(pauli_pair, name):
    assert pauli_pair.eigenbasis is not None
    scheme = catalog_get(name)
    for t in (0.01, 0.4, 3.0):
        expected, bound = _expm_product(scheme.pairs(), pauli_pair, t)
        assert np.linalg.norm(evaluate_scheme(scheme, pauli_pair, t) - expected, 2) <= 4 * bound


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


@pytest.mark.parametrize("which", ["random", "mixed"])
def test_non_normal_pairs_take_the_expm_path(monkeypatch, random_pair, which):
    # a pair qualifies only when both generators are (anti-)Hermitian
    if which == "random":
        pair = random_pair
    else:
        pair = OperatorPair(_symmetric_pair(3, 16, (1, 1)).A, random_pair.B)
    assert pair.eigenbasis is None
    calls = _count_expm(monkeypatch)
    scheme = catalog_get("NCP6_3")
    evaluate_scheme(scheme, pair, 0.3)
    assert calls == [16] * sum(1 for _, c in scheme.pairs() if c != 0)


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
    from commexp.liealg import basis_build

    basis = basis_build(6)
    for degree in range(2, 7):
        for pos in range(1, basis.dim(degree) + 1):
            el = basis.element(degree, pos)
            direct = element_matrix(degree, pos, random_pair)
            child = element_matrix(*el.child, random_pair)
            expected = el.sign * commutator(random_pair.matrix(el.letter), child)
            np.testing.assert_allclose(direct, expected, atol=1e-12)


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
