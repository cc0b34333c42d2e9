import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import DIAG12, ROT2, make_instance
from phm import decompose, random_parameters
from phm.errors import NonHermitianError, NotSqhError, ParameterError
from phm.matrices import SIGMA_X, SIGMA_Y, SIGMA_Z, hermitize
from phm.metrics import (
    TWO_PI,
    CanonicalClass,
    MetricParameters,
    block_rotation,
    build_M,
    build_m,
    canonical_metric,
    class_letters,
    enumerate_classes,
    gauge_absorb,
    inertia_of_matrix,
    inertia_of_params,
    intertwining_residual,
    is_global_representative,
    negate_class,
    pair_block,
    pair_rotation,
    sqh_factorization,
)

nonzero_complex = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------- parameters


def test_parameters_reject_zero():
    with pytest.raises(ParameterError):
        MetricParameters(mu=[0.0], tau=[1.0])
    with pytest.raises(ParameterError):
        MetricParameters(mu=[1.0], tau=[0.0])
    with pytest.raises(ParameterError):
        MetricParameters(mu=[np.inf], tau=[])


def test_parameters_counts():
    params = MetricParameters(mu=[1.0, -2.0], tau=[1.0j])
    assert (params.r, params.p) == (2, 1)
    neg = params.negated()
    assert_allclose(neg.mu, [-1.0, 2.0], atol=0)
    assert_allclose(neg.tau, [-1.0j], atol=0)


def test_canonical_class_validation():
    with pytest.raises(ParameterError):
        CanonicalClass(signs=(2,), n=(), theta=())
    with pytest.raises(ParameterError):
        CanonicalClass(signs=(), n=(0,), theta=(7.0,))  # phase outside [0, 2pi)
    with pytest.raises(ParameterError):
        CanonicalClass(signs=(), n=(0, 1), theta=(0.0,))
    # the global-flip convention is a property of enumerated representatives,
    # not a constructor constraint
    CanonicalClass(signs=(-1,), n=(1,), theta=(1.0,))


# ------------------------------------------------------------ block algebra


def test_pair_block_structure():
    tau = 2.0 - 1.0j
    B = pair_block(tau)
    assert_allclose(B, tau.real * SIGMA_X + tau.imag * SIGMA_Y, atol=0)
    assert_allclose(sorted(np.linalg.eigvalsh(B)), [-abs(tau), abs(tau)], atol=1e-14)


def test_build_m_layout():
    params = MetricParameters(mu=[3.0], tau=[1.0j])
    m = build_m(params)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 3.0
    expected[1:, 1:] = pair_block(1.0j)
    assert_allclose(m, expected, atol=0)


@settings(deadline=None)
@given(tau=nonzero_complex, n=st.integers(0, 1))
def test_block_rotation_diagonalizes(tau, n):
    W = block_rotation(tau, n)
    assert_allclose(W @ W.conj().T, np.eye(2), atol=1e-14)
    got = W @ pair_block(tau) @ W.conj().T
    assert_allclose(got, (-1.0) ** n * abs(tau) * SIGMA_Z, atol=1e-13 * abs(tau))


def test_block_rotation_angle_underflow():
    # the angle of 2+5e-324j underflows to 0; cmath.phase raises OverflowError there
    tau = 2 + 5e-324j
    W = block_rotation(tau, 0)
    assert_allclose(W @ pair_block(tau) @ W.conj().T, 2.0 * SIGMA_Z, atol=1e-15)
    _, cls = gauge_absorb(decompose(ROT2), MetricParameters(mu=[], tau=[tau]))
    assert cls.theta == (0.0,)


def block_diag(*blocks):
    """The complex block-diagonal matrix of square ``blocks``: the reference
    assembly of build_m0, _block_m and _unitary_gauge_metric."""
    out = np.zeros((sum(map(len, blocks)),) * 2, dtype=np.complex128)
    k = 0
    for b in blocks:
        out[k : k + len(b), k : k + len(b)] = b
        k += len(b)
    return out


def _block_m(params):
    """m assembled block by block: [[mu_i]] for each real eigenvalue, then
    pair_block(tau_s) for each pair."""
    mu_blocks = (np.array([[m]], dtype=np.complex128) for m in params.mu)
    return block_diag(*mu_blocks, *map(pair_block, params.tau))


nonzero_float = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
nonzero_any_complex = st.complex_numbers(allow_nan=False, allow_infinity=False).filter(bool)


@settings(deadline=None, max_examples=100)
@given(
    mu=st.lists(nonzero_float, min_size=10, max_size=10),
    tau=st.lists(nonzero_any_complex, min_size=5, max_size=5),
)
@example(
    mu=[-1.0, 2.0, -3e-300, 4e300, -5e-324, 1.0, -1.0, 1.0, -1.0, 1.0],
    tau=[complex(-0.0, 1), complex(1, -0.0), complex(-1, 0.0), complex(0.0, -1), -2 - 3j],
)
def test_build_m_is_the_block_assembly(mu, tau):
    # every split with n <= 10, signed zeros included: the same bytes
    for n in range(11):
        for r in range(n, -1, -2):
            params = MetricParameters(mu=mu[:r], tau=tau[: (n - r) // 2])
            got, want = build_m(params), _block_m(params)
            assert got.shape == want.shape == (n, n)
            assert got.tobytes() == want.tobytes()


def build_m0(signs, n):
    """Signature matrix block-diag(signs, (-1)^{n_1} sigma_z, ...), the m0 of
    canonical_metric's unitary gauge formula."""
    blocks = [np.array([[float(s)]], dtype=np.complex128) for s in signs]
    blocks.extend(((-1.0) ** b) * SIGMA_Z for b in n)
    return block_diag(*blocks)


def test_build_m0_is_signature():
    m0 = build_m0((1, -1), (1,))
    assert_allclose(m0, np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)
    assert_allclose(m0 @ m0, np.eye(4), atol=0)


# ------------------------------------------------------------ golden metrics


def test_golden_rotation_metrics():
    sd = decompose(ROT2)
    res_z = build_M(sd, MetricParameters(mu=[], tau=[1.0]))
    assert_allclose(res_z.M, SIGMA_Z, atol=1e-12)
    assert res_z.inertia == (1, 1, 0)
    res_x = build_M(sd, MetricParameters(mu=[], tau=[1.0j]))
    assert_allclose(res_x.M, SIGMA_X, atol=1e-12)
    # direct substitution into the intertwining relation
    for M in (SIGMA_Z, SIGMA_X):
        assert_allclose(ROT2.conj().T @ M, M @ ROT2, atol=0)
    assert intertwining_residual(ROT2, SIGMA_Y) > 0.1


def test_golden_diagonal_metric():
    sd = decompose(DIAG12)
    res = build_M(sd, MetricParameters(mu=[1.0, -3.0], tau=[]))
    assert_allclose(res.M, np.diag([1.0, -3.0]), atol=0)
    assert res.inertia == (1, 1, 0)
    assert res.residual == 0.0


def test_observable_product_is_compatible():
    # A = sigma_x, M = sigma_z: the product A M solves the intertwining
    # relation with metric M by construction.
    Phi = SIGMA_X @ SIGMA_Z
    assert_allclose(Phi, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=0)
    assert intertwining_residual(Phi, SIGMA_Z) == 0.0


def test_residual_rejects_shape_mismatch():
    with pytest.raises(Exception):
        intertwining_residual(np.eye(2), np.eye(3))


def test_residual_frozen_value():
    # H = diag(1,2), M = sigma_x: H^dagger M - M H = [[0,-1],[1,0]], so the
    # relative residual is sqrt(2) / (sqrt(5) sqrt(2)) = 1/sqrt(5).
    res = intertwining_residual(np.diag([1.0, 2.0]), SIGMA_X)
    assert res == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-15)


def test_residual_of_nearly_hermitian_metric():
    # M = I + 1e-11 A with A anti-hermitian has hermiticity defect 2e-11, inside
    # the 1e-10 gate; its residual is 1e-11 ||[H, A]|| / (||H|| ||M||)
    H = np.diag([1.0, 2.0])
    M = np.eye(2) + 1e-11 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = intertwining_residual(H, M)
    assert res == pytest.approx(1e-11 / math.sqrt(5.0), rel=1e-4)


def test_residual_is_exactly_scale_free():
    # power-of-two scaling is exact, so the figure keeps its bits, also where
    # the unscaled norms of 2**600 M would overflow
    inst = make_instance(3, 1, 1, seed=11)
    H, M = inst.H, inst.certificate.M
    res = intertwining_residual(H, M)
    assert 0.0 < res <= 1e-14
    assert intertwining_residual(H, 2.0**600 * M) == res
    assert intertwining_residual(2.0**-600 * H, M) == res
    with pytest.raises(NonHermitianError):
        intertwining_residual(H, 2.0**600 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6))
def test_family_solves_intertwining(seed):
    inst = make_instance(6, 2, 2, seed=seed % 1000)
    params = random_parameters(2, 2, seed=seed)
    res = build_M(inst.sd, params)
    assert res.residual <= 1e-11
    assert np.array_equal(res.M, res.M.conj().T)


def test_build_M_count_mismatch():
    inst = make_instance(4, 2, 1, seed=1)
    with pytest.raises(ParameterError):
        build_M(inst.sd, MetricParameters(mu=[1.0], tau=[1.0]))


def test_build_M_refuses_a_metric_that_underflows_to_zero():
    # H = F^dagger D F with F the unitary DFT: every |S_ij| is 8**-0.5, so each
    # product with the least subnormal rounds to 0 and M is the zero matrix
    F = np.fft.fft(np.eye(8)) / np.sqrt(8)
    sd = decompose(F.conj().T @ np.diag(np.arange(1.0, 9.0)) @ F)
    with pytest.raises(ParameterError, match=r"= 0\.000e\+00 <= null cut 1e-10"):
        build_M(sd, MetricParameters(mu=[5e-324] * 8, tau=[]))


# ------------------------------------------------------- canonical form


def test_canonical_double_cover():
    sd = decompose(ROT2)
    m_a = canonical_metric(sd, CanonicalClass(signs=(), n=(0,), theta=(0.0,))).M
    m_b = canonical_metric(sd, CanonicalClass(signs=(), n=(1,), theta=(math.pi,))).M
    assert_allclose(m_a, SIGMA_Z, atol=1e-12)
    assert_allclose(m_b, SIGMA_Z, atol=1e-12)


def test_canonical_identity_class_is_positive():
    sd = decompose(DIAG12)
    res = canonical_metric(sd, CanonicalClass(signs=(1, 1), n=(), theta=()))
    assert_allclose(res.M, np.eye(2), atol=0)
    assert res.inertia == (2, 0, 0)


def _unitary_gauge_metric(sd, cls):
    """The formula canonical_metric replaced: S^dagger U^dagger m0 U S with
    U = block-diag(I_r, pair_rotation(theta_1), ..., pair_rotation(theta_p))."""
    U = block_diag(np.eye(sd.r), *map(pair_rotation, cls.theta))
    m0 = build_m0(cls.signs, cls.n)
    return hermitize(sd.S.conj().T @ U.conj().T @ m0 @ U @ sd.S)


_SPLITS_UP_TO_10 = [(n, r, (n - r) // 2) for n in range(1, 11) for r in range(n, -1, -2)]


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_canonical_metric_is_the_unitary_gauge_formula(data):
    n, r, p = data.draw(st.sampled_from(_SPLITS_UP_TO_10))
    sd = make_instance(n, r, p, seed=data.draw(st.integers(0, 10**6))).sd
    cls = CanonicalClass(
        signs=data.draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r)),
        n=data.draw(st.lists(st.integers(0, 1), min_size=p, max_size=p)),
        theta=data.draw(
            st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=p, max_size=p)
        ),
    )
    res = canonical_metric(sd, cls)
    ref = _unitary_gauge_metric(sd, cls)
    assert np.max(np.abs(res.M - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert res.inertia == inertia_of_matrix(ref) == inertia_of_matrix(res.M)
    assert res.residual <= 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_gauge_absorption_identity(seed):
    inst = make_instance(5, 1, 2, seed=seed % 500)
    params = random_parameters(1, 2, seed=seed)
    direct = build_M(inst.sd, params).M
    sd2, cls = gauge_absorb(inst.sd, params)
    absorbed = canonical_metric(sd2, cls).M
    assert_allclose(absorbed, direct, atol=1e-12 * np.abs(direct).max())


def test_gauge_absorb_extracts_signs_and_phases():
    inst = make_instance(4, 2, 1, seed=11)
    params = MetricParameters(mu=[-2.0, 0.5], tau=[3.0 * cmath.exp(1.0j)])
    _, cls = gauge_absorb(inst.sd, params)
    assert cls.signs == (-1, 1)
    assert cls.n == (0,)
    assert cls.theta[0] == pytest.approx(1.0)


# ------------------------------------------------------------------ inertia


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_inertia_matches_sylvester(seed):
    inst = make_instance(6, 2, 2, seed=seed % 300)
    params = random_parameters(2, 2, seed=seed)
    res = build_M(inst.sd, params)
    ip, im = inertia_of_params(params, inst.sd.p)
    assert res.inertia == (ip, im, 0)
    assert inertia_of_matrix(res.M) == (ip, im, 0)


def test_inertia_of_params_floor():
    params = MetricParameters(mu=[2.0], tau=[1.0j])
    assert inertia_of_params(params, 1) == (2, 1)


def test_inertia_of_matrix_counts_null():
    assert inertia_of_matrix(np.diag([2.0, -1.0, 0.0])) == (1, 1, 1)


def test_inertia_of_matrix_unchecked_takes_the_hermitian_part():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A = hermitize(A) + 1e-13 * A  # hermitian to about 1e-13
    assert inertia_of_matrix(hermitize(A), check_hermitian=False) == inertia_of_matrix(A)
    with pytest.raises(NonHermitianError):
        inertia_of_matrix(A + 1e-3 * np.triu(A, 1))


# ------------------------------------------------------------- enumeration


def test_negate_class_involution():
    signs, bits = negate_class((1, -1), (0, 1))
    assert (signs, bits) == ((-1, 1), (1, 0))
    assert negate_class(signs, bits) == ((1, -1), (0, 1))


def test_negation_flips_metric_sign():
    # the signature matrix of the negated class is exactly -m0
    m0 = build_m0((1, -1), (0, 1))
    s2, b2 = negate_class((1, -1), (0, 1))
    assert_allclose(build_m0(s2, b2), -m0, atol=0)


def test_enumerate_counts_and_representatives():
    classes = enumerate_classes(2, 1)
    assert len(classes) == 2 ** (2 + 1 - 1)
    assert all(is_global_representative(s, b) for s, b in classes)
    full = enumerate_classes(2, 1, mod_global=False)
    assert len(full) == 2 ** 3
    # quotient check: every full assignment is a representative or the
    # negation of one, and representatives are pairwise non-negations
    reps = set(classes)
    for s, b in full:
        assert (s, b) in reps or negate_class(s, b) in reps
    for s, b in classes:
        assert negate_class(s, b) not in reps


def test_enumerate_lexicographic_order():
    classes = enumerate_classes(1, 1, mod_global=False)
    assert classes == [
        ((1,), (0,)),
        ((1,), (1,)),
        ((-1,), (0,)),
        ((-1,), (1,)),
    ]


def test_enumerate_r0_representative_uses_first_bit():
    classes = enumerate_classes(0, 2)
    assert all(b[0] == 0 for _, b in classes)
    assert len(classes) == 2


def test_class_letters_are_signs_then_bits():
    from phm.errors import EnumerationCapError

    assert class_letters(2, 1, mod_global=False) == [(1, -1), (1, -1), (0, 1)]
    assert class_letters(0, 2, mod_global=False) == [(0, 1), (0, 1)]
    assert class_letters(0, 0) == []
    # the global-flip quotient halves position 0, a sign or (r = 0) a bit
    assert class_letters(2, 1) == [(1,), (1, -1), (0, 1)]
    assert class_letters(0, 2) == [(0,), (0, 1)]
    with pytest.raises(ParameterError, match="r and p must be nonnegative"):
        class_letters(-1, 2)
    # the cap on r + p is here, so enumerate_classes and cmd_enumerate share it
    assert len(class_letters(10, 10)) == 20
    with pytest.raises(EnumerationCapError) as info:
        class_letters(11, 10, mod_global=False)
    assert str(info.value) == "refusing to list 2**21 classes (cap r + p <= 20)"


@pytest.mark.parametrize("mod_global", [True, False])
def test_enumeration_is_the_product_of_the_class_tables(mod_global):
    for k in range(1, 13):
        for r in range(k + 1):
            p = k - r
            letters = class_letters(r, p, mod_global)
            sign_rows, bit_rows = list(product(*letters[:r])), list(product(*letters[r:]))
            classes = enumerate_classes(r, p, mod_global)
            assert classes == [(s, b) for s in sign_rows for b in bit_rows]
            # the definition the tables replace: filter the full product
            assert classes == [
                (s, b)
                for s in product((1, -1), repeat=r)
                for b in product((0, 1), repeat=p)
                if not mod_global or is_global_representative(s, b)
            ]


def test_enumerate_cap():
    from phm.errors import EnumerationCapError

    with pytest.raises(EnumerationCapError):
        enumerate_classes(40, 40)


@pytest.mark.parametrize("r, p", [(21, 0), (0, 21), (11, 10)])
def test_class_tables_cap_is_r_plus_p_20(r, p):
    from phm.errors import EnumerationCapError

    with pytest.raises(EnumerationCapError, match=r"refusing to list 2\*\*21 classes \(cap r \+ p <= 20\)"):
        enumerate_classes(r, p)


# ------------------------------------------------------------------- sqh


def test_sqh_positive_definite():
    inst = make_instance(4, 4, 0, seed=21)
    res = sqh_factorization(inst.sd)
    np.linalg.cholesky(res.M)  # raises if not positive definite
    assert res.inertia == (4, 0, 0)
    assert res.residual <= 1e-11


def test_sqh_refuses_pairs():
    inst = make_instance(4, 2, 1, seed=22)
    with pytest.raises(NotSqhError):
        sqh_factorization(inst.sd)
