import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import DIAG12, ROT2, make_instance
from phm.errors import (
    ClassificationError,
    DegenerateSpectrumError,
    IllConditionedError,
    PhmError,
)
from phm.spectral import (
    _GAUGE_EPS,
    _TRUSTED_BOUND,
    RawEigenpairs,
    SpectralData,
    SpectrumClassification,
    Tolerances,
    _column_norms,
    _cond_bound,
    _fix_column_gauge,
    assert_nondegenerate,
    check_ph_admissible,
    classify_spectrum,
    decompose,
    eigendecompose,
)


def test_admissible_passes_conjugation_symmetric():
    # conjugation maps {i, -i} and {1, 2} onto themselves
    assert check_ph_admissible(ROT2) <= 1e-15
    assert check_ph_admissible(DIAG12) == 0.0


def test_admissible_rejects_complex_coefficients():
    # the value nearest conj(i) = -i is i itself, 2 away, and max|lam| is 2;
    # the figure is scale-free, also where the distances overflow
    for c in (1.0, 2.0**600, 2.0**-600):
        assert check_ph_admissible(c * np.diag([1.0j, 2.0])) == 1.0


def test_eigendecompose_residual_small():
    eig = eigendecompose(ROT2)
    H, V = eig.matrix, eig.right_vectors
    assert np.linalg.norm(H @ V - V * eig.values) / np.linalg.norm(H) <= 1e-14
    # the eigenvectors span: V's smallest singular value is far from zero
    assert np.linalg.svd(V, compute_uv=False)[-1] > 0.5


def test_shared_eigenpairs_give_identical_results():
    inst = make_instance(8, 2, 3, seed=5)
    eig = eigendecompose(inst.H)
    assert check_ph_admissible(inst.H, eigenpairs=eig) == check_ph_admissible(inst.H)
    a, b = decompose(inst.H, eigenpairs=eig), decompose(inst.H)
    assert a.lam.tobytes() == b.lam.tobytes()
    assert a.S.tobytes() == b.S.tobytes()


def test_classify_diag12():
    cls = classify_spectrum(np.array([2.0, 1.0], dtype=complex))
    assert cls.r == 2 and cls.p == 0
    # sorted ascending by real part
    assert cls.real_indices == (1, 0)


def test_classify_pairs_positive_imag_first():
    cls = classify_spectrum(np.array([1 - 2j, 3 + 1j, 1 + 2j, 3 - 1j]))
    assert cls.r == 0 and cls.p == 2
    assert cls.pair_indices == ((2, 0), (1, 3))


def test_classify_rejects_unpaired():
    with pytest.raises(ClassificationError):
        classify_spectrum(np.array([1.0j, 2.0]))
    with pytest.raises(ClassificationError):
        classify_spectrum(np.array([1.0 + 1.0j, 1.0 - 2.0j]))


@settings(deadline=None)
@given(
    r=st.integers(0, 4),
    p=st.integers(0, 3),
    seed=st.integers(0, 10**6),
)
def test_classify_recovers_split(r, p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    reals = rng.uniform(-1, 1, size=r)
    zs = rng.uniform(-1, 1, size=p) + 1j * rng.uniform(0.1, 1, size=p)
    values = np.concatenate([reals.astype(complex), zs, zs.conj()])
    rng.shuffle(values)
    cls = classify_spectrum(values)
    assert (cls.r, cls.p) == (r, p)
    for j_plus, j_minus in cls.pair_indices:
        assert values[j_plus].imag > 0 > values[j_minus].imag


def test_nondegenerate_returns_gap():
    assert assert_nondegenerate(np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert math.isinf(assert_nondegenerate(np.array([5.0])))
    with pytest.raises(DegenerateSpectrumError):
        assert_nondegenerate(np.array([1.0, 1.0 + 1e-12]))


def test_decompose_golden_rotation():
    sd = decompose(ROT2)
    assert (sd.r, sd.p) == (0, 1)
    assert sd.lam[0].imag > 0
    assert_allclose(sd.lam[0], sd.lam[1].conjugate(), atol=0)
    expected_S = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / math.sqrt(2.0)
    assert_allclose(sd.S, expected_S, atol=1e-12)
    assert sd.cond_S == pytest.approx(1.0)
    assert sd.min_gap == pytest.approx(2.0)


def test_decompose_golden_reversed_diagonal():
    # eigenvalues come out ascending, so S is the swap permutation
    sd = decompose(np.diag([2.0, 1.0]).astype(complex))
    assert_allclose(sd.lam, np.array([1.0, 2.0]), atol=0)
    assert_allclose(sd.S, np.array([[0, 1], [1, 0]]), atol=0)


def biorthogonality_check(sd):
    """Largest relative left-eigenvector residual of the rows of S.

    H = S^-1 diag(lam) S makes row k of S a left eigenvector for lam_k,
    S_k H = lam_k S_k, so this returns
    max_k ||S_k H - lam_k S_k|| / (||H||_F ||S_k||), 0 for H = 0.
    """
    R = sd.S @ sd.matrix - sd.lam[:, np.newaxis] * sd.S
    rel = np.linalg.norm(R, axis=1) / np.linalg.norm(sd.S, axis=1)
    h = np.linalg.norm(sd.matrix)
    return float(np.max(rel)) / h if h else 0.0


def test_decompose_reconstructs():
    inst = make_instance(6, 2, 2, seed=42)
    sd = decompose(inst.H)
    Sinv = np.linalg.inv(sd.S)
    assert_allclose(Sinv @ np.diag(sd.lam) @ sd.S, inst.H, atol=1e-10)
    assert_allclose(sd.lam, inst.sd.lam, atol=1e-10)
    assert biorthogonality_check(sd) <= 1e-10


def test_biorthogonality_check_detects_swapped_rows():
    sd = make_instance(6, 2, 2, seed=42).sd
    S = sd.S.copy()
    S[[1, 3]] = S[[3, 1]]  # row 1 is no longer a left eigenvector for lam_1
    assert biorthogonality_check(dataclasses.replace(sd, S=S)) > 1e-8


def test_decompose_is_deterministic():
    inst = make_instance(5, 3, 1, seed=9)
    a = decompose(inst.H)
    b = decompose(inst.H)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.lam, b.lam)


def test_decompose_rejects_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        decompose(np.eye(2))


def test_decompose_rejects_nonadmissible():
    with pytest.raises(ClassificationError):
        decompose(np.diag([1.0j, 2.0]))


def test_decompose_rejects_ill_conditioned():
    # a Jordan-like block has an eigenvector matrix with huge condition number
    H = np.array([[1.0, 1e9], [0.0, 1.0 + 1e-2]])
    with pytest.raises(IllConditionedError):
        decompose(H, tol=Tolerances(cond_cap=1e6))


def test_symmetrization_shift_reported():
    inst = make_instance(4, 0, 2, seed=3)
    sd = decompose(inst.H)
    assert 0.0 <= sd.sym_shift <= 1e-10
    # pairs are exact conjugates after symmetrization
    for s in range(sd.p):
        a = sd.lam[sd.r + 2 * s]
        b = sd.lam[sd.r + 2 * s + 1]
        assert a.conjugate() == b


def test_tolerance_widening_classifies_noisy_reals():
    values = np.array([1.0 + 1e-5j, 2.0 - 1e-5j])
    with pytest.raises(ClassificationError):
        classify_spectrum(values, eps_real=1e-8, eps_pair=1e-8)
    cls = classify_spectrum(values, eps_real=1e-4, eps_pair=1e-4)
    assert cls.r == 2


# Reference implementations: the per-column gauge and the numpy-scalar
# classification and symmetrization that the whole-array code replaced.
# decompose must give their bits exactly, errors included.


def _ref_fix_column_gauge(v):
    v = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > _GAUGE_EPS)
    k = int(nz[0]) if nz.size else 0
    phase = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
    v = v / phase
    return v / np.linalg.norm(v)


def _ref_classify(values, eps_real=1e-8, eps_pair=1e-8):
    values = np.asarray(values, dtype=np.complex128)
    s = float(np.max(np.abs(values))) if values.size else 0.0
    scale = s if s > 0.0 else 1.0

    # real: within eps_real of the axis, and no other value nearer its conjugate
    real_idx = [
        k for k in range(values.size)
        if abs(values[k].imag) <= eps_real * scale
        and not any(abs(values[j] - values[k].conjugate()) < abs(values[k] - values[k].conjugate())
                    for j in range(values.size) if j != k)
    ]
    real_set = set(real_idx)
    pos = [k for k in range(values.size) if k not in real_set and values[k].imag > 0]
    neg = [k for k in range(values.size) if k not in real_set and values[k].imag < 0]

    if len(pos) != len(neg):
        raise ClassificationError(
            f"odd split of non-real eigenvalues ({len(pos)} with Im>0, "
            f"{len(neg)} with Im<0); spectrum is not conjugation-symmetric "
            f"at eps_real={eps_real:.1e}"
        )

    pairs = []
    unmatched = list(neg)
    for j in pos:
        target = values[j].conjugate()
        dists = [abs(values[k] - target) for k in unmatched]
        best = int(np.argmin(dists))
        if dists[best] > eps_pair * scale:
            raise ClassificationError(
                f"eigenvalue {values[j]} has no conjugate partner within "
                f"{eps_pair:.1e} * {scale:.3e} (closest miss {dists[best]:.3e})"
            )
        pairs.append((j, unmatched[best]))
        del unmatched[best]

    real_idx.sort(key=lambda k: values[k].real)

    def pair_key(jk):
        z = (values[jk[0]] + values[jk[1]].conjugate()) / 2.0
        return (z.real, z.imag)

    pairs.sort(key=pair_key)
    return SpectrumClassification(tuple(real_idx), tuple(pairs))


def _ref_build(classification, eigenpairs, tol=Tolerances()):
    values = eigenpairs.values
    n = values.size
    if classification.r + 2 * classification.p != n:
        raise ClassificationError(
            f"classification covers {classification.r + 2 * classification.p} "
            f"indices but the spectrum has {n}"
        )
    perm = []
    lam = np.empty(n, dtype=np.complex128)
    shift = 0.0
    pos = 0
    for k in classification.real_indices:
        lam[pos] = values[k].real
        shift = max(shift, abs(values[k].imag))
        perm.append(k)
        pos += 1
    for j_plus, j_minus in classification.pair_indices:
        z = (values[j_plus] + values[j_minus].conjugate()) / 2.0
        shift = max(shift, abs(values[j_plus] - z), abs(values[j_minus] - z.conjugate()))
        lam[pos] = z
        lam[pos + 1] = z.conjugate()
        perm.extend((j_plus, j_minus))
        pos += 2
    min_gap = assert_nondegenerate(lam, gap_tol=tol.gap_tol)

    V = eigenpairs.right_vectors[:, perm].copy()
    for c in range(n):
        V[:, c] = _ref_fix_column_gauge(V[:, c])

    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > tol.cond_cap:
        raise IllConditionedError(
            f"diagonalizer condition number {cond:.3e} exceeds cap {tol.cond_cap:.1e}"
        )
    try:
        S = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"eigenvector matrix is singular: {exc}") from exc
    return SpectralData(eigenpairs.matrix, lam, S, classification.r, classification.p,
                        min_gap, cond, shift)


def _ref_decompose(H, tol=Tolerances(), eigenpairs=None):
    eig = eigendecompose(H) if eigenpairs is None else eigenpairs
    cls = _ref_classify(eig.values, eps_real=tol.eps_real, eps_pair=tol.eps_pair)
    return _ref_build(cls, eig, tol)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _outcome(fn, *args, **kwargs):
    """The bits of every result field, or the error's type and message."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args, **kwargs)
        except (PhmError, np.linalg.LinAlgError) as exc:
            return type(exc), str(exc)
    if isinstance(out, SpectrumClassification):
        return out
    return (out.matrix.tobytes(), out.lam.tobytes(), out.S.tobytes(), out.S.strides,
            out.r, out.p, _bits(out.min_gap), _bits(out.cond_S), _bits(out.sym_shift))


def _assert_matches_reference(eig: RawEigenpairs, tol: Tolerances = Tolerances()):
    expected = _outcome(_ref_classify, eig.values, tol.eps_real, tol.eps_pair)
    assert _outcome(classify_spectrum, eig.values, tol.eps_real, tol.eps_pair) == expected
    expected = _outcome(_ref_decompose, eig.matrix, tol, eig)
    assert _outcome(decompose, eig.matrix, tol, eig) == expected


def _crafted(values, vectors=None, matrix=None) -> RawEigenpairs:
    values = np.asarray(values, dtype=np.complex128)
    n = values.size
    if vectors is None:
        vectors = np.eye(n) + 0.25 * np.arange(n * n).reshape(n, n) / n**2
    vectors = np.asarray(vectors, dtype=np.complex128)
    if matrix is None:
        matrix = vectors @ np.diag(values) @ np.linalg.inv(vectors)
    return RawEigenpairs(values=values, right_vectors=vectors, matrix=matrix)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 64, 128])
def test_decompose_matches_reference_on_generated(n):
    for p in sorted({0, n // 4, n // 2}):
        inst = make_instance(n, n - 2 * p, p, seed=700 + n + p)
        assert _outcome(decompose, inst.H) == _outcome(_ref_decompose, inst.H)
        _assert_matches_reference(eigendecompose(inst.H))


# Columns whose leading entries lie below _GAUGE_EPS. The first two entries
# are above the threshold by array np.abs but not by np.hypot (the scalar
# modulus) with numpy 2.4 on x86-64; the threshold test keeps np.abs.
_SMALL_LEADS = [
    complex(-7.838140031521431e-13, -6.209956589724378e-13),
    complex(9.17935253630303e-13, -3.967302233794036e-13),
    1e-13,
    -5e-13j,
    complex(0.0, -0.0),
    complex(-0.0, 0.0),
    _GAUGE_EPS,
]

_EXACT_EDGE = 2.0**-19  # eps_real * scale below, held exactly


@pytest.mark.parametrize(
    "values, tol",
    [
        # distance ties: 1.5-1j and 0.5-1j both lie 0.5 from conj(1+1j)
        ([1 + 1j, 2 + 1j, 1.5 - 1j, 0.5 - 1j], Tolerances(eps_pair=1.0)),
        ([2 + 1j, 1 + 1j, 0.5 - 1j, 1.5 - 1j], Tolerances(eps_pair=1.0)),
        # signed zeros in the imaginary and real parts
        ([complex(1, -0.0), complex(2, 0.0), complex(-0.0, 1), complex(-0.0, -1)], Tolerances()),
        ([complex(-0.0, 3), complex(0.0, -3), complex(-0.0, -0.0)], Tolerances()),
        ([complex(0.0, 2), complex(-0.0, -2), complex(-0.0, 1), complex(-0.0, -1)], Tolerances()),
        # |Im| exactly at eps_real * scale counts as real; one unit above does not
        ([2.0, complex(1, _EXACT_EDGE), complex(0.5, -_EXACT_EDGE)], Tolerances(eps_real=2.0**-20)),
        (
            [2.0, complex(1, np.nextafter(_EXACT_EDGE, 1)), complex(0.5, -_EXACT_EDGE)],
            Tolerances(eps_real=2.0**-20),
        ),
        (
            [2.0, complex(1, np.nextafter(_EXACT_EDGE, 1)), complex(1, -np.nextafter(_EXACT_EDGE, 1))],
            Tolerances(eps_real=2.0**-20, eps_pair=2.0**-20),
        ),
        # an unpaired value and a miss outside eps_pair
        ([1 + 1j, 1 - 1j, 3 + 1j], Tolerances()),
        ([1 + 1j, 1 - 1.5j], Tolerances()),
        # degenerate values
        ([1.0, 1.0, 2.0], Tolerances()),
        # a NaN distance is the smallest, as for np.argmin
        ([1 + 1j, 2 + 1j, 1 - 1j, complex(np.nan, -1)], Tolerances(eps_pair=1.0)),
        # a distance whose modulus overflows, though both parts are finite
        ([complex(-0.85e308, 0.75e308), complex(0.85e308, -0.05e308)], Tolerances()),
        # |Im| inside eps_real * scale: a pair when each value is nearest the
        # other's conjugate, real at a tie with |z - conj z|, not one unit closer
        ([2.0, complex(1, 2.0**-26), complex(1, -(2.0**-26))], Tolerances()),
        ([2.0, complex(1, 2.0**-26), complex(1 + 2.0**-25, -(2.0**-26))], Tolerances()),
        ([2.0, complex(1, 2.0**-26), complex(1 + 2.0**-25 - 2.0**-52, -(2.0**-26))], Tolerances()),
    ],
)
def test_decompose_matches_reference_on_crafted_spectra(values, tol):
    _assert_matches_reference(_crafted(values), tol)


def _conditioned(c: float) -> RawEigenpairs:
    """The eigenpairs of S^-1 diag(-0.7, 0.1, 0.5, 0.9, 0.3 +- 0.4i) S with
    S = U diag(geomspace(1, 1/c, 6)) W, U and W unitary: cond_S grows with c."""
    rng = np.random.default_rng(3)
    U, W = (np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0] for _ in range(2))
    S = U @ np.diag(np.geomspace(1, 1 / c, 6)) @ W
    return _crafted([-0.7, 0.1, 0.5, 0.9, 0.3 + 0.4j, 0.3 - 0.4j], np.linalg.inv(S))


def _near_singular(delta: float, n: int) -> RawEigenpairs:
    """Eigenvectors whose last column is the first plus delta times noise."""
    rng = np.random.default_rng(n)
    vectors = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    vectors[:, -1] = vectors[:, 0] + delta * rng.standard_normal(n)
    return _crafted(np.arange(1.0, n + 1), vectors)


_COND_CASES = [_conditioned(c) for c in (1e4, 3.3e4, 1e5, 1e6, 1e7)] + [
    _near_singular(delta, n) for delta in (1e-4, 1e-8, 1e-12, 1e-16, 0.0) for n in (2, 6)
]


@pytest.mark.parametrize("eig", _COND_CASES)
def test_condition_cap_matches_reference_on_every_side_of_the_bound(eig):
    # caps from below the exact condition number to beyond the norm bound;
    # the cap's refusal and the singular refusal keep their precedence and text
    V = eig.right_vectors.copy()
    _fix_column_gauge(V)
    kappa = float(np.linalg.cond(V))
    caps = [1e8, math.inf]
    if math.isfinite(kappa):
        caps += [kappa * f for f in (0.5, 1.5, 3.0, 10.0, 30.0, 100.0, 1e4)]
        caps += [kappa, math.nextafter(kappa, 0.0)]
    for cap in caps:
        _assert_matches_reference(eig, Tolerances(cond_cap=cap))


@pytest.mark.parametrize("eig", _COND_CASES)
def test_cond_bound_never_undercuts_the_condition_number(eig):
    V = eig.right_vectors.copy()
    _fix_column_gauge(V)
    try:
        S = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return
    # wherever the bound can skip the SVD, the SVD would have accepted at any
    # cap the bound is under by half
    bound, kappa = _cond_bound(V, S), float(np.linalg.cond(V))
    assert bound >= _TRUSTED_BOUND or kappa <= 2 * bound


def test_decompose_runs_no_svd_until_cond_s_is_read(monkeypatch):
    H = make_instance(32, 16, 8, seed=5).H
    calls, cond = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda A: calls.append(A) or cond(A))
    sd = decompose(H)
    assert calls == []
    assert _bits(sd.cond_S) == _bits(cond(sd.V))
    assert _bits(sd.cond_S) == _bits(sd.cond_S) and len(calls) == 1


def test_decompose_keeps_the_unit_scale_error_class():
    # at unit scale the lone complex value is an odd split; at the input's
    # scale np.abs overflows, every value reads as real and the gap check
    # would report a degeneracy of inf instead
    eig = _crafted([1.3e308 + 1.3e308j, 1.0])
    with np.errstate(all="ignore"), pytest.raises(ClassificationError, match="odd split"):
        decompose(eig.matrix, eigenpairs=eig)


@pytest.mark.parametrize("values", [[-1e308, 1e308], [1e308 + 1e308j, 1e308 - 1e308j]])
def test_decompose_overflowing_gap_is_inf(values):
    eig = _crafted(values, vectors=np.eye(2), matrix=np.diag(values))
    with np.errstate(all="raise"):
        sd = decompose(eig.matrix, eigenpairs=eig)
    assert sd.min_gap == math.inf
    assert sd.sym_shift == 0.0
    assert sorted(sd.lam.tolist(), key=lambda z: z.imag) == sorted(values, key=lambda z: complex(z).imag)


@pytest.mark.parametrize("lead", _SMALL_LEADS)
def test_gauge_matches_reference_below_gauge_eps(lead):
    # column 0 is (lead, 1, 0, ...): unit norm exactly, so lead survives the
    # first normalization unchanged and decides which entry is made real
    n = 4
    vectors = np.eye(n, dtype=np.complex128) + 0.3j * np.eye(n, k=1)
    vectors[:, 0] = 0.0
    vectors[0, 0], vectors[1, 0] = lead, 1.0
    vectors[:, 2] = [lead, lead, 0.6, 0.8j]
    eig = _crafted([1.0, 2.0, 1 + 1j, 1 - 1j], vectors)
    _assert_matches_reference(eig)
    sd = decompose(eig.matrix, eigenpairs=eig)
    assert sd.r == 2 and sd.p == 1


def test_gauge_matches_reference_on_a_zero_column():
    vectors = np.eye(3, dtype=np.complex128)
    vectors[:, 1] = 0.0
    _assert_matches_reference(_crafted([1.0, 2.0, 3.0], vectors, matrix=np.eye(3)))


@settings(deadline=None, max_examples=150)
@given(
    r=st.integers(0, 6),
    p=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-14, 1e-10, 1e-7, 1e-4]),
    eps=st.sampled_from([1e-8, 1e-5, 1e-2]),
)
def test_decompose_matches_reference_on_perturbed_spectra(r, p, seed, noise, eps):
    n = r + 2 * p
    assume(n > 0)
    rng = np.random.Generator(np.random.Philox(seed))
    zs = rng.uniform(-1, 1, p) + 1j * rng.uniform(0, 1, p)
    values = np.concatenate([rng.uniform(-1, 1, r).astype(complex), zs, zs.conj()])
    values += noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    vectors = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eig = _crafted(values[rng.permutation(n)], vectors, matrix=np.zeros((n, n)))
    _assert_matches_reference(eig, Tolerances(eps_real=eps, eps_pair=eps))


def test_hypot_is_the_modulus_of_a_complex_scalar():
    """The gauge takes moduli by np.hypot over arrays, the classification by
    abs of Python complex; both must be abs of a numpy complex scalar, the
    modulus the per-element code took, on every magnitude."""
    rng = np.random.default_rng(13)
    z = 10.0 ** rng.uniform(-310, 308, 20000) * np.exp(2j * np.pi * rng.uniform(size=20000))
    expected = np.array([abs(x) for x in z])
    assert np.hypot(z.real, z.imag).tobytes() == expected.tobytes()
    assert np.array([abs(x) for x in z.tolist()]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 200])
def test_batched_column_norms_match_linalg_norm(n):
    rng = np.random.default_rng(n)
    V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V *= 10.0 ** rng.uniform(-150, 150, n)
    perm = rng.permutation(n).tolist()
    for W in (V, np.asfortranarray(V), V[:, perm], eigendecompose(V).right_vectors[:, perm]):
        expected = np.array([np.linalg.norm(W[:, c]) for c in range(n)])
        assert _column_norms(W).tobytes() == expected.tobytes()
