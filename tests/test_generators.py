import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import make_instance, rp_splits
from phm.errors import EnumerationCapError, GenerationError, ParameterError
from phm.generators import (
    GENERATE_DIM_CAP,
    GeneratorConfig,
    generate_via_observable,
    generate_via_spectrum,
    random_hermitian,
    random_parameters,
)
from phm.matrices import SIGMA_Z, hermiticity_defect
from phm.metrics import intertwining_residual
from phm.spectral import decompose


def test_config_validation():
    with pytest.raises(ParameterError):
        GeneratorConfig(n=4, r=1, p=1, seed=0)  # r + 2p != n
    with pytest.raises(ParameterError):
        GeneratorConfig(n=2, r=2, p=0, seed=0, cond_max=0.5)
    with pytest.raises(ParameterError):
        GeneratorConfig(n=2, r=2, p=0, seed=0, min_gap_target=0.0)


def test_config_size_cap():
    # only the cap + 1 is tried: a draw above the cap is what the cap prevents
    n = GENERATE_DIM_CAP + 1
    with pytest.raises(EnumerationCapError, match=f"capped at n <= {GENERATE_DIM_CAP}"):
        GeneratorConfig(n=n, r=n, p=0, seed=0)


def test_generated_instance_has_requested_split():
    inst = make_instance(7, 3, 2, seed=100)
    assert (inst.sd.r, inst.sd.p) == (3, 2)
    sd = decompose(inst.H)
    assert (sd.r, sd.p) == (3, 2)
    assert inst.certificate_residual <= 1e-11


def test_generated_spectrum_respects_box_and_gap():
    cfg = GeneratorConfig(n=6, r=2, p=2, seed=7)
    inst = generate_via_spectrum(cfg)
    lam = inst.sd.lam
    (re_lo, re_hi), (im_lo, im_hi) = cfg.eigenvalue_box
    assert np.all(lam.real >= re_lo) and np.all(lam.real <= re_hi)
    assert np.all(np.abs(lam.imag) <= im_hi)
    scale = np.max(np.abs(lam))
    assert inst.sd.min_gap > cfg.min_gap_target * scale
    assert inst.sd.cond_S <= cfg.cond_max


def test_same_seed_same_instance():
    a = make_instance(5, 1, 2, seed=123)
    b = make_instance(5, 1, 2, seed=123)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.sd.S, b.sd.S)
    c = make_instance(5, 1, 2, seed=124)
    assert not np.array_equal(a.H, c.H)


def test_decomposition_consistency():
    inst = make_instance(6, 4, 1, seed=55)
    Sinv = np.linalg.inv(inst.sd.S)
    assert_allclose(Sinv @ np.diag(inst.sd.lam) @ inst.sd.S, inst.H, atol=1e-12)


def test_exhaustion_raises_naming_constraint():
    with pytest.raises(GenerationError, match="gap"):
        generate_via_spectrum(
            GeneratorConfig(n=4, r=4, p=0, seed=0, min_gap_target=10.0, max_attempts=5)
        )
    with pytest.raises(GenerationError, match="condition"):
        generate_via_spectrum(
            GeneratorConfig(n=4, r=4, p=0, seed=0, cond_max=1.0 + 1e-9, max_attempts=5)
        )


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_all_splits_generate(n, seed):
    for r, p in rp_splits(n):
        inst = make_instance(n, r, p, seed=seed % 10**4)
        assert inst.certificate_residual <= 1e-11


def test_observable_mode():
    Phi, A = generate_via_observable(SIGMA_Z, seed=5)
    assert hermiticity_defect(A) == 0.0
    assert intertwining_residual(Phi, SIGMA_Z, check_hermitian=True) <= 1e-15
    # the observable is recovered from the pair as Phi M^{-1}
    assert_allclose(Phi @ np.linalg.inv(SIGMA_Z), A, atol=1e-14)
    # determinism
    Phi2, A2 = generate_via_observable(SIGMA_Z, seed=5)
    assert np.array_equal(Phi, Phi2) and np.array_equal(A, A2)


def test_observable_rejects_singular_metric():
    with pytest.raises(ParameterError):
        generate_via_observable(np.diag([1.0, 0.0]), seed=1)


def test_observable_rejects_nonhermitian_metric():
    with pytest.raises(ParameterError):
        generate_via_observable(np.array([[0.0, 1.0], [0.0, 0.0]]), seed=1)


def test_random_hermitian_properties():
    A = random_hermitian(5, seed=3)
    assert hermiticity_defect(A) == 0.0
    assert np.array_equal(A, random_hermitian(5, seed=3))
    assert not np.array_equal(A, random_hermitian(5, seed=4))


def _loop_random_hermitian(n, seed):
    """Reference: one scalar draw per real and imaginary part, row by row."""
    rng = np.random.Generator(np.random.Philox(seed))
    A = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(A, rng.standard_normal(n))
    for k in range(n):
        for l in range(k + 1, n):
            z = complex(rng.standard_normal(), rng.standard_normal()) / np.sqrt(2.0)
            A[k, l] = z
            A[l, k] = np.conj(z)
    return A


@pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_random_hermitian_matches_loop_bit_for_bit(n, seed):
    got, want = random_hermitian(n, seed), _loop_random_hermitian(n, seed)
    assert got.tobytes() == want.tobytes()


@settings(deadline=None)
@given(r=st.integers(0, 5), p=st.integers(0, 5), seed=st.integers(0, 10**6))
def test_random_parameters_bounded_away_from_zero(r, p, seed):
    params = random_parameters(r, p, seed)
    assert (params.r, params.p) == (r, p)
    assert np.all(np.abs(params.mu) >= 0.25)
    assert np.all(np.abs(params.tau) >= 0.25)
