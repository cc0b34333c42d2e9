"""Metamorphic relations: a transformed question gets the transformed answer.

If M is compatible with H (H^dagger M = M H), exact relations follow that
need no reference output:

- conj(M) is compatible with conj(H);
- U^dagger M U is compatible with U^dagger H U for unitary U;
- c M is compatible with H for real c != 0, with the inertia swapped for c < 0;
- M^-1 is compatible with H^dagger.

Each relation maps a generated instance and its certificate (the metric
built from all-ones parameters, inertia (r + p, p, 0)) and checks the
mapped pair.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, write_matrix_json
from phm import intertwining_residual, solution_space
from phm.cli import main


def _unitary_similarity(H, M, seed):
    n = H.shape[0]
    rng = np.random.Generator(np.random.Philox(seed))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return U.conj().T @ H @ U, U.conj().T @ M @ U, 1


# name -> (H, M, seed) -> (mapped H, mapped M, sign of c in the inertia relation)
MAPS = {
    "conj": lambda H, M, seed: (H.conj(), M.conj(), 1),
    "unitary": _unitary_similarity,
    "scale 2**-600": lambda H, M, seed: (H, 2.0**-600 * M, 1),
    "scale 2**600": lambda H, M, seed: (H, 2.0**600 * M, 1),
    "negate": lambda H, M, seed: (H, -M, -1),
}

_SPLITS_UP_TO_32 = [(n, r, (n - r) // 2) for n in range(1, 33) for r in range(n, -1, -2)]
_SPLITS_UP_TO_12 = [split for split in _SPLITS_UP_TO_32 if split[0] <= 12]


def _verify(H, M):
    """Exit code, stdout document and stderr of ``phm verify`` on (H, M)."""
    with tempfile.TemporaryDirectory() as d:
        paths = [write_matrix_json(os.path.join(d, f"{name}.json"), A) for name, A in (("h", H), ("m", M))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", *paths])
    return code, json.loads(out.getvalue()), err.getvalue()


def _check_verify(inst, name, seed):
    H, M, sign = MAPS[name](inst.H, inst.certificate.M, seed)
    pos, neg, null = inst.certificate.inertia
    code, doc, err = _verify(H, M)
    assert code == 0, err
    assert doc["inertia"] == ([pos, neg, null] if sign > 0 else [neg, pos, null])


@pytest.mark.parametrize("name", sorted(MAPS))
@settings(deadline=None, max_examples=15)
@given(split=st.sampled_from(_SPLITS_UP_TO_32), seed=st.integers(0, 10**6))
def test_verify_accepts_the_mapped_pair(name, split, seed):
    _check_verify(make_instance(*split, seed=seed), name, seed)


def test_verify_accepts_the_mapped_pair_at_256():
    # the similarity is the map with rounding of its own; negation swaps a
    # (192, 64) inertia. Each n = 256 pair costs about 1 s of file I/O
    inst = make_instance(256, 128, 64, seed=7)
    for name in ("unitary", "negate"):
        _check_verify(inst, name, seed=7)


@settings(deadline=None, max_examples=30)
@given(split=st.sampled_from(_SPLITS_UP_TO_32), seed=st.integers(0, 10**6))
def test_inverse_metric_is_compatible_with_the_adjoint(split, seed):
    inst = make_instance(*split, seed=seed)
    M = inst.certificate.M
    residual = intertwining_residual(inst.H.conj().T, np.linalg.inv(M))
    # H M^-1 - M^-1 H^dagger = -M^-1 (H^dagger M - M H) M^-1, so M^-1's relative
    # residual is at most cond(M) times M's, and inverting M adds a relative error
    # of cond(M) times its backward error; both residuals are O(n eps) rounding
    n = split[0]
    assert residual <= n * np.linalg.cond(M) * np.finfo(float).eps


@pytest.mark.parametrize("name", ["conj", "unitary"])
@settings(deadline=None, max_examples=10)
@given(split=st.sampled_from(_SPLITS_UP_TO_12), seed=st.integers(0, 10**6))
def test_solution_space_dimension_is_invariant(name, split, seed):
    inst = make_instance(*split, seed=seed)
    H, _, _ = MAPS[name](inst.H, inst.certificate.M, seed)
    assert solution_space(H).dimension == split[0]
