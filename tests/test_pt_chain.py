"""A closed-form PT-symmetric fixture: the chain with end gain and loss.

H_N(gamma) has hopping 1 between neighbours on N sites, +i gamma on site 1
and -i gamma on site N (Joglekar, Scott, Babbey and Saxena, Phys. Rev. A
82, 030103(R), 2010). It is complex symmetric and P H P = conj H for the
reversal P, so H^dagger P = P H exactly and P is a known indefinite
metric. For even N the spectrum is real below the exceptional point
gamma = 1 and one conjugate pair above it. The points here stay half a
unit away from it: next to it, the refusal names the wrong cause.
"""

import numpy as np
import pytest

from conftest import cli_doc, write_matrix_json
from phm import decompose

CASES = [(N, gamma) for N in (4, 6, 10) for gamma in (0.5, 1.5)]


def _chain(N, gamma):
    H = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1) + 0j
    H[0, 0], H[-1, -1] = 1j * gamma, -1j * gamma
    return H


def _reversal(N):
    return np.eye(N)[::-1]


@pytest.mark.parametrize("N, gamma", CASES)
def test_split_on_each_side_of_the_exceptional_point(N, gamma):
    sd = decompose(_chain(N, gamma))
    assert (sd.r, sd.p) == ((N, 0) if gamma < 1 else (N - 2, 1))


@pytest.mark.parametrize("N, gamma", CASES)
def test_verify_accepts_the_reversal(tmp_path, N, gamma):
    path_h = write_matrix_json(tmp_path / "h.json", _chain(N, gamma))
    path_p = write_matrix_json(tmp_path / "p.json", _reversal(N))
    code, doc = cli_doc(["verify", path_h, path_p])
    assert code == 0, doc
    assert doc["inertia"] == [N // 2, N // 2, 0]
    # P permutes H's entries, which are 0, 1 and +-i gamma with gamma a
    # dyadic number: every entry of H^dagger P - P H is an exact 0
    assert doc["residual"] == 0.0
    assert doc["hermiticity_defect"] == 0.0


@pytest.mark.parametrize("N, gamma", CASES)
def test_oracle_recovers_the_family(tmp_path, N, gamma):
    code, doc = cli_doc(["oracle", write_matrix_json(tmp_path / "h.json", _chain(N, gamma))])
    assert code == 0, doc
    assert doc["kernel_dimension"] == N
    assert doc["params_recovered"] is True
    # below 1e-13 on these points; 1e-10 leaves three decades for rounding
    # and is still two decades inside MATCH_DEFECT_TOL (1e-8), the gate
    # behind exit 0
    assert max(doc["max_projection_defect"], doc["max_recovery_defect"]) <= 1e-10
