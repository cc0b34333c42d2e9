"""Metamorphic relations: a transformed question gets the transformed answer.

If M is compatible with H (H^dagger M = M H), exact relations follow that
need no reference output:

- conj(M) is compatible with conj(H);
- U^dagger M U is compatible with U^dagger H U for unitary U;
- c M is compatible with H for real c != 0, with the inertia swapped for c < 0;
- M^-1 is compatible with H^dagger.

Each relation maps a generated instance and its certificate (the metric
built from all-ones parameters, inertia (r + p, p, 0)) and checks the
mapped pair. The family is linear in its parameters, so metric with
c (mu, tau) prints c M, with the same inertia for c > 0 and the inertia
swapped for c < 0, at any magnitude of c short of overflow and underflow.

Maps of H alone, c H + d I, H^-1, conj H, U^dagger H U and H^dagger, keep
the shape of the spectrum: r real values and p conjugate pairs. So analyze's
(r, p), inertia floor and class count, and enumerate's bytes, do not change
under them. For c > 0 the map c H + d I also keeps H's eigenvectors and the
order of its eigenvalues, so metric and canonical build the same M from the
same parameters, up to rounding.

The commands share one verdict on a metric: when analyze accepts H, metric
and canonical either refuse (exit 5) or print an M that verify accepts,
with the inertia they printed.
"""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, write_matrix_json
from phm import (
    DegenerateSpectrumError,
    GeneratorConfig,
    MetricParameters,
    decompose,
    generate_via_spectrum,
    intertwining_residual,
    solution_space,
)
from phm.cli import main
from phm.metrics import build_m
from phm.spectral import DEFAULT_TOL


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


def _run(*argv):
    """Exit code, stdout and stderr of one in-process ``phm`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _verify(H, M):
    """Exit code, stdout document and stderr of ``phm verify`` on (H, M)."""
    with tempfile.TemporaryDirectory() as d:
        paths = [write_matrix_json(os.path.join(d, f"{name}.json"), A) for name, A in (("h", H), ("m", M))]
        code, out, err = _run("verify", *paths)
    return code, json.loads(out), err


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


# name -> (H -> mapped H, whether the map is c H + d I with c > 0)
SPECTRUM_MAPS = {
    "2**-500 H": (lambda H: 2.0**-500 * H, True),
    "2**40 H": (lambda H: 2.0**40 * H, True),
    "2**500 H": (lambda H: 2.0**500 * H, True),
    "H + 1e3 max|H| I": (lambda H: H + 1e3 * np.abs(H).max() * np.eye(H.shape[0]), True),
    "H^-1": (np.linalg.inv, False),
    "-H": (np.negative, False),
    "conj H": (np.conj, False),
    "U^dagger H U": (lambda H: _unitary_similarity(H, H, 0)[0], False),
    "H^dagger": (lambda H: H.conj().T, False),
}


def _metric_args(r, p):
    """metric and canonical arguments with mixed signs, magnitudes, bits and phases."""
    mu = ",".join(f"{(-1) ** i * (1 + i / 4):g}" for i in range(r))
    tau = ",".join(f"{1 + i / 8:g}{-0.5 + i / 4:+g}i" for i in range(p))
    signs = ",".join("-" if i % 3 == 1 else "+" for i in range(r))
    bits = ",".join(str(i % 2) for i in range(p))
    theta = ",".join(f"{0.3 + i:g}" for i in range(p))
    return ["--mu", mu, "--tau", tau], ["--signs", signs, "--n", bits, "--theta", theta]


def _M(out):
    """The matrix M of a metric or canonical stdout document."""
    return np.array([[complex(*z) for z in row] for row in json.loads(out)["M"]["entries"]])


def _check_spectrum_map(H, name):
    """Check analyze, enumerate, metric and canonical on H against the mapped H."""
    mapped, keeps_eigenvectors = SPECTRUM_MAPS[name]
    pair = (H, mapped(H))
    with tempfile.TemporaryDirectory() as d:
        paths = [write_matrix_json(os.path.join(d, f"{k}.json"), A) for k, A in enumerate(pair)]
        docs = []
        for path in paths:
            code, out, err = _run("analyze", path)
            assert code == 0, err
            docs.append(json.loads(out))
        shape = [(doc["r"], doc["p"], doc["inertia_floor"], doc["class_count"]) for doc in docs]
        assert shape[1] == shape[0]
        assert _run("enumerate", paths[1])[:2] == _run("enumerate", paths[0])[:2]
        if not keeps_eigenvectors:
            return
        # Both sides build the same M in exact arithmetic and differ by eig's
        # rounding only. eig is backward stable: it solves A + E with
        # |E| <= c n eps |A|, c a small constant, here 10. That moves a unit
        # eigenvector by about cond_S |E| / min_gap, and S, the inverse of their
        # matrix, by cond_S times as much, so M moves by about
        # cond_S^2 c n eps |A| / min_gap per side. The shift keeps the gaps and
        # grows |A| a thousandfold, so its side sets the tolerance.
        n = H.shape[0]
        cond = max(doc["cond_S"] for doc in docs)
        spread = sum(np.linalg.norm(A) / doc["min_gap"] for A, doc in zip(pair, docs) if doc["min_gap"])
        tol = 10 * n * np.finfo(float).eps * cond**2 * spread
        for command, args in zip(("metric", "canonical"), _metric_args(docs[0]["r"], docs[0]["p"])):
            (code0, out0, err0), (code1, out1, err1) = (_run(command, path, *args) for path in paths)
            assert code0 == code1 == 0, err0 + err1
            M0, M1 = _M(out0), _M(out1)
            assert np.linalg.norm(M1 - M0) <= tol * np.linalg.norm(M0)


@pytest.mark.parametrize("name", sorted(SPECTRUM_MAPS))
@settings(deadline=None, max_examples=10)
@given(split=st.sampled_from(_SPLITS_UP_TO_32), seed=st.integers(0, 10**6))
def test_spectrum_map_keeps_the_answers(name, split, seed):
    _check_spectrum_map(make_instance(*split, seed=seed).H, name)


@pytest.mark.parametrize(
    "config, name",
    [
        # refused by the characteristic-polynomial gate phm once had: a relative
        # imaginary coefficient of 4.7e-2 and 1.1e-6, from rounding alone
        (GeneratorConfig(n=128, r=0, p=64, seed=2000, min_gap_target=1e-4), "H + 1e3 max|H| I"),
        (GeneratorConfig(n=256, r=128, p=64, seed=1), "2**500 H"),
    ],
)
def test_spectrum_map_keeps_the_answers_on_large_instances(config, name):
    _check_spectrum_map(generate_via_spectrum(config).H, name)


def _literal(z: complex) -> str:
    """The a+bi text of z; repr gives back every float exactly."""
    im = repr(z.imag)
    return f"{z.real!r}{im if im.startswith('-') else '+' + im}i"


def _metric_literals(mu, tau) -> list[str]:
    return ["--mu=" + ",".join(map(repr, mu)), "--tau=" + ",".join(map(_literal, tau))]


# CI's smoke instance and a large one with pairs only
SCALED_INSTANCES = [
    GeneratorConfig(n=6, r=2, p=2, seed=1),
    GeneratorConfig(n=128, r=0, p=64, seed=2000, min_gap_target=1e-4),
]


@pytest.mark.parametrize("config", SCALED_INSTANCES, ids=lambda c: f"n={c.n}")
def test_scaled_parameters_scale_the_metric(config):
    H = generate_via_spectrum(config).H
    n, r, p = config.n, config.r, config.p
    mu = [1 + i / 4 for i in range(r)]  # all positive, so negation moves the inertia
    tau = [complex(1 + i / 8, -0.5 + i / 4) for i in range(p)]
    # Each side computes S^dagger m S within about (n + 4) eps |S^dagger| |m| |S|
    # entrywise, the bound of a product of matrices in complex arithmetic (Higham,
    # Accuracy and Stability of Numerical Algorithms, 3.5). Rounding c (mu, tau)
    # and c M adds eps each, so the two sides differ by at most twice that.
    S = np.abs(decompose(H).S)
    tol = 2 * (n + 4) * np.finfo(float).eps * (S.T @ np.abs(build_m(MetricParameters(mu, tau))) @ S)
    with tempfile.TemporaryDirectory() as d:
        path = write_matrix_json(os.path.join(d, "h.json"), H)

        def metric(c):
            code, out, err = _run("metric", path, *_metric_literals([c * x for x in mu], [c * z for z in tau]))
            assert code == 0, f"c = {c:g}: {err}"
            return _M(out), json.loads(out)

        M, doc = metric(1.0)
        pos, neg, null = doc["inertia"]
        for c in (2.0**-40, 1e-7, 2.0**40, -1.0, -1e-7):
            Mc, doc_c = metric(c)
            assert doc_c["inertia"] == ([pos, neg, null] if c > 0 else [neg, pos, null]), c
            if math.frexp(c)[0] in (0.5, -0.5):  # c = +-2**k scales every float exactly
                assert np.array_equal(Mc, c * M), c
                assert doc_c["residual"] == doc["residual"], c
            else:
                assert np.all(np.abs(Mc - c * M) <= abs(c) * tol), c


# Windows of pair |Im| around the default tolerances, 1e-8 of a scale near 1:
# each pair lies inside eps_real, and its gap 2 |Im| falls on both sides of gap_tol.
BOUNDARY_WINDOWS = [(2e-9, 5e-9), (5e-9, 1e-8), (1e-8, 1e-7)]


def _split_or_gap(H):
    """decompose's (r, p), or "gap" for a refusal that quotes a gap inside its tolerance."""
    try:
        sd = decompose(H)
    except DegenerateSpectrumError as exc:
        gap = float(re.search(r"separated by (\S+) <=", str(exc)).group(1))
        # the message rounds the gap to 4 digits
        assert gap <= DEFAULT_TOL * np.abs(np.linalg.eigvals(H)).max() * (1 + 5e-4), str(exc)
        return "gap"
    return sd.r, sd.p


@pytest.mark.parametrize("window", BOUNDARY_WINDOWS, ids=lambda w: f"{w[0]:g}..{w[1]:g}")
@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6))
def test_near_real_pairs_keep_their_split(window, seed):
    config = GeneratorConfig(
        n=8, r=4, p=2, seed=seed, eigenvalue_box=((-1.0, 1.0), window), min_gap_target=1e-9
    )
    H = generate_via_spectrum(config).H
    split = _split_or_gap(H)
    assert split in ((4, 2), "gap")
    for name in ("2**40 H", "-H", "U^dagger H U", "conj H", "H^dagger"):
        assert _split_or_gap(SPECTRUM_MAPS[name][0](H)) == split, name
    # the shift triples the scale and with it the gap tolerance
    assert _split_or_gap(H + 3.0 * np.eye(8)) in (split, "gap")


def test_near_real_pairs_in_analyze():
    # pairs 1.4e-8 and 1.2e-8 apart, inside eps_real but farther apart than
    # gap_tol: each is a pair, not two equal reals
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    six = Q.conj().T @ np.diag([-0.7, 0.1, 0.5, 0.9, 0.3 + 7e-9j, 0.3 - 7e-9j]) @ Q
    two = np.array([[1.0, 6e-9], [-6e-9, 1.0]])
    with tempfile.TemporaryDirectory() as d:
        paths = [write_matrix_json(os.path.join(d, f"{k}.json"), H) for k, H in enumerate((six, two))]
        for path, split in zip(paths, ((4, 1), (0, 1))):
            code, out, err = _run("analyze", path)
            assert code == 0, err
            doc = json.loads(out)
            assert (doc["r"], doc["p"]) == split
            assert doc["min_gap"] > DEFAULT_TOL * max(abs(complex(*z)) for z in doc["eigenvalues"])
        # positive weights on the reals; the pair makes M indefinite
        code, out, err = _run("metric", paths[0], "--mu=1,1,1,1", "--tau=1+0i")
        assert code == 0, err
        assert json.loads(out)["inertia"] == [5, 1, 0]


def _spread_arguments(r, p, seed):
    """metric calls with magnitudes over 1e-6 ... 1e4, evenly and at random,
    with mixed signs and phases, and a canonical call."""
    rng = np.random.default_rng(seed)
    k = r + p
    calls = []
    for mags in (np.geomspace(1e-6, 1e4, k), 10.0 ** rng.uniform(-6, 4, k), 10.0 ** rng.uniform(-6, 4, k)):
        mu = mags[:r] * rng.choice((-1.0, 1.0), r)
        tau = mags[r:] * np.exp(2j * np.pi * rng.uniform(size=p))
        calls.append(["metric", *_metric_literals(mu.tolist(), tau.tolist())])
    signs, bits = ",".join(rng.choice(("+", "-"), r)), ",".join(rng.choice(("0", "1"), p))
    theta = ",".join(map(repr, rng.uniform(0.0, 2 * np.pi, p).tolist()))
    calls.append(["canonical", f"--signs={signs}", f"--n={bits}", f"--theta={theta}"])
    return calls


def _check_one_verdict(H, seed):
    """Exit codes of metric and canonical on H, each 0 or 5, with every printed
    M accepted by verify at the printed inertia; none if analyze refuses H."""
    codes = []
    with tempfile.TemporaryDirectory() as d:
        path, metric = write_matrix_json(os.path.join(d, "h.json"), H), os.path.join(d, "m.json")
        code, out, _ = _run("analyze", path)
        if code:
            return codes
        doc = json.loads(out)
        for command, *args in _spread_arguments(doc["r"], doc["p"], seed):
            code, out, err = _run(command, path, *args)
            assert code in (0, 5), err
            codes.append(code)
            if code == 0:
                printed = json.loads(out)
                with open(metric, "w", encoding="utf-8") as fh:
                    json.dump(printed["M"], fh)
                code, out, err = _run("verify", path, metric)
                assert code == 0, err
                assert json.loads(out)["inertia"] == printed["inertia"]
    return codes


def test_one_verdict_on_every_small_split():
    codes = []
    for n, r, p in _SPLITS_UP_TO_12:
        if n <= 10:
            codes += _check_one_verdict(make_instance(n, r, p, seed=1).H, seed=n)
    assert set(codes) == {0, 5}  # both verdicts are reached


def test_one_verdict_on_a_large_instance():
    config = GeneratorConfig(n=128, r=0, p=64, seed=2000, min_gap_target=1e-4)
    assert _check_one_verdict(generate_via_spectrum(config).H, seed=128)


@pytest.mark.parametrize("window", BOUNDARY_WINDOWS, ids=lambda w: f"{w[0]:g}..{w[1]:g}")
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10**6))
def test_one_verdict_on_near_real_pairs(window, seed):
    config = GeneratorConfig(
        n=8, r=4, p=2, seed=seed, eigenvalue_box=((-1.0, 1.0), window), min_gap_target=1e-9
    )
    _check_one_verdict(generate_via_spectrum(config).H, seed)


def test_metric_refuses_what_verify_calls_singular():
    # M's smallest |eigenvalue| is 2.3e-12 of its largest, under verify's null
    # cut: verify reads inertia [3, 2, 1] where the parameter signs give [4, 2, 0]
    with tempfile.TemporaryDirectory() as d:
        path = write_matrix_json(os.path.join(d, "h.json"), generate_via_spectrum(SCALED_INSTANCES[0]).H)
        code, out, _ = _run("metric", path, "--mu=1e-6,1e4", "--tau=1+0i,1+0i")
    assert code == 5
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterError"
    ratio = re.search(r"smallest / largest \|eigenvalue\| = (\S+) <= null cut 1e-10$", error["message"])
    assert ratio and float(ratio.group(1)) <= 1e-10
