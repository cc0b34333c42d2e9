"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
test also asserts, so a plain ``pytest`` run enforces every gate.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import phm
from conftest import ROT2, instance_pool, rp_splits
from phm import (
    CanonicalClass,
    MetricParameters,
    build_M,
    canonical_metric,
    decompose,
    enumerate_classes,
    family_vs_kernel,
    gauge_absorb,
    hermitian_coords,
    inertia_of_matrix,
    inertia_of_params,
    is_global_representative,
    negate_class,
    pair_block,
    random_parameters,
    solution_space,
    sqh_factorization,
)
from phm.errors import NotSqhError
from phm.matrices import SIGMA_X, SIGMA_Z
from phm.metrics import block_rotation

POOL_SIZE = 500
DRAWS_PER_INSTANCE = 5


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pool():
    t0 = time.monotonic()
    instances = instance_pool(POOL_SIZE)
    return instances, time.monotonic() - t0


@pytest.fixture(scope="module")
def draws(pool):
    instances, _ = pool
    out = []
    for k, inst in enumerate(instances):
        for d in range(DRAWS_PER_INSTANCE):
            out.append(
                (inst, random_parameters(inst.sd.r, inst.sd.p, seed=2_000_000 + 5 * k + d))
            )
    return out


def test_criterion_1_intertwining_residual(pool, draws):
    instances, build_time = pool
    assert len(instances) == POOL_SIZE
    assert all(inst.sd.cond_S <= 1e6 for inst in instances)
    covered = {(inst.sd.n, inst.sd.r, inst.sd.p) for inst in instances}
    assert covered == {(n, r, p) for n in range(2, 11) for r, p in rp_splits(n)}

    t0 = time.monotonic()
    worst = 0.0
    for inst, params in draws:
        worst = max(worst, build_M(inst.sd, params).residual)
    elapsed = build_time + (time.monotonic() - t0)
    _report(
        1,
        worst <= 1e-9 and elapsed <= 30.0,
        f"max residual {worst:.3e} (gate 1e-9) over {len(draws)} draws "
        f"on {POOL_SIZE} instances in {elapsed:.1f}s (gate 30s)",
    )


def test_criterion_2_oracle_dimension(pool):
    instances, _ = pool
    t0 = time.monotonic()
    dims_ok = True
    min_gap_ratio = math.inf
    worst_defect = 0.0
    for k, inst in enumerate(instances):
        report = solution_space(inst.H)
        dims_ok = dims_ok and report.dimension == inst.sd.n
        min_gap_ratio = min(min_gap_ratio, report.gap_ratio)
        match = family_vs_kernel(inst.sd, report, n_samples=5, seed=3_000_000 + k)
        worst_defect = max(
            worst_defect, match.max_projection_defect, match.max_recovery_defect
        )
    elapsed = time.monotonic() - t0
    _report(
        2,
        dims_ok and min_gap_ratio >= 1e2 and worst_defect <= 1e-8 and elapsed <= 60.0,
        f"kernel dimension == r + 2p on all {POOL_SIZE} instances, "
        f"min gap ratio {min_gap_ratio:.2e} (gate 1e2), max mutual-span defect "
        f"{worst_defect:.3e} (gate 1e-8), {elapsed:.1f}s (gate 60s)",
    )


def test_criterion_3_sylvester_inertia(pool, draws):
    # every draw: eigenvalue-count inertia equals the parameter-sign formula
    agree = True
    for inst, params in draws:
        res = build_M(inst.sd, params)
        ip, ineg = inertia_of_params(params, inst.sd.p)
        agree = agree and res.inertia == (ip, ineg, 0)
        agree = agree and inertia_of_matrix(res.M) == (ip, ineg, 0)

    # one instance per (r, p): the full (unquotiented) class scan attains the
    # floor min i+ = min i- = p; representatives alone cannot, because the
    # global flip swaps the two counts
    instances, _ = pool
    per_split = {}
    for inst in instances:
        per_split.setdefault((inst.sd.r, inst.sd.p), inst)
    floors_ok = True
    for (r, p), inst in sorted(per_split.items()):
        plus_counts = []
        minus_counts = []
        for signs, bits in enumerate_classes(r, p, mod_global=False):
            theta = tuple(0.0 for _ in range(p))
            M = canonical_metric(inst.sd, CanonicalClass(signs, bits, theta)).M
            ip, ineg, izero = inertia_of_matrix(M)
            plus_counts.append(ip)
            minus_counts.append(ineg)
            floors_ok = floors_ok and izero == 0
        floors_ok = floors_ok and min(plus_counts) == p and min(minus_counts) == p
    _report(
        3,
        agree and floors_ok,
        f"inertia agreement on {len(draws)} draws; class-scan floor "
        f"min i+ = min i- = p over {len(per_split)} (r, p) splits",
    )


def test_criterion_4_gauge_absorption(pool):
    instances, _ = pool
    worst = 0.0
    for k in range(100):
        inst = instances[k % len(instances)]
        params = random_parameters(inst.sd.r, inst.sd.p, seed=4_000_000 + k)
        direct = build_M(inst.sd, params).M
        sd2, cls = gauge_absorb(inst.sd, params)
        absorbed = canonical_metric(sd2, cls).M
        rel = np.max(np.abs(absorbed - direct)) / np.max(np.abs(direct))
        worst = max(worst, float(rel))
    _report(
        4,
        worst <= 1e-12,
        f"max relative gauge-absorption defect {worst:.3e} (gate 1e-12) on 100 draws",
    )


def test_criterion_5_block_diagonalization():
    rng = np.random.Generator(np.random.Philox(5_000_000))
    worst = 0.0
    # magnitude and phase drawn separately so tau is unit-scale but generic
    for k in range(100):
        mag = 0.25 + abs(rng.standard_normal())
        tau = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for n in (0, 1):
            W = block_rotation(tau, n)
            got = W @ pair_block(tau) @ W.conj().T
            want = (-1.0) ** n * abs(tau) * SIGMA_Z
            worst = max(worst, float(np.max(np.abs(got - want))))
    _report(
        5,
        worst <= 1e-14,
        f"max block-rotation defect {worst:.3e} (gate 1e-14 absolute), "
        "100 tau draws, both orientation bits",
    )


def test_criterion_6_sqh_special_case(pool):
    instances, _ = pool
    definite = [inst for inst in instances if inst.sd.p == 0]
    indefinite = [inst for inst in instances if inst.sd.p >= 1]
    assert definite and indefinite
    worst = 0.0
    for inst in definite:
        res = sqh_factorization(inst.sd)
        np.linalg.cholesky(res.M)  # LinAlgError here means not positive definite
        worst = max(worst, res.residual)
    refused = 0
    for inst in indefinite:
        with pytest.raises(NotSqhError):
            sqh_factorization(inst.sd)
        refused += 1
    _report(
        6,
        worst <= 1e-9,
        f"{len(definite)} real-spectrum instances Cholesky-factorized with max "
        f"residual {worst:.3e} (gate 1e-9); {refused} pair-carrying instances refused",
    )


def test_criterion_7_class_counting():
    checked = 0
    ok = True
    for total in range(1, 11):
        for r in range(total + 1):
            p = total - r
            quotiented = enumerate_classes(r, p, mod_global=True)
            full = enumerate_classes(r, p, mod_global=False)
            ok = ok and len(quotiented) == 2 ** (r + p - 1)
            ok = ok and len(full) == 2 ** (r + p)
            # independent count: negation orbits of the full enumeration
            orbits = {frozenset({cls, negate_class(*cls)}) for cls in full}
            ok = ok and len(orbits) == 2 ** (r + p - 1)
            reps = {cls for cls in full if is_global_representative(*cls)}
            ok = ok and set(quotiented) == reps
            checked += 1
    _report(
        7,
        ok,
        f"2**(r+p-1) classes against the negation-orbit count on all "
        f"{checked} splits with r + p <= 10",
    )


def test_criterion_8_golden_fixtures():
    sd = decompose(ROT2)
    M_z = build_M(sd, MetricParameters(mu=[], tau=[1.0])).M
    M_x = build_M(sd, MetricParameters(mu=[], tau=[1.0j])).M
    d_z = float(np.max(np.abs(M_z - SIGMA_Z)))
    d_x = float(np.max(np.abs(M_x - SIGMA_X)))

    # direct substitution: both metrics intertwine exactly
    subst = max(
        float(np.max(np.abs(ROT2.conj().T @ M - M @ ROT2))) for M in (SIGMA_Z, SIGMA_X)
    )

    # oracle confirmation: both lie in the brute-force kernel span
    report = solution_space(ROT2)
    K = hermitian_coords(report.basis)
    proj = 0.0
    for M in (SIGMA_Z, SIGMA_X):
        x = hermitian_coords(M)
        proj = max(proj, float(np.linalg.norm(x - K.T @ (K @ x))))
    _report(
        8,
        d_z <= 1e-12 and d_x <= 1e-12 and subst == 0.0 and report.dimension == 2
        and proj <= 1e-12,
        f"tau=1 -> sigma_z ({d_z:.2e}), tau=i -> sigma_x ({d_x:.2e}) entrywise "
        f"(gate 1e-12); exact substitution; kernel projection {proj:.2e}",
    )


# Directory that holds the phm package under test. The CLI subprocesses get
# it on PYTHONPATH as an absolute path, so they import this same phm from any
# working directory; a relative entry such as "src" does not resolve there.
_PHM_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(phm.__file__)))


def _phm(args, cwd):
    pythonpath = os.pathsep.join(filter(None, [_PHM_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "phm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_criterion_9_cli_round_trip(tmp_path):
    splits = [(n, r, p) for n in range(2, 7) for r, p in rp_splits(n)]
    failures = []
    for k in range(20):
        n, r, p = splits[k % len(splits)]
        seed = str(9000 + k)
        base = ["generate", "--n", str(n), "--r", str(r), "--p", str(p),
                "--seed", seed]
        out1, out2 = str(tmp_path / f"a{k}"), str(tmp_path / f"b{k}")
        g1 = _phm(base + ["--out", out1], tmp_path)
        g2 = _phm(base + ["--out", out2], tmp_path)
        a = _phm(["analyze", out1 + "_H.json"], tmp_path)
        a2 = _phm(["analyze", out1 + "_H.json"], tmp_path)
        mu = ",".join(["1"] * r)
        tau = ",".join(["1+0i"] * p)
        margs = ["metric", out1 + "_H.json"]
        if mu:
            margs += ["--mu", mu]
        if tau:
            margs += ["--tau", tau]
        m = _phm(margs, tmp_path)
        v = _phm(["verify", out1 + "_H.json", out1 + "_M.json"], tmp_path)

        procs = (g1, g2, a, a2, m, v)
        codes = [proc.returncode for proc in procs]
        if any(codes):
            # exit 1 is both "interpreter could not import phm" and the CLI's
            # "malformed input": name the first failing call and its stderr
            bad = next(proc for proc in procs if proc.returncode)
            err = bad.stderr.strip().splitlines()
            failures.append(
                f"seed {seed}: exit codes {codes}; {bad.args[3]} stderr: "
                f"{err[-1] if err else '(empty)'}"
            )
            continue
        with open(out1 + "_H.json", "rb") as f1, open(out2 + "_H.json", "rb") as f2:
            if f1.read() != f2.read():
                failures.append(f"seed {seed}: H files differ between runs")
        with open(out1 + "_M.json", "rb") as f1, open(out2 + "_M.json", "rb") as f2:
            if f1.read() != f2.read():
                failures.append(f"seed {seed}: M files differ between runs")
        if g1.stdout.replace(out1, "OUT") != g2.stdout.replace(out2, "OUT"):
            failures.append(f"seed {seed}: generate stdout differs between runs")
        if a.stdout != a2.stdout:
            failures.append(f"seed {seed}: analyze stdout differs between runs")
        if json.loads(a.stdout)["r"] != r or json.loads(a.stdout)["p"] != p:
            failures.append(f"seed {seed}: analyze split mismatch")
    _report(
        9,
        not failures,
        "generate -> analyze -> metric -> verify exits 0 on 20 seeds with "
        "bit-identical re-runs" if not failures else "; ".join(failures),
    )
