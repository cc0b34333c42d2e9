"""Request lists and input files of the four workloads.

A workload is a fixed list of requests (one round) built from the seed.
Each request is a ``Request``: the argv handed to ``phm.cli.main`` and the
facts its output is checked against. Set-up writes the matrix files the
round reads; ``roundtrip-small`` writes its own through ``generate``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from phm.generators import GeneratorConfig, generate_via_spectrum

WORKLOADS = ("roundtrip-small", "dense", "oracle", "enumerate-wide")

ROUNDTRIP_SIZES = (4, 6, 8, 10)
ROUNDTRIP_INSTANCES_PER_SPLIT = 2
DENSE_N = 128
DENSE_PAIRS = (0, 16, 32, 48, 64)
# Generator seeds of the dense instances. They do not depend on --seed: the
# polynomial gate of check_ph_admissible accepts or rejects an n = 128
# instance by accident of rounding, so seed-dependent matrices would make
# the number of failed requests depend on the seed.
DENSE_GENERATOR_SEEDS = (2000, 2001, 2002)
DENSE_MIN_GAP = 1e-4  # the default 0.01 cannot be met by 128 eigenvalues
ORACLE_N = 24
ENUMERATE_RP = 16  # r + p of the default-mode requests


@dataclass(frozen=True)
class Request:
    """One CLI call and what its output must satisfy."""

    command: str
    argv: tuple[str, ...]
    r: int
    p: int
    h_path: str
    m_path: str | None = None  # certificate written by set-up or generate
    signs: tuple[int, ...] = ()  # signs of mu (metric) or --signs (canonical)
    mod_global: bool = True


@dataclass
class Workload:
    name: str
    requests: list[Request]
    # (path prefix, GeneratorConfig) of every instance set-up writes
    inputs: list[tuple[str, GeneratorConfig]] = field(default_factory=list)
    # requests run once, untimed, at the end of each set-up
    warmup: list[Request] = field(default_factory=list)


def splits(n: int) -> list[tuple[int, int]]:
    """Every (r, p) with r + 2p = n, from all-real to all-pairs."""
    return [(n - 2 * p, p) for p in range(n // 2 + 1)]


def _real(x: float) -> str:
    return repr(float(x))


def _complex(z: complex) -> str:
    return f"{float(z.real)!r}{float(z.imag):+}i"


def _magnitudes(rng: random.Random, k: int) -> list[float]:
    return [rng.uniform(0.5, 2.0) for _ in range(k)]


def _signs(rng: random.Random, k: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(k))


def _metric_request(rng: random.Random, h: str, r: int, p: int) -> Request:
    signs = _signs(rng, r)
    mu = [s * m for s, m in zip(signs, _magnitudes(rng, r))]
    tau = [m * complex(math.cos(t), math.sin(t))
           for m, t in zip(_magnitudes(rng, p), (rng.uniform(0, 2 * math.pi) for _ in range(p)))]
    argv = ["metric", h]
    if r:
        argv.append("--mu=" + ",".join(_real(x) for x in mu))
    if p:
        argv.append("--tau=" + ",".join(_complex(z) for z in tau))
    return Request("metric", tuple(argv), r, p, h, signs=signs)


def _canonical_request(rng: random.Random, h: str, r: int, p: int) -> Request:
    signs = _signs(rng, r)
    bits = [rng.randrange(2) for _ in range(p)]
    theta = [rng.uniform(0, 2 * math.pi) for _ in range(p)]
    argv = ["canonical", h]
    if r:
        argv.append("--signs=" + ",".join("+" if s > 0 else "-" for s in signs))
    if p:
        argv.append("--n=" + ",".join(str(b) for b in bits))
        argv.append("--theta=" + ",".join(_real(t) for t in theta))
    return Request("canonical", tuple(argv), r, p, h, signs=signs)


def _roundtrip(seed: int, work: str) -> Workload:
    """The criterion-9 chain on every split of the small sizes."""
    rng = random.Random(seed)
    requests, warmup = [], []
    k = 0
    for n in ROUNDTRIP_SIZES:
        first = len(requests)
        for r, p in splits(n):
            for _ in range(ROUNDTRIP_INSTANCES_PER_SPLIT):
                out = os.path.join(work, f"rt{k:02d}")
                h, m = out + "_H.json", out + "_M.json"
                gen = ["generate", "--n", str(n), "--r", str(r), "--p", str(p),
                       "--seed", str(rng.randrange(2**31)), "--out", out]
                requests += [
                    Request("generate", tuple(gen), r, p, h, m_path=m),
                    Request("analyze", ("analyze", h), r, p, h),
                    _metric_request(rng, h, r, p),
                    _canonical_request(rng, h, r, p),
                    Request("enumerate", ("enumerate", h), r, p, h),
                    Request("verify", ("verify", h, m), r, p, h, m_path=m),
                ]
                k += 1
        warmup += requests[first:first + 6]  # the first chain of each size
    return Workload("roundtrip-small", requests, warmup=warmup)


def _dense(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    inputs, requests = [], []
    for p in DENSE_PAIRS:
        r = DENSE_N - 2 * p
        for gseed in DENSE_GENERATOR_SEEDS:
            prefix = os.path.join(work, f"d{p:02d}_{gseed}")
            h, m = prefix + "_H.json", prefix + "_M.json"
            inputs.append((prefix, GeneratorConfig(
                n=DENSE_N, r=r, p=p, seed=gseed, min_gap_target=DENSE_MIN_GAP)))
            requests += [
                Request("analyze", ("analyze", h), r, p, h),
                _metric_request(rng, h, r, p),
                _canonical_request(rng, h, r, p),
                Request("verify", ("verify", h, m), r, p, h, m_path=m),
            ]
    return Workload("dense", requests, inputs, warmup=requests[:4])


def _oracle(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    inputs, requests = [], []
    for r, p in splits(ORACLE_N):
        prefix = os.path.join(work, f"o{p:02d}")
        inputs.append((prefix, GeneratorConfig(n=ORACLE_N, r=r, p=p, seed=rng.randrange(2**31))))
        requests.append(Request("oracle", ("oracle", prefix + "_H.json"), r, p, prefix + "_H.json"))
    return Workload("oracle", requests, inputs, warmup=requests[:1])


def _enumerate_wide(seed: int, work: str) -> Workload:
    """p = 0 .. 16, alternating the default request on r + p = 16 with
    --no-mod-global on r + p = 15: every request lists 2**15 classes."""
    rng = random.Random(seed)
    inputs, requests = [], []
    for p in range(ENUMERATE_RP + 1):
        mod_global = p % 2 == 0
        r = ENUMERATE_RP - p - (0 if mod_global else 1)
        prefix = os.path.join(work, f"e{p:02d}")
        h = prefix + "_H.json"
        inputs.append((prefix, GeneratorConfig(n=r + 2 * p, r=r, p=p, seed=rng.randrange(2**31))))
        argv = ("enumerate", h) if mod_global else ("enumerate", h, "--no-mod-global")
        requests.append(Request("enumerate", argv, r, p, h, mod_global=mod_global))
    return Workload("enumerate-wide", requests, inputs, warmup=requests[:1])


def build(name: str, seed: int, work: str) -> Workload:
    """The round of workload ``name`` for ``seed``, reading and writing under ``work``."""
    return {
        "roundtrip-small": _roundtrip,
        "dense": _dense,
        "oracle": _oracle,
        "enumerate-wide": _enumerate_wide,
    }[name](seed, work)


def write_matrix(path: str, A: np.ndarray) -> None:
    """Write A in the phm matrix-file format (exact float round trip)."""
    cells = np.stack([A.real, A.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": 1, "n": int(A.shape[0]), "entries": cells}))


def write_inputs(workload: Workload) -> None:
    """Generate every input instance and write its H and certificate M."""
    for prefix, cfg in workload.inputs:
        inst = generate_via_spectrum(cfg)
        write_matrix(prefix + "_H.json", inst.H)
        write_matrix(prefix + "_M.json", inst.certificate.M)
