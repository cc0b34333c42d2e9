"""Shared test helpers: canonical fixtures and instance construction."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import settings

from phm import GeneratorConfig, generate_via_spectrum

# Every run draws the same examples and replays none saved by an earlier
# run, so two runs of one commit test the same cases. max_examples stays
# per test.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

# The canonical 2x2 with a conjugate pair: eigenvalues +-i, row-eigenvector
# matrix (1/sqrt 2) [[1, -i], [1, i]] under the deterministic column gauge.
ROT2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
DIAG12 = np.diag([1.0, 2.0]).astype(np.complex128)


def rp_splits(n: int) -> list[tuple[int, int]]:
    """All (r, p) with r + 2p = n, r descending."""
    return [(r, (n - r) // 2) for r in range(n, -1, -2)]


def make_instance(n: int, r: int, p: int, seed: int, **kwargs):
    return generate_via_spectrum(GeneratorConfig(n=n, r=r, p=p, seed=seed, **kwargs))


def instance_pool(count: int, n_range=range(2, 11), seed0: int = 1000):
    """Deterministic pool cycling every (n, r, p) combination."""
    combos = [(n, r, p) for n in n_range for (r, p) in rp_splits(n)]
    pool = []
    for k in range(count):
        n, r, p = combos[k % len(combos)]
        pool.append(make_instance(n, r, p, seed=seed0 + k))
    return pool


def write_matrix_json(path, M) -> str:
    """Write a matrix in the CLI file format; returns the path as str."""
    M = np.asarray(M, dtype=np.complex128)
    doc = {
        "schema": 1,
        "n": int(M.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in M],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)
