"""Output checks, computed with numpy apart from phm.

Each check takes a request, the parsed stdout document and a cache of
reference data, and returns the name of the first property that does not
hold, or None. The references are the input files read by this module's
own parser, their eigenvalues from ``numpy.linalg.eigvals`` and inertias
from ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import json
import numpy as np

RESIDUAL_MAX = 1e-9
HERMITICITY_MAX = 1e-10
SPECTRAL_TOL = 1e-8  # eigenvalue matching and real/complex split, relative to max|λ|
ORACLE_DEFECT_MAX = 1e-8
ORACLE_GAP_MIN = 1e2


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_of(json.load(fh))


def matrix_of(doc: dict) -> np.ndarray:
    cells = np.asarray(doc["entries"], dtype=np.float64)
    return cells[..., 0] + 1j * cells[..., 1]


class References:
    """Input matrices and their eigenvalues, parsed once per file write."""

    def __init__(self):
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def load(self, path: str) -> tuple[np.ndarray, np.ndarray]:
        """Parse the file at ``path`` again, e.g. after ``generate`` wrote it."""
        H = read_matrix(path)
        self._cache[path] = (H, np.linalg.eigvals(H))
        return self._cache[path]

    def matrix(self, path: str) -> tuple[np.ndarray, np.ndarray]:
        """(H, eigenvalues of H) for the file at ``path``."""
        return self._cache.get(path) or self.load(path)


def residual(H: np.ndarray, M: np.ndarray) -> float:
    """||H^dagger M - M H||_F / (||H||_F ||M||_F)."""
    den = np.linalg.norm(H) * np.linalg.norm(M)
    return float(np.linalg.norm(H.conj().T @ M - M @ H) / den)


def inertia(M: np.ndarray) -> tuple[int, int, int]:
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    cut = M.shape[0] * np.finfo(float).eps * float(np.max(np.abs(w)))
    pos, neg = int(np.sum(w > cut)), int(np.sum(w < -cut))
    return pos, neg, w.size - pos - neg


def _metric_fault(H: np.ndarray, M: np.ndarray, want: tuple[int, int, int]) -> str | None:
    if np.linalg.norm(M - M.conj().T) > HERMITICITY_MAX * np.linalg.norm(M):
        return "hermiticity"
    if residual(H, M) > RESIDUAL_MAX:
        return "residual"
    if inertia(M) != want:
        return "inertia"
    return None


def _expected_inertia(req) -> tuple[int, int, int]:
    pos = sum(1 for s in req.signs if s > 0)
    return (req.p + pos, req.p + req.r - pos, 0)


def _real_count(values: np.ndarray) -> int:
    scale = float(np.max(np.abs(values)))
    return int(np.sum(np.abs(values.imag) <= SPECTRAL_TOL * scale))


def check_generate(req, doc, refs):
    if (doc.get("n"), doc.get("r"), doc.get("p")) != (req.r + 2 * req.p, req.r, req.p):
        return "split"
    if doc["files"]["H"] != req.h_path or doc["files"]["M"] != req.m_path:
        return "files"
    H, values = refs.load(req.h_path)
    if _real_count(values) != req.r:
        return "spectrum"
    return _metric_fault(H, read_matrix(req.m_path), (req.r + req.p, req.p, 0))


def check_analyze(req, doc, refs):
    if (doc["r"], doc["p"]) != (req.r, req.p):
        return "split"
    if doc["class_count"] != 2 ** (req.r + req.p - 1):
        return "class_count"
    _, values = refs.matrix(req.h_path)
    got = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    if got.shape != values.shape:
        return "eigenvalues"
    dist = np.abs(got[:, None] - values[None, :])
    nearest = np.argmin(dist, axis=1)
    scale = float(np.max(np.abs(values)))
    if len(set(nearest.tolist())) != values.size or (
        float(np.max(dist[np.arange(values.size), nearest])) > SPECTRAL_TOL * scale
    ):
        return "eigenvalues"
    return None


def check_metric(req, doc, refs):
    want = _expected_inertia(req)
    if tuple(doc["inertia"]) != want or doc["residual"] > RESIDUAL_MAX:
        return "reported"
    H, _ = refs.matrix(req.h_path)
    return _metric_fault(H, matrix_of(doc["M"]), want)


def check_verify(req, doc, refs):
    if tuple(doc["inertia"]) != (req.r + req.p, req.p, 0):
        return "inertia"
    H, _ = refs.matrix(req.h_path)
    M = read_matrix(req.m_path)
    return _metric_fault(H, M, (req.r + req.p, req.p, 0))


def check_enumerate(req, doc, refs):
    """Rows against the 2**(r+p) sign/bit assignments, each coded as an
    integer whose bits are (sign < 0) per real and the orientation bit per
    pair; the global flip toggles every bit."""
    rows = doc["classes"]
    if doc["count"] != len(rows):
        return "count"
    k = req.r + req.p
    signs = np.array([row["signs"] for row in rows], dtype=np.int64).reshape(len(rows), req.r)
    bits = np.array([row["n"] for row in rows], dtype=np.int64).reshape(len(rows), req.p)
    if not (np.all(np.abs(signs) == 1) and np.all((bits == 0) | (bits == 1))):
        return "classes"
    pos = np.sum(signs > 0, axis=1)
    want = np.stack([req.p + pos, req.p + req.r - pos, np.zeros_like(pos)], axis=1)
    if not np.array_equal(np.array([row["inertia"] for row in rows]).reshape(-1, 3), want):
        return "inertia"
    code = np.concatenate([signs < 0, bits == 1], axis=1) @ (1 << np.arange(k, dtype=np.int64))
    if req.mod_global:  # one member of every {x, -x} orbit
        code = np.minimum(code, code ^ ((1 << k) - 1))
        every = np.arange(1 << max(k - 1, 0))
    else:
        every = np.arange(1 << k)
    if len(np.unique(code)) != len(rows):
        return "duplicates"
    return None if np.array_equal(np.sort(code), every) else "classes"


def check_oracle(req, doc, refs):
    n = req.r + 2 * req.p
    if doc["kernel_dimension"] != n or doc["expected_dimension"] != n:
        return "kernel_dimension"
    gap = doc["gap_ratio"]  # null encodes an infinite ratio
    if gap is not None and gap < ORACLE_GAP_MIN:
        return "gap_ratio"
    if max(doc["max_projection_defect"], doc["max_recovery_defect"]) > ORACLE_DEFECT_MAX:
        return "defect"
    if doc["params_recovered"] is not True:
        return "params_recovered"
    return None


CHECKS = {
    "generate": check_generate,
    "analyze": check_analyze,
    "metric": check_metric,
    "canonical": check_metric,
    "enumerate": check_enumerate,
    "oracle": check_oracle,
    "verify": check_verify,
}


def check(req, doc, refs) -> str | None:
    """Name of the first failed property of a successful request, or None."""
    try:
        return CHECKS[req.command](req, doc, refs)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed ({type(exc).__name__})"
