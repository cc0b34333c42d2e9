"""Command-line front end.

Subcommands: analyze, metric, canonical, enumerate, oracle, generate,
verify. Every command writes exactly one JSON document to stdout (with a
"schema": 1 version field) and human diagnostics to stderr only, and
exits with a documented code:

    0  success (all gates passed)
    1  malformed input: unparsable file (including a number too large for a
       float), usage error, size mismatch
    2  classification failure (including inadmissible characteristic polynomial)
    3  degenerate spectrum
    4  numerical failure (ill-conditioned diagonalizer, solver breakdown:
       numpy LinAlgError or MemoryError)
    5  bad parameters (wrong counts, zero or near-zero values, ...)
    6  enumeration or dense-solve size cap exceeded
    7  generation rejection budget exhausted
    8  verification gate failed (residual, hermiticity, singular metric in
       verify, kernel match)
    9  stdout closed before the whole document was written (say, piped
       into head)

Matrix files are JSON: {"schema": 1, "n": N, "entries": [[[re, im], ...], ...]}
with N rows of N two-element [re, im] cells. Complex command-line
literals use a+bi form ("1.5-2e-3i"); a bare real is accepted, forms
with a coefficient-less i are rejected as ambiguous. The env var
PHM_DEFAULT_TOL overrides the 1e-8 default classification tolerances of
every command that decomposes H; analyze's --eps-real, --eps-pair and
--gap-tol flags override it for analyze. Each tolerance must be a finite
positive number (exit 5 otherwise).

stdout is always strict JSON: a number that is NaN or infinite (say, a
figure that overflowed on entries near 1e308) is written as null. The
exit code is the one the command gives anyway. Every document, usage
errors and written matrix files included, has the same layout. Matrix rows
and enumerate's classes are made and written a row or a block at a time, so
memory does not grow with them; every other value is encoded before the first
byte. One finiteness check picks a matrix's encoder, so no row fails partway.

main builds the parser of the named subcommand only; any other argv (none,
-h, an unknown command) gets all seven, so help and usage errors read the same.
Each parser is built once per process and reused by later calls.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys
from itertools import chain, product

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateSpectrumError,
    DimensionError,
    EnumerationCapError,
    FamilyMismatchError,
    FileFormatError,
    GenerationError,
    IllConditionedError,
    NumericError,
    ParameterError,
    PhmError,
)
from .generators import GeneratorConfig, generate_via_observable, generate_via_spectrum
from .matrices import HERMITICITY_TOL, hermiticity_defect, hermitize, unit_scaled
from .metrics import (
    TWO_PI,
    CanonicalClass,
    MetricParameters,
    build_M,
    canonical_metric,
    class_letters,
    inertia_of_matrix,
    intertwining_residual,
)
from .oracle import MATCH_DEFECT_TOL, RANK_GAP_WARN, family_vs_kernel, hermitian_basis, solution_space
from .spectral import (
    DEFAULT_TOL,
    AdmissibilityReport,
    SpectralData,
    Tolerances,
    check_ph_admissible,
    decompose,
    eigendecompose,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CLASSIFY = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4
EXIT_PARAMS = 5
EXIT_CAP = 6
EXIT_GENERATE = 7
EXIT_GATE = 8
EXIT_STDOUT_CLOSED = 9

RESIDUAL_GATE = 1e-9
MIN_PARAM_MAGNITUDE = 1e-6

_EXIT_FOR_ERROR: list[tuple[type, int]] = [
    (FileFormatError, EXIT_INPUT),
    (DimensionError, EXIT_INPUT),
    (ClassificationError, EXIT_CLASSIFY),
    (DegenerateSpectrumError, EXIT_DEGENERATE),
    (IllConditionedError, EXIT_NUMERIC),
    (NumericError, EXIT_NUMERIC),
    (ParameterError, EXIT_PARAMS),  # includes NonHermitianError, NotSqhError
    (EnumerationCapError, EXIT_CAP),
    (GenerationError, EXIT_GENERATE),
    (FamilyMismatchError, EXIT_GATE),
]


def _exit_code_for(exc: PhmError) -> int:
    for cls, code in _EXIT_FOR_ERROR:
        if isinstance(exc, cls):
            return code
    return EXIT_INPUT


_STRICT = json.JSONEncoder(allow_nan=False)  # strict JSON has no NaN or Infinity


def _nonfinite_to_null(value):
    """``value`` with every NaN or infinite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):  # dicts are walked by _pieces
        return [_nonfinite_to_null(v) for v in value]
    return value


def _encode_nulls(value) -> str:
    """The strict JSON text of ``value``, every NaN or infinite float as null."""
    return _STRICT.encode(_nonfinite_to_null(value))


class _Lines:
    """A JSON array printed one item per line after ``pad``.

    Its items are ``texts``, JSON texts already: any iterable, an iterator
    included. They are written one at a time, never joined, so an iterator
    is read only while the document is written.
    """

    def __init__(self, texts, pad: str):
        self.texts, self.pad = texts, pad


def _pieces(value, depth: int, encode, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``, in pieces joined once;
    a ``_Lines`` goes in as itself, between its brackets."""
    if isinstance(value, _Lines):
        out += ["[\n" + value.pad, value, "\n" + " " * depth + "]"]
    elif isinstance(value, dict):
        # the document: one key per line; nested values compact, since
        # json.dump's indent would spread every [re, im] cell over four lines
        start, sep, end = ("{\n ", ",\n ", "\n}") if depth == 0 else ("{", ", ", "}")
        out.append(start)
        for i, (key, item) in enumerate(value.items()):
            out.append(f'{sep if i else ""}"{key}": ')
            _pieces(item, depth + 1, encode, out)
        out.append(end)
    else:
        out.append(encode(value))


def _write_doc(doc: dict, stream) -> None:
    """Write ``doc`` and a newline to ``stream``.

    Values outside ``_Lines`` are encoded before the first write, so a
    non-finite float (written as null instead) leaves nothing half written.
    The pieces between ``_Lines`` are joined and written once; the texts of a
    ``_Lines``, whose encoder is fixed up front, are made and written singly.
    """
    out: list = []
    try:
        _pieces(doc, 0, _STRICT.encode, out)
    except ValueError:  # a non-finite float
        out = []
        _pieces(doc, 0, _encode_nulls, out)
    out.append("\n")
    start = 0
    for i, piece in enumerate(out):
        if isinstance(piece, _Lines):
            stream.write("".join(out[start:i]))
            start = i + 1
            sep = ""
            for text in piece.texts:
                stream.write(sep + text)
                sep = ",\n" + piece.pad
    stream.write("".join(out[start:]))


def _emit(doc: dict) -> None:
    _write_doc(doc, sys.stdout)


def _emit_error(exc: Exception, extra: dict | None = None) -> None:
    doc = {"schema": 1, "error": {"type": type(exc).__name__, "message": str(exc)}}
    if extra:
        doc.update(extra)
    _emit(doc)
    print(f"error: {exc}", file=sys.stderr)


def _complex_pairs(values) -> list:
    """[re, im] Python floats per entry, nested like ``values``."""
    z = np.asarray(values, dtype=np.complex128)
    return np.stack([z.real, z.imag], -1).tolist()


def _matrix_doc(M: np.ndarray) -> dict:
    """The matrix-file document of ``M``; a row is encoded only as it is written."""
    M = np.ascontiguousarray(M, dtype=np.complex128)
    cells = M.view(np.float64).reshape(M.shape + (2,))  # [re, im] per entry, no copy
    encode = _STRICT.encode if np.isfinite(cells).all() else _encode_nulls
    rows = map(encode, map(np.ndarray.tolist, cells))
    return {"schema": 1, "n": int(M.shape[0]), "entries": _Lines(rows, "   ")}


def _write_matrix_file(path: str, M: np.ndarray) -> None:
    doc = _matrix_doc(M)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_doc(doc, fh)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _cell_to_complex(cell, row: int, col: int, path: str) -> complex:
    where = f"{path}: row {row + 1}, column {col + 1}"
    if not isinstance(cell, (list, tuple)) or len(cell) != 2:
        raise FileFormatError(f"{where}: entry must be a two-element [re, im] array")
    re_part, im_part = cell
    if isinstance(re_part, bool) or isinstance(im_part, bool) or not all(
        isinstance(x, (int, float)) for x in (re_part, im_part)
    ):
        raise FileFormatError(f"{where}: re/im must be numbers")
    try:
        z = complex(float(re_part), float(im_part))
    except OverflowError:
        raise FileFormatError(f"{where}: integer too large for a float") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise FileFormatError(f"{where}: entries must be finite")
    return z


def _entries_array(entries: list, n: int) -> np.ndarray | None:
    """The n x n complex array of well-formed entries, else None.

    Accepts exactly what the per-cell check of ``read_matrix_file`` accepts,
    in a few passes that run in C: n rows of n two-element cells, every
    re/im exactly an int or a float (so no bool or str), all finite.
    """
    try:
        cells = list(chain.from_iterable(entries))
        if set(map(len, entries)) != {n} or set(map(len, cells)) != {2}:
            return None
        scalars = list(chain.from_iterable(cells))
        if not set(map(type, scalars)) <= {int, float}:
            return None
        a = np.array(scalars, dtype=np.float64)
    except (TypeError, OverflowError):  # a row or cell that is not a list; a huge int
        return None
    if not np.isfinite(a).all():
        return None
    return a.view(np.complex128).reshape(n, n)


def read_matrix_file(path: str) -> np.ndarray:
    """Parse a MatrixFile JSON document into a complex square array.

    The cyclic garbage collector is paused while the file is parsed and
    converted. The parsed document holds one list per row and per cell
    (16 512 at n = 128) and no reference cycle, so each collection that
    those allocations would trigger walks the tree and frees nothing. The
    document is released before the collector is turned back on, and only
    if it was on when the call began. The pause is process-wide: no cyclic
    collection runs in any thread while this call runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_matrix_file(path)
    finally:
        if enabled:
            gc.enable()


def _read_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer literal past the int-parsing digit limit
        raise FileFormatError(f"{path}: number too large to parse ({exc})") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    schema = doc.get("schema", 1)
    if not isinstance(schema, int) or isinstance(schema, bool) or schema != 1:
        raise FileFormatError(f"{path}: unsupported schema {schema!r}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FileFormatError(f"{path}: field 'n' must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != n:
        raise FileFormatError(f"{path}: 'entries' must be an array of {n} rows")
    M = _entries_array(entries, n)
    if M is not None:
        return M
    # Rejected: the per-cell pass names the first bad cell.
    M = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{path}: row {i + 1} must have exactly {n} entries")
        for j, cell in enumerate(row):
            M[i, j] = _cell_to_complex(cell, i, j, path)
    return M


_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^[+-]?{_FLOAT}$")
_COMPLEX_RE = re.compile(rf"^([+-]?{_FLOAT})([+-]{_FLOAT})i$")


def parse_complex_literal(token: str) -> complex:
    """Parse 'a+bi' (or a bare real) with optional signs and exponents.

    Coefficient-less forms like 'i' or '1+i' are rejected rather than
    guessed at, as is everything else that does not match exactly.
    """
    tok = token.strip()
    if _REAL_RE.match(tok):
        return complex(float(tok), 0.0)
    m = _COMPLEX_RE.match(tok)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    raise ParameterError(
        f"cannot parse complex literal {token!r}; write it as a+bi with "
        "explicit coefficients, e.g. '1+0i', '-2.5e-3+1i'"
    )


def parse_real_literal(token: str) -> float:
    tok = token.strip()
    if not _REAL_RE.match(tok):
        raise ParameterError(f"cannot parse real literal {token!r}")
    return float(tok)


def _split_csv(raw: str | None) -> list[str]:
    if raw is None or raw.strip() == "":
        return []
    return [tok for tok in raw.split(",")]


def _default_tolerance() -> float:
    raw = os.environ.get("PHM_DEFAULT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ParameterError(f"PHM_DEFAULT_TOL is not a number: {raw!r}") from None
    return _positive_tolerance(tol, "PHM_DEFAULT_TOL", raw)


def _positive_tolerance(tol: float, name: str, raw) -> float:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"{name} must be a positive number, got {raw!r}")
    return tol


def _tolerances(args: argparse.Namespace) -> Tolerances:
    base = _default_tolerance()

    def pick(name: str) -> float:
        value = getattr(args, name, None)
        if value is None:
            return base
        return _positive_tolerance(value, "--" + name.replace("_", "-"), value)

    return Tolerances(eps_real=pick("eps_real"), eps_pair=pick("eps_pair"), gap_tol=pick("gap_tol"))


def _inadmissible(adm: AdmissibilityReport) -> ClassificationError:
    return ClassificationError(
        "characteristic polynomial has a relative imaginary coefficient of "
        f"{adm.max_imag_coeff:.3e}; matrix is not pseudo-hermitian admissible"
    )


def _gated_decompose(H: np.ndarray, tol: Tolerances) -> SpectralData:
    """Admissibility-check and decompose H from one eigendecomposition."""
    eig = eigendecompose(H)
    adm = check_ph_admissible(H, tol=tol.eps_real, eigenpairs=eig)
    if not adm.is_ph:
        raise _inadmissible(adm)
    return decompose(H, tol=tol, eigenpairs=eig)


def _decompose_file(path: str, args: argparse.Namespace) -> SpectralData:
    """Shared front half: read, admissibility-check, decompose."""
    return _gated_decompose(read_matrix_file(path), _tolerances(args))


def _check_magnitudes(values, what: str) -> None:
    small = [abs(v) for v in values if abs(v) < MIN_PARAM_MAGNITUDE]
    if small:
        raise ParameterError(
            f"every {what} must have magnitude >= {MIN_PARAM_MAGNITUDE:g}; "
            f"smallest given is {min(small):.3e}"
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    H = read_matrix_file(args.path)
    tol = _tolerances(args)
    eig = eigendecompose(H)
    adm = check_ph_admissible(H, tol=tol.eps_real, eigenpairs=eig)
    if not adm.is_ph:
        _emit_error(
            _inadmissible(adm),
            extra={"is_ph_admissible": False, "max_imag_coeff": adm.max_imag_coeff},
        )
        return EXIT_CLASSIFY
    sd = decompose(H, tol=tol, eigenpairs=eig)
    _emit(
        {
            "schema": 1,
            "n": sd.n,
            "r": sd.r,
            "p": sd.p,
            "eigenvalues": _complex_pairs(sd.lam),
            "min_gap": None if math.isinf(sd.min_gap) else sd.min_gap,
            "cond_S": sd.cond_S,
            "is_ph_admissible": True,
            "inertia_floor": [sd.p, sd.p],
            "class_count": 2 ** (sd.r + sd.p - 1),
        }
    )
    return EXIT_OK


def _emit_metric_result(M: np.ndarray, inertia, residual: float) -> int:
    _emit(
        {
            "schema": 1,
            "M": _matrix_doc(M),
            "inertia": [int(x) for x in inertia],
            "residual": float(residual),
        }
    )
    return _residual_gate(residual)


def _residual_gate(residual: float) -> int:
    """EXIT_OK, or EXIT_GATE with a stderr line when the residual fails its gate."""
    if not residual <= RESIDUAL_GATE:  # a NaN residual fails too
        print(
            f"warning: residual {residual:.3e} exceeds gate {RESIDUAL_GATE:g}",
            file=sys.stderr,
        )
        return EXIT_GATE
    return EXIT_OK


def cmd_metric(args: argparse.Namespace) -> int:
    sd = _decompose_file(args.path, args)
    mu = [parse_real_literal(t) for t in _split_csv(args.mu)]
    tau = [parse_complex_literal(t) for t in _split_csv(args.tau)]
    if len(mu) != sd.r or len(tau) != sd.p:
        raise ParameterError(
            f"expected {sd.r} --mu value(s) and {sd.p} --tau value(s) for this "
            f"spectrum, got {len(mu)} and {len(tau)}"
        )
    _check_magnitudes(mu, "--mu entry")
    _check_magnitudes(tau, "--tau entry")
    result = build_M(sd, MetricParameters(mu=np.array(mu), tau=np.array(tau)))
    return _emit_metric_result(result.M, result.inertia, result.residual)


def _parse_letters(raw: str | None, tokens: dict, what: str) -> tuple[int, ...]:
    """The values in ``tokens`` of the comma-separated tokens of ``raw``;
    ``what`` opens the error message for a token not in ``tokens``."""
    out = []
    for tok in _split_csv(raw):
        value = tokens.get(tok.strip())
        if value is None:
            raise ParameterError(f"{what}, got {tok!r}")
        out.append(value)
    return tuple(out)


def _reduce_angle(t: float) -> float:
    red = t % TWO_PI
    return 0.0 if red >= TWO_PI else red  # t slightly below 0 can round onto 2*pi


def cmd_canonical(args: argparse.Namespace) -> int:
    sd = _decompose_file(args.path, args)
    signs = _parse_letters(args.signs, {"+": 1, "-": -1}, "signs must be '+' or '-'")
    bits = _parse_letters(args.n, {"0": 0, "1": 1}, "orientation bits must be 0 or 1")
    theta = tuple(_reduce_angle(parse_real_literal(t)) for t in _split_csv(args.theta))
    if len(signs) != sd.r or len(bits) != sd.p or len(theta) != sd.p:
        raise ParameterError(
            f"expected {sd.r} sign(s), {sd.p} orientation bit(s) and {sd.p} "
            f"phase(s) for this spectrum, got {len(signs)}, {len(bits)}, {len(theta)}"
        )
    result = canonical_metric(sd, CanonicalClass(signs=signs, n=bits, theta=theta))
    return _emit_metric_result(result.M, result.inertia, result.residual)


def cmd_enumerate(args: argparse.Namespace) -> int:
    sd = _decompose_file(args.path, args)
    # A class prints as the text of its first k = (r + p) // 2 letters and
    # the text of the rest between fixed pieces. Each table is formatted
    # once; the loop runs once per first-half word, not per sign row or class.
    r, p = sd.r, sd.p
    k = (r + p) // 2
    junction = '], "n": ['  # before the first bit; in the tail when p = 0
    texts = [  # the text of each choice at each position, with what precedes it
        [(junction if i == r else ", " if i else "") + str(c) for c in choices]
        for i, choices in enumerate(class_letters(r, p, not args.no_mod_global))
    ]
    firsts, seconds = (list(map("".join, product(*half))) for half in (texts[:k], texts[k:]))
    tails = [  # by the number of negative signs
        (junction if p == 0 else "") + '], "inertia": [%d, %d, 0]}' % (p + r - neg, p + neg)
        for neg in range(r + 1)
    ]
    negs = [v.count("-") for v in seconds]
    rests = [  # the second halves with their tails, by the first half's negative signs
        [v + tails[c + neg] for v, neg in zip(seconds, negs)] for c in range(min(k, r) + 1)
    ]
    blocks = (  # one per first-half word, its classes joined; made as it is written
        '{"signs": [' + u + (',\n  {"signs": [' + u).join(rests[u.count("-")]) for u in firsts
    )
    _emit(
        {
            "schema": 1,
            "count": len(firsts) * len(seconds),
            "classes": _Lines(blocks, "  "),
        }
    )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    H = read_matrix_file(args.path)
    basis = hermitian_basis(H.shape[0])  # enforces the dense-solve cap
    try:
        sd = _gated_decompose(H, _tolerances(args))
    except DegenerateSpectrumError as exc:
        # Still report the kernel: its dimension exceeding n is exactly why
        # degenerate spectra are outside the family's reach.
        report = solution_space(H, basis=basis)
        _emit_error(
            exc,
            extra={
                "kernel_dimension": report.dimension,
                "family_complete": False,
            },
        )
        return EXIT_DEGENERATE
    report = solution_space(H, basis=basis)
    doc = {
        "schema": 1,
        "n": sd.n,
        "kernel_dimension": report.dimension,
        "expected_dimension": sd.n,
        "singular_value_tail": [float(s) for s in report.singular_values[: 2 * sd.n]],
        "gap_ratio": None if math.isinf(report.gap_ratio) else report.gap_ratio,
        "warning": f"rank decision is ambiguous (gap ratio < {RANK_GAP_WARN:g})"
        if report.rank_ambiguous
        else None,
    }
    try:
        match = family_vs_kernel(sd, report, basis=basis)
    except FamilyMismatchError as exc:
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(doc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    doc["max_projection_defect"] = match.max_projection_defect
    doc["max_recovery_defect"] = match.max_recovery_defect
    doc["params_recovered"] = match.params_recovered
    _emit(doc)
    # family_vs_kernel has checked the kernel dimension
    proj, rec = match.max_projection_defect, match.max_recovery_defect
    if proj <= MATCH_DEFECT_TOL and rec <= MATCH_DEFECT_TOL:
        return EXIT_OK
    print(
        f"verification failed: projection defect {proj:.3e} (gate {MATCH_DEFECT_TOL:g}), "
        f"recovery defect {rec:.3e} (gate {MATCH_DEFECT_TOL:g})",
        file=sys.stderr,
    )
    return EXIT_GATE


def cmd_generate(args: argparse.Namespace) -> int:
    files: dict[str, str] = {}
    if args.mode == "spectrum":
        if args.n is None or args.r is None or args.p is None:
            raise ParameterError("--mode spectrum requires --n, --r and --p")
        cfg = GeneratorConfig(
            n=args.n, r=args.r, p=args.p, seed=args.seed, cond_max=args.cond_max
        )
        inst = generate_via_spectrum(cfg)
        H, M = inst.H, inst.certificate.M
        residual = inst.certificate_residual
        extra = {"n": cfg.n, "r": cfg.r, "p": cfg.p}
    else:
        if args.metric is None:
            raise ParameterError("--mode observable requires --metric METRIC_FILE")
        M = read_matrix_file(args.metric)
        H, A = generate_via_observable(M, seed=args.seed)
        residual = intertwining_residual(H, M, check_hermitian=False)
        files["A"] = args.out + "_A.json"
        _write_matrix_file(files["A"], A)
        extra = {"n": int(M.shape[0])}
    files["H"] = args.out + "_H.json"
    files["M"] = args.out + "_M.json"
    _write_matrix_file(files["H"], H)
    _write_matrix_file(files["M"], M)
    doc = {
        "schema": 1,
        "mode": args.mode,
        "seed": args.seed,
        "files": {k: files[k] for k in sorted(files)},
        "residual": float(residual),
    }
    doc.update(extra)
    _emit(doc)
    return _residual_gate(residual)


def cmd_verify(args: argparse.Namespace) -> int:
    H = read_matrix_file(args.path_h)
    M = read_matrix_file(args.path_m)
    if H.shape != M.shape:
        raise DimensionError(
            f"size mismatch: H is {H.shape[0]}x{H.shape[0]} but M is "
            f"{M.shape[0]}x{M.shape[0]}"
        )
    # the hermiticity defect and inertia are scale-free (the residual scales itself)
    M = unit_scaled(M)
    defect = hermiticity_defect(M)
    residual = intertwining_residual(H, M, check_hermitian=False)
    inertia = inertia_of_matrix(hermitize(M), check_hermitian=False)
    _emit(
        {
            "schema": 1,
            "residual": float(residual),
            "hermiticity_defect": float(defect),
            "inertia": [int(x) for x in inertia],
        }
    )
    ok = defect <= HERMITICITY_TOL and residual <= RESIDUAL_GATE and inertia[2] == 0
    if not ok:
        print(
            f"verification failed: residual {residual:.3e} "
            f"(gate {RESIDUAL_GATE:g}), hermiticity defect {defect:.3e} "
            f"(gate {HERMITICITY_TOL:g}), null inertia {inertia[2]} (gate 0)",
            file=sys.stderr,
        )
    return EXIT_OK if ok else EXIT_GATE


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage failures keep the JSON-on-stdout contract."""

    def error(self, message: str) -> None:
        _emit({"schema": 1, "error": {"type": "UsageError", "message": message}})
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _path_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="matrix JSON file")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    _path_argument(p)
    p.add_argument("--eps-real", type=float, default=None, help="real-eigenvalue tolerance (relative)")
    p.add_argument("--eps-pair", type=float, default=None, help="conjugate-pair matching tolerance (relative)")
    p.add_argument("--gap-tol", type=float, default=None, help="degeneracy gap tolerance (relative)")


def _metric_arguments(p: argparse.ArgumentParser) -> None:
    _path_argument(p)
    p.add_argument("--mu", default=None, help="comma-separated real parameters, one per real eigenvalue")
    p.add_argument("--tau", default=None, help="comma-separated a+bi parameters, one per conjugate pair")


def _canonical_arguments(p: argparse.ArgumentParser) -> None:
    _path_argument(p)
    p.add_argument("--signs", default=None, help="comma-separated +/- per real eigenvalue")
    p.add_argument("--n", default=None, help="comma-separated orientation bits (0/1) per pair")
    p.add_argument("--theta", default=None, help="comma-separated phases in radians per pair")


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    _path_argument(p)
    p.add_argument("--no-mod-global", action="store_true", help="list all 2**(r+p) sign assignments instead of one per global-flip orbit")


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="matrix dimension")
    p.add_argument("--r", type=int, default=None, help="number of real eigenvalues")
    p.add_argument("--p", type=int, default=None, help="number of conjugate pairs")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (counter-based; same seed, same files)")
    p.add_argument("--cond-max", type=float, default=GeneratorConfig.cond_max, help="condition-number cap for the similarity")
    p.add_argument("--mode", choices=("spectrum", "observable"), default="spectrum")
    p.add_argument("--metric", default=None, help="metric JSON file (observable mode input)")
    p.add_argument("--out", required=True, help="output path prefix; writes PREFIX_H.json etc.")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path_h", help="matrix JSON file (H)")
    p.add_argument("path_m", help="candidate metric JSON file (M)")


# name: (help, argument adder, handler), in the order `phm --help` lists them
_COMMANDS = {
    "analyze": ("classify the spectrum and report family shape", _analyze_arguments, cmd_analyze),
    "metric": ("build the metric for given family parameters", _metric_arguments, cmd_metric),
    "canonical": ("build the canonical (unitary-gauge) metric of a class", _canonical_arguments, cmd_canonical),
    "enumerate": ("list the discrete metric classes with inertias", _enumerate_arguments, cmd_enumerate),
    "oracle": ("solve the intertwining equation by brute force and compare", _path_argument, cmd_oracle),
    "generate": ("generate a random admissible instance with a certificate metric", _generate_arguments, cmd_generate),
    "verify": ("check a candidate metric against a matrix", _verify_arguments, cmd_verify),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The phm parser; given ``command``, with that subcommand's parser only.

    Built once per process and command. argparse keeps no state between
    ``parse_args`` calls, and the help width is read when help is printed,
    so every caller can share it; callers must not add arguments to it.
    """
    parser = _Parser(
        prog="phm",
        description="Construct, canonicalize, enumerate and verify hermitian "
        "metrics M with H^dagger M = M H for a given matrix H.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # none, -h or a typo gets the full parser, which lists the commands
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except PhmError as exc:
        _emit_error(exc)
        return _exit_code_for(exc)
    except (np.linalg.LinAlgError, MemoryError) as exc:
        _emit_error(exc)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to the null device,
        # so the flush at interpreter shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    raise SystemExit(main())
