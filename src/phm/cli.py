"""Command-line front end.

Subcommands: analyze, metric, canonical, enumerate, oracle, generate,
verify. Every command writes exactly one JSON document to stdout (with a
"schema": 1 version field) and human diagnostics to stderr only, and
exits with a documented code:

    0  success (all gates passed)
    1  malformed input: unparsable file (including a number too large for a
       float), usage error, size mismatch
    2  classification failure (spectrum not conjugation-symmetric)
    3  degenerate spectrum
    4  numerical failure (ill-conditioned diagonalizer, solver breakdown:
       numpy LinAlgError or MemoryError)
    5  bad parameters (wrong counts, zeros, finite parameters whose
       S^dagger m S overflows, an M verify would call singular)
    6  enumeration or dense-solve size cap exceeded
    7  generation rejection budget exhausted
    8  verification gate failed (residual, hermiticity, singular metric in
       verify, kernel match); parameters so small that S^dagger m S falls
       into subnormals fail metric's residual gate, as verify fails that M
    9  stdout closed before the whole document was written (say, piped
       into head)

Matrix files are JSON: {"schema": 1, "n": N, "entries": [[[re, im], ...], ...]},
all three fields required, with N rows of N two-element [re, im] cells.
A file is read once, as bytes. When its one array is a grid of numbers,
spaced or not, orjson parses it with the inner brackets blanked out, so
the entries come back as one flat list of numbers; whatever that gate,
orjson or the document's checks refuse is parsed again from the same
bytes by json.load and checked cell by cell, so what is refused or
accepted, and every message, is json.load's. Complex command-line
literals use a+bi form ("1.5-2e-3i"); a bare real is accepted, forms with
a coefficient-less i are rejected as ambiguous. The env var
PHM_DEFAULT_TOL overrides the 1e-8 default classification tolerances of
every command that decomposes H; analyze's --eps-real, --eps-pair and
--gap-tol flags override it for analyze. Each tolerance must be a finite
positive number (exit 5 otherwise).

stdout is always strict JSON: a number that is NaN or infinite (say, a
figure that overflowed on entries near 1e308) is written as null. The
exit code is the one the command gives anyway. Every document, usage
errors and written matrix files included, has the same layout, the json
module's. Numbers are written by orjson, whose digits are repr's, and moved
into that layout; strings and integers by the json module, which escapes
non-ASCII and writes integers of any size. Matrix rows and enumerate's
classes are made and written a row or a block at a time; every other value
is encoded before the first byte. A matrix goes to orjson 8 rows at a
time, finite or not, so its writer holds one block's text.

main reads a plain argv without argparse: a command, then positionals and
the command's long flags spelled out (--name value, with a value not
starting with -, --name=value, or a store_true flag without =), every value
converting and among its choices, the positionals as many as the command's
and every required flag there. The grammar is the one each command's
argument adder gives argparse, recorded once per process. Any other argv
(none, help, an abbreviation, --, a refusal) is parsed by argparse's full
parser, built once per process, which words every help text and usage
error; both paths give the same Namespace. Argparse 3.11 and older take
the -- out of --name=-- (and a second -- out of the positionals), hand the
command an empty list, and main refuses it as argparse refuses a missing
value. Parsing a metric argv took 36 us
of CPU through argparse and 3 us on the plain pass.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys
from itertools import chain, product
from typing import NamedTuple

import numpy as np
import orjson

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
from .oracle import MATCH_DEFECT_TOL, RANK_GAP_WARN, _check_cap, family_vs_kernel, solution_space
from .spectral import DEFAULT_TOL, Tolerances, check_ph_admissible, decompose, eigendecompose

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


# orjson writes the shortest round-trip digits, as repr does, and NaN and
# infinities as null; _json_layout moves its text into the json module's layout
_EXP_SIGN = re.compile(rb"e(\d)")  # e16 -> e+16
_EXP_PAD = re.compile(rb"e-(\d)(?!\d)")  # e-6 -> e-06
_DIGITS = re.compile(rb"\d+")


def _json_layout(raw: bytes) -> str:
    """orjson's text ``raw`` of numbers, None and lists of them, laid out as
    the json module lays it out: ", " between items, an exponent with its
    sign and at least two digits, and the decade [1e-5, 1e-4) in exponent
    form. ``raw`` must hold no string: a comma or an e in one would move too."""
    if b"e" in raw:
        raw = _EXP_PAD.sub(rb"e-0\1", _EXP_SIGN.sub(rb"e+\1", raw))
    if b"0.0000" in raw:
        raw = _decade_e05(raw)
    return raw.replace(b",", b", ").decode()


def _decade_e05(raw: bytes) -> bytes:
    """``raw`` with each 0.0000d... written d....e-05, as repr writes it; after
    a digit or a point, 0.0000 is inside a larger number (10.00001)."""
    out, start = [], 0
    i = raw.find(b"0.0000")
    while i >= 0:
        if i == 0 or raw[i - 1] not in b"0123456789.":
            end = _DIGITS.match(raw, i + 6).end()
            out += [raw[start:i], raw[i + 6 : i + 7], b"." if end > i + 7 else b"", raw[i + 7 : end], b"e-05"]
            start = end
        i = raw.find(b"0.0000", i + 1)
    out.append(raw[start:])
    return b"".join(out)


class _Lines:
    """A JSON array printed one item per line after ``pad``.

    Its items are ``texts``, JSON texts already: any iterable, an iterator
    included. They are written one at a time, never joined, so an iterator
    is read only while the document is written.
    """

    def __init__(self, texts, pad: str):
        self.texts, self.pad = texts, pad


def _pieces(value, depth: int, out: list) -> None:
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
            _pieces(item, depth + 1, out)
        out.append(end)
    elif isinstance(value, (str, int)):  # orjson writes non-ASCII raw and refuses ints from 2**64
        out.append(json.dumps(value))
    else:  # a number, None, or a list or array of numbers
        out.append(_json_layout(orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY)))


def _write_doc(doc: dict, stream) -> None:
    """Write ``doc`` and a newline to ``stream``.

    Every value outside ``_Lines`` is encoded, a non-finite float as null,
    before the first write. The pieces between ``_Lines`` are joined and
    written once; the texts of a ``_Lines`` are made and written singly.
    """
    out: list = []
    _pieces(doc, 0, out)
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


def _matrix_doc(M: np.ndarray) -> dict:
    """The matrix-file document of ``M``. Its rows go to orjson 8 at a time,
    each block only when its first row is written, NaN and infinities as null.
    The bytes, their rewrite, the text and the rows of a block are held at
    once: eight rows keep that under the matrix's 16 n^2 bytes from n = 128."""
    M = np.ascontiguousarray(M, dtype=np.complex128)
    cells = M.view(np.float64).reshape(M.shape + (2,))  # [re, im] per entry, no copy
    blocks = (orjson.dumps(cells[i : i + 8], option=orjson.OPT_SERIALIZE_NUMPY) for i in range(0, len(M), 8))
    rows = chain.from_iterable(_json_layout(block)[3:-3].split("]], [[") for block in blocks)
    return {"schema": 1, "n": int(M.shape[0]), "entries": _Lines(map("[[{}]]".format, rows), "   ")}


def _write_matrix_file(path: str, M: np.ndarray) -> None:
    doc = _matrix_doc(M)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_doc(doc, fh)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _cell_to_complex(cell, row: int, col: int, path: str) -> complex:
    where = f"{path}: row {row + 1}, column {col + 1}"
    if not isinstance(cell, list) or len(cell) != 2:
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


def read_matrix_file(path: str) -> np.ndarray:
    """Parse a MatrixFile JSON document into a complex square array.

    The file is read once, as bytes, by one of two paths. ``_flat_matrix``,
    the fast one, parses every file phm or json.dump writes with orjson,
    which is faster than the json module and rounds every number literal to
    the same double. Anything it does not take is parsed again from the same
    bytes by ``json.load``, as a UTF-8 text file, and checked cell by cell.
    That is the reference path: every refusal is worded there and stops at
    the first bad cell, a pipe is not read twice, and what only the json
    module takes in a key phm does not read (a NaN or Infinity literal, a
    number beyond the double range, a lone surrogate) is accepted.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    M = _flat_matrix(data)
    if M is not None:
        return M
    return _matrix_of_doc(_json_doc(data, path), path)


# translate's delete tables: JSON whitespace, and with it the bytes of JSON numbers
_SPACE = b" \t\n\r"
_NUMBER_OR_SPACE = b"0123456789+-.eE" + _SPACE
# bytes per numpy pass of _flat_doc: at n = 512 one pass over the whole array,
# with file-sized temporaries, peaked at 114 MB against 92 MB, for no less CPU
# (BENCH_32.json)
_BLOCK = 1 << 17


def _flat_matrix(data: bytes) -> np.ndarray | None:
    """The array of the matrix file ``data``, parsed by orjson with the
    entries as one flat list of numbers; None leaves the file to json.load.

    The gate: one ``{`` and, from the first ``[`` to the last ``]``, the
    grid of ``_grid_size``. So the array holds no string, no object and no
    word, and the document nests two deep once the array's inner brackets
    are blanked out: orjson, which sets no depth limit, never sees a deep
    document. Past the gate, the blanked bytes parse as a document whose
    one list holds 2 n^2 numbers exactly when the file parses as a matrix
    file with those entries.
    """
    start, end = data.find(b"["), data.rfind(b"]")
    if start < 0 or end < start or data.find(b"[", end) >= 0:
        return None
    if data.count(b"{", 0, start) + data.count(b"{", end) != 1:
        return None
    n = _grid_size(data)
    doc = _flat_doc(data, start, end) if n else None
    if not isinstance(doc, dict):
        return None
    schema, size, values = doc.get("schema"), doc.get("n"), doc.get("entries")
    if type(schema) is not int or schema != 1 or type(size) is not int or size != n:
        return None
    if not isinstance(values, list) or len(values) != 2 * n * n:  # the document's one list
        return None
    a = np.array(values, dtype=np.float64)
    if not np.isfinite(a).all():
        return None
    return a.view(np.complex128).reshape(n, n)


def _grid_size(data: bytes) -> int:
    """n if the skeleton of the array from the first ``[`` to the last ``]``
    of ``data``, its bytes without number bytes and whitespace, is that of
    n rows of n two-item cells, else 0."""
    skeleton = data.translate(None, _NUMBER_OR_SPACE)
    skeleton = skeleton[skeleton.find(b"[") : skeleton.rfind(b"]") + 1]
    n = math.isqrt(skeleton.count(b"[,]"))
    row = b"[" + b",".join([b"[,]"] * n) + b"]"
    return n if skeleton == b"[" + b",".join([row] * n) + b"]" else 0


def _flat_doc(data: bytes, start: int, end: int):
    """orjson's document of ``data`` with every bracket inside the array
    from ``data[start]`` to ``data[end]`` made a space; None when orjson
    refuses it, or when a cell has an empty item (``[, 2]``, ``[1, ]``).

    Blanked brackets leave only commas between the items, so a number
    outside its cell, as in ``[[[1, ]2]]``, would fill the blank of an empty
    item. Whitespace aside, an empty item puts a comma next to a cell's
    bracket; so the array without whitespace is searched for one only when
    a bracket has whitespace, a comma or a + on its inner side.
    """
    text = bytearray(data)
    out, src = np.frombuffer(text, np.uint8), np.frombuffer(data, np.uint8)
    loose = False
    for i in range(start + 1, end, _BLOCK):
        j = min(i + _BLOCK, end)
        near = src[i - 1 : j + 1]  # the block and one byte on each side
        opened, closed = near[1:-1] == ord("["), near[1:-1] == ord("]")
        loose = loose or _bare(near, opened, closed)
        np.putmask(out[i:j], opened | closed, ord(" "))
    if loose:
        solid = np.frombuffer(data[start : end + 1].translate(None, _SPACE), np.uint8)
        for i in range(1, solid.size - 1, _BLOCK):
            near = solid[i - 1 : i + _BLOCK + 1]
            if _bare(near, near[1:-1] == ord("["), near[1:-1] == ord("]")):
                return None
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return None


def _bare(near: np.ndarray, opened: np.ndarray, closed: np.ndarray) -> bool:
    """Whether a bracket of ``near[1:-1]``, at the marks of ``opened`` and
    ``closed``, has whitespace, a comma or a + on its inner side."""
    return bool((opened & (near[2:] <= ord(","))).any() or (closed & (near[:-2] <= ord(","))).any())


def _json_doc(data: bytes, path: str):
    """``data`` parsed by ``json.load`` as a file opened as UTF-8 text."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer literal past the int-parsing digit limit
        raise FileFormatError(f"{path}: number too large to parse ({exc})") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: arrays or objects nested too deeply") from None


def _matrix_of_doc(doc, path: str) -> np.ndarray:
    """The complex array of a parsed matrix-file document."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    schema = doc.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool) or schema != 1:
        raise FileFormatError(f"{path}: unsupported schema {schema!r}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FileFormatError(f"{path}: field 'n' must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != n:
        raise FileFormatError(f"{path}: 'entries' must be an array of {n} rows")
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


def cmd_analyze(args: argparse.Namespace) -> int:
    H = read_matrix_file(args.path)
    tol = _tolerances(args)
    eig = eigendecompose(H)
    try:
        sd = decompose(H, tol=tol, eigenpairs=eig)
    except ClassificationError as exc:
        defect = check_ph_admissible(H, eigenpairs=eig)
        _emit_error(exc, extra={"is_ph_admissible": False, "conjugation_defect": defect})
        return EXIT_CLASSIFY
    _emit(
        {
            "schema": 1,
            "n": sd.n,
            "r": sd.r,
            "p": sd.p,
            "eigenvalues": np.stack([sd.lam.real, sd.lam.imag], -1),  # [re, im] per value
            "min_gap": sd.min_gap,
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
    sd = decompose(read_matrix_file(args.path), tol=_tolerances(args))
    mu = [parse_real_literal(t) for t in _split_csv(args.mu)]
    tau = [parse_complex_literal(t) for t in _split_csv(args.tau)]
    if len(mu) != sd.r or len(tau) != sd.p:
        raise ParameterError(
            f"expected {sd.r} --mu value(s) and {sd.p} --tau value(s) for this "
            f"spectrum, got {len(mu)} and {len(tau)}"
        )
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
    if not math.isfinite(t):  # a literal beyond the float range, say 1e400
        raise ParameterError(f"--theta entries must be finite, got {t}")
    red = t % TWO_PI
    return 0.0 if red >= TWO_PI else red  # t slightly below 0 can round onto 2*pi


def cmd_canonical(args: argparse.Namespace) -> int:
    sd = decompose(read_matrix_file(args.path), tol=_tolerances(args))
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
    sd = decompose(read_matrix_file(args.path), tol=_tolerances(args))
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
    _check_cap(H.shape[0])  # the dense-solve cap, before decomposition
    try:
        sd = decompose(H, tol=_tolerances(args))
    except DegenerateSpectrumError as exc:
        # Still report the kernel: its dimension exceeding n is exactly why
        # degenerate spectra are outside the family's reach.
        report = solution_space(H)
        _emit_error(
            exc,
            extra={
                "kernel_dimension": report.dimension,
                "family_complete": False,
            },
        )
        return EXIT_DEGENERATE
    report = solution_space(H)
    doc = {
        "schema": 1,
        "n": sd.n,
        "kernel_dimension": report.dimension,
        "expected_dimension": sd.n,
        "singular_value_tail": [float(s) for s in report.singular_values[: 2 * sd.n]],
        "gap_ratio": report.gap_ratio,
        "warning": f"rank decision is ambiguous (gap ratio < {RANK_GAP_WARN:g})"
        if report.rank_ambiguous
        else None,
    }
    try:
        match = family_vs_kernel(sd, report)
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
def build_parser() -> argparse.ArgumentParser:
    """The phm parser, with all seven subcommands.

    Built once per process. argparse keeps no state between ``parse_args``
    calls, and the help width is read when help is printed, so every
    caller can share it; callers must not add arguments to it.
    """
    parser = _Parser(
        prog="phm",
        description="Construct, canonicalize, enumerate and verify hermitian "
        "metrics M with H^dagger M = M H for a given matrix H.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


class _Argument(NamedTuple):
    dest: str
    type: object
    choices: object
    store_true: bool


class _ArgumentTable:
    """One command's arguments, recorded by running its adder on this in
    place of an argparse parser: the positionals in order, the long flags,
    the flags' defaults and the required flags. The signature of
    ``add_argument`` is the model: any other keyword or action raises, so
    the plain pass cannot read an argument otherwise than argparse does."""

    def __init__(self):
        self.positionals, self.flags, self.defaults, self.required = [], {}, {}, set()

    def add_argument(self, name, *, action=None, help=None, type=None, choices=None, default=None, required=False):
        flag = name.startswith("--")
        # argparse would also take short flags and convert a str default by its type
        if action not in (None, "store_true") or (name.startswith("-") and not flag) or (type and isinstance(default, str)):
            raise TypeError(f"the plain pass does not model add_argument({name!r}, action={action!r}, ...)")
        arg = _Argument(name[2:].replace("-", "_") if flag else name, type, choices, action == "store_true")
        if not flag:
            self.positionals.append(arg)
            return
        self.flags[name] = arg
        self.defaults[arg.dest] = False if arg.store_true and default is None else default
        if required:
            self.required.add(arg.dest)


@functools.cache
def _argument_table(command: str) -> _ArgumentTable:
    table = _ArgumentTable()
    _COMMANDS[command][1](table)
    return table


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives ``argv`` if it is plain (see the module
    docstring), else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = _argument_table(argv[0])
    given, positionals = [], []  # a flag's every value: argparse converts each
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        arg = table.flags.get(flag)
        if arg is None or text == "--" or (arg.store_true and eq):
            return None
        if arg.store_true:
            text = True
        elif not eq:
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        given.append((arg, text))
    if len(positionals) != len(table.positionals):
        return None
    values = {}
    for arg, text in chain(given, zip(table.positionals, positionals)):
        try:
            values[arg.dest] = text if arg.type is None else arg.type(text)
        except (TypeError, ValueError):
            return None
        if arg.choices is not None and values[arg.dest] not in arg.choices:
            return None
    if not table.required <= values.keys():
        return None
    return argparse.Namespace(command=argv[0], func=_COMMANDS[argv[0]][2], **{**table.defaults, **values})


def _refuse_list_values(args: argparse.Namespace) -> None:
    """Refuse, in argparse's words, a value argparse hands on as a list."""
    table = _argument_table(args.command)
    for name, arg in chain(table.flags.items(), ((arg.dest, arg) for arg in table.positionals)):
        if isinstance(getattr(args, arg.dest), list):
            _Parser(prog=f"phm {args.command}").error(f"argument {name}: expected one argument")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        _refuse_list_values(args)
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
