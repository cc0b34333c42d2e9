import argparse
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from itertools import chain, product, repeat
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phm
import phm.cli
from conftest import DIAG12, ROT2, make_instance, write_matrix_json
from phm.cli import (
    _flat_matrix,
    _json_doc,
    _json_layout,
    _Lines,
    _matrix_doc,
    _matrix_of_doc,
    _plain_args,
    _write_doc,
    _write_matrix_file,
    build_parser,
    main,
    parse_complex_literal,
    parse_real_literal,
    read_matrix_file,
)
from phm.errors import FileFormatError, NonHermitianError, ParameterError
from phm.generators import generate_via_observable
from phm.matrices import HERMITICITY_TOL, SIGMA_X, SIGMA_Z, hermiticity_defect, hermitize, require_hermitian
from phm.metrics import inertia_of_matrix, intertwining_residual, is_global_representative


def run(capsys, *argv, parse=True):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, (json.loads(out) if parse else out), err


@pytest.fixture
def rot_file(tmp_path):
    return write_matrix_json(tmp_path / "rot.json", ROT2)


@pytest.fixture
def diag_file(tmp_path):
    return write_matrix_json(tmp_path / "diag12.json", DIAG12)


# ----------------------------------------------------------- literal parsing


@pytest.mark.parametrize(
    "token,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+0i", 1 + 0j),
        ("1e-3+2e+4i", 1e-3 + 2e4j),
        ("-1.5-2i", -1.5 - 2j),
        (".5+.25i", 0.5 + 0.25j),
        (" 3-1i ", 3 - 1j),
    ],
)
def test_complex_literal_accepts(token, value):
    assert parse_complex_literal(token) == value


@pytest.mark.parametrize("token", ["i", "1+i", "2i", "-i", "1+2j", "1 + 2i", "abc", ""])
def test_complex_literal_rejects(token):
    with pytest.raises(ParameterError):
        parse_complex_literal(token)


def test_real_literal():
    assert parse_real_literal("-3e2") == -300.0
    with pytest.raises(ParameterError):
        parse_real_literal("1+2i")


# ------------------------------------------------------------- file parsing


def test_matrix_file_round_trip(tmp_path):
    M = np.array([[1.0, 2.0 - 1.0j], [0.5j, -3.0]])
    path = write_matrix_json(tmp_path / "m.json", M)
    assert np.array_equal(read_matrix_file(path), M)


def test_matrix_file_diagnostics_name_row_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"schema": 1, "n": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], ["x", 0]]]}
        )
    )
    with pytest.raises(FileFormatError, match="row 2, column 2"):
        read_matrix_file(str(path))


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        json.dumps([1, 2]),
        json.dumps({"schema": 2, "n": 1, "entries": [[[1, 0]]]}),
        json.dumps({"schema": 1, "n": 0, "entries": []}),
        json.dumps({"schema": 1, "n": 2, "entries": [[[1, 0], [0, 0]]]}),
        json.dumps({"schema": 1, "n": 1, "entries": [[[1, 0], [0, 0]]]}),
        json.dumps({"schema": 1, "n": 1, "entries": [[[np.inf, 0]]]}).replace(
            "Infinity", "1e999"
        ),
        json.dumps({"schema": True, "n": 1, "entries": [[[1, 0]]]}),
        json.dumps({"schema": 1.0, "n": 1, "entries": [[[1, 0]]]}),
        json.dumps({"n": 1, "entries": [[[1, 0]]]}),
    ],
)
def test_matrix_file_rejects_malformed(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(FileFormatError):
        read_matrix_file(str(path))


def test_matrix_file_without_schema_exits_1(capsys, tmp_path):
    # "schema" is required like "n" and "entries", not read as 1 when absent
    path = tmp_path / "noschema.json"
    path.write_text(json.dumps({"n": 1, "entries": [[[1, 0]]]}))
    code, doc, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert doc["error"]["message"] == f"{path}: unsupported schema None"


@pytest.mark.parametrize(
    "entries,message",
    [
        ([[[1, 0], [0, 0]], [[0, 0], [True, 0]]], "row 2, column 2: re/im must be numbers"),
        ([[[1, False], [0, 0]], [[0, 0], [1, 0]]], "row 1, column 1: re/im must be numbers"),
        ([[[1, 0], ["0", 0]], [[0, 0], [1, 0]]], "row 1, column 2: re/im must be numbers"),
        ([[[1, 0], [0, None]], [[0, 0], [1, 0]]], "row 1, column 2: re/im must be numbers"),
        (
            [[[1, 0], [0, 0]], [[0, 0, 0], [1, 0]]],
            "row 2, column 1: entry must be a two-element [re, im] array",
        ),
        (
            [[[1, 0], 5], [[0, 0], [1, 0]]],
            "row 1, column 2: entry must be a two-element [re, im] array",
        ),
        ([[[1, 0], [0, 0]], [[0, 0]]], "row 2 must have exactly 2 entries"),
        ([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]]], "row 1 must have exactly 2 entries"),
        ([[[1, 0], [0, 0]], "ab"], "row 2 must have exactly 2 entries"),
        ([[[1, 0], [0, 0]], [[0, float("inf")], [1, 0]]], "row 2, column 1: entries must be finite"),
    ],
)
def test_matrix_file_message_names_first_bad_cell(tmp_path, entries, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "n": 2, "entries": entries}).replace("Infinity", "1e999"))
    with pytest.raises(FileFormatError) as info:
        read_matrix_file(str(path))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("re_part,im_part", [(2**63 + 1, -(2**70) - 1), (10**300 + 7, -3)])
def test_matrix_file_integers_read_as_float(tmp_path, re_part, im_part):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"schema": 1, "n": 1, "entries": [[[re_part, im_part]]]}))
    assert read_matrix_file(str(path))[0, 0] == complex(float(re_part), float(im_part))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308]
_cell_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(deadline=None, max_examples=50)
@given(data=st.data(), n=st.integers(1, 5))
def test_matrix_file_exact_round_trip(tmp_path_factory, data, n):
    parts = data.draw(st.lists(_cell_floats, min_size=2 * n * n, max_size=2 * n * n))
    M = np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
    path = str(tmp_path_factory.mktemp("io") / "m.json")
    _write_matrix_file(path, M)
    assert read_matrix_file(path).tobytes() == M.tobytes()  # bit for bit, -0.0 included
    reference = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    assert "[" + ", ".join(_matrix_doc(M)["entries"].texts) + "]" == json.dumps(reference)


def _reference_matrix_file(M) -> str:
    """The matrix-file template the one document renderer replaced, with
    null for every NaN or infinite part."""

    def part(x):
        return float(x) if math.isfinite(x) else None

    rows = ",\n   ".join(json.dumps([[part(z.real), part(z.imag)] for z in row]) for row in M)
    return '{\n "schema": 1,\n "n": %d,\n "entries": [\n   %s\n ]\n}\n' % (M.shape[0], rows)


@settings(deadline=None, max_examples=50)
@given(data=st.data(), n=st.integers(1, 5))
def test_matrix_file_bytes_match_reference_template(tmp_path_factory, data, n):
    parts = data.draw(st.lists(_cell_floats, min_size=2 * n * n, max_size=2 * n * n))
    M = np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
    path = tmp_path_factory.mktemp("io") / "m.json"
    _write_matrix_file(str(path), M)
    assert path.read_text(encoding="utf-8") == _reference_matrix_file(M)


def test_matrix_file_bytes_edge_values(tmp_path):
    M = np.array(_EDGE_FLOATS + [1e308], dtype=np.float64).view(np.complex128).reshape(2, 2)
    path = tmp_path / "m.json"
    _write_matrix_file(str(path), M)
    assert path.read_text(encoding="utf-8") == _reference_matrix_file(M)


def test_matrix_file_bytes_nonfinite_as_null(tmp_path):
    M = np.array([[1.0, np.inf], [complex(np.nan, -np.inf), -0.0]])
    path = tmp_path / "m.json"
    _write_matrix_file(str(path), M)
    text = path.read_text(encoding="utf-8")
    assert text == _reference_matrix_file(M)
    assert _strict_json(text)["entries"][1][0] == [None, None]


def _with_conjugate_lower(M):
    """``M`` with each entry below the diagonal replaced by its mirror's
    conjugate, bit for bit: a -0.0 imaginary part mirrors as 0.0."""
    lower = np.tril_indices(len(M), -1)
    M[lower] = M.T[lower].conj()
    return M


@settings(deadline=None, max_examples=50)
@given(data=st.data(), n=st.integers(1, 8))
def test_hermitian_matrix_file_bytes_match_reference_template(tmp_path_factory, data, n):
    parts = data.draw(st.lists(_cell_floats, min_size=2 * n * n, max_size=2 * n * n))
    M = _with_conjugate_lower(np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n))
    path = tmp_path_factory.mktemp("io") / "m.json"
    _write_matrix_file(str(path), M)
    assert path.read_text(encoding="utf-8") == _reference_matrix_file(M)


def _one_ulp_off(M):
    M[2, 0] = complex(np.nextafter(M[2, 0].real, np.inf), M[2, 0].imag)
    return M


_MIXED = np.array([[1, 2, 1 + 1j], [2, 3, 4 - 2j], [1 - 1j, 4 + 2j, 5]])


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, 2.0], [2.0, 3.0]]),  # imaginary parts +0.0 on both sides
        _MIXED,  # one pair with +0.0 imaginary parts on both sides
        _with_conjugate_lower(_MIXED.copy()),  # the same pair as 0.0 above, -0.0 below
        np.array([[complex(1, -0.0), 2 + 1j], [2 - 1j, complex(3, -0.0)]]),
        np.array([[complex(2.5, -0.0)]]),
        np.array([[7 - 3j]]),
        _one_ulp_off(_with_conjugate_lower(_MIXED.copy())),
        np.array([[1, complex(np.inf, 1)], [complex(np.inf, -1), 2]]),
        np.array([[complex(1, np.nan), 2 - 1j], [2 + 1j, 3]]),
    ],
    ids=["real-symmetric", "zero-pair", "signed-zero-pair", "negative-zero-diagonal", "1x1-negative-zero",
         "1x1", "one-ulp-off", "infinite", "nan-diagonal"],
)
def test_hermitian_path_edge_cases_match_reference_template(tmp_path, M):
    """Signed zeros, a lower triangle one ulp off its mirror, and non-finite
    parts (written as nulls) give the reference bytes."""
    path = tmp_path / "m.json"
    _write_matrix_file(str(path), M)
    assert path.read_text(encoding="utf-8") == _reference_matrix_file(M)


def _layout_corpus(name: str) -> np.ndarray:
    rng = np.random.default_rng(31)
    signs = rng.choice([-1.0, 1.0], 8192)
    if name == "random-bits":  # NaN payloads, infinities and subnormals among them
        return rng.integers(0, 2**64, 8192, dtype=np.uint64, endpoint=False).view(np.float64)
    if name == "log-uniform":
        return signs * 10.0 ** rng.uniform(-12, 20, 8192)
    if name in ("1e-6-to-1e-3", "1e-6-to-1e-3-plus-10"):  # the decade [1e-5, 1e-4) and its neighbours
        small = signs * 10.0 ** rng.uniform(-6, -3, 8192)
        return small + 10 if name.endswith("plus-10") else small
    if name == "powers-of-two":  # every seventh, 2**-1074 to 2**1023
        powers = np.ldexp(1.0, np.arange(-1074, 1024, 7))
        return np.concatenate([powers, -powers])
    if name == "signed-zeros":
        return rng.choice([0.0, -0.0], 512)
    return rng.choice([np.nan, np.inf, -np.inf, -0.0, 1e-5, 2.5e16], 512)  # non-finite mixes


@pytest.mark.parametrize(
    "corpus",
    ["random-bits", "log-uniform", "1e-6-to-1e-3", "1e-6-to-1e-3-plus-10", "powers-of-two", "signed-zeros",
     "non-finite"],
)
def test_orjson_layout_guard(tmp_path, corpus):
    """orjson's float text is not a documented contract: the row path and the
    encoder of a document's other values must give the json module's bytes,
    so a change in orjson fails here instead of moving stdout."""
    values = _layout_corpus(corpus)
    n = math.isqrt(len(values) // 2 - 1) + 1  # 16 rows or more: more than one orjson block
    M = np.resize(values, 2 * n * n).view(np.complex128).reshape(n, n)
    path = tmp_path / "m.json"
    _write_matrix_file(str(path), M)
    assert path.read_text(encoding="utf-8") == _reference_matrix_file(M)
    listed = values.tolist()
    assert _json_layout(orjson.dumps(listed)) == json.dumps([x if math.isfinite(x) else None for x in listed])


def test_analyze_prints_a_class_count_beyond_64_bits(capsys, tmp_path):
    """66 real eigenvalues: 2**65 classes, an integer orjson refuses to write."""
    path = write_matrix_json(tmp_path / "diag66.json", np.diag(np.arange(1.0, 67.0)))
    code, text, _ = run(capsys, "analyze", path, parse=False)
    assert code == 0
    assert text.endswith('\n "class_count": 36893488147419103232\n}\n')
    assert json.loads(text)["class_count"] == 2**65


@pytest.mark.parametrize("argv", [["analyze", "{dir}/café.json"], ["analyze", "{dir}/x.json", "--é"]],
                         ids=["path", "argv-token"])
def test_error_document_escapes_non_ascii(capsys, tmp_path, argv):
    """A message echoing a path or an argv token writes é as the json module
    does, as the escape \\u00e9 (orjson would write its UTF-8 bytes)."""
    code, text, _ = run(capsys, *(a.format(dir=tmp_path) for a in argv), parse=False)
    assert code == 1
    assert "\\u00e9" in text and "é" not in text
    assert "é" in json.loads(text)["error"]["message"]


def _writer_peak(path, M) -> int:
    """The traced peak of writing ``M`` as a matrix file, in bytes."""
    tracemalloc.start()
    try:
        _write_matrix_file(str(path), M)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_file_writer_memory_stays_near_the_matrix(tmp_path):
    rng = np.random.default_rng(7)
    M = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    assert _writer_peak(tmp_path / "m.json", M) <= 2 * M.nbytes


@pytest.mark.parametrize("n", [256, 512])
def test_hermitian_matrix_file_writer_memory_stays_near_the_matrix(tmp_path, n):
    """A block of rows in flight, its orjson bytes and its row texts, stays
    under twice the matrix's own bytes."""
    rng = np.random.default_rng(7)
    M = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert _writer_peak(tmp_path / "m.json", M) <= 2 * M.nbytes


def test_matrix_file_writer_holds_under_the_matrix_at_n128(tmp_path):
    """At n = 128 a block of 8 rows is a sixteenth of the matrix; its copies
    in flight stay under the matrix's own bytes (16 rows took twice them)."""
    rng = np.random.default_rng(7)
    M = hermitize(rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    assert _writer_peak(tmp_path / "m.json", M) <= M.nbytes


def _joined_doc(doc) -> str:
    """The emitter before it streamed: every piece of the document, the
    texts of a _Lines included, joined into one str and printed."""

    def pieces(value, depth, encode, out):
        if isinstance(value, _Lines):
            items = list(value.texts)
            first = len(out)
            out += chain.from_iterable(zip(repeat(",\n" + value.pad), items))
            out[first : first + 1] = ["[\n" + value.pad]
            out.append("\n" + " " * depth + "]")
        elif isinstance(value, dict):
            start, sep, end = ("{\n ", ",\n ", "\n}") if depth == 0 else ("{", ", ", "}")
            out.append(start)
            for i, (key, item) in enumerate(value.items()):
                out.append(f'{sep if i else ""}"{key}": ')
                pieces(item, depth + 1, encode, out)
            out.append(end)
        else:
            out.append(encode(value))

    def to_null(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return [to_null(v) for v in value] if isinstance(value, list) else value

    strict = json.JSONEncoder(allow_nan=False)
    out = []
    try:
        pieces(doc, 0, strict.encode, out)
    except ValueError:
        out = []
        pieces(doc, 0, lambda value: strict.encode(to_null(value)), out)
    return "".join(out) + "\n"


_CLASS_TEXTS = [
    '{"signs": [1], "n": [], "inertia": [1, 0, 0]}',
    '{"signs": [-1], "n": [], "inertia": [0, 1, 0]}',
]


@pytest.mark.parametrize(
    "make_doc",
    [
        lambda: _matrix_doc(np.array([[1 + 2j, -0.0], [5e-324, 1e308 - 1j]])),
        lambda: {"schema": 1, "count": 2, "classes": _Lines(iter(_CLASS_TEXTS), "  ")},
        lambda: {
            "schema": 1,
            "residual": float("nan"),
            "tail": [1.0, float("-inf")],
            "M": _matrix_doc(np.array([[1.0, np.inf], [np.nan, 0.0]])),
        },
    ],
    ids=["matrix", "iterator", "nonfinite"],
)
def test_write_doc_matches_one_join(make_doc):
    out = io.StringIO()
    _write_doc(make_doc(), out)
    assert out.getvalue() == _joined_doc(make_doc())
    _strict_json(out.getvalue())


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _with_cell(text: str) -> bytes:
    return b'{"schema": 1, "n": 2, "entries": [[[1, 0], [0, 0]], [[%s, 0], [1, 0]]]}' % text.encode()


@pytest.mark.parametrize(
    "raw,message",
    [
        (_with_cell("9" * 401), "row 2, column 1: integer too large for a float"),
        (_with_cell("9" * 5000), "number too large to parse"),
        (b"\xff\xfe{}", "not valid UTF-8"),
        (b"[" * 100000, "nested too deeply"),
    ],
    ids=["int-401-digits", "int-5000-digits", "not-utf8", "deep-nesting"],
)
def test_unreadable_file_exits_1(capsys, tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, text, err = run(capsys, "analyze", str(path), parse=False)
    doc = _strict_json(text)
    assert code == 1
    assert doc["error"]["type"] == "FileFormatError"
    assert message in doc["error"]["message"]
    assert "Traceback" not in err


_READS = {
    "ok": json.dumps({"schema": 1, "n": 1, "entries": [[[1, 0]]]}).encode(),
    "missing": None,
    "invalid-json": b"not json at all {",
    "bad-cell": _with_cell('"x"'),
    "deep-nesting": b"[" * 100000,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", list(_READS))
def test_read_restores_collector_state(tmp_path, case, enabled):
    path = tmp_path / "m.json"
    if _READS[case] is not None:
        path.write_bytes(_READS[case])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "ok":
            read_matrix_file(str(path))
        else:
            with pytest.raises(FileFormatError):
                read_matrix_file(str(path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ------------------------------------------ orjson's path against json.load's


def _two_readers(raw: bytes):
    """The arrays orjson's flat path and json.load's path make of ``raw``, a
    matrix file that the flat path takes."""
    fast = _flat_matrix(raw)
    assert fast is not None
    return fast, _matrix_of_doc(_json_doc(raw, "m.json"), "m.json")


@pytest.mark.parametrize("n,r,p", [(1, 1, 0), (2, 0, 1), (8, 4, 2), (32, 16, 8), (128, 64, 32), (256, 128, 64)])
def test_orjson_path_reads_generated_files_as_json_load_does(capsys, tmp_path, n, r, p):
    # (256, 128, 64) is CI's largest instance; _M.json is written from its upper triangle
    out = str(tmp_path / "g")
    assert main(["generate", f"--n={n}", f"--r={r}", f"--p={p}", "--seed=1", f"--out={out}"]) == 0
    capsys.readouterr()
    for path in (out + "_H.json", out + "_M.json"):
        with open(path, "rb") as fh:
            fast, reference = _two_readers(fh.read())
        assert fast.tobytes() == reference.tobytes()
        assert read_matrix_file(path).tobytes() == fast.tobytes()


@pytest.mark.parametrize("layout", ["indent-1", "indent-tab", "spaced-crlf"])
def test_orjson_path_reads_indented_files_as_json_load_does(layout):
    # whitespace inside every bracket, as json.dump(..., indent=...) writes it
    H = make_instance(128, 64, 32, seed=1).H
    doc = {"schema": 1, "n": 128, "entries": [[[z.real, z.imag] for z in row] for row in H.tolist()]}
    if layout == "spaced-crlf":
        raw = json.dumps(doc).replace("[", "[ ").replace("]", "\r\n]").encode()
    else:
        raw = json.dumps(doc, indent=1 if layout == "indent-1" else "\t").encode()
    fast, reference = _two_readers(raw)
    assert fast.tobytes() == reference.tobytes() == H.tobytes()


def _midpoint_literal(x: float) -> str:
    """The exact decimal of the midpoint between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200  # a double's exact decimal has at most 767 significant digits
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


def _literal_corpus() -> list[str]:
    bits = np.random.default_rng(30).integers(0, 2**64, size=300, dtype=np.uint64, endpoint=False)
    doubles = [x for x in bits.view(np.float64).tolist() if math.isfinite(math.nextafter(abs(x), math.inf))]
    doubles += [k * 5e-324 for k in (1, 2, 3, 2**52 - 1, 2**52)] + [2.0**k for k in (-1022, -1, 0, 52, 53, 1023)]
    literals = []
    for x in doubles:
        literals += [_midpoint_literal(x), _midpoint_literal(-x)]  # ties: round half to even
        literals += [f"{x:.{digits - 1}e}" for digits in range(17, 41)]
    literals += ["5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "1.7976931348623157e308"]
    ints = [2**64, 2**64 + 1, 2**64 + 2**11, 2**64 + 2**11 + 1, 2**64 + 3 * 2**11, 2**63 + 1, 10**20]
    ints += [2**k + 2**(k - 53) for k in range(64, 1024, 37)]  # ties between two doubles
    ints += [int(x) for x in doubles if 2.0**64 <= abs(x) < 2.0**1023]
    literals += [str(i) for i in ints] + [str(-i) for i in ints] + [str(-(2**63) - 1), "-0"]
    return literals


def test_orjson_path_rounds_every_literal_as_json_load_does():
    literals = _literal_corpus()
    n = math.isqrt(-(-len(literals) // 2) - 1) + 1  # 2 n^2 parts hold every literal
    parts = literals + ["0"] * (2 * n * n - len(literals))
    cells = [f"[{parts[k]}, {parts[k + 1]}]" for k in range(0, len(parts), 2)]
    rows = ", ".join("[" + ", ".join(cells[i * n : (i + 1) * n]) + "]" for i in range(n))
    fast, reference = _two_readers(f'{{"schema": 1, "n": {n}, "entries": [{rows}]}}'.encode())
    assert fast.tobytes() == reference.tobytes()
    # and both round as Python does: an integer literal as an int, then to float
    rounded = [float(int(s)) if s.lstrip("-").isdigit() else float(s) for s in parts]
    assert fast.view(np.float64).ravel().tobytes() == np.array(rounded).tobytes()


_ONE = b'{"schema": 1, "n": 1, "entries": [[[1, 0]]]}'
_DEEP = b"[" * 1100 + b"]" * 1100
# (bytes, exit code of analyze, whether they reach orjson); None: the code
# depends on the Python version's recursion limit
_OUTCOMES = {
    "true": (_with_cell("true"), 1, False),
    "string": (_with_cell('"x"'), 1, False),
    "null": (_with_cell("null"), 1, False),
    "nan": (_with_cell("NaN"), 1, False),
    "infinity": (_with_cell("Infinity"), 1, False),
    "1e400": (_with_cell("1e400"), 1, True),
    "int-400-digits": (_with_cell("9" * 400), 1, True),
    "n-2**64": (_ONE.replace(b'"n": 1', b'"n": %d' % 2**64), 1, True),
    "schema-1.0": (_ONE.replace(b'"schema": 1', b'"schema": 1.0'), 1, True),
    "bom": (b"\xef\xbb\xbf" + _ONE, 1, True),
    "not-utf8": (_ONE[:-1] + b', "x": "\xff"}', 1, True),
    "trailing-data": (_ONE + b" x", 1, True),
    "deep-1100": (_ONE[:-1] + b', "x": ' + _DEEP + b"}", None, False),
    "deep-100000": (b"[" * 100000 + b"]" * 100000, 1, False),
    "short-row": (b'{"schema": 1, "n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}', 1, False),
    "brackets-in-a-string": (b'{"schema": 1, "n": 1, "x": "[[[]]]", "entries": 5}', 1, False),
    "lone-surrogate-key": (_ONE[:-1] + b', "x": "\\ud800"}', 0, True),
    "ints-beyond-64-bits": (
        b'{"schema": 1, "n": 2, "entries": [[[%d, 0], [0, 0]], [[0, 0], [%d, 0]]]}'
        % (2**64 + 2**11 + 1, -(2**63) - 1),
        0,
        True,
    ),
}


def _analyze_both_ways(capsys, monkeypatch, path):
    """analyze's (exit code, stdout, stderr) on ``path``, whether orjson
    parsed the file, and the triple of json.load's path alone."""
    parses, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda data: parses.append(data) or loads(data))
    got = run(capsys, "analyze", str(path), parse=False)
    reached = bool(parses)
    parses.clear()
    json_docs, json_doc = [], phm.cli._json_doc
    monkeypatch.setattr(phm.cli, "_flat_matrix", lambda data: None)
    monkeypatch.setattr(phm.cli, "_json_doc", lambda *args: json_docs.append(args) or json_doc(*args))
    reference = run(capsys, "analyze", str(path), parse=False)
    assert (len(parses), len(json_docs)) == (0, 1)  # the reference read is json.load's alone
    return got, reached, reference


@pytest.mark.parametrize("case", list(_OUTCOMES))
def test_orjson_path_keeps_every_outcome(capsys, monkeypatch, tmp_path, case):
    # exit code, stdout and stderr are those of json.load's path alone
    raw, code, reaches_orjson = _OUTCOMES[case]
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    got, reached, reference = _analyze_both_ways(capsys, monkeypatch, path)
    assert reached is reaches_orjson
    assert reference == got
    _strict_json(got[1])
    if code is not None:
        assert got[0] == code


def _with_entries(entries: bytes, n: int = 2) -> bytes:
    return b'{"schema": 1, "n": %d, "entries": %s}' % (n, entries)


# Inputs built to slip past the flat path's gate: (bytes, exit code of
# analyze, whether orjson parses them there).
_TRAPS = {
    "entries-0-grid-elsewhere": (b'{"entries": 0, "x": [[[1, 0]]], "schema": 1, "n": 1}', 1, True),
    "entries-twice-grid-last": (b'{"schema": 1, "n": 1, "entries": 0, "entries": [[[1, 0]]]}', 0, True),
    "entries-twice-grid-first": (b'{"schema": 1, "n": 1, "entries": [[[1, 0]]], "entries": 0}', 1, True),
    "cells-of-3-and-1": (_with_entries(b"[[[1, 0, 0], [0]], [[0, 0], [2, 0]]]"), 1, False),
    "cells-of-1-and-3": (_with_entries(b"[[[1], [0, 0, 0]], [[0, 0], [2, 0]]]"), 1, False),
    "comma-missing": (_with_entries(b"[[[1, 0] [0, 0]], [[0, 0], [2, 0]]]"), 1, False),
    "number-after-a-cell": (_with_entries(b"[[[1, ]0]]", 1), 1, False),
    "number-before-a-cell": (_with_entries(b"[[1[, 0]]]", 1), 1, False),
    "number-after-a-row": (_with_entries(b"[[[1, 0], [0, 0]]3, [[0, 0], [2, ]]]"), 1, False),
    "number-after-a-cell-past-spaces": (_with_entries(b"[[[1,\r\n ]0]]", 1), 1, False),
    "number-before-a-cell-past-spaces": (_with_entries(b"[[1[\t, 0]]]", 1), 1, False),
    "spaces-inside-brackets": (_with_entries(b"[ [ [1, 0], [0, 0] ], [ [ 0, 0], [2, 0 ] ] ]"), 0, True),
    "stray-bracket-before": (b'{"schema": 1,] "n": 1, "entries": [[[1, 0]]]}', 1, True),
    "brace-in-a-string": (_ONE[:-1] + b', "x": "{"}', 0, False),
    "bracket-in-a-string-before": (b'{"x": "[", ' + _ONE[1:], 0, False),
    "bracket-in-a-string-after": (_ONE[:-1] + b', "x": "]"}', 0, False),
    "closing-bracket-in-a-string-before": (b'{"x": "]", ' + _ONE[1:], 0, True),
    "string-1": (_with_cell('"1"'), 1, False),
    "plus-1": (_with_cell("+1"), 1, False),
    "point-5": (_with_cell(".5"), 1, True),
    "leading-zero": (_with_cell("01"), 1, True),
    "crlf-and-tabs-in-cells": (_with_entries(b"[[[1,\r\n 0], [0,\t0]], [[0\r\n, 0], [2\t, 0]]]"), 0, True),
    "minus-zero": (_with_entries(b"[[[1, -0], [-0, -0.0]], [[-0.0, -0], [2, -0.0]]]"), 0, True),
    "ints-from-2**64": (
        _with_entries(b"[[[%d, 0], [%d, 0]], [[0, 0], [%d, 0]]]" % (2**64, 10**20, -(2**65) - 1)),
        0,
        True,
    ),
    "not-utf8-key": (_ONE[:-1] + b', "\xff": 1}', 1, True),
}


@pytest.mark.parametrize("case", list(_TRAPS))
def test_flat_path_trap_keeps_json_load_outcome(capsys, monkeypatch, tmp_path, case):
    raw, code, reaches_orjson = _TRAPS[case]
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    got, reached, reference = _analyze_both_ways(capsys, monkeypatch, path)
    assert reached is reaches_orjson
    assert got == reference
    assert got[0] == code
    _strict_json(got[1])


@pytest.mark.parametrize(
    "nest", [b"[" * 10**6, b'{"a": ' * 10**6 + b"1" + b"}" * 10**6], ids=["open-arrays", "closed-objects"]
)
def test_flat_path_million_openers_after_the_array_exit_1_without_a_crash(capsys, monkeypatch, tmp_path, nest):
    # orjson would recurse a million deep and overflow the C stack; the child
    # reads with the gate, the reference with json.load alone
    path = tmp_path / "deep.json"
    path.write_bytes(_ONE[:-1] + b', "x": ' + nest + b"}")
    proc = subprocess.run(
        [sys.executable, "-m", "phm", "analyze", str(path)], capture_output=True, env=_child_env(), timeout=60
    )
    monkeypatch.setattr(phm.cli, "_flat_matrix", lambda data: None)
    reference = run(capsys, "analyze", str(path), parse=False)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == reference
    assert json.loads(proc.stdout)["error"]["message"] == f"{path}: arrays or objects nested too deeply"


@pytest.mark.parametrize(
    "raw",
    [
        b'{"schema": 1,\r\n "n": 1,\r\n "entries": [[[1, 0]]]\r\n}',
        b'{\r\n "a": 1,\r\n "b": x\r\n}',
        b'{"a": "x\ry"}',
        b'{"a": "' + b"x" * 10000 + b'\xff"}',
        b'{"a": "\xe2\x82',
        b"\xef\xbb\xbf{}",
    ],
    ids=["crlf", "crlf-error", "cr-in-string", "bad-byte-late", "cut-character", "bom"],
)
def test_json_doc_reads_the_bytes_as_a_text_file(tmp_path, raw):
    # positions in messages count characters after newline translation
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            expected = json.load(fh)
    except ValueError as exc:
        expected = str(exc)
    try:
        got = _json_doc(raw, str(path))
    except FileFormatError as exc:
        got = str(exc.__cause__)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_refusal_read_from_a_pipe_keeps_its_message(capsys, tmp_path):
    # a pipe is read once: json.load words the refusal from the same bytes
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(_with_cell("true"),), daemon=True)
    writer.start()
    code, doc, _ = run(capsys, "analyze", str(path))
    writer.join(timeout=10)
    assert code == 1
    assert doc["error"]["message"] == f"{path}: row 2, column 1: re/im must be numbers"


def test_a_million_nested_arrays_exit_1_without_a_crash(tmp_path):
    # orjson would recurse a million deep and overflow the C stack
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 10**6 + b"]" * 10**6)
    proc = subprocess.run(
        [sys.executable, "-m", "phm", "analyze", str(path)], capture_output=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["message"] == f"{path}: arrays or objects nested too deeply"


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("SVD did not converge"), MemoryError()]
)
def test_solver_failure_exits_4(capsys, monkeypatch, diag_file, exc):
    import phm.oracle

    def broken_svd(*args, **kwargs):
        raise exc

    monkeypatch.setattr(phm.oracle.np.linalg, "svd", broken_svd)
    code, text, err = run(capsys, "oracle", diag_file, parse=False)
    doc = _strict_json(text)
    assert code == 4
    assert doc["error"]["type"] == type(exc).__name__
    assert "Traceback" not in err


def test_cli_malformed_file_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, doc, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert doc["error"]["type"] == "FileFormatError"
    assert err


# ----------------------------------------------------------------- analyze


def test_analyze_rotation(capsys, rot_file):
    code, doc, _ = run(capsys, "analyze", rot_file)
    assert code == 0
    assert (doc["n"], doc["r"], doc["p"]) == (2, 0, 1)
    assert doc["is_ph_admissible"] is True
    assert doc["inertia_floor"] == [1, 1]
    assert doc["class_count"] == 1
    assert doc["min_gap"] == pytest.approx(2.0)


def test_analyze_diagonal(capsys, diag_file):
    code, doc, _ = run(capsys, "analyze", diag_file)
    assert code == 0
    assert (doc["r"], doc["p"]) == (2, 0)
    assert doc["inertia_floor"] == [0, 0]
    assert doc["class_count"] == 2
    assert doc["eigenvalues"] == [[1.0, 0.0], [2.0, 0.0]]


def test_analyze_inadmissible(capsys, tmp_path):
    # the value nearest conj(i) = -i is i itself, 2 away, and max|lam| is 2;
    # the figure is taken at unit scale, so 2**600 changes nothing
    for c in (1.0, 2.0**600):
        path = write_matrix_json(tmp_path / "bad.json", c * np.diag([1.0j, 2.0]))
        code, doc, _ = run(capsys, "analyze", path)
        assert code == 2
        assert doc["is_ph_admissible"] is False
        assert doc["conjugation_defect"] == 1.0


def test_analyze_degenerate(capsys, tmp_path):
    path = write_matrix_json(tmp_path / "eye.json", np.eye(2))
    code, doc, _ = run(capsys, "analyze", path)
    assert code == 3
    assert doc["error"]["type"] == "DegenerateSpectrumError"


def test_analyze_single_entry_min_gap_null(capsys, tmp_path):
    path = write_matrix_json(tmp_path / "one.json", np.array([[5.0]]))
    code, doc, _ = run(capsys, "analyze", path)
    assert code == 0
    assert doc["min_gap"] is None
    assert doc["class_count"] == 1


def test_default_tol_env_var(capsys, tmp_path, monkeypatch):
    # gap 1e-5 passes the default 1e-8 gap tolerance, fails a 1e-3 one
    path = write_matrix_json(tmp_path / "near.json", np.diag([1.0, 1.0 + 1e-5]))
    assert run(capsys, "analyze", path)[0] == 0
    monkeypatch.setenv("PHM_DEFAULT_TOL", "1e-3")
    assert run(capsys, "analyze", path)[0] == 3
    # explicit flag overrides the env default
    assert run(capsys, "analyze", path, "--gap-tol", "1e-8")[0] == 0
    monkeypatch.setenv("PHM_DEFAULT_TOL", "zero")
    assert run(capsys, "analyze", path)[0] == 5


# ------------------------------------------------------ metric / canonical


def test_metric_golden_tau(capsys, rot_file):
    code, doc, _ = run(capsys, "metric", rot_file, "--tau", "1+0i")
    assert code == 0
    M = np.array([[complex(a, b) for a, b in row] for row in doc["M"]["entries"]])
    np.testing.assert_allclose(M, SIGMA_Z, atol=1e-12)
    assert doc["inertia"] == [1, 1, 0]
    assert doc["residual"] <= 1e-9

    code, doc, _ = run(capsys, "metric", rot_file, "--tau", "0+1i")
    M = np.array([[complex(a, b) for a, b in row] for row in doc["M"]["entries"]])
    np.testing.assert_allclose(M, SIGMA_X, atol=1e-12)


def test_metric_count_mismatch(capsys, diag_file):
    code, doc, _ = run(capsys, "metric", diag_file, "--mu", "1")
    assert code == 5
    assert "expected 2" in doc["error"]["message"]


def test_metric_rejects_tiny_parameter(capsys, tmp_path, diag_file):
    # M = diag(1, 1e-11): its eigenvalue ratio is under verify's null cut
    code, doc, _ = run(capsys, "metric", diag_file, "--mu", "1,1e-11")
    assert code == 5
    assert "= 1.000e-11 <= null cut 1e-10" in doc["error"]["message"]
    # M = diag(1, 1e-9) is above the cut, however small its entry: verify accepts it
    code, doc, _ = run(capsys, "metric", diag_file, "--mu", "1,1e-9")
    assert code == 0
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps(doc["M"]))
    code, verdict, _ = run(capsys, "verify", diag_file, str(metric))
    assert code == 0
    assert verdict["inertia"] == doc["inertia"] == [2, 0, 0]
    code, _, _ = run(capsys, "metric", diag_file, "--mu", "1,-3")
    assert code == 0


def test_canonical_identity(capsys, diag_file):
    code, doc, _ = run(capsys, "canonical", diag_file, "--signs", "+,+")
    assert code == 0
    M = np.array([[complex(a, b) for a, b in row] for row in doc["M"]["entries"]])
    np.testing.assert_allclose(M, np.eye(2), atol=1e-12)
    assert doc["inertia"] == [2, 0, 0]


def test_canonical_double_cover(capsys, rot_file):
    _, doc_a, _ = run(capsys, "canonical", rot_file, "--n", "0", "--theta", "0")
    _, doc_b, _ = run(
        capsys, "canonical", rot_file, "--n", "1", "--theta", "3.14159265358979"
    )
    for doc in (doc_a, doc_b):
        M = np.array([[complex(a, b) for a, b in row] for row in doc["M"]["entries"]])
        np.testing.assert_allclose(M, SIGMA_Z, atol=1e-11)


def test_canonical_length_mismatch(capsys, rot_file):
    code, doc, _ = run(capsys, "canonical", rot_file, "--n", "0,1", "--theta", "0")
    assert code == 5


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--signs", "+,x"], "signs must be '+' or '-', got 'x'"),
        (["--signs", " 1"], "signs must be '+' or '-', got ' 1'"),
        (["--n", "0, 2"], "orientation bits must be 0 or 1, got ' 2'"),
        (["--n", "+"], "orientation bits must be 0 or 1, got '+'"),
    ],
)
def test_canonical_bad_letter_exits_5(capsys, diag_file, flags, message):
    code, doc, err = run(capsys, "canonical", diag_file, *flags)
    assert code == 5
    assert doc["error"] == {"type": "ParameterError", "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("theta", ["1e400", "-1e400"])
def test_canonical_rejects_nonfinite_theta(capsys, rot_file, theta):
    code, doc, _ = run(capsys, "canonical", rot_file, "--n", "0", f"--theta={theta}")
    assert code == 5
    assert doc["error"]["message"] == f"--theta entries must be finite, got {float(theta)}"


def test_canonical_reduces_theta_mod_2pi(capsys, rot_file):
    _, doc_a, _ = run(capsys, "canonical", rot_file, "--n", "0", "--theta", "1")
    theta_wrapped = str(1.0 + 2.0 * math.pi)
    _, doc_b, _ = run(capsys, "canonical", rot_file, "--n", "0", "--theta", theta_wrapped)
    a = np.array(doc_a["M"]["entries"])
    b = np.array(doc_b["M"]["entries"])
    assert np.max(np.abs(a - b)) <= 1e-14


# ---------------------------------------------------------------- enumerate


def test_enumerate_diagonal(capsys, diag_file):
    code, doc, _ = run(capsys, "enumerate", diag_file)
    assert code == 0
    assert doc["count"] == 2
    assert [c["inertia"] for c in doc["classes"]] == [[2, 0, 0], [1, 1, 0]]


def test_enumerate_rotation(capsys, rot_file):
    code, doc, _ = run(capsys, "enumerate", rot_file)
    assert doc["count"] == 1
    assert doc["classes"] == [{"signs": [], "n": [0], "inertia": [1, 1, 0]}]
    code, doc, _ = run(capsys, "enumerate", rot_file, "--no-mod-global")
    assert doc["count"] == 2


def test_enumerate_one_class_per_line(capsys, diag_file):
    _, text, _ = run(capsys, "enumerate", diag_file, parse=False)
    class_lines = [ln for ln in text.splitlines() if '"signs"' in ln]
    assert len(class_lines) == 2


def test_enumerate_mixed_split_inertias(capsys, tmp_path):
    # r=1, p=1: both representatives carry sign +1, hence inertia [2,1,0];
    # the flipped [1,2,0] members appear in the unquotiented listing
    H = np.zeros((3, 3), dtype=complex)
    H[0, 0] = 0.5
    H[1:, 1:] = ROT2
    path = write_matrix_json(tmp_path / "mixed.json", H)
    code, doc, _ = run(capsys, "enumerate", path)
    assert code == 0
    assert doc["count"] == 2
    assert all(c["signs"][0] == 1 for c in doc["classes"])
    assert all(c["inertia"] == [2, 1, 0] for c in doc["classes"])
    code, doc, _ = run(capsys, "enumerate", path, "--no-mod-global")
    assert doc["count"] == 4
    assert sorted(tuple(c["inertia"]) for c in doc["classes"]) == [
        (1, 2, 0),
        (1, 2, 0),
        (2, 1, 0),
        (2, 1, 0),
    ]


def _reference_enumerate_stdout(r, p, mod_global):
    """The enumerate printer the string tables replaced: a dict and a
    json.dumps per class, over the filtered full product."""
    rows = []
    for signs in product((1, -1), repeat=r):
        for bits in product((0, 1), repeat=p):
            if mod_global and not is_global_representative(signs, bits):
                continue
            pos = sum(1 for s in signs if s > 0)
            rows.append({"signs": list(signs), "n": list(bits), "inertia": [p + pos, p + (r - pos), 0]})
    body = ",\n".join("  " + json.dumps(row) for row in rows)
    classes_block = "[\n%s\n ]" % body if rows else "[]"
    return '{\n "schema": 1,\n "count": %d,\n "classes": %s\n}\n' % (len(rows), classes_block)


def _split_matrix(r, p):
    """Real block-diagonal H with eigenvalues 1..r and k +- 1i, k = 1..p."""
    H = np.zeros((r + 2 * p, r + 2 * p))
    H[np.arange(r), np.arange(r)] = np.arange(1, r + 1)
    for k in range(p):
        i = r + 2 * k
        H[i : i + 2, i : i + 2] = [[k + 1, 1.0], [-1.0, k + 1]]
    return H


def test_enumerate_cap_exits_6(capsys, tmp_path):
    path = write_matrix_json(tmp_path / "h.json", _split_matrix(11, 10))
    code, text, _ = run(capsys, "enumerate", path, parse=False)
    assert code == 6
    assert text == (
        '{\n "schema": 1,\n "error": {"type": "EnumerationCapError", '
        '"message": "refusing to list 2**21 classes (cap r + p <= 20)"}\n}\n'
    )


def test_generate_cap_exits_6(capsys, tmp_path):
    out = tmp_path / "big"
    argv = ["generate", "--n", "1025", "--r", "1", "--p", "512", "--seed", "0", "--out", str(out)]
    code, doc, _ = run(capsys, *argv)
    assert code == 6
    assert doc["error"] == {
        "type": "EnumerationCapError",
        "message": "generation is capped at n <= 1024, got n = 1025",
    }
    assert list(tmp_path.iterdir()) == []


class _RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("mod_global", [True, False])
def test_enumerate_writes_one_block_at_a_time(tmp_path, mod_global):
    path = write_matrix_json(tmp_path / "h.json", _split_matrix(8, 8))
    out = _RecordingStream()
    with redirect_stdout(out):
        code = main(["enumerate", path] + ([] if mod_global else ["--no-mod-global"]))
    assert code == 0
    text = out.getvalue()
    assert text == _reference_enumerate_stdout(8, 8, mod_global)
    assert max(out.sizes) <= len(text) / 8


# r + p -> the values of r checked. At r + p = 14 and 16 (16 is the
# benchmark's scale; both half tables longer than one word): r == (r + p) // 2,
# r = 0, p = 0 and their neighbours.
_REFERENCE_SPLITS = {
    **{k: range(k + 1) for k in range(1, 13)},
    14: (0, 1, 7, 13, 14),
    16: (0, 1, 8, 15, 16),
}


@pytest.mark.parametrize("k", _REFERENCE_SPLITS)
def test_enumerate_matches_reference_printer(capsys, tmp_path, k):
    for r in _REFERENCE_SPLITS[k]:
        path = write_matrix_json(tmp_path / f"h{r}.json", _split_matrix(r, k - r))
        for mod_global in (True, False):
            argv = ["enumerate", path] + ([] if mod_global else ["--no-mod-global"])
            code, text, _ = run(capsys, *argv, parse=False)
            assert code == 0
            assert text == _reference_enumerate_stdout(r, k - r, mod_global), (r, mod_global)


# ------------------------------------------------------------------- oracle


def test_oracle_diagonal(capsys, diag_file):
    code, doc, _ = run(capsys, "oracle", diag_file)
    assert code == 0
    assert doc["kernel_dimension"] == 2
    assert doc["max_projection_defect"] <= 1e-8
    assert doc["max_recovery_defect"] <= 1e-8
    assert doc["params_recovered"] is True


def test_oracle_identity_reports_dimension(capsys, tmp_path):
    path = write_matrix_json(tmp_path / "eye.json", np.eye(2))
    code, doc, _ = run(capsys, "oracle", path)
    assert code == 3
    assert doc["kernel_dimension"] == 4
    assert doc["family_complete"] is False


# ------------------------------------------------------- generate / verify


def test_generate_round_trip(capsys, tmp_path):
    out = str(tmp_path / "inst")
    code, doc, _ = run(
        capsys, "generate", "--n", "4", "--r", "2", "--p", "1", "--seed", "1",
        "--out", out,
    )
    assert code == 0
    assert doc["residual"] <= 1e-9
    code, doc, _ = run(capsys, "analyze", doc["files"]["H"])
    assert code == 0
    assert (doc["r"], doc["p"]) == (2, 1)
    code, _, _ = run(capsys, "verify", out + "_H.json", out + "_M.json")
    assert code == 0


def test_generate_deterministic_files(capsys, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        code, _, _ = run(
            capsys, "generate", "--n", "3", "--r", "1", "--p", "1", "--seed", "7",
            "--out", out,
        )
        assert code == 0
    assert (tmp_path / "a_H.json").read_bytes() == (tmp_path / "b_H.json").read_bytes()
    assert (tmp_path / "a_M.json").read_bytes() == (tmp_path / "b_M.json").read_bytes()


def test_generate_observable_mode(capsys, tmp_path):
    metric = write_matrix_json(tmp_path / "sigz.json", SIGMA_Z)
    out = str(tmp_path / "obs")
    code, doc, _ = run(
        capsys, "generate", "--mode", "observable", "--metric", metric,
        "--seed", "5", "--out", out,
    )
    assert code == 0
    assert doc["residual"] <= 1e-12
    Phi = read_matrix_file(out + "_H.json")
    A = read_matrix_file(out + "_A.json")
    np.testing.assert_allclose(Phi.conj().T @ SIGMA_Z, SIGMA_Z @ Phi, atol=1e-12)
    np.testing.assert_allclose(A, A.conj().T, atol=0)


@pytest.mark.parametrize("diagonal", [[1e200, -2e200], [1e308, -1e308]])
def test_generate_observable_metric_near_overflow(capsys, tmp_path, diagonal):
    metric = write_matrix_json(tmp_path / "big.json", np.diag(diagonal))
    out = str(tmp_path / "obs")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would fail here
        code, doc, err = run(
            capsys, "generate", "--mode", "observable", "--metric", metric,
            "--seed", "1", "--out", out,
        )
    assert code == 0
    assert err == ""
    assert doc["residual"] <= 1e-12


def test_generate_observable_nonhermitian_near_1e200_exits_5(capsys, tmp_path):
    metric = write_matrix_json(tmp_path / "big.json", 1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    code, doc, _ = run(
        capsys, "generate", "--mode", "observable", "--metric", metric,
        "--seed", "1", "--out", str(tmp_path / "obs"),
    )
    assert code == 5
    assert doc["error"]["type"] == "NonHermitianError"


def test_generate_observable_singular_metric_exits_5(capsys, tmp_path):
    # 5e-11 is below inertia_of_matrix's null cut, so verify would call it singular
    metric = write_matrix_json(tmp_path / "m.json", np.diag([1.0, -1.0, 5e-11]))
    code, doc, _ = run(
        capsys, "generate", "--mode", "observable", "--metric", metric,
        "--seed", "1", "--out", str(tmp_path / "obs"),
    )
    assert code == 5
    assert doc["error"] == {
        "type": "ParameterError",
        "message": "metric must be invertible (no near-zero eigenvalues)",
    }
    assert not os.path.exists(tmp_path / "obs_H.json")


def test_generate_observable_accepts_what_verify_accepts(capsys, tmp_path):
    # hermiticity defect 5e-11, inside HERMITICITY_TOL; the residual is of that order
    M = SIGMA_Z + 2.5e-11j * np.eye(2)
    metric = write_matrix_json(tmp_path / "m.json", M)
    out = str(tmp_path / "obs")
    code, doc, err = run(
        capsys, "generate", "--mode", "observable", "--metric", metric,
        "--seed", "1", "--out", out,
    )
    assert code == 0 and err == ""
    assert 1e-12 < doc["residual"] <= 1e-9
    code, doc, err = run(capsys, "verify", out + "_H.json", out + "_M.json")
    assert code == 0 and err == ""
    assert doc["inertia"] == [1, 1, 0]


def test_generate_missing_flags(capsys, tmp_path):
    code, doc, _ = run(capsys, "generate", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 5
    code, doc, _ = run(
        capsys, "generate", "--mode", "observable", "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 5


def test_generate_exhaustion_exit_7(capsys, tmp_path, monkeypatch):
    import phm.cli as cli
    import phm.generators as gen

    def tight(n, r, p, seed, cond_max):
        return gen.GeneratorConfig(
            n=n, r=r, p=p, seed=seed, cond_max=cond_max,
            min_gap_target=10.0, max_attempts=3,
        )

    monkeypatch.setattr(cli, "GeneratorConfig", tight)
    code, doc, _ = run(
        capsys, "generate", "--n", "2", "--r", "2", "--p", "0", "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 7
    assert doc["error"]["type"] == "GenerationError"


def test_generate_beyond_n_90(capsys, tmp_path):
    # a fixed 0.01 relative gap is out of reach for 48 real eigenvalues in [-1, 1]
    code, doc, _ = run(
        capsys, "generate", "--n", "96", "--r", "48", "--p", "24", "--seed", "5",
        "--out", str(tmp_path / "x"),
    )
    assert code == 0
    assert doc["n"] == 96 and doc["residual"] <= 1e-9


def test_verify_golden(capsys, tmp_path, rot_file, diag_file):
    sigz = write_matrix_json(tmp_path / "sigz.json", SIGMA_Z)
    sigx = write_matrix_json(tmp_path / "sigx.json", SIGMA_X)
    dm = write_matrix_json(tmp_path / "dm.json", np.diag([1.0, -3.0]))

    code, doc, _ = run(capsys, "verify", diag_file, dm)
    assert code == 0 and doc["residual"] == 0.0

    code, doc, _ = run(capsys, "verify", rot_file, sigz)
    assert code == 0
    assert doc["inertia"] == [1, 1, 0]

    code, doc, err = run(capsys, "verify", diag_file, sigx)
    assert code == 8
    assert doc["residual"] > 1e-9
    assert "verification failed" in err


@pytest.mark.parametrize(
    "metric,inertia", [(np.zeros((2, 2)), [0, 0, 2]), (np.diag([1.0, 0.0]), [1, 0, 1])]
)
def test_verify_rejects_singular_metric(capsys, tmp_path, diag_file, metric, inertia):
    # residual 0 and hermitian, but a metric must be invertible
    path = write_matrix_json(tmp_path / "singular.json", metric)
    code, doc, err = run(capsys, "verify", diag_file, path)
    assert code == 8
    assert doc["inertia"] == inertia
    assert "null inertia" in err


def test_verify_size_mismatch(capsys, tmp_path, rot_file):
    m3 = write_matrix_json(tmp_path / "m3.json", np.eye(3))
    code, doc, _ = run(capsys, "verify", rot_file, m3)
    assert code == 1
    assert "mismatch" in doc["error"]["message"]


def test_verify_nonhermitian_candidate(capsys, tmp_path, diag_file):
    cand = write_matrix_json(tmp_path / "nh.json", np.array([[1.0, 1.0], [0.0, 2.0]]))
    code, doc, _ = run(capsys, "verify", diag_file, cand)
    assert code == 8
    assert doc["hermiticity_defect"] > 1e-10


def test_verify_entries_near_overflow(capsys, tmp_path):
    # H^dagger M and M + M^dagger overflow unscaled; the figures are scale-free
    H = write_matrix_json(tmp_path / "h.json", np.array([[1e308, 5e307], [-5e307, 1e308]]))
    M = write_matrix_json(tmp_path / "m.json", np.diag([1e308, -1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", H, M, parse=False)
    assert code == 0
    assert '"residual": 0.0' in out
    assert json.loads(out)["inertia"] == [1, 1, 0]
    assert err == ""


# ----------------------------------------------------------- gate limits


def test_generate_gate_failure_names_residual_on_stderr(capsys, tmp_path, monkeypatch):
    import phm.cli as cli

    original = cli.generate_via_spectrum

    def forced(cfg):
        inst = original(cfg)
        cert = dataclasses.replace(inst.certificate, residual=2e-9)
        return dataclasses.replace(inst, certificate=cert)

    monkeypatch.setattr(cli, "generate_via_spectrum", forced)
    code, doc, err = run(
        capsys, "generate", "--n", "4", "--r", "2", "--p", "1", "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 8
    assert doc["residual"] == 2e-9
    assert err == "warning: residual 2.000e-09 exceeds gate 1e-09\n"


@pytest.mark.parametrize(
    "field, message",
    [
        ("max_projection_defect", "projection defect 3.000e-08 (gate 1e-08), recovery defect"),
        ("max_recovery_defect", "recovery defect 3.000e-08 (gate 1e-08)"),
    ],
)
def test_oracle_gate_failure_names_defects_on_stderr(capsys, monkeypatch, diag_file, field, message):
    import phm.cli as cli

    original = cli.family_vs_kernel
    monkeypatch.setattr(
        cli, "family_vs_kernel",
        lambda *a, **k: dataclasses.replace(original(*a, **k), **{field: 3e-8}),
    )
    code, doc, err = run(capsys, "oracle", diag_file)
    assert code == 8
    assert doc[field] == 3e-8
    assert err.startswith("verification failed: projection defect ")
    assert message in err and err.count("\n") == 1


def test_oracle_single_entry_gap_ratio_null(capsys, tmp_path):
    # the kernel is the whole 1-dimensional space: no singular value lies past
    # the cut, so the gap ratio is inf
    path = write_matrix_json(tmp_path / "one.json", np.array([[5.0]]))
    code, text, _ = run(capsys, "oracle", path, parse=False)
    assert code == 0
    assert '"gap_ratio": null' in text


def test_oracle_ambiguous_rank_warning(capsys, monkeypatch, diag_file):
    import phm.cli as cli

    original = cli.solution_space
    monkeypatch.setattr(
        cli, "solution_space", lambda *a, **k: dataclasses.replace(original(*a, **k), gap_ratio=5.0)
    )
    code, text, _ = run(capsys, "oracle", diag_file, parse=False)
    assert code == 0
    assert '"warning": "rank decision is ambiguous (gap ratio < 10)"' in text
    assert json.loads(text)["gap_ratio"] == 5.0


def _off_hermitian(tmp_path, factor):
    """sigma_z + i eps I with relative hermiticity defect factor * HERMITICITY_TOL, and its file.

    The defect is ||2 i eps I|| / ||sigma_z + i eps I|| = 2 eps / sqrt(1 + eps^2).
    sigma_z is compatible with ROT2, so the residual against ROT2 is about
    sqrt(2) eps, far below the residual gate.
    """
    M = SIGMA_Z + 0.5j * factor * HERMITICITY_TOL * np.eye(2)
    assert hermiticity_defect(M) == pytest.approx(factor * HERMITICITY_TOL, rel=1e-9)
    return M, write_matrix_json(tmp_path / "m.json", M)


def test_hermiticity_limit_rejects_twice_the_limit_everywhere(capsys, tmp_path, rot_file):
    M, path = _off_hermitian(tmp_path, 2.0)
    for consumer in (
        lambda: require_hermitian(M),
        lambda: intertwining_residual(ROT2, M, check_hermitian=True),
        lambda: inertia_of_matrix(M),
        lambda: generate_via_observable(M, seed=1),
    ):
        with pytest.raises(NonHermitianError):
            consumer()
    code, doc, err = run(capsys, "verify", rot_file, path)
    assert code == 8
    assert doc["inertia"] == [1, 1, 0] and doc["residual"] <= 1e-9
    assert "hermiticity defect" in err


def test_hermiticity_limit_passes_half_the_limit_everywhere(capsys, tmp_path, rot_file):
    M, path = _off_hermitian(tmp_path, 0.5)
    require_hermitian(M)
    assert intertwining_residual(ROT2, M, check_hermitian=True) <= 1e-9
    assert inertia_of_matrix(M) == (1, 1, 0)
    Phi, _ = generate_via_observable(M, seed=1)
    assert intertwining_residual(Phi, M) <= 1e-9
    code, _, err = run(capsys, "verify", rot_file, path)
    assert code == 0 and err == ""


# ------------------------------------------------------------------- misc


def _count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["metric", "--tau", "1+0i"],
        ["canonical", "--n", "0", "--theta", "0"],
        ["enumerate"],
        ["oracle"],
    ],
)
def test_one_read_and_eigendecomposition_per_request(capsys, monkeypatch, rot_file, argv):
    import phm.cli
    import phm.metrics
    import phm.spectral

    counts: dict[str, int] = {}
    for module, name in [
        (phm.cli, "read_matrix_file"),
        (phm.cli, "eigendecompose"),
        (phm.spectral, "eigendecompose"),
        (phm.metrics, "inertia_of_matrix"),
    ]:
        _count_calls(monkeypatch, counts, module, name)
    code, _, _ = run(capsys, argv[0], rot_file, *argv[1:])
    assert code == 0
    assert counts["read_matrix_file"] == 1
    assert counts["eigendecompose"] == 1
    # the metric's own verdict: once for the metric a request prints, never for oracle's members
    assert counts.get("inertia_of_matrix", 0) == (1 if argv[0] in ("metric", "canonical") else 0)


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_nonfinite_numbers_print_as_null(capsys, tmp_path):
    # entries near 1e308 are valid: one conjugate pair, classified at unit scale,
    # so no figure overflows; the null fallback itself is tested by
    # test_write_doc_matches_one_join[nonfinite]
    path = tmp_path / "huge.json"
    path.write_text(
        '{"schema":1,"n":2,"entries":[[[1e308,0],[5e307,0]],[[-5e307,0],[1e308,0]]]}'
    )
    code, text, _ = run(capsys, "analyze", str(path), parse=False)
    assert code == 0
    doc = _strict_loads(text)
    assert (doc["r"], doc["p"]) == (0, 1)
    lam = [complex(*z) for z in doc["eigenvalues"]]
    for z, want in zip(lam, (1e308 + 5e307j, 1e308 - 5e307j)):
        assert abs(z - want) <= 1e-15 * abs(want)


_GAP_OVERFLOWS = {
    # eigenvalues -1e308 and 1e308, then 1e308 +- 1e308i: a gap beyond the float range
    "real": ('[[[-1e308,0],[0,0]],[[0,0],[1e308,0]]]', ["--mu", "1,-1"], ["--signs", "+,-"]),
    "pair": ('[[[1e308,0],[1e308,0]],[[-1e308,0],[1e308,0]]]', ["--tau", "1+1i"],
             ["--n", "1", "--theta", "0.5"]),
}


@pytest.mark.parametrize("command", ["analyze", "metric", "canonical", "enumerate", "oracle"])
@pytest.mark.parametrize("case", list(_GAP_OVERFLOWS))
def test_gap_beyond_float_range(capsys, tmp_path, case, command):
    entries, mu_tau, signs = _GAP_OVERFLOWS[case]
    path = tmp_path / "huge.json"
    path.write_text(f'{{"schema":1,"n":2,"entries":{entries}}}')
    flags = {"metric": mu_tau, "canonical": signs}.get(command, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run(capsys, command, str(path), *flags, parse=False)
    assert (code, err) == (0, "")
    doc = _strict_loads(text)
    if command == "analyze":
        assert doc["min_gap"] is None
        assert (doc["r"], doc["p"]) == ((2, 0) if case == "real" else (0, 1))


@pytest.mark.parametrize("flag, value", [("--gap-tol", "nan"), ("--eps-real", "-1"), ("--eps-pair", "inf"), ("--gap-tol", "0")])
def test_tolerance_flag_must_be_finite_positive(capsys, diag_file, flag, value):
    # the flags take the same finite-and-positive check as PHM_DEFAULT_TOL
    code, doc, _ = run(capsys, "analyze", diag_file, flag, value)
    assert code == 5
    assert doc["error"]["type"] == "ParameterError"
    assert flag in doc["error"]["message"]


def test_usage_error_is_json(capsys):
    code, doc, err = run(capsys, "no-such-command")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


def test_usage_error_has_the_common_layout(capsys):
    code, text, _ = run(capsys, "analyze", parse=False)
    assert code == 1
    assert text == (
        '{\n "schema": 1,\n "error": {"type": "UsageError", '
        '"message": "the following arguments are required: path"}\n}\n'
    )


def test_stdout_single_json_document(capsys, rot_file):
    _, text, _ = run(capsys, "analyze", rot_file, parse=False)
    json.loads(text)  # the whole stream parses as one document


def test_metric_huge_parameters_keep_a_finite_residual(capsys, tmp_path):
    # |M| near 1e200 overflowed the unscaled norms into a NaN residual, which
    # passed the gate as "residual": null
    path = write_matrix_json(tmp_path / "h.json", make_instance(3, 1, 1, seed=3).H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run(
            capsys, "metric", path, "--mu=1e200", "--tau=1e200+1e200i", parse=False
        )
    assert code == 0
    residual = _strict_loads(text)["residual"]
    assert residual is not None and residual <= 1e-9
    assert err == ""


@pytest.mark.parametrize(
    "shape, mu, tau",
    [(("6", "2", "2", "1"), "1e308,1", "1+0i,1+0i"), (("3", "1", "1", "3"), "1e308", "1+0i")],
)
def test_metric_overflowing_parameters_exit_5(capsys, tmp_path, shape, mu, tau):
    # finite parameters whose S^dagger m S overflows are a parameter error, not a
    # malformed input; before the check in build_M this exited 1 with three warnings
    n, r, p, seed = shape
    out = str(tmp_path / "s")
    assert run(capsys, "generate", "--n", n, "--r", r, "--p", p, "--seed", seed, "--out", out)[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run(capsys, "metric", out + "_H.json", f"--mu={mu}", f"--tau={tau}", parse=False)
    assert code == 5
    error = _strict_loads(text)["error"]
    assert error["type"] == "ParameterError"
    assert "max |mu| = 1.000e+308, max |tau| = 1.000e+00" in error["message"]
    assert err == f"error: {error['message']}\n"


@pytest.mark.parametrize("mode", ["spectrum", "observable"])
def test_generate_negative_seed_exits_5(capsys, tmp_path, mode):
    metric = write_matrix_json(tmp_path / "m.json", SIGMA_Z)
    code, text, err = run(
        capsys, "generate", "--mode", mode, "--n", "2", "--r", "2", "--p", "0",
        "--metric", metric, "--seed", "-1", "--out", str(tmp_path / "x"), parse=False,
    )
    assert code == 5
    assert _strict_loads(text)["error"]["type"] == "ParameterError"
    assert "Traceback" not in err
    assert not list(tmp_path.glob("x_*"))


# ------------------------------------- the plain pass and argparse's path


COMMANDS = ("analyze", "metric", "canonical", "enumerate", "oracle", "generate", "verify")


def _help_text(capsys, parser, command):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_help_matches_full(capsys, monkeypatch, command):
    # help is never plain: main prints argparse's text
    monkeypatch.setenv("COLUMNS", "80")
    full = _help_text(capsys, build_parser(), command)
    assert full.startswith(f"usage: phm {command} ")
    assert _plain_args([command, "--help"]) is None
    assert run(capsys, command, "--help", parse=False) == (0, full, "")


_PLAIN_ARGVS = [
    ["analyze", "h.json"],
    ["analyze", "h.json", "--eps-real", "1e-6", "--eps-pair=2e-7", "--gap-tol", "1e-3"],
    ["metric", "h.json", "--mu", "1,-2", "--tau=0.5-1e-2i"],
    ["metric", "h.json"],
    ["canonical", "h.json", "--signs", "+,-", "--n", "0", "--theta", "1.5"],
    ["enumerate", "h.json"],
    ["enumerate", "h.json", "--no-mod-global"],
    ["oracle", "h.json"],
    ["generate", "--n", "4", "--r", "2", "--p", "1", "--seed", "1", "--out", "x"],
    ["generate", "--mode", "observable", "--metric", "m.json", "--seed", "3",
     "--out", "y", "--cond-max", "10"],
    ["verify", "h.json", "m.json"],
    ["metric", "h.json", "--mu=1", "--mu", "2"],
    ["metric", "", "--mu=", "--tau", ""],
    ["analyze", "--gap-tol", "1e-3", "h.json"],
    ["generate", "--seed=-1", "--out=-o", "--mode=observable"],
]


@pytest.mark.parametrize("argv", _PLAIN_ARGVS)
def test_one_command_parser_parses_like_full(argv):
    # the plain pass takes the argv and gives argparse's Namespace
    args = _plain_args(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-"],
        ["analyze", "--", "h.json"],
        ["analyze", "h.json", "-h"],
        ["analyze", "h.json", "--eps-r", "1e-6"],
        ["metric", "h.json", "--mu", "-1"],
        ["metric", "h.json", "--mu=--"],
        ["enumerate", "h.json", "--no-mod-global="],
        ["generate", "--n", "x", "--n", "2", "--seed", "1", "--out", "o"],
        ["generate", "--seed", "1"],
    ],
)
def test_unusual_spellings_are_left_to_argparse(argv):
    # argparse takes some of these, in ways the plain pass does not model
    assert _plain_args(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "h.json", "--mu=--"],
        ["analyze", "h.json", "--eps-real=--"],
        ["generate", "--n=--", "--r", "1", "--p", "0", "--seed", "1", "--out", "o"],
        ["canonical", "h.json", "--signs=--"],
        ["verify", "h.json", "--", "--"],
    ],
)
def test_double_dash_value_is_refused_with_one_document(tmp_path, argv):
    # argparse 3.11 and older hand --name=-- and a second -- on as an empty list, newer ones as "--"
    write_matrix_json(tmp_path / "h.json", DIAG12)
    proc = subprocess.run(
        [sys.executable, "-m", "phm", *argv], capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60
    )
    assert proc.returncode in (1, 5), proc.stderr
    assert "error" in _strict_loads(proc.stdout)
    assert "Traceback" not in proc.stderr


def _workload_argvs(monkeypatch):
    """The argv of every request of the benchmark's four workloads at seeds 1 and 2."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return [
        list(req.argv)
        for name in workloads.WORKLOADS
        for seed in (1, 2)
        for req in workloads.build(name, seed, "work").requests
    ]


def test_plain_pass_takes_every_workload_argv(monkeypatch):
    argvs = _workload_argvs(monkeypatch)
    assert len(argvs) == 612
    for argv in argvs:
        args = _plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


def test_plain_argv_builds_no_parser(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("built an argparse parser")

    phm.cli.build_parser.cache_clear()
    phm.cli._argument_table.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    path = write_matrix_json(tmp_path / "h.json", DIAG12)
    out = str(tmp_path / "inst")
    for argv in (
        ["analyze", path, "--eps-real=1e-6"],
        ["metric", path, "--mu", "1,-1"],
        ["canonical", path, "--signs=+,-"],
        ["enumerate", path, "--no-mod-global"],
        ["oracle", path],
        ["generate", "--n", "2", "--r", "2", "--p", "0", "--seed", "1", "--out", out],
        ["verify", out + "_H.json", out + "_M.json"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


def test_argument_table_refuses_what_it_does_not_model():
    # argparse would read these in ways the plain pass does not
    table = phm.cli._ArgumentTable()
    for name, spec in [
        ("--k", {"nargs": "+"}),
        ("--k", {"action": "append"}),
        ("--k", {"dest": "other"}),
        ("-k", {}),
        ("--k", {"type": int, "default": "1"}),
    ]:
        with pytest.raises(TypeError):
            table.add_argument(name, **spec)
    assert not table.flags and not table.positionals


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--bogus"],
        ["analyze"],
        ["metric", "h.json", "--bogus"],
        ["generate", "--n", "x", "--seed", "1", "--out", "x"],
        ["generate", "--mode", "bad", "--seed", "1", "--out", "x"],
        ["generate", "--n", "2", "--out", "x"],
        ["generate", "--n", "2", "--seed", "1"],
        ["verify", "h.json"],
        ["enumerate", "h.json", "extra"],
    ],
)
def test_usage_errors_match_full_parser(capsys, argv):
    # a refusal is never plain: argparse words it
    assert _plain_args(argv) is None
    code, out, err = run(capsys, *argv, parse=False)
    assert code == 1
    assert _strict_loads(out)["error"]["type"] == "UsageError"
    assert err.startswith("phm") and ": error: " in err


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch, tmp_path):
    # One process reuses the parser and each command's argument table;
    # nothing a call reads (help width, PHM_DEFAULT_TOL) or an earlier error
    # may stick to them.
    import phm.cli

    assert build_parser() is build_parser()
    assert phm.cli._argument_table("analyze") is phm.cli._argument_table("analyze")
    path = write_matrix_json(tmp_path / "near.json", np.diag([1.0, 1.0 + 1e-5]))
    steps = [
        ({}, ["metric", path, "--bogus"]),
        ({"COLUMNS": "60"}, ["analyze", "--help"]),
        ({"COLUMNS": "120"}, ["analyze", "--help"]),
        ({}, ["analyze", path]),
        ({"PHM_DEFAULT_TOL": "1e-3"}, ["analyze", path]),
    ]

    def run_steps():
        results = []
        for env, argv in steps:
            for name in ("COLUMNS", "PHM_DEFAULT_TOL"):
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            results.append(run(capsys, *argv, parse=False))
        return results

    cached = run_steps()
    monkeypatch.setattr(phm.cli, "build_parser", build_parser.__wrapped__)
    monkeypatch.setattr(phm.cli, "_argument_table", phm.cli._argument_table.__wrapped__)
    assert run_steps() == cached
    assert [code for code, _, _ in cached] == [1, 0, 0, 0, 3]
    assert cached[1][1] != cached[2][1]


# ------------------------------------------------------- CLI contract


_INT = st.integers(-2, 12).map(str)
_FILE = st.sampled_from(("rot.json", "diag.json"))
_REAL = st.sampled_from(("0.5", "1e-6", "1e200", "-1e-300", "nan", "inf"))
_JUNK = st.sampled_from(("x", "", "-", "--bogus", "1+1i", "1e200+1e200i", "+,-", "0,1", "1,-1"))
_ANY = st.one_of(_INT, _FILE, _REAL, _JUNK)
# each command's positionals, and its flags with the values each mostly takes
_POSITIONALS = {"analyze": 1, "metric": 1, "canonical": 1, "enumerate": 1, "oracle": 1, "verify": 2}
_FLAGS = {
    "analyze": {"--eps-real": _REAL, "--eps-pair": _REAL, "--gap-tol": _REAL},
    "metric": {"--mu": st.sampled_from(("1", "1,-1", "1e200", "1e200,-1e200")),
               "--tau": st.sampled_from(("1", "1+1i", "1e200+1e200i"))},
    "canonical": {"--signs": st.sampled_from(("+", "+,-")), "--n": st.sampled_from(("0", "1")),
                  "--theta": _REAL},
    "enumerate": {"--no-mod-global": None},
    "generate": {
        "--n": _INT, "--r": _INT, "--p": _INT, "--seed": _INT, "--cond-max": _REAL,
        "--mode": st.sampled_from(("spectrum", "observable")), "--metric": _FILE,
        "--out": st.just("out"),
    },
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    write_matrix_json(root / "rot.json", ROT2)
    write_matrix_json(root / "diag.json", DIAG12)
    return root


def _contract_argv(data) -> list[str]:
    """A command, mostly its own arguments and values; in a wild draw any
    token may be junk. Paths are relative to contract_dir."""
    wild = data.draw(st.booleans())

    def pick(values):
        return data.draw(st.one_of(values, _ANY) if wild else values)

    command = data.draw(st.sampled_from(COMMANDS + ("bogus",)))
    argv = [command] + [pick(_FILE) for _ in range(_POSITIONALS.get(command, 0))]
    for flag, values in _FLAGS.get(command, {}).items():
        if (flag in ("--seed", "--out") and not wild) or data.draw(st.booleans()):
            argv += [flag] if values is None else [flag, pick(values)]
    if wild:
        argv += data.draw(st.lists(_ANY, max_size=1))
    return argv


def _run_in(directory, argv):
    """Exit code, stdout, stderr and the warnings raised of main(argv) run in ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), caught


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_contract(contract_dir, data):
    # Every call prints one strict-JSON document, exits with a documented
    # code and raises no exception; a call that exits 0 says nothing on
    # stderr and raises no warning.
    argv = _contract_argv(data)
    code, out, err, caught = _run_in(contract_dir, argv)
    assert code in range(9), argv
    _strict_loads(out)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "" and not caught, (argv, [str(w.message) for w in caught])


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_plain_pass_changes_no_output(contract_dir, data):
    # the same exit code, stdout and stderr with the plain pass and with
    # argparse parsing every argv
    argv = _contract_argv(data)
    plain = _run_in(contract_dir, argv)[:3]
    with mock.patch.object(phm.cli, "_plain_args", lambda argv: None):
        assert _run_in(contract_dir, argv)[:3] == plain, argv


def _child_env() -> dict:
    """This environment, with the phm under test first on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(phm.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


def _close_stdout_early(argv, unbuffered=None):
    """Run ``python -m phm *argv``, read 50 bytes of its stdout, close it,
    and return the exit code, those bytes and stderr. ``unbuffered`` sets
    (True) or removes (False) PYTHONUNBUFFERED in the child; None inherits it."""
    env = _child_env()
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "phm", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), head, err


def test_closed_stdout_exits_9_without_traceback(tmp_path):
    # r = 16 lists 2**15 classes, about 3 MB: far more than a pipe buffers
    path = write_matrix_json(tmp_path / "h.json", np.diag(np.arange(1.0, 17.0)))
    code, head, err = _close_stdout_early(["enumerate", path])
    assert code == 9
    assert head.startswith(b'{\n "schema": 1,')
    assert b"Traceback" not in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "command,flag",
    [("metric", "--mu=" + ",".join("1" * 128)), ("canonical", "--signs=" + ",".join("+" * 128))],
    ids=["metric", "canonical"],
)
def test_closed_stdout_exits_9_on_a_matrix(tmp_path, command, flag, unbuffered):
    # an n = 128 metric is about 200 KB, more than a pipe buffers; unbuffered,
    # one whole-document write would come back short instead of raising
    path = write_matrix_json(tmp_path / "h.json", np.diag(np.arange(1.0, 129.0)))
    code, head, err = _close_stdout_early([command, path, flag], unbuffered)
    assert code == 9
    assert head.startswith(b'{\n "schema": 1,')
    assert b"Traceback" not in err
