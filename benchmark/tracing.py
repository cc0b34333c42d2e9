"""Spans around the public functions of phm, recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every phm module that binds its name (``decompose`` is bound in both
``phm.spectral`` and ``phm.cli``, ``build_M`` in ``phm.metrics``,
``phm.cli``, ``phm.oracle`` and ``phm.generators``), so calls between
modules and within one module are both seen. ``uninstall`` puts the
originals back. Spans stay in memory until ``write``. Their start and end
are process CPU seconds (``time.process_time``), like the request times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs; metric names are "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("cli", "read_matrix_file"),
    ("spectral", "check_ph_admissible"),
    ("spectral", "eigendecompose"),
    ("spectral", "classify_spectrum"),
    ("spectral", "build_spectral_data"),
    ("spectral", "decompose"),
    ("metrics", "build_M"),
    ("metrics", "canonical_metric"),
    ("metrics", "intertwining_residual"),
    ("metrics", "inertia_of_matrix"),
    ("metrics", "enumerate_classes"),
    ("oracle", "hermitian_basis"),
    ("oracle", "intertwining_operator_matrix"),
    ("oracle", "solution_space"),
    ("oracle", "family_vs_kernel"),
    ("generators", "generate_via_spectrum"),
)

# bytes of the arrays a traced function returns, counted per request
RESULT_BYTES = {
    "oracle.hermitian_basis": ("oracle.basis_mb", lambda basis: basis.elements.nbytes),
    "oracle.intertwining_operator_matrix": ("oracle.operator_mb", lambda L: L.nbytes),
}


class Tracer:
    """Records (name, start, end, parent, request id) spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        """Start a span; a span with no open parent starts a new request."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._request += 1
        span = [name, time.process_time(), None, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.process_time()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = RESULT_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                self.bytes[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "phm" or key.startswith("phm."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["phm." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, list]:
        """Name -> [self CPU seconds, calls]; self time is a span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {f"{m}.{f}": [0.0, 0] for m, f in TRACED}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            if name in totals:
                totals[name][0] += end - start - inner
                totals[name][1] += 1
        return totals

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent span, request id."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
