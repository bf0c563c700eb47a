"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.install` replaces each traced public function with a wrapper, in
every `qspherical` module that holds a binding to it (so names imported with
`from .x import y` are wrapped too), and in the class dict for methods.  A
wrapper appends one span per call: id, name, start, end and the id of the
enclosing span.  Spans stay in memory until `write` puts them in a JSON-lines
file at the end of the run; `summarize` computes self time from that file.

`FieldElem` arithmetic is counted, not spanned: it runs millions of times
per round, so a span per operation would dominate what it measures.  Its
time stays in the self time of the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute); "Class.method" names a method.
LAYERS = (
    ("linalg.echelonize", "qspherical.linalg", "_echelonize"),
    ("linalg.invert", "qspherical.linalg", "invert"),
    ("linalg.solve", "qspherical.linalg", "solve"),
    ("linalg.nullspace", "qspherical.linalg", "nullspace"),
    ("linalg.mat_mul", "qspherical.linalg", "mat_mul"),
    ("modules.build_simple", "qspherical.modules", "build_simple"),
    ("modules.shapovalov", "qspherical.modules", "SimpleModule.shapovalov"),
    ("modules.act_matrix", "qspherical.modules", "act_matrix"),
    ("braid.lusztig_T", "qspherical.braid", "lusztig_T"),
    ("braid.rescaled_T", "qspherical.braid", "rescaled_T"),
    ("qsp.coideal_generators", "qspherical.qsp", "coideal_generators"),
    ("characters.find_spherical_lines", "qspherical.characters",
     "find_spherical_lines"),
    ("characters.dual_spherical_vector", "qspherical.characters",
     "dual_spherical_vector"),
    ("quasik.quasi_k", "qspherical.quasik", "quasi_k"),
    ("quasik.wz_operator", "qspherical.quasik", "wz_operator"),
    ("quasik.wz_character_check", "qspherical.quasik", "wz_character_check"),
    ("spherical.restrict_torus", "qspherical.spherical", "restrict_torus"),
    ("spherical.is_weyl_invariant", "qspherical.spherical", "is_weyl_invariant"),
    # Building the report entries, then serialising and writing the report.
    ("cli.report", "qspherical.characters", "ScanReport.describe"),
    ("cli.report", "qspherical.spherical", "TorusFunction.describe"),
    ("cli.report", "qspherical.cli", "_emit"),
)

SCALAR_OPS = (("mul", ("__mul__", "__rmul__")),
              ("add", ("__add__", "__radd__")),
              ("inverse", ("inverse",)))

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _rebind(orig, wrapped):
    """Point every binding of `orig` inside the qspherical package at `wrapped`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qspherical"
                               or modname.startswith("qspherical.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [id, name, start, end, parent id or None]
        self._stack = []         # ids of the open spans, innermost last
        self.nullspace_rows = 0
        self.scalar_calls = {kind: 0 for kind, _ in SCALAR_OPS}
        self.peak_terms = 0

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.nullspace_rows += len(a)
            return fn(a, *args, **kwargs)
        return wrapper

    def _count_scalar(self, kind, fn, elem_type):
        calls = self.scalar_calls

        @functools.wraps(fn)
        def wrapper(*args):
            out = fn(*args)
            calls[kind] += 1
            if type(out) is elem_type:
                terms = len(out.num) + len(out.den)
                if terms > self.peak_terms:
                    self.peak_terms = terms
            return out
        return wrapper

    def install(self):
        """Wrap every traced entry point; call after qspherical is imported."""
        for name, modname, attr in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._span(name, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(name, orig)
            if name == "linalg.nullspace":
                wrapped = self._count_rows(wrapped)
            _rebind(orig, wrapped)
        from qspherical.scalars import FieldElem
        for kind, methods in SCALAR_OPS:
            for meth in methods:
                setattr(FieldElem, meth,
                        self._count_scalar(kind, vars(FieldElem)[meth], FieldElem))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def counters(self) -> dict:
        out = {f"scalars.{kind}.calls": n for kind, n in self.scalar_calls.items()}
        out["scalars.peak_terms"] = self.peak_terms
        out["linalg.nullspace.rows"] = self.nullspace_rows
        return out


def summarize(path, wall_s: float) -> dict:
    """Calls and self time per span name, and the share of `wall_s` that no
    span covers, from a span file written by `Tracer.write`."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    covered = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        out[f"{s['name']}.calls"] += 1
        out[f"{s['name']}.self_s"] += dur - child.get(s["id"], 0.0)
        if s["parent"] is None:
            covered += dur
    out["trace.uncovered_share"] = max(0.0, wall_s - covered) / wall_s
    return out
