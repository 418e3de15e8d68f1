"""Spans around the calculator's layers, installed from outside the package.

``Tracer.install`` replaces every binding of each timed function — in the
module that defines it, at every ``from ... import`` site inside the package
and on classes (``FacePoset.by_id``) — with a wrapper that times the call as a span.
``unwrapped_references`` then proves no binding was missed.

A span's self time is its duration minus the time its child spans cover.  A
child covers its whole wrapper, book-keeping included, so that the
book-keeping lands in no layer's self time; it shows only in the traced
run's extra time.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, qualified attribute) of every function it times
LAYERS = {
    "abelian.snf": [("abelian", "smith_normal_form")],
    "abelian.solve": [("abelian", "integer_solve"), ("abelian", "modular_solve"), ("abelian", "solve")],
    "abelian.lattice": [
        ("abelian", "integer_kernel_basis"),
        ("abelian", "lattice_column_basis"),
        ("abelian", "cokernel_presentation"),
    ],
    "faces.validate": [("faces", "validate")],
    "faces.by_id": [("faces", "FacePoset.by_id")],
    "families.quotient": [("families", "quotient_family")],
    "families.automorphism": [("families", "validate_automorphism")],
    "families.embeddable": [("families", "check_embeddable")],
    "conormal.build_complex": [("conormal", "build_complex")],
    "conormal.homology": [("conormal", "homology")],
    "conormal.six_term": [("conormal", "six_term")],
    "conormal.boundary_ses": [("conormal", "connected_boundary_ses")],
    "conormal.incidence_matrix": [("conormal", "incidence_matrix")],
    "obstruction.codim1": [("obstruction", "codim1_groups"), ("obstruction", "codim1_vanishes")],
    "obstruction.space": [("obstruction", "codim2_obstruction_space")],
    "obstruction.vanishes": [("obstruction", "codim2_vanishes")],
    "documents.load": [
        ("documents", "load_document"),
        ("documents", "poset_from_payload"),
        ("documents", "family_from_payload"),
        ("documents", "ktheory_from_payload"),
        ("documents", "symbol_from_payload"),
    ],
    "documents.write": [("documents", "canonical_json")],
    "cli.main": [("cli", "main")],
}


def _bits(hom) -> int:
    return max((abs(x).bit_length() for row in hom.entries for x in row), default=0)


class Tracer:
    """Per-layer counters and self times; one instance per traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.snf_cells = 0
        self.snf_max_bits = 0
        self.snf_distinct = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack: list[list[float]] = []  # [child time covered] per open span
        self._query_inputs: set = set()
        self._originals: dict[int, object] = {}

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, pre=None, post=None):
        enter = perf_counter()
        if pre is not None:
            pre(args)
        frame = [0.0]
        self._stack.append(frame)
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = perf_counter()
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += (end - start) - frame[0]
            if done and post is not None:
                post(args, result)
            if self._stack:
                self._stack[-1][0] += perf_counter() - enter
        return result

    def begin_query(self) -> None:
        self._query_inputs = set()

    def end_query(self) -> None:
        """Distinct SNF inputs are counted per query."""
        self.snf_distinct += len(self._query_inputs)
        self._query_inputs = set()

    # -- wrappers ------------------------------------------------------

    def _snf_pre(self, args):
        A = args[0]
        self._query_inputs.add((A.rows, A.cols, A.entries))
        self.snf_cells += A.rows * A.cols

    def _snf_post(self, args, result):
        self.snf_max_bits = max(
            self.snf_max_bits, _bits(args[0]), _bits(result.D), _bits(result.U), _bits(result.V)
        )

    def _load_pre(self, args):
        if args and isinstance(args[0], (str, os.PathLike)):
            try:
                self.bytes_read += os.path.getsize(args[0])
            except OSError:
                pass

    def _write_post(self, args, text):
        self.bytes_written += len(text.encode())

    def _wrapper(self, name: str, fn):
        tracer = self
        pre = post = None
        if name == "abelian.snf":
            pre, post = self._snf_pre, self._snf_post
        elif name == "documents.load":
            pre = self._load_pre
        elif name == "documents.write":
            post = self._write_post

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, pre, post)

        wrapped.__perfbench_wrapped__ = fn
        return wrapped

    def install(self, lib) -> int:
        """Wrap every binding of every timed function; returns the number
        of bindings replaced."""
        targets = {}
        for name, entries in LAYERS.items():
            for module, attr in entries:
                owner = getattr(lib, module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[leaf]
                targets[id(fn)] = (fn, self._wrapper(name, fn))
        self._originals = {key: fn for key, (fn, _) in targets.items()}
        replaced = 0
        for namespace in _namespaces():
            for key, value in list(vars(namespace).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, key, hit[1])
                    replaced += 1
        return replaced

    def unwrapped_references(self) -> list[str]:
        """Bindings inside the package that still hold an original function."""
        missing = []
        for namespace in _namespaces():
            for key, value in vars(namespace).items():
                if id(value) in self._originals and self._originals[id(value)] is value:
                    missing.append(f"{getattr(namespace, '__qualname__', namespace.__name__)}.{key}")
        return missing

    # -- results -------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        snf_calls = self.calls["abelian.snf"]
        out = {
            "abelian.snf.calls": snf_calls,
            "abelian.snf.distinct_ratio": self.snf_distinct / snf_calls if snf_calls else 0.0,
            "abelian.snf.cells": self.snf_cells,
            "abelian.snf.self_s": self.self_s["abelian.snf"],
            "abelian.snf.max_entry_bits": self.snf_max_bits,
            "abelian.solve.calls": self.calls["abelian.solve"],
            "abelian.solve.self_s": self.self_s["abelian.solve"],
            "abelian.lattice.calls": self.calls["abelian.lattice"],
            "abelian.lattice.self_s": self.self_s["abelian.lattice"],
            "faces.validate.calls": self.calls["faces.validate"],
            "faces.validate.self_s": self.self_s["faces.validate"],
            "faces.by_id.calls": self.calls["faces.by_id"],
            "families.quotient.self_s": self.self_s["families.quotient"],
            "families.automorphism.self_s": self.self_s["families.automorphism"],
            "families.embeddable.self_s": self.self_s["families.embeddable"],
            "conormal.build_complex.self_s": self.self_s["conormal.build_complex"],
            "conormal.homology.self_s": self.self_s["conormal.homology"],
            "conormal.six_term.self_s": self.self_s["conormal.six_term"],
            "conormal.boundary_ses.self_s": self.self_s["conormal.boundary_ses"],
            "conormal.incidence_matrix.calls": self.calls["conormal.incidence_matrix"],
            "obstruction.codim1.self_s": self.self_s["obstruction.codim1"],
            "obstruction.space.self_s": self.self_s["obstruction.space"],
            "obstruction.vanishes.self_s": self.self_s["obstruction.vanishes"],
            "documents.load.self_s": self.self_s["documents.load"],
            "documents.bytes_read": self.bytes_read,
            "documents.bytes_written": self.bytes_written,
            "cli.main.calls": self.calls["cli.main"],
            "cli.main.self_s": self.self_s["cli.main"],
            "trace.overhead_s": overhead_s,
        }
        return out


def _namespaces():
    """Every loaded module of the package and the classes they define."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "cornerindex" or n.startswith("cornerindex.")]
    out = list(modules)
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("cornerindex") and value not in out:
                out.append(value)
    return out
