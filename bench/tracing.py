"""Spans and counters around the calls into each gradedlie layer.

The wrappers are installed from the benchmark only: each wrapped name is
replaced in every ``gradedlie`` module that bound it (``cli`` imports
``check_morphism`` by name, ``dgla`` imports ``parallel_map``, and so on),
and the counted methods are replaced on their classes.  ``restore()``
puts the originals back.

Spans are kept in memory.  Span stacks are per thread; ``parallel_map``
hands the caller's open span to its worker threads as their parent, so a
``massey_triple`` run in a worker still belongs to its
``detect_nonformality``.  Self time is a span's duration minus the union
of its children's intervals, which may overlap when they ran in
different threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

SPANNED = {
    "cli": ["main"],
    "documents": ["load_document", "document_to_algebra"],
    "dgla": ["validate_dgla", "compute_splitting", "verify_splitting",
             "cohomology", "find_equivariant_splitting"],
    "cyclic": ["validate_pairing", "normalize_splitting"],
    "linfty": ["homotopy_transfer", "check_morphism", "check_linfty_axioms"],
    "formality": ["build_formality_witness", "compute_I", "verify_witness",
                  "detect_nonformality", "massey_triple"],
    "core": ["rref"],
}
COUNTED_FUNCTIONS = ["solve_dense", "coordinates_in_span"]
COUNTED_METHODS = [("MultilinearMap", "evaluate"),
                   ("MultilinearMap", "evaluate_indices"),
                   ("LinearMap", "apply"), ("Vector", "_binop")]


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for module, fns in SPANNED.items():
        for fn in fns:
            names += [f"{module}.{fn}.{k}" for k in ("calls", "self_s",
                                                    "raised")]
    names += [f"core.{cls}.{m.lstrip('_')}.calls"
              for cls, m in COUNTED_METHODS]
    names += [f"core.{fn}.calls" for fn in COUNTED_FUNCTIONS]
    names += ["core.parallel_map.calls", "core.parallel_map.items",
              "dgla.validate_dgla.violations",
              "linfty.homotopy_transfer.per_op", "linfty.check_morphism.per_op",
              "formality.massey_triple.per_detect"]
    return names


class Tracer:
    """Installs the wrappers, records spans and counts, and sums them up."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op, raised]
        self.op = None
        self.counters = {}
        self.violations = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op, False]
            sid = next(self._ids)
            self.spans.append((sid, span))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "dgla.validate_dgla":
                self.violations += len(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counter = self.counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return wrapper

    def _parallel_map(self, fn_map):
        calls = self.counters["core.parallel_map.calls"] = itertools.count()
        items_seen = self.counters["core.parallel_map.items"] = itertools.count()

        @functools.wraps(fn_map)
        def wrapper(fn, items):
            items = list(items)
            next(calls)
            for _ in items:
                next(items_seen)
            stack = self._stack()
            parent = stack[-1] if stack else None

            def in_worker(item):
                saved = getattr(self._local, "stack", None)
                self._local.stack = [parent]
                try:
                    return fn(item)
                finally:
                    self._local.stack = saved
            return fn_map(in_worker, items)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gradedlie" and not mod_name.startswith("gradedlie."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import importlib
        for module, fns in SPANNED.items():
            mod = importlib.import_module(f"gradedlie.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                self._replace_everywhere(
                    original, self._span(f"{module}.{fn}", original))
        core = importlib.import_module("gradedlie.core")
        for fn in COUNTED_FUNCTIONS:
            original = getattr(core, fn)
            self._replace_everywhere(
                original, self._counted(f"core.{fn}.calls", original))
        self._replace_everywhere(core.parallel_map,
                                 self._parallel_map(core.parallel_map))
        for cls_name, method in COUNTED_METHODS:
            cls = getattr(core, cls_name)
            original = cls.__dict__[method]
            name = f"core.{cls_name}.{method.lstrip('_')}.calls"
            self._patched.append((cls, method, original))
            setattr(cls, method, self._counted(name, original))
        return self

    def restore(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer totals over every span and count recorded."""
        children = {}
        for sid, span in self.spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append(span)
        totals = {}
        for sid, (name, start, end, _, _, raised) in self.spans:
            covered = union_length(
                [(max(c[1], start), min(c[2], end))
                 for c in children.get(sid, ())])
            t = totals.setdefault(name, [0, 0.0, 0])
            t[0] += 1
            t[1] += (end - start) - covered
            t[2] += raised
        out = {}
        for module, fns in SPANNED.items():
            for fn in fns:
                calls, self_s, raised = totals.get(f"{module}.{fn}", (0, 0.0, 0))
                out[f"{module}.{fn}.calls"] = calls
                out[f"{module}.{fn}.self_s"] = self_s
                out[f"{module}.{fn}.raised"] = raised
        for name, counter in self.counters.items():
            out[name] = next(counter)
        out["dgla.validate_dgla.violations"] = self.violations

        def calls(name):
            return out[f"{name}.calls"]
        out["linfty.homotopy_transfer.per_op"] = \
            calls("linfty.homotopy_transfer") / ops
        out["linfty.check_morphism.per_op"] = calls("linfty.check_morphism") / ops
        detects = calls("formality.detect_nonformality")
        out["formality.massey_triple.per_detect"] = (
            calls("formality.massey_triple") / detects if detects else 0.0)
        return {name: out.get(name, 0) for name in metric_names()}

    def dump(self, path):
        """Write every span as one JSON line: id, name, start, end, parent,
        op and whether it raised."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, op, raised) in self.spans:
                handle.write(json.dumps([sid, name, start, end, parent, op,
                                         raised]) + "\n")


def union_length(intervals) -> float:
    """Total length covered by the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
