"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each traced function or method by a wrapper in
every module namespace (and on every class) that binds it, so calls made
through a name imported with ``from ... import`` are seen as well.  Each
call becomes a span (name, parent span, item id, start, end) kept in
memory; `Tracer.metrics` turns the spans into per-layer counts and self
times, and `Tracer.write` saves them when the run ends.  The program
itself contains no tracing code.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _length(args, kwargs, result) -> int:
    return len(result)


def _cells(args, kwargs, result) -> int:
    A = args[0] if args else kwargs["A"]
    return len(A) * (len(A[0]) if A else 0)


# (module, attribute path, extra counter name, how to count it)
TARGETS = (
    ("symgroup", "is_c_sortable", None, None),
    ("symgroup", "enumerate_c_sortable", "elements", _length),
    ("typea", "census", None, None),
    ("typea", "table_rows", None, None),
    ("repkit", "conflations_up_to", "pairs", _length),
    ("repkit", "enumerate_subreps", "subreps", _length),
    ("repkit", "SubquotClassifier.sub_class", None, None),
    ("repkit", "SubquotClassifier.quot_class", None, None),
    ("repkit", "hom_dim", None, None),
    ("repkit", "is_simple_object", None, None),
    ("repkit", "Membership.decompose", None, None),
    ("repkit", "series_analysis", None, None),
    ("monoid", "stratum_classes", None, None),
    ("monoid", "atoms", None, None),
    ("monoid", "group_completion", None, None),
    ("monoid", "smith_normal_form", "cells", _cells),
    ("monoid", "is_half_factorial", None, None),
    ("monoid", "cancellativity_scan", None, None),
    ("grothendieck", "presentation_of", None, None),
    ("grothendieck", "relation_lattice_certified", None, None),
    ("grothendieck", "report", None, None),
    ("cli", "main", None, None),
)

ITEM = "item"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for module, path, extra, _ in TARGETS:
        name = f"{module}.{path}"
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if extra is not None:
            out.append((f"{name}.{extra}", "count"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ITEM]
        self.name_id = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def run_item(self, item_id: int, fn):
        """Run one benchmark item under a root span tagged with its id."""
        self._item = item_id
        sid = self._open(0)
        try:
            return fn()
        finally:
            self._close(sid)
            self._item = -1

    def _wrap(self, name: str, fn, extra: str | None, count):
        nid = len(self.names)
        self.names.append(name)
        key = f"{name}.{extra}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item < 0:  # outside an item, e.g. in a correctness check
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                tracer.extra[key] += count(args, kwargs, result)
            return result

        return traced

    # -- installation

    def install(self) -> None:
        pkg = sys.modules["jhp_lab"]
        for module, path, extra, count in TARGETS:
            mod = getattr(pkg, module)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(mod, owner_path)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(f"{module}.{path}", original, extra, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(f"{module}.{path}", original, extra, count)
            for other in list(sys.modules.values()):
                space = getattr(other, "__dict__", None)
                if not space:
                    continue
                for key, value in list(space.items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def metrics(self) -> dict[str, float]:
        """Calls, self seconds and extra counts per traced name.

        Self time is a span's duration minus the durations of its child
        spans; children are nested and sequential in one thread, so they
        never overlap.
        """
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for sid in range(len(start)):
            dur = end[sid] - start[sid]
            nid = name_id[sid]
            calls[nid] += 1
            self_s[nid] += dur
            p = parent[sid]
            if p >= 0:
                self_s[name_id[p]] -= dur
        out: dict[str, float] = {}
        index = {name: k for k, name in enumerate(self.names)}
        for module, path, extra, _ in TARGETS:
            name = f"{module}.{path}"
            k = index[name]
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = max(self_s[k], 0.0)
            if extra is not None:
                out[f"{name}.{extra}"] = self.extra[f"{name}.{extra}"]
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line; return the span count."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.item[sid]}\t"
                    f"{names[self.name_id[sid]]}\t{self.start[sid]:.7f}\t{self.end[sid]:.7f}\n"
                )
        return len(self.start)
