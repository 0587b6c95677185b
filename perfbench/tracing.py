"""In-memory spans around efem calls, made from the benchmark's own files.

The benchmark opens a span around every call it makes into a layer
(``span``).  Calls a layer makes internally are seen by replacing module
attributes with timing wrappers (``install`` / ``uninstall``); this only
works for names a module looks up in its own globals at call time, which is
how ``efem.efem_core`` reaches its geometry and cut kernels and how
``efem.postprocess`` reaches ``locate`` and ``barycentric``.

Spans the benchmark opens are kept one record each (case, name, start, end,
parent, self time).  Wrapped internal functions run up to millions of times
per case, so they are kept as per-case totals (calls, time, self time) under
the benchmark span that caused them.  A span's self time is its duration
minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute, metric name) of internal functions timed by wrapping.
INNER = (
    ("efem.efem_core", "all_geometry", "mesh.all_geometry"),
    ("efem.postprocess", "all_geometry", "mesh.all_geometry"),
    ("efem.efem_core", "split_simplex", "interface.split_simplex"),
    ("efem.efem_core", "cut_exterior_faces", "interface.cut_exterior_faces"),
    ("efem.efem_core", "element_matrices", "efem_core.element_matrices"),
    ("efem.efem_core", "element_displacement_terms", "efem_core.element_displacement_terms"),
    ("efem.efem_core", "condense", "efem_core.condense"),
    ("efem.postprocess", "locate", "postprocess.locate"),
    ("efem.postprocess", "barycentric", "postprocess.barycentric"),
)


class NoTrace:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    _null = nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (case, top-level span name, function name) -> [calls, total_s, self_s]
        self.calls: dict[tuple, list] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []    # open frames: [name, child_s]
        self._case = None
        self._patches = []
        for modname, attr, name in INNER:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                # renamed or removed by a later change: report it absent
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._patches.append((module, attr, fn, self._wrap(fn, name)))

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def case(self, case_id):
        """Span covering one case; every span opened inside carries its id."""
        self._case = case_id
        try:
            with self.span("case"):
                yield
        finally:
            self._case = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append({"case": self._case, "name": name, "start": start,
                               "end": end, "parent": parent[0] if parent else None,
                               "self_s": end - start - frame[1]})

    def _wrap(self, fn, name):
        stack = self._stack
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                # stack[0] is the case span, stack[1] the benchmark's call
                top = stack[1][0] if len(stack) > 1 else None
                key = (self._case, top, name)
                acc = calls.get(key)
                if acc is None:
                    calls[key] = [1, dur, dur - frame[1]]
                else:
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[1]

        return traced

    # -- per-case summaries ------------------------------------------------

    def case_layers(self, case_id) -> dict:
        """name -> {"calls", "s", "self_s"} for one case, spans and wrappers.

        Span names and wrapped names are disjoint, so one dict holds both;
        wrapped functions also get "by_top", their calls under each
        benchmark span.
        """
        out: dict[str, dict] = {}
        for rec in self.spans:
            if rec["case"] != case_id:
                continue
            acc = out.setdefault(rec["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["s"] += rec["end"] - rec["start"]
            acc["self_s"] += rec["self_s"]
        for (case, top, name), (n, total, own) in self.calls.items():
            if case != case_id:
                continue
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "by_top": {}})
            acc["calls"] += n
            acc["s"] += total
            acc["self_s"] += own
            acc["by_top"][top] = acc["by_top"].get(top, 0) + n
        return out

    def coverage(self, case_id) -> float:
        """Share of the case span covered by the benchmark's layer spans."""
        case_s = covered = 0.0
        for rec in self.spans:
            if rec["case"] != case_id:
                continue
            if rec["name"] == "case":
                case_s = rec["end"] - rec["start"]
            elif rec["parent"] == "case":
                covered += rec["end"] - rec["start"]
        return covered / case_s if case_s > 0.0 else 0.0

    def dump(self) -> dict:
        """Spans and per-case call totals as plain JSON data."""
        return {
            "spans": self.spans,
            "calls": [{"case": c, "top": t, "name": n, "calls": v[0], "s": v[1], "self_s": v[2]}
                      for (c, t, n), v in self.calls.items()],
            "absent": self.absent,
        }
