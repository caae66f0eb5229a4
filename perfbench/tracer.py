"""Span tracing of ti2kit from outside the library.

:func:`install` wraps every public function of the library's modules (plus
``IdentityReport.build``) and rebinds the wrapper in every module namespace
that holds the function, so calls through ``from .ti2core import ti2`` style
bindings are traced too.  Private helpers are not wrapped: their time counts
toward the public caller.

Each span keeps its name, start, end and parent in flat arrays in memory;
:meth:`Tracer.write` saves them when the run ends, and :func:`summarize`
derives self times (span time minus the time of its child spans), call
counts, and the work counts recorded at the same boundaries.

A wrapper costs about a microsecond, most of it outside the interval it
records, that is in its caller's self time; for the ~4000 small ``ti2``
calls of a pole sum that would dwarf the sum's own loop.  So
:meth:`Tracer.calibrate` measures the cost inside and outside the interval,
and :func:`summarize` takes both out of the self times it reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("numerics", "polylog", "special", "ti2core", "endpoint", "decomp", "report", "verify", "cli")

# Work counts taken from return values at the span boundary.
_POLE_SUMS = ("decomp.corollary2_series", "decomp.catalan_family", "decomp.pointwise_identity")
_RESULT_COUNTS = {
    "numerics.integrate_adaptive": ("numerics.integrate_adaptive.evals", lambda r: r.evaluations),
    "numerics.sum_series": ("numerics.sum_series.terms", lambda r: r.terms_used),
    "endpoint.solve_endpoint_b": ("endpoint.solve_endpoint_b.iterations", lambda r: r.iterations),
    "endpoint.aux_integral_I": ("endpoint.aux_integral_I.evals", lambda r: r.evaluations),
    "decomp.h_series": ("decomp.h_series.terms", lambda r: r.terms_used),
    "report.render_json": ("report.render_json.bytes", len),
    **{name: ("decomp.pole_terms", lambda r: r.terms_used or 0) for name in _POLE_SUMS},
}
# Spans whose wrapper also runs a count callback (a little more overhead).
COUNTED = frozenset(_RESULT_COUNTS) | {"ti2core.ti2"}
NO_COST = {"inside": 0.0, "outside": 0.0, "outside_counted": 0.0}


class Tracer:
    """Span store plus the switch that turns recording on and off."""

    def __init__(self, cap: int = 1_500_000):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.count_fns: dict = {}
        self.cost = dict(NO_COST)
        self.active = False
        self.cap = cap

    def full(self) -> bool:
        return len(self.start) >= self.cap

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span named ``name``.

        ``count(counts, args, result)`` runs after the span closes.
        """
        nid = len(self.names)
        self.names.append(name)
        self.count_fns[name] = count
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def calibrate(self, n: int = 20000) -> dict:
        """Seconds a span adds inside its interval and outside it (best of 5).

        ``outside_counted`` uses ti2's count callback, the most frequent one.
        The result is also kept as ``self.cost`` for :meth:`summary`.
        """
        def noop(y):
            return None

        flavors = {"outside": self.wrap("calibration", noop),
                   "outside_counted": self.wrap("calibration", noop, self.count_fns.get("ti2core.ti2"))}
        mark = len(self.start)
        arrays = (self.name_id, self.parent, self.start, self.end)
        best = {"inside": float("inf"), "outside": float("inf"), "outside_counted": float("inf")}
        was, self.active = self.active, True
        counts = dict(self.counts)
        try:
            for _ in range(5):
                t0 = perf_counter()
                for _ in range(n):
                    noop(0.5)
                plain = perf_counter() - t0
                for key, wrapped in flavors.items():
                    t0 = perf_counter()
                    for _ in range(n):
                        wrapped(0.5)
                    total = perf_counter() - t0
                    inside = sum(self.end[i] - self.start[i] for i in range(mark, mark + n)) - plain
                    for arr in arrays:
                        del arr[mark:]
                    best[key] = min(best[key], (total - plain - inside) / n)
                    if key == "outside":
                        best["inside"] = min(best["inside"], inside / n)
        finally:
            self.active = was
            self.counts = counts
        self.cost = {k: max(v, 0.0) for k, v in best.items()}
        return self.cost

    def write(self, path) -> None:
        header = {"names": self.names, "count": len(self.start), "counts": self.counts,
                  "cost": self.cost, "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        return summarize(self.names, self.name_id, self.parent, self.start, self.end,
                         self.counts, self.cost)


def read(path, cost: dict | None = None) -> dict:
    """Summary of a span file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return summarize(header["names"], *arrays, header["counts"], cost or header["cost"])


def summarize(names, name_id, parent, start, end, counts, cost: dict) -> dict:
    """Calls and overhead-corrected self time per span name, and per root span.

    A span's self time is its duration less its children's durations, less
    the calibrated wrapper cost inside its own interval and outside each
    child's.  Parents always precede their children in the arrays, so one
    forward pass finds each span's root.
    """
    n = len(start)
    outside = [cost["outside_counted"] if name in COUNTED else cost["outside"] for name in names]
    child = [0.0] * n
    root = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i] + outside[name_id[i]]
            root[i] = root[p]
        else:
            root[i] = i
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_root: dict[str, float] = {}
    spans_by_root: dict[str, int] = {}
    for i in range(n):
        name = names[name_id[i]]
        s = end[i] - start[i] - child[i] - cost["inside"]
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        root_name = names[name_id[root[i]]]
        self_by_root[root_name] = self_by_root.get(root_name, 0.0) + s
        spans_by_root[root_name] = spans_by_root.get(root_name, 0) + 1
    return {"spans": n, "self_s": self_s, "calls": calls, "counts": dict(counts),
            "self_by_root": self_by_root, "spans_by_root": spans_by_root, "cost": cost}


def merge(summaries: list[dict]) -> dict:
    """Sum span summaries (one per traced process)."""
    out = {"spans": 0, "self_s": {}, "calls": {}, "counts": {}, "self_by_root": {}, "spans_by_root": {}}
    for s in summaries:
        out["spans"] += s["spans"]
        for key in ("self_s", "calls", "counts", "self_by_root", "spans_by_root"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
    out["cost"] = summaries[0]["cost"] if summaries else dict(NO_COST)
    return out


def _inc(counts: dict, key: str, v) -> None:
    counts[key] = counts.get(key, 0) + v


def install(tracer: Tracer) -> None:
    """Wrap ti2kit's public functions and rebind them wherever they are bound."""
    package = importlib.import_module("ti2kit")
    modules = {layer: importlib.import_module(f"ti2kit.{layer}") for layer in LAYERS}
    ti2core = modules["ti2core"]
    ti2_method, series = ti2core.ti2_method, ti2core.METHOD_SERIES  # unwrapped

    def count_ti2(counts, args, result):
        _inc(counts, "ti2core.ti2.series", ti2_method(args[0]) == series)

    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            count = count_ti2 if name == "ti2core.ti2" else None
            if name in _RESULT_COUNTS:
                key, get = _RESULT_COUNTS[name]
                count = lambda counts, args, result, key=key, get=get: _inc(counts, key, get(result))
            wrapped[obj] = tracer.wrap(name, obj, count)
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    report_cls = modules["report"].IdentityReport
    build = report_cls.__dict__["build"].__func__
    report_cls.build = classmethod(tracer.wrap("report.IdentityReport.build", build))
