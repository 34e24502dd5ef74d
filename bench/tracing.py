"""Span tracing for the benchmark's traced pass, kept outside the package.

The package imports its layers with ``from .x import f``, so a layer function
is reachable under several module-global names.  ``Tracer.install`` rebinds
every one of them in every loaded ``factorial2k`` module to a wrapper that
records a span; ``Tracer.uninstall`` restores the originals.  Methods are
patched on their class, which every caller reaches.

Spans are kept in memory as tuples and only aggregated (or written out) after
the workload ends.  Standard library only: the workload process must not
import numpy before its timed ``import factorial2k.cli``.
"""

import gzip
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

# (module, attribute, span name).  An attribute of the form "Class.method"
# is patched on the class.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("core", "ingest_csv", "core.ingest_csv"),
    ("core", "cell_summary", "core.cell_summary"),
    ("core", "AssignmentTable.__post_init__", "core.AssignmentTable"),
    ("contrasts", "contrast_matrix", "contrasts.contrast_matrix"),
    ("estimation", "effect_estimates", "estimation.effect_estimates"),
    ("estimation", "moment_estimates", "estimation.moment_estimates"),
    ("regression", "build_design", "regression.build_design"),
    ("regression", "ols_fit", "regression.ols_fit"),
    ("regression", "saturated_fit", "regression.saturated_fit"),
    ("regression", "unsaturated_fit", "regression.unsaturated_fit"),
    ("regression", "verify_omitted_relation", "regression.verify_omitted_relation"),
    ("regression", "omitted_algebra", "regression.omitted_algebra"),
    ("simulate", "observe", "simulate.observe"),
    ("simulate", "draw_assignment", "simulate.draw_assignment"),
    ("simulate", "enumerate_assignments", "simulate.enumerate_assignments"),
    ("simulate", "exact_expectations", "simulate.exact_expectations"),
    ("simulate", "monte_carlo", "simulate.monte_carlo"),
    ("weighting", "equal_scheme", "weighting.equal_scheme"),
    ("weighting", "empirical_scheme", "weighting.empirical_scheme"),
    ("weighting", "product_scheme", "weighting.product_scheme"),
    ("weighting", "WeightingScheme.marginal", "weighting.WeightingScheme.marginal"),
)

# enumerate_assignments returns a generator: its span is the time spent in
# each next(), so every step is one call.
GENERATORS = {"simulate.enumerate_assignments"}


def _attrs(name, fn, args, kwargs, result):
    """Counts recorded on a span at the layer boundary."""
    if name == "core.ingest_csv":
        return {"rows": result.N}
    if name == "contrasts.contrast_matrix":
        return {"entries": result.matrix.size}
    if name == "regression.ols_fit":
        n, p = args[0].shape
        return {"design_bytes": n * p * 8}
    if name == "simulate.monte_carlo":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return {
            "workers": bound.arguments["workers"],
            "reps": result.reps,
            "failures": result.failures,
        }
    return None


class Tracer:
    """Records (id, name, start, end, parent, request, thread, attrs) spans."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread inherits the span open on the thread that submitted
        # its work; the workload itself is a single closed-loop client.
        return self._main_stack[-1] if self._main_stack else None

    def _wrap(self, name, fn):
        tracer = self

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                return tracer._steps(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = tracer._parent(stack)
                stack.append(sid)
                result = failed = None
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException:
                    failed = True
                    raise
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    attrs = None if failed else _attrs(name, fn, args, kwargs, result)
                    tracer.spans.append(
                        (sid, name, start, end, parent, tracer.request,
                         threading.get_ident(), attrs)
                    )

        return wrapper

    def _steps(self, name, gen):
        while True:
            stack = self._stack()
            sid = next(self._ids)
            parent = self._parent(stack)
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = time.perf_counter()
                self.spans.append(
                    (sid, name, start, end, parent, self.request,
                     threading.get_ident(), None)
                )
            yield item

    def install(self):
        """Rebind every traced layer in every loaded factorial2k module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "factorial2k" or n.startswith("factorial2k.")]
        for module_name, attr, name in TARGETS:
            home = sys.modules["factorial2k." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name, start, end, parent, req, tid, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": req, "thread": tid,
                    "attrs": attrs,
                }) + "\n")


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = {}
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()), start, end)
        for sid, _, start, end, *_ in spans
    }


def layer_stats(spans, requests):
    """Per-layer calls and self time per request, and median span time."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    stats = {}
    for name, group in by_name.items():
        stats[name] = {
            "calls": len(group) / requests,
            "self_s": sum(own[s[0]] for s in group) / requests,
            "p50_s": statistics.median(s[3] - s[2] for s in group),
        }
    return stats, sum(own.values())
