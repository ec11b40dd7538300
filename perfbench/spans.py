"""In-memory span recorder for the traced benchmark run.

Wrappers are set on the module attributes that ncagm resolves at call time
(for example both ``ncagm.cli.solve`` and ``ncagm.sdp.solve``, because
``extract_farkas`` calls ``solve`` through its own module globals).  Each
call records a span (name, start, end, parent) plus counts taken at the
boundary.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# span name -> (module that defines the public function, attribute name)
BOUNDARIES = {
    "cli.main": ("ncagm.cli", "main"),
    "compiler.assemble": ("ncagm.compiler", "assemble_sdp"),
    "compiler.reduce": ("ncagm.compiler", "symmetry_reduce"),
    "sdp.solve": ("ncagm.sdp", "solve"),
    "sdp.farkas": ("ncagm.sdp", "extract_farkas"),
    "certify.farkas_check": ("ncagm.certify", "farkas_check"),
    "certify.build": ("ncagm.certify", "build_m2_certificate"),
    "certify.verify": ("ncagm.certify", "verify_sos"),
    "certify.psd_exact": ("ncagm.certify", "psd_check_exact"),
    "certify.expand": ("ncagm.certify", "expand_gram"),
}

# per-layer time metric -> span whose self time it sums
SELF_TIME_METRICS = {
    "sdp.solve_s": "sdp.solve",
    "sdp.farkas_self_s": "sdp.farkas",
    "compiler.assemble_s": "compiler.assemble",
    "compiler.reduce_s": "compiler.reduce",
    "certify.farkas_check_s": "certify.farkas_check",
    "certify.build_s": "certify.build",
    "certify.verify_s": "certify.verify",
    "certify.psd_exact_s": "certify.psd_exact",
    "certify.expand_s": "certify.expand",
    "cli.self_s": "cli.main",
}

# counts that must repeat exactly from pass to pass and run to run
EXACT_COUNTS = (
    "compiler.rows",
    "compiler.max_block",
    "compiler.unknowns",
    "sdp.solve_calls",
    "sdp.iterations",
)


def _solve_counts(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {
        "rows": problem.num_constraints,
        "max_block": max(problem.block_dims),
        "unknowns": problem.scalar_variable_count,
        "iterations": result.iterations,
        "status": result.status,
    }


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = None

    def to_json(self, origin):
        return {
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "counts": self.counts,
        }


class SpanRecorder:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = _solve_counts if name == "sdp.solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, stack[-1] if stack else None)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary; a public name that no longer exists is
        recorded in ``missing`` instead of raising."""
        self.missing = []
        for name, (home, attr) in BOUNDARIES.items():
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "ncagm" or mod_name.startswith("ncagm.")):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def take(self):
        """Return and clear the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - _covered(kids) for span, kids in zip(spans, children)]


def layer_metrics(spans, missing=()):
    """Per-layer metrics of one traced pass; metrics of a missing boundary
    are left out."""
    selfs = self_times(spans)
    totals = {}
    for span, own in zip(spans, selfs):
        totals[span.name] = totals.get(span.name, 0.0) + own
    absent = set(missing)
    metrics = {
        metric: totals.get(name, 0.0)
        for metric, name in SELF_TIME_METRICS.items()
        if name not in absent
    }
    if "sdp.solve" not in absent:
        calls = [s for s in spans if s.name == "sdp.solve"]
        # a solve that raised has no counts
        solves = [s.counts for s in calls if s.counts is not None]
        iterations = sum(c["iterations"] for c in solves)
        metrics.update({
            "sdp.solve_calls": len(calls),
            "sdp.iterations": iterations,
            "sdp.nonoptimal": sum(c["status"] != "optimal" for c in solves)
            + len(calls) - len(solves),
            "sdp.s_per_iter": metrics["sdp.solve_s"] / iterations if iterations else 0.0,
            "compiler.rows": sum(c["rows"] for c in solves),
            "compiler.max_block": max((c["max_block"] for c in solves), default=0),
            "compiler.unknowns": sum(c["unknowns"] for c in solves),
        })
    return metrics
