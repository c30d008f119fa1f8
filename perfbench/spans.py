"""Spans and call counters recorded around portcall's public functions.

Nothing here is inside the package: `Patches` swaps every reference a
``portcall`` module holds to a target function for a wrapper, and swaps the
original back on exit, so a call made through any module's namespace (for
example ``portcall.evaluation.classify_point``) reaches the wrapper.

`Tracer` makes two kinds of wrapper. A span records name, start, end and the
span that was open in the same thread when it started; a parent's self time is
its duration minus what its children cover. Calls that take only a few
microseconds (``embed``, ``similarity``, ``RouteState.push``) are aggregated
instead: their count and total time go into a per-thread counter, and their
time is charged to the open span as child time. Spans stay in memory until
`Tracer.reset`.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


def _portcall_modules() -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "portcall" or name.startswith("portcall."))]


class Patches:
    """Replaces portcall functions and methods; undoes every swap on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, module: Any, name: str, make: Callable[[Any], Any]) -> None:
        orig = getattr(module, name)
        new = make(orig)
        for mod in _portcall_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def method(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def undo(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.undo()


class Span:
    __slots__ = ("sid", "name", "parent", "t0", "t1", "child_ns")

    def __init__(self, sid: int, name: str, parent: "Span | None") -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.t0 = 0
        self.t1 = 0
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


class Tracer:
    """Collects spans and aggregated counters from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_totals: list[dict[str, list[int]]] = []
        # BallTree objects built and (tree, query) pairs seen while recording
        self.recording = False
        self.trees: list[Any] = []
        self.queries: list[tuple[Any, Any]] = []

    def _state(self) -> tuple[list[Span], dict[str, list[int]]]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            with self._lock:
                self._thread_totals.append(local.totals)
            return local.stack, local.totals

    def bump(self, name: str, ns: int = 0) -> None:
        """Count one call (or event) of ``name`` taking ``ns`` in this thread."""
        totals = self._state()[1]
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0]
        entry[0] += 1
        entry[1] += ns

    def span(self, name: str, observe: Callable[[tuple, Any], None] | None = None):
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._state()[0]
                rec = Span(next(self._ids), name, stack[-1] if stack else None)
                stack.append(rec)
                rec.t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.t1 = clock()
                    stack.pop()
                    if rec.parent is not None:
                        rec.parent.child_ns += rec.t1 - rec.t0
                    self.spans.append(rec)
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return make

    def aggregate(self, name: str):
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self.bump(name, dt)
                    stack = self._state()[0]
                    if stack:
                        stack[-1].child_ns += dt
            return wrapper
        return make

    def totals(self) -> dict[str, tuple[int, int]]:
        merged: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        with self._lock:
            for per_thread in self._thread_totals:
                for name, (calls, ns) in list(per_thread.items()):
                    merged[name][0] += calls
                    merged[name][1] += ns
        return {name: (calls, ns) for name, (calls, ns) in merged.items()}

    def reset(self) -> None:
        """Drop spans and counters; recorded trees and queries are kept."""
        self.spans = []
        with self._lock:
            for per_thread in self._thread_totals:
                per_thread.clear()

    def install(self, patches: Patches, pc: Any) -> None:
        """Wrap the public functions of every layer of the ``portcall`` package."""
        def on_tree(args: tuple, _result: Any) -> None:
            if self.recording:
                self.trees.append(args[0])

        def on_nearest(args: tuple, _result: Any) -> None:
            if self.recording:
                self.queries.append((args[0], args[1]))

        def on_prediction(_args: tuple, pred: Any) -> None:
            if pred.port != pred.raw_port:
                self.bump("classifier.smoothing_overrides")

        span, agg = self.span, self.aggregate
        patches.function(pc.ingest, "parse_ais_csv", span("ingest.parse_ais_csv"))
        patches.function(pc.routes, "partition_routes", span("routes.partition_routes"))
        patches.function(pc.routes, "enrich_route", span("routes.enrich_route"))
        patches.function(pc.embedding, "embed_arrays", span("embedding.embed_arrays"))
        patches.function(pc.embedding, "embed", agg("embedding.embed"))
        patches.method(pc.index.BallTree, "__init__", span("index.BallTree.__init__", on_tree))
        patches.method(pc.index.BallTree, "nearest", span("index.BallTree.nearest", on_nearest))
        patches.function(pc.classifier, "similarity", agg("classifier.similarity"))
        patches.method(pc.classifier.RouteState, "push", agg("classifier.RouteState.push"))
        patches.function(pc.classifier, "classify_point",
                         span("classifier.classify_point", on_prediction))
        patches.function(pc.classifier, "train", span("classifier.train"))
        patches.function(pc.evaluation, "score_route", span("evaluation.score_route"))
        patches.function(pc.tuner, "fitness", span("tuner.fitness"))

    def dump(self, path: str) -> None:
        """Write the spans as gzip JSON lines: id, parent id, name, start, end
        (ns from the earliest start)."""
        base_ns = min((s.t0 for s in self.spans), default=0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps([s.sid, s.parent.sid if s.parent else 0, s.name,
                                     s.t0 - base_ns, s.t1 - base_ns]) + "\n")


class Phase:
    """Per-name and per-layer figures of one traced phase (a setup or a pass)."""

    def __init__(self, tracer: Tracer) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_durations: dict[str, list[int]] = defaultdict(list)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        # (child name, parent name) -> [calls, ns]
        self.under: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        for s in tracer.spans:
            self.calls[s.name] += 1
            self.total_ns[s.name] += s.ns
            self.durations[s.name].append(s.ns)
            self.self_durations[s.name].append(s.ns - s.child_ns)
            self.layer_self_ns[layer_of(s.name)] += s.ns - s.child_ns
            if s.parent is not None:
                entry = self.under[(s.name, s.parent.name)]
                entry[0] += 1
                entry[1] += s.ns
        for name, (calls, ns) in tracer.totals().items():
            self.calls[name] += calls
            self.total_ns[name] += ns
            self.layer_self_ns[layer_of(name)] += ns

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def median_us(phases: list[Phase], name: str, own: bool = False) -> float:
    """Median per-call duration (or self time) over the spans of all phases."""
    values = [ns for ph in phases
              for ns in (ph.self_durations if own else ph.durations).get(name, [])]
    return statistics.median(values) / 1e3 if values else 0.0
