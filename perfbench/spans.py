"""Spans recorded from outside ragsel, kept in memory until the run ends.

The benchmark wraps the objects it passes into ragsel (index, corpus,
backend) and its own direct calls to public functions. In a traced run it
may also rebind public module functions that a stage calls internally.
Nothing inside the package changes. A span is

    (name, start_ns, end_ns, parent, item, phase, ok)

where `parent` is the index of the enclosing span (-1 for a root), `item`
the QA id being processed (shared by every span of one item) and `phase` the
part of the run (setup, measure, replay, evaluate). A span's module is the
part of its name before the first dot.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.phase = "setup"

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        item, phase = self.item, self.phase
        self._stack.append(idx)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, item, phase, ok)

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "item", "phase", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def direct(_name: str, fn, *args, **kwargs):
    """The untraced stand-in for Tracer.call."""
    return fn(*args, **kwargs)


class TracedIndex:
    """Times `retrieve`; the query's QA id becomes the current item."""

    def __init__(self, index, tracer: Tracer, item_of: dict[str, str]):
        self._index = index
        self._tracer = tracer
        self._item_of = item_of

    def retrieve(self, query: str, top_k: int):
        self._tracer.item = self._item_of.get(query, self._tracer.item)
        return self._tracer.call("retrieval.retrieve", self._index.retrieve, query, top_k)

    def __getattr__(self, name):
        return getattr(self._index, name)


class TracedCorpus:
    def __init__(self, corpus, tracer: Tracer):
        self._corpus = corpus
        self._tracer = tracer

    def get(self, passage_id: str):
        return self._tracer.call("corpus.get", self._corpus.get, passage_id)

    def __getattr__(self, name):
        return getattr(self._corpus, name)


class TracedBackend:
    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self.tag = inner.tag

    def complete(self, request) -> str:
        return self._tracer.call(self._name, self._inner.complete, request)


@contextmanager
def rebound(tracer: Tracer, module, attr: str, item_of_first_arg=None):
    """Rebind `module.attr` to a traced wrapper for the duration."""
    original = getattr(module, attr)
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

    def wrapper(*args, **kwargs):
        if item_of_first_arg is not None:
            tracer.item = item_of_first_arg(args[0])
        return tracer.call(name, original, *args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Summary:
    """Per-name durations and self times of the spans in some phases."""

    def __init__(self, spans: list[tuple], phases: tuple[str, ...]):
        child_ns = [0] * len(spans)
        has_child: dict[int, set[str]] = defaultdict(set)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                has_child[parent].add(name)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.module_self_ns: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self._own: dict[str, list[int]] = defaultdict(list)
        self._leaf: dict[str, list[int]] = defaultdict(list)
        for idx, (name, start, end, parent, _item, phase, ok) in enumerate(spans):
            if phase not in phases:
                continue
            dur = end - start
            own = dur - child_ns[idx]
            self.durations[name].append(dur)
            self.self_ns[name] += own
            self.module_self_ns[name.split(".", 1)[0]] += own
            if not ok:
                self.failed[name] += 1
            if parent < 0:
                self.root_ns += dur
            if has_child[idx]:
                self._own[name].append(own)
            else:
                self._leaf[name].append(dur)

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_s(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def median_s(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) / 1e9 if values else 0.0

    def pct_s(self, name: str, q: float, which: str = "all") -> float:
        """Percentile q of span durations; `which` picks spans with children
        (their own time) or without children (their whole time)."""
        source = {"all": self.durations, "parents": self._own, "leaves": self._leaf}[which]
        values = sorted(source.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] / 1e9

    def leaf_count(self, name: str) -> int:
        return len(self._leaf.get(name, ()))

    def parent_count(self, name: str) -> int:
        return len(self._own.get(name, ()))
